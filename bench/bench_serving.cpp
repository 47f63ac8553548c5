// Measures the online inference engine against the trainer scoring path:
// (1) per-pair scoring cost — full-autograd RecModel::Score vs the frozen
// ScoreEngine in exact and fast modes (30-item candidate pools, the A/B
// harness's retrieval size); (2) end-to-end top-K retrieval latency and
// throughput through a ClusterServer over a 1-shard fast-mode
// ShardedSnapshot at batch sizes 1 / 8 / 64, read from the server's
// cluster.latency_ms.interactive histogram (bucket-interpolated p50/p99,
// exact mean and max).
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/nmcdr_model.h"
#include "data/presets.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serving/cluster/cluster_server.h"
#include "serving/cluster/shard_layout.h"
#include "serving/cluster/sharded_snapshot.h"
#include "serving/model_snapshot.h"
#include "serving/score_engine.h"
#include "train/experiment.h"
#include "util/csv_writer.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace nmcdr {
namespace {

constexpr int kCandidatePool = 30;

struct PairCost {
  std::string path;
  double ns_per_pair = 0.0;
};

/// Mean per-pair cost of `score`, called with kCandidatePool-item batches
/// until `min_seconds` of work has accumulated.
template <typename ScoreFn>
double MeasurePairCost(const CdrScenario& scenario, ScoreFn score,
                       double min_seconds) {
  std::vector<int> candidates(kCandidatePool);
  for (int i = 0; i < kCandidatePool; ++i) {
    candidates[i] = i % scenario.z.num_items;
  }
  // Warm-up (fills model caches so the loop measures steady state).
  score(0, candidates);
  Stopwatch timer;
  int64_t pairs = 0;
  int user = 0;
  while (timer.ElapsedSeconds() < min_seconds) {
    score(user, candidates);
    pairs += kCandidatePool;
    user = (user + 1) % scenario.z.num_users;
  }
  return timer.ElapsedSeconds() * 1e9 / static_cast<double>(pairs);
}

struct BatchResult {
  int batch_size = 0;
  int64_t requests = 0;
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  double throughput = 0.0;
};

/// Drives a fresh server with waves of `batch_size` concurrent
/// interactive requests.
BatchResult MeasureServer(
    const std::shared_ptr<const cluster::ShardedSnapshot>& snapshot,
    const CdrScenario& scenario, int batch_size, int waves) {
  cluster::ClusterServer::Options options;
  options.num_threads = 4;
  options.max_batch = batch_size;
  cluster::ClusterServer server(snapshot, options);
  Stopwatch timer;
  for (int w = 0; w < waves; ++w) {
    std::vector<std::future<cluster::ClusterResponse>> futures;
    futures.reserve(batch_size);
    for (int i = 0; i < batch_size; ++i) {
      cluster::ClusterRequest request;
      request.rec.target_domain = i % 2;
      request.rec.user_domain = request.rec.target_domain;
      request.rec.user =
          (w * batch_size + i) % (request.rec.target_domain == 0
                                      ? scenario.z.num_users
                                      : scenario.zbar.num_users);
      request.rec.k = 10;
      futures.push_back(server.Submit(std::move(request)));
    }
    for (auto& future : futures) future.get();
  }
  const double seconds = timer.ElapsedSeconds();
  server.Stop();
  obs::MetricsRegistry& metrics = server.metrics_registry();
  const obs::Histogram& latency =
      metrics.GetLatencyHistogram("cluster.latency_ms.interactive");
  BatchResult result;
  result.batch_size = batch_size;
  result.requests = metrics.GetCounter("cluster.served.interactive").Value();
  result.mean_latency_ms = latency.Mean();
  result.p50_latency_ms = latency.Quantile(0.50);
  result.p99_latency_ms = latency.Quantile(0.99);
  result.max_latency_ms = latency.Max();
  result.throughput = static_cast<double>(result.requests) / seconds;
  return result;
}

int Run() {
  const BenchScale scale = BenchScaleFromEnv();
  std::printf("bench_serving (scale: %s)\n", BenchScaleName(scale).c_str());

  ExperimentData data(GenerateScenario(LoanFundSpec(scale)), /*seed=*/17);
  NmcdrConfig config;
  config.hidden_dim = scale == BenchScale::kSmoke ? 8 : 16;
  NmcdrModel model(data.View(), config, /*seed=*/42, 1e-3f);
  TrainConfig train = bench::DefaultTrainConfig(scale);
  Trainer trainer(data.View(), train);
  trainer.Train(&model);

  ModelSnapshot snapshot;
  if (!ModelSnapshot::FreezePair(&model, data.scenario(), &snapshot)) {
    std::fprintf(stderr, "freeze failed\n");
    return 1;
  }
  ScoreEngine exact(&snapshot, {ScoreEngine::Mode::kExact, 256});
  ScoreEngine fast(&snapshot, {ScoreEngine::Mode::kFast, 256});

  const double min_seconds = scale == BenchScale::kSmoke ? 0.05 : 0.3;
  const CdrScenario& scenario = data.scenario();
  std::vector<PairCost> costs;
  costs.push_back(
      {"autograd Score()",
       MeasurePairCost(
           scenario,
           [&](int user, const std::vector<int>& items) {
             model.Score(DomainSide::kZ,
                         std::vector<int>(items.size(), user), items);
           },
           min_seconds)});
  costs.push_back(
      {"snapshot exact",
       MeasurePairCost(
           scenario,
           [&](int user, const std::vector<int>& items) {
             exact.ScoreCandidates(0, user, items);
           },
           min_seconds)});
  costs.push_back(
      {"snapshot fast",
       MeasurePairCost(
           scenario,
           [&](int user, const std::vector<int>& items) {
             fast.ScoreCandidates(0, user, items);
           },
           min_seconds)});

  TablePrinter pair_table;
  pair_table.SetHeader({"Scoring path", "ns/pair", "speedup"});
  for (const PairCost& cost : costs) {
    pair_table.AddRow({cost.path, FormatFloat(cost.ns_per_pair, 1),
                       FormatFloat(costs[0].ns_per_pair / cost.ns_per_pair, 2) +
                           "x"});
  }
  std::printf("\nPer-pair scoring cost (%d-item candidate pools)\n%s",
              kCandidatePool, pair_table.ToString().c_str());

  const int waves = scale == BenchScale::kSmoke ? 20 : 200;
  cluster::ShardedSnapshot::Options sharded_options;
  sharded_options.mode = ScoreEngine::Mode::kFast;
  const auto sharded = std::make_shared<const cluster::ShardedSnapshot>(
      snapshot, cluster::ShardLayout::Uniform(snapshot, 1), sharded_options);
  std::vector<BatchResult> batches;
  for (int batch_size : {1, 8, 64}) {
    batches.push_back(MeasureServer(sharded, scenario, batch_size, waves));
  }
  TablePrinter batch_table;
  batch_table.SetHeader({"Batch", "Requests", "Mean lat (ms)", "p50 (ms)",
                         "p99 (ms)", "Max lat (ms)", "Req/s"});
  for (const BatchResult& b : batches) {
    batch_table.AddRow({std::to_string(b.batch_size),
                        std::to_string(b.requests),
                        FormatFloat(b.mean_latency_ms, 3),
                        FormatFloat(b.p50_latency_ms, 3),
                        FormatFloat(b.p99_latency_ms, 3),
                        FormatFloat(b.max_latency_ms, 3),
                        FormatFloat(b.throughput, 0)});
  }
  std::printf("\nClusterServer top-10 retrieval (1 shard, 4 threads)\n%s",
              batch_table.ToString().c_str());

  CsvWriter csv("serving_perf.csv");
  if (csv.ok()) {
    csv.WriteRow({"section", "label", "ns_per_pair", "speedup",
                  "mean_latency_ms", "max_latency_ms", "throughput"});
    for (const PairCost& cost : costs) {
      csv.WriteRow({"pair_cost", cost.path, FormatFloat(cost.ns_per_pair, 1),
                    FormatFloat(costs[0].ns_per_pair / cost.ns_per_pair, 3),
                    "", "", ""});
    }
    for (const BatchResult& b : batches) {
      csv.WriteRow({"server", "batch=" + std::to_string(b.batch_size), "", "",
                    FormatFloat(b.mean_latency_ms, 4),
                    FormatFloat(b.max_latency_ms, 4),
                    FormatFloat(b.throughput, 1)});
    }
    std::printf("\nwrote serving_perf.csv\n");
  }

  // Machine-readable summary for the CI perf-gate (gates the *_p99_ms
  // gauges against bench/baselines/serving_baseline.json).
  obs::MetricsRegistry summary;
  for (const PairCost& cost : costs) {
    std::string key = cost.path == "autograd Score()" ? "autograd"
                      : cost.path == "snapshot exact" ? "exact"
                                                      : "fast";
    summary.GetGauge("serving.pair_cost." + key + ".ns_per_pair")
        .Set(cost.ns_per_pair);
  }
  for (const BatchResult& b : batches) {
    const std::string prefix =
        "serving.batch" + std::to_string(b.batch_size) + ".";
    summary.GetGauge(prefix + "p50_ms").Set(b.p50_latency_ms);
    summary.GetGauge(prefix + "p99_ms").Set(b.p99_latency_ms);
    summary.GetGauge(prefix + "mean_ms").Set(b.mean_latency_ms);
    summary.GetGauge(prefix + "qps").Set(b.throughput);
  }
  if (!obs::WriteJsonFile("BENCH_serving.json", summary)) return 1;
  std::printf("wrote BENCH_serving.json\n");
  return 0;
}

}  // namespace
}  // namespace nmcdr

int main() { return nmcdr::Run(); }
