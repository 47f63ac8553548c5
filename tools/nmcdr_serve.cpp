// nmcdr_serve — end-to-end serving demo: train NMCDR on a synthetic
// two-domain scenario, freeze it into a snapshot file, reload the file,
// and serve a concurrent request mix through the ClusterServer.
//
//   nmcdr_serve [--scenario loan-fund] [--scale smoke|small|full]
//               [--steps 600] [--dim 16] [--seed 7]
//               [--snapshot model.snapshot] [--load-only] [--threads 4]
//               [--batch 8] [--requests 400] [--k 10]
//               [--mode exact|fast|quantized] [--shards 1]
//               [--layout layout.json] [--metrics-out metrics.json]
//               [--profile]
//
// The tool prints the served count, then each request class's counts and
// latency quantiles from the server's cluster.* metrics, and leaves the
// snapshot file on disk so a later run can be pointed at it (skipping
// training) with --load-only.
//
// The snapshot is partitioned by a uniform ShardLayout into --shards N
// shards (default 1: the whole snapshot in one shard), published through
// a SnapshotRegistry, and the request mix is driven through the
// ClusterServer's admission queue (every 4th request in the batch class,
// the rest interactive). The tool submits every request before it reads
// a response, so each class queue is sized to hold all of --requests and
// nothing is shed. --layout PATH loads a declarative
// NMCDR_SHARD_LAYOUT_V1 JSON instead of the uniform split; it must
// Validate against the snapshot, and its shard count wins over --shards.
//
// --threads N (default 4) sizes both the shared pool the serving path
// fans out over (without the flag: NMCDR_THREADS or all cores) and the
// server's concurrent drainer limit; --batch N caps the requests a
// drainer scores per pass. Training runs on the calling thread either
// way. --threads, --batch, --k and --shards must be positive, --requests
// non-negative, --scale one of smoke, small and full, and every flag one
// the tool reads: the tool rejects anything else with exit code 2 before
// training.
//
// --mode quantized exercises the per-row int8 artifact
// (serving/quantized_snapshot.h): the tool quantizes the snapshot's item
// tables, saves them next to the snapshot (<snapshot>.quant), reloads the
// file and checks it equals what was saved. The cluster then serves its
// own slice-by-slice quantization of the same rows, which is
// bit-identical to the monolithic quantized engine at any shard count
// (QuantizedClusterTest). Ranking agreement vs exact is reported by
// bench_quant and gated in CI.
//
// --metrics-out PATH writes the full observability dump (schema
// NMCDR_OBS_V1, src/obs/export.h): trainer epoch spans, per-kernel call
// counts + FLOP estimates, and the server's cluster.* counters and
// per-class latency histograms with p50/p95/p99 (the server records into
// the global registry here). The dump is flushed on EVERY exit path,
// including early failures, so a crashed run still leaves its partial
// metrics behind for diagnosis. --profile additionally enables per-op /
// per-kernel wall-clock timing for this run.

#include <algorithm>
#include <cstdio>
#include <future>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/nmcdr_model.h"
#include "data/presets.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serving/cluster/cluster_server.h"
#include "serving/cluster/shard_layout.h"
#include "serving/cluster/sharded_snapshot.h"
#include "serving/model_snapshot.h"
#include "serving/quantized_snapshot.h"
#include "serving/score_engine.h"
#include "train/experiment.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nmcdr {
namespace {

/// Names the first flag that `known` does not list and returns false:
/// a typo or a removed option must fail the run, not silently serve a
/// configuration nobody asked for.
bool OnlyKnownFlags(const FlagParser& flags,
                    std::initializer_list<std::string_view> known) {
  for (const std::string& name : flags.FlagNames()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "--%s: unknown flag\n", name.c_str());
      return false;
    }
  }
  return true;
}

/// Parses a --scale value; an unknown one is named on stderr.
bool ParseScale(const std::string& name, BenchScale* scale) {
  for (const BenchScale candidate :
       {BenchScale::kSmoke, BenchScale::kSmall, BenchScale::kFull}) {
    if (BenchScaleName(candidate) == name) {
      *scale = candidate;
      return true;
    }
  }
  std::fprintf(stderr, "--scale %s: unknown (smoke, small, full)\n",
               name.c_str());
  return false;
}

/// Flushes the --metrics-out dump on every exit path. The early `return
/// 1` failure paths (unreadable snapshot, freeze/save errors) used to
/// skip the flush, losing exactly the metrics needed to diagnose the
/// failure; scope-exit semantics make skipping impossible. Call Flush()
/// on the success path to surface write errors in the exit code; the
/// destructor's flush is the best-effort backstop for everything else.
class MetricsFlusher {
 public:
  explicit MetricsFlusher(std::string path) : path_(std::move(path)) {}
  ~MetricsFlusher() {
    if (!flushed_) Flush();
  }
  MetricsFlusher(const MetricsFlusher&) = delete;
  MetricsFlusher& operator=(const MetricsFlusher&) = delete;

  bool Flush() {
    flushed_ = true;
    if (path_.empty()) return true;
    if (!obs::WriteJsonFile(path_)) return false;
    std::printf("wrote metrics dump to %s\n", path_.c_str());
    return true;
  }

 private:
  std::string path_;
  bool flushed_ = false;
};

bool PresetByName(const std::string& name, BenchScale scale,
                  SyntheticScenarioSpec* spec) {
  for (const SyntheticScenarioSpec& candidate : AllScenarioSpecs(scale)) {
    std::string key = candidate.name;
    for (char& c : key) c = c == ' ' ? '-' : static_cast<char>(tolower(c));
    if (key == name) {
      *spec = candidate;
      return true;
    }
  }
  return false;
}

/// Prints one request class's counts and latency quantiles from the
/// server's cluster.* metrics.
void PrintClassStats(obs::MetricsRegistry& metrics, cluster::RequestClass cls) {
  const std::string name = cluster::RequestClassName(cls);
  const obs::Histogram& latency =
      metrics.GetLatencyHistogram("cluster.latency_ms." + name);
  std::printf(
      "  %-11s submitted %lld, served %lld, shed %lld (queue full) + %lld "
      "(deadline); latency ms: mean %.3f, p50 %.3f, p95 %.3f, p99 %.3f, "
      "max %.3f\n",
      name.c_str(),
      static_cast<long long>(
          metrics.GetCounter("cluster.submitted." + name).Value()),
      static_cast<long long>(
          metrics.GetCounter("cluster.served." + name).Value()),
      static_cast<long long>(
          metrics.GetCounter("cluster.shed_queue_full." + name).Value()),
      static_cast<long long>(
          metrics.GetCounter("cluster.shed_deadline." + name).Value()),
      latency.Mean(), latency.Quantile(0.50), latency.Quantile(0.95),
      latency.Quantile(0.99), latency.Max());
}

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("profile", false)) obs::SetProfilingEnabled(true);
  MetricsFlusher metrics_flusher(flags.GetString("metrics-out", ""));
  // Flag validation before the (seconds-long) train/freeze work below.
  if (!OnlyKnownFlags(flags, {"scenario", "scale", "steps", "dim", "seed",
                              "snapshot", "load-only", "threads", "batch",
                              "requests", "k", "mode", "shards", "layout",
                              "metrics-out", "profile"})) {
    return 2;
  }
  const int num_threads = flags.GetInt("threads", 4);
  const int max_batch = flags.GetInt("batch", 8);
  const int k = flags.GetInt("k", 10);
  const int num_requests = flags.GetInt("requests", 400);
  const int num_shards = flags.GetInt("shards", 1);
  for (const auto& [name, value, min] :
       {std::tuple{"threads", num_threads, 1},
        std::tuple{"batch", max_batch, 1}, std::tuple{"k", k, 1},
        std::tuple{"requests", num_requests, 0},
        std::tuple{"shards", num_shards, 1}}) {
    if (value < min) {
      std::fprintf(stderr, "--%s %d: must be at least %d\n", name, value,
                   min);
      return 2;
    }
  }
  BenchScale scale;
  if (!ParseScale(flags.GetString("scale", "smoke"), &scale)) return 2;
  if (flags.Has("threads")) ThreadPool::SetSharedThreads(num_threads);
  cluster::ShardedSnapshot::Options sharded_options;
  const std::string mode_name = flags.GetString("mode", "fast");
  if (mode_name == "exact") {
    sharded_options.mode = ScoreEngine::Mode::kExact;
  } else if (mode_name == "quantized") {
    sharded_options.mode = ScoreEngine::Mode::kQuantized;
  } else if (mode_name == "fast") {
    sharded_options.mode = ScoreEngine::Mode::kFast;
  } else {
    std::fprintf(stderr, "--mode %s: unknown (exact, fast, quantized)\n",
                 mode_name.c_str());
    return 2;
  }
  const std::string snapshot_path =
      flags.GetString("snapshot", "model.snapshot");
  ModelSnapshot snapshot;

  if (flags.GetBool("load-only", false)) {
    if (!ModelSnapshot::Load(snapshot_path, &snapshot)) return 1;
    std::printf("loaded %s (%d domains, %d persons)\n", snapshot_path.c_str(),
                snapshot.num_domains(), snapshot.num_persons());
  } else {
    SyntheticScenarioSpec spec;
    if (!PresetByName(flags.GetString("scenario", "loan-fund"), scale,
                      &spec)) {
      std::fprintf(stderr, "unknown scenario (try loan-fund, music-movie)\n");
      return 2;
    }
    ExperimentData data(GenerateScenario(spec), /*seed=*/17);
    NmcdrConfig config;
    config.hidden_dim = flags.GetInt("dim", 16);
    NmcdrModel model(data.View(), config,
                     static_cast<uint64_t>(flags.GetInt("seed", 7)), 1e-3f);
    TrainConfig train;
    train.min_total_steps = flags.GetInt("steps", 600);
    Trainer trainer(data.View(), train);
    const TrainSummary summary = trainer.Train(&model);
    std::printf("trained %s: %d epochs, %.1fs, final loss %.4f\n",
                spec.name.c_str(), summary.epochs_run, summary.train_seconds,
                summary.final_loss);

    if (!ModelSnapshot::FreezePair(&model, data.scenario(), &snapshot)) {
      return 1;
    }
    if (!snapshot.Save(snapshot_path)) return 1;
    // Serve from the reloaded file, proving the on-disk snapshot is the
    // deployable artifact (Save/Load round-trips bit-exactly).
    ModelSnapshot reloaded;
    if (!ModelSnapshot::Load(snapshot_path, &reloaded)) return 1;
    if (!snapshot.Equals(reloaded)) {
      std::fprintf(stderr, "snapshot round-trip mismatch\n");
      return 1;
    }
    snapshot = std::move(reloaded);
    std::printf("froze + saved %s\n", snapshot_path.c_str());
  }

  // The int8 artifact round trip: quantize, save, reload, compare. The
  // cluster below quantizes its own slices of the same rows, bit-identical
  // to these tables.
  if (sharded_options.mode == ScoreEngine::Mode::kQuantized) {
    const std::string quant_path = snapshot_path + ".quant";
    const QuantizedSnapshot quantized = QuantizedSnapshot::Quantize(snapshot);
    if (!quantized.Save(quant_path)) return 1;
    QuantizedSnapshot reloaded;
    std::string error;
    if (!QuantizedSnapshot::Load(quant_path, &reloaded, &error)) {
      std::fprintf(stderr, "reload %s: %s\n", quant_path.c_str(),
                   error.c_str());
      return 1;
    }
    if (!quantized.Equals(reloaded)) {
      std::fprintf(stderr, "quantized artifact round-trip mismatch\n");
      return 1;
    }
    std::printf("quantized + saved %s (int8 item tables, %d domains)\n",
                quant_path.c_str(), reloaded.num_domains());
  }

  cluster::ShardLayout layout;
  const std::string layout_path = flags.GetString("layout", "");
  if (!layout_path.empty()) {
    std::string error;
    if (!cluster::ShardLayout::Load(layout_path, &layout, &error)) {
      std::fprintf(stderr, "--layout %s: %s\n", layout_path.c_str(),
                   error.c_str());
      return 2;
    }
    if (!layout.Validate(snapshot, &error)) {
      std::fprintf(stderr, "--layout %s does not match the snapshot: %s\n",
                   layout_path.c_str(), error.c_str());
      return 2;
    }
  } else {
    layout = cluster::ShardLayout::Uniform(snapshot, num_shards);
  }
  const auto sharded = std::make_shared<const cluster::ShardedSnapshot>(
      snapshot, layout, sharded_options);

  cluster::ClusterServer::Options server_options;
  server_options.num_threads = num_threads;
  server_options.max_batch = max_batch;
  // Every request is queued before the first response is read, so each
  // class queue must hold them all.
  server_options.admission.interactive_capacity =
      std::max(server_options.admission.interactive_capacity, num_requests);
  server_options.admission.batch_capacity =
      std::max(server_options.admission.batch_capacity, num_requests);
  // Bind the server to the global registry so its cluster.* metrics land
  // in the --metrics-out dump alongside the trainer and kernel tables.
  server_options.metrics = &obs::MetricsRegistry::Global();
  cluster::ClusterServer server(sharded, server_options);

  // Mixed request stream: same-domain traffic for both domains plus a
  // cross-domain slice (domain-1 users asking for domain-0 items, served
  // cold-start when the identity link is unknown).
  Stopwatch wall;
  std::vector<std::future<cluster::ClusterResponse>> futures;
  futures.reserve(num_requests);
  for (int i = 0; i < num_requests; ++i) {
    cluster::ClusterRequest request;
    request.cls = i % 4 == 1 ? cluster::RequestClass::kBatch
                             : cluster::RequestClass::kInteractive;
    if (i % 4 == 3 && snapshot.num_domains() >= 2) {
      request.rec.target_domain = 0;
      request.rec.user_domain = 1;
    } else {
      request.rec.target_domain = request.rec.user_domain =
          i % snapshot.num_domains();
    }
    request.rec.user =
        i % snapshot.domain(request.rec.user_domain).num_users();
    request.rec.k = k;
    futures.push_back(server.Submit(std::move(request)));
  }
  int64_t served = 0;
  int64_t cold = 0;
  for (auto& future : futures) {
    const cluster::ClusterResponse response = future.get();
    if (response.status != cluster::ClusterStatus::kOk) continue;
    ++served;
    if (response.rec.cold_start) ++cold;
  }
  const double seconds = wall.ElapsedSeconds();
  server.Stop();

  std::printf(
      "\nserved %lld/%d top-%d requests (%lld cold-start) over %d shard%s, "
      "snapshot v%lld\n",
      static_cast<long long>(served), num_requests, k,
      static_cast<long long>(cold), layout.num_shards,
      layout.num_shards == 1 ? "" : "s",
      static_cast<long long>(server.last_observed_version()));
  for (const cluster::RequestClass cls :
       {cluster::RequestClass::kInteractive, cluster::RequestClass::kBatch}) {
    PrintClassStats(server.metrics_registry(), cls);
  }
  std::printf("  throughput  %.0f req/s over %.3f s\n",
              seconds > 0.0 ? static_cast<double>(served) / seconds : 0.0,
              seconds);
  return metrics_flusher.Flush() ? 0 : 1;
}

}  // namespace
}  // namespace nmcdr

int main(int argc, char** argv) { return nmcdr::Run(argc, argv); }
