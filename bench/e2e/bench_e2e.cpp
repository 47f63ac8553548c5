// bench_e2e — the end-to-end train → freeze → serve benchmark program.
//
// One process runs one workload at one seed, prints a readable report and
// ends with one JSON line (the last line of stdout) that bench/e2e/run.py
// turns into the benchmark result. Workloads (bench/e2e/README.md gives
// the reasons behind each):
//
//   train        NMCDR on the Music-Movie preset through Trainer::Train,
//                then test-split evaluations; no serving code runs.
//   pipeline     Loan-Fund preset: generate → ExperimentData → train →
//                FreezePair → Save/Load → 1-shard ShardedSnapshot →
//                ClusterServer, then open- and closed-loop traffic.
//   serve-large  ClusterServer over a 2 × 200k-user × 20k-item synthetic
//                snapshot in 4 shards: scoring dominates each request.
//   serve-mixed  the same shape with 2k items, bursty interactive/batch
//                traffic and a Publish every 2 s: the front end dominates.
//
// Every input — scenario, snapshot tables, arrival schedule, request
// contents — is a pure function of --seed and is built before timing
// starts. The end-to-end numbers always come from an untraced pass;
// --trace 1 adds the per-layer probes and a traced repeat of the main
// pass, whose ratio to the untraced one is the tracing overhead.
//
// Usage:
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--tmp DIR]
//   bench_e2e --self-test

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/optimizer.h"
#include "core/complementing.h"
#include "core/hetero_encoder.h"
#include "core/inter_matching.h"
#include "core/intra_matching.h"
#include "core/nmcdr_config.h"
#include "core/prediction.h"
#include "core/rec_model.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "graph/sampling.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serving/cluster/cluster_server.h"
#include "serving/cluster/shard_layout.h"
#include "serving/cluster/sharded_snapshot.h"
#include "serving/model_snapshot.h"
#include "serving/score_engine.h"
#include "serving/scoring_kernels.h"
#include "tensor/rng.h"
#include "train/experiment.h"
#include "train/registry.h"
#include "train/trainer.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nmcdr {
namespace e2e {
namespace {

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile: the sample of 1-based rank ceil(q·n) in sorted
/// order. With n >= 1000 samples at least 10 lie beyond the p99.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double exact = q * static_cast<double>(values.size());
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// Tail latency robust to rare machine stalls: `samples` (in send order)
/// are cut into consecutive windows of at least kWindow samples, so each
/// window's p99 has ten samples beyond it, and the median of the window
/// p99s is returned. A stall inflates the window it falls in, not the
/// result; a slow path hit by a steady share of requests moves every
/// window. Fewer than 2·kWindow samples give the plain p99.
double WindowedP99(const std::vector<double>& samples) {
  constexpr size_t kWindow = 1000;
  const size_t windows = samples.size() / kWindow;
  if (windows < 2) return Percentile(samples, 0.99);
  std::vector<double> p99s;
  p99s.reserve(windows);
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + static_cast<ptrdiff_t>(w * kWindow);
    const auto end = w + 1 == windows
                         ? samples.end()
                         : begin + static_cast<ptrdiff_t>(kWindow);
    p99s.push_back(Percentile(std::vector<double>(begin, end), 0.99));
  }
  return Median(p99s);
}

double MaxOf(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::max_element(values.begin(), values.end());
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(obs::NowNs() - start_ns) * 1e-6;
}

/// VmHWM of this process: the peak resident set since it started.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The shared pool size every workload uses: one core of at most four is
/// left to the single-threaded load generator.
int PoolThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(std::max(hw, 1), 4) - 1);
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

/// Everything one run reports: metrics by name, the correctness verdict
/// and the generator-validity flag.
struct Result {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;
  std::vector<std::string> warnings;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1) {
    if (!std::isfinite(value)) {
      failures.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics[name] = Metric{value, unit, samples};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const std::string& workload, int seed, double seconds,
                 bool trace, const Result& r) {
  std::printf("\n%-44s %16s  %-6s %s\n", "metric", "value", "unit",
              "samples");
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-44s %16.6g  %-6s %lld\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  for (const std::string& w : r.warnings) {
    std::printf("WARNING: %s\n", w.c_str());
  }
  for (const std::string& f : r.failures) {
    std::printf("FAIL: %s\n", f.c_str());
  }
  std::string json = "{\"workload\": " + JsonString(workload) +
                     ", \"seed\": " + std::to_string(seed) +
                     ", \"seconds\": " + JsonNumber(seconds) +
                     ", \"trace\": " + (trace ? "1" : "0") +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"pool_threads\": " +
                     std::to_string(ThreadPool::SharedThreads()) +
                     ", \"correct\": " +
                     (r.failures.empty() ? "true" : "false") +
                     ", \"valid\": " + (r.warnings.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"failures\": [";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonString(r.failures[i]);
  }
  json += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    json += (first ? "" : ", ") + JsonString(name) +
            ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"n\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Arrival schedules and request plans
// ---------------------------------------------------------------------------

/// Open-loop Poisson arrival offsets (ns from the start of the load) for
/// `seconds` of traffic whose rate cycles through `rates`, each rate held
/// for `phase_s`. Gaps restart at every phase boundary, which is exact for
/// a Poisson process (it is memoryless). A pure function of `seed`.
std::vector<int64_t> PoissonSchedule(uint64_t seed,
                                     const std::vector<double>& rates,
                                     double phase_s, double seconds) {
  Rng rng(seed);
  double mean_rate = 0.0;
  for (const double r : rates) mean_rate += r / static_cast<double>(rates.size());
  std::vector<int64_t> at;
  at.reserve(static_cast<size_t>(mean_rate * seconds * 1.2) + 16);
  double t = 0.0;
  for (int64_t phase = 0; t < seconds; ++phase) {
    const double end =
        std::min(seconds, static_cast<double>(phase + 1) * phase_s);
    const double rate = rates[static_cast<size_t>(phase) % rates.size()];
    for (;;) {
      const double gap = -std::log(1.0 - rng.UniformDouble()) / rate;
      if (t + gap >= end) break;
      t += gap;
      at.push_back(std::llround(t * 1e9));
    }
    t = end;
  }
  return at;
}

/// `count` distinct ids from [0, n) by rejection (count is far below n).
std::vector<int> DistinctIds(int n, int count, Rng* rng) {
  std::vector<int> ids;
  ids.reserve(count);
  while (static_cast<int>(ids.size()) < count) {
    const int id = static_cast<int>(rng->NextUint64(n));
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  return ids;
}

/// Share of requests whose user comes from the other domain (served by the
/// cross-domain path when the user has no link into the target domain).
constexpr double kCrossDomainShare = 0.2;

/// Shape of the traffic a serving workload offers.
struct TrafficSpec {
  std::vector<double> rates;  // req/s, cycled
  double phase_s = 1.0;       // how long each rate holds
  double interactive = 1.0;   // share of interactive-class requests
  int max_exclusions = 0;     // synthetic catalogs: 0..max random items
  double publish_every_s = 0.0;
};

/// Draws one request. `train_items(domain, user)` (optional) lists items a
/// same-domain request excludes; otherwise 0..max_exclusions random items.
using ExcludeFn = std::function<std::vector<int>(int domain, int user)>;

cluster::ClusterRequest DrawRequest(const ModelSnapshot& snapshot,
                                    const TrafficSpec& traffic,
                                    const ExcludeFn& train_items, Rng* rng) {
  cluster::ClusterRequest request;
  const int domains = snapshot.num_domains();
  RecRequest& rec = request.rec;
  rec.target_domain = static_cast<int>(rng->NextUint64(domains));
  rec.user_domain = rng->Bernoulli(kCrossDomainShare)
                        ? (rec.target_domain + 1) % domains
                        : rec.target_domain;
  rec.user = static_cast<int>(
      rng->NextUint64(snapshot.domain(rec.user_domain).num_users()));
  rec.k = 10;
  const int num_items = snapshot.domain(rec.target_domain).num_items();
  if (train_items) {
    if (rec.user_domain == rec.target_domain) {
      rec.exclude = train_items(rec.target_domain, rec.user);
    }
  } else if (traffic.max_exclusions > 0) {
    const int count = static_cast<int>(
        rng->UniformInt(0, std::min(traffic.max_exclusions, num_items - 1)));
    rec.exclude = DistinctIds(num_items, count, rng);
  }
  request.cls = rng->Bernoulli(traffic.interactive)
                    ? cluster::RequestClass::kInteractive
                    : cluster::RequestClass::kBatch;
  return request;
}

std::vector<cluster::ClusterRequest> DrawRequests(
    const ModelSnapshot& snapshot, const TrafficSpec& traffic,
    const ExcludeFn& train_items, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<cluster::ClusterRequest> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    requests.push_back(DrawRequest(snapshot, traffic, train_items, &rng));
  }
  return requests;
}

// ---------------------------------------------------------------------------
// Load generation against a ClusterServer
// ---------------------------------------------------------------------------

/// The snapshot versions a server may serve during a run: slot 0 is
/// published at construction, later Publish calls cycle through the slots.
/// The unsharded sources back the reference checks.
struct Versions {
  std::vector<const ModelSnapshot*> sources;
  std::vector<std::shared_ptr<const cluster::ShardedSnapshot>> sharded;
  std::vector<std::unique_ptr<ScoreEngine>> references;
  std::map<int64_t, size_t> slot_of_version;

  void Add(const ModelSnapshot* source,
           std::shared_ptr<const cluster::ShardedSnapshot> shards) {
    ScoreEngine::Options options;
    options.mode = ScoreEngine::Mode::kFast;
    sources.push_back(source);
    sharded.push_back(std::move(shards));
    references.push_back(std::make_unique<ScoreEngine>(source, options));
  }
};

struct LoadRun {
  std::vector<cluster::ClusterResponse> responses;  // by request index
  std::vector<size_t> request_index;                // into the request list
  /// Served requests only: latency from the scheduled send time.
  std::vector<double> latency_ms;
  std::vector<cluster::RequestClass> latency_class;
  std::vector<double> lag_ms;     // send time minus scheduled time
  std::vector<double> submit_us;  // time spent inside Submit
  std::vector<double> publish_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  double seconds = 0.0;
};

cluster::ClusterServer::Options ServerOptions() {
  cluster::ClusterServer::Options options;
  options.num_threads = ThreadPool::SharedThreads();
  return options;
}

/// Open loop: sends request i at start + schedule[i] whatever the server
/// does, spinning on the clock between sends. Latency counts from the
/// scheduled time, so a stall also charges the requests queued behind it.
/// Publishes, when configured, run on the generator between sends.
LoadRun RunOpenLoop(cluster::ClusterServer* server,
                    const std::vector<int64_t>& schedule,
                    const std::vector<cluster::ClusterRequest>& requests,
                    const TrafficSpec& traffic, Versions* versions) {
  const size_t n = schedule.size();
  std::vector<cluster::ClusterRequest> to_send(requests.begin(),
                                               requests.begin() + n);
  std::vector<std::future<cluster::ClusterResponse>> futures;
  futures.reserve(n);
  LoadRun run;
  run.lag_ms.reserve(n);
  run.submit_us.reserve(n);
  const auto period_ns = static_cast<int64_t>(traffic.publish_every_s * 1e9);
  const int64_t start = obs::NowNs() + 2'000'000;
  int64_t next_publish = period_ns > 0 ? start + period_ns
                                       : std::numeric_limits<int64_t>::max();
  size_t next_slot = 1;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start + schedule[i];
    int64_t now = obs::NowNs();
    while (now < due) now = obs::NowNs();
    if (now >= next_publish) {
      const size_t slot = next_slot++ % versions->sharded.size();
      const int64_t t0 = obs::NowNs();
      const int64_t version = server->Publish(versions->sharded[slot]);
      run.publish_ms.push_back(MsSince(t0));
      versions->slot_of_version[version] = slot;
      next_publish += period_ns;
      now = obs::NowNs();
    }
    futures.push_back(server->Submit(std::move(to_send[i])));
    const int64_t after = obs::NowNs();
    run.lag_ms.push_back(static_cast<double>(now - due) * 1e-6);
    run.submit_us.push_back(static_cast<double>(after - now) * 1e-3);
  }
  run.seconds = static_cast<double>(obs::NowNs() - start) * 1e-9;
  run.attempted = static_cast<int64_t>(n);
  run.responses.reserve(n);
  run.request_index.reserve(n);
  run.latency_ms.reserve(n);
  run.latency_class.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    run.responses.push_back(futures[i].get());
    run.request_index.push_back(i);
    const cluster::ClusterResponse& response = run.responses.back();
    if (response.status != cluster::ClusterStatus::kOk) {
      ++run.failed;
      continue;
    }
    run.latency_ms.push_back(run.lag_ms[i] + response.latency_ms);
    run.latency_class.push_back(requests[i].cls);
  }
  return run;
}

/// Closed loop: `window` requests always outstanding; the next is sent as
/// soon as the oldest completes. Returns the sustained rate: the lower
/// quartile of the completion rates of the run's 0.5 s slices;
/// `run` keeps every `keep_every`-th response for the reference check.
double RunClosedLoop(cluster::ClusterServer* server,
                     const std::vector<cluster::ClusterRequest>& requests,
                     int window, double seconds, size_t keep_every,
                     LoadRun* run) {
  constexpr int64_t kSliceNs = 500'000'000;
  std::deque<std::pair<size_t, std::future<cluster::ClusterResponse>>>
      inflight;
  size_t next = 0;
  const auto submit = [&] {
    const size_t index = next++ % requests.size();
    inflight.emplace_back(index, server->Submit(requests[index]));
  };
  const int64_t start = obs::NowNs();
  const int64_t slices = std::max<int64_t>(
      1, static_cast<int64_t>(seconds * 1e9) / kSliceNs);
  const int64_t end = start + slices * kSliceNs;
  std::vector<double> per_slice(static_cast<size_t>(slices), 0.0);
  for (int w = 0; w < window; ++w) submit();
  for (size_t received = 0; !inflight.empty(); ++received) {
    auto [index, future] = std::move(inflight.front());
    inflight.pop_front();
    cluster::ClusterResponse response = future.get();
    const int64_t now = obs::NowNs();
    if (response.status != cluster::ClusterStatus::kOk) ++run->failed;
    if (received % keep_every == 0) {
      run->responses.push_back(std::move(response));
      run->request_index.push_back(index);
    }
    if (now < end) {
      per_slice[static_cast<size_t>((now - start) / kSliceNs)] += 1.0;
      submit();
    }
  }
  run->attempted = static_cast<int64_t>(next);
  for (double& count : per_slice) count *= 1e9 / kSliceNs;
  return Percentile(per_slice, 0.25);
}

bool SameRecommendation(const Recommendation& a, const Recommendation& b) {
  return a.items == b.items && a.cold_start == b.cold_start &&
         a.scores.size() == b.scores.size() &&
         std::memcmp(a.scores.data(), b.scores.data(),
                     a.scores.size() * sizeof(float)) == 0;
}

/// Compares every `every`-th served response with ScoreEngine(kFast).TopK
/// on the unsharded snapshot of the version that served it. Returns the
/// number of mismatches; `checked` receives the number compared.
int64_t CountMismatches(const LoadRun& run,
                        const std::vector<cluster::ClusterRequest>& requests,
                        const Versions& versions, size_t every,
                        int64_t* checked) {
  int64_t mismatches = 0;
  for (size_t i = 0; i < run.responses.size(); i += every) {
    const cluster::ClusterResponse& response = run.responses[i];
    if (response.status != cluster::ClusterStatus::kOk) continue;
    const auto slot = versions.slot_of_version.find(response.snapshot_version);
    ++*checked;
    if (slot == versions.slot_of_version.end()) {
      ++mismatches;
      continue;
    }
    const Recommendation expected = versions.references[slot->second]->TopK(
        requests[run.request_index[i]].rec);
    if (!SameRecommendation(expected, response.rec)) ++mismatches;
  }
  return mismatches;
}

/// Runs `fn` as one task on the shared pool and waits for it, so anything
/// it fans out with ParallelFor runs inline — the way ClusterServer
/// drainers run the scoring core.
void RunAsPoolTask(const std::function<void()>& fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  ThreadPool::Shared()->Submit([&] {
    fn();
    done.set_value();
  });
  finished.wait();
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

/// Forwards every RecModel call to the wrapped model and times TrainStep:
/// per-batch times from inside Trainer::Train without changing the
/// trainer.
class TimedModel final : public RecModel {
 public:
  explicit TimedModel(std::unique_ptr<RecModel> inner)
      : inner_(std::move(inner)) {
    step_ms_.reserve(4096);
    start_ns_.reserve(4096);
  }

  std::string name() const override { return inner_->name(); }
  float TrainStep(const LabeledBatch& batch_z,
                  const LabeledBatch& batch_zbar) override {
    const int64_t start = obs::NowNs();
    const float loss = inner_->TrainStep(batch_z, batch_zbar);
    step_ms_.push_back(MsSince(start));
    start_ns_.push_back(start);
    return loss;
  }
  std::vector<float> Score(DomainSide side, const std::vector<int>& users,
                           const std::vector<int>& items) override {
    return inner_->Score(side, users, items);
  }
  ag::ParameterStore* params() override { return inner_->params(); }
  void InvalidateCaches() override { inner_->InvalidateCaches(); }
  bool FreezeDomain(DomainSide side, FrozenDomainState* out) override {
    return inner_->FreezeDomain(side, out);
  }

  const std::vector<double>& step_ms() const { return step_ms_; }
  const std::vector<int64_t>& start_ns() const { return start_ns_; }

 private:
  std::unique_ptr<RecModel> inner_;
  std::vector<double> step_ms_;
  std::vector<int64_t> start_ns_;
};

/// A generated scenario, its experiment data and a fresh NMCDR model,
/// with the time each took.
struct TrainingSetup {
  std::unique_ptr<ExperimentData> data;
  std::unique_ptr<TimedModel> model;
  double generate_s = 0.0;
  double experiment_data_s = 0.0;
  double model_init_s = 0.0;

  double total_s() const {
    return generate_s + experiment_data_s + model_init_s;
  }
};

SyntheticScenarioSpec SeededSpec(SyntheticScenarioSpec spec, int seed) {
  spec.seed += 7919ULL * static_cast<uint64_t>(seed);
  return spec;
}

TrainingSetup BuildTraining(const SyntheticScenarioSpec& spec, int seed) {
  TrainingSetup setup;
  Stopwatch watch;
  CdrScenario scenario = GenerateScenario(spec);
  setup.generate_s = watch.ElapsedSeconds();
  watch.Restart();
  setup.data = std::make_unique<ExperimentData>(std::move(scenario),
                                                spec.seed + 1);
  setup.experiment_data_s = watch.ElapsedSeconds();
  watch.Restart();
  CommonHyper hyper;
  hyper.seed = 42 + static_cast<uint64_t>(seed);
  setup.model = std::make_unique<TimedModel>(ModelRegistry::Instance().Get(
      "NMCDR")(setup.data->View(), hyper, /*lr=*/1e-3f));
  setup.model_init_s = watch.ElapsedSeconds();
  return setup;
}

/// Set-up is repeated `reps` times and the last one kept; returns the
/// per-repetition set-up times.
std::vector<double> RepeatTrainingSetup(const SyntheticScenarioSpec& spec,
                                        int seed, int reps,
                                        TrainingSetup* kept) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    *kept = TrainingSetup();
    *kept = BuildTraining(spec, seed);
    times.push_back(kept->total_s());
  }
  return times;
}

TrainConfig MakeTrainConfig(int epochs, int seed) {
  TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 256;
  config.negatives_per_positive = 1;
  config.fusion = true;
  config.eval_every = 0;
  config.threads = 0;
  config.seed = 7 + static_cast<uint64_t>(seed);
  return config;
}

struct TrainRun {
  TrainSummary summary;
  std::vector<double> step_ms;
  /// Sustained training rate: the lower quartile over 50-step windows of
  /// steps per wall second (batch drawing between steps included).
  double sustained_steps_per_s = 0.0;
  int64_t pool_tasks = 0;
};

TrainRun RunTraining(const ExperimentData& data, TimedModel* model,
                     const TrainConfig& config) {
  const int64_t tasks_before = ThreadPool::Shared()->tasks_executed();
  Trainer trainer(data.View(), config);
  TrainRun run;
  run.summary = trainer.Train(model);
  run.step_ms = model->step_ms();
  const std::vector<int64_t>& starts = model->start_ns();
  constexpr size_t kWindow = 50;
  std::vector<double> rates;
  for (size_t i = 0; i + kWindow < starts.size(); i += kWindow) {
    rates.push_back(kWindow * 1e9 /
                    static_cast<double>(starts[i + kWindow] - starts[i]));
  }
  run.sustained_steps_per_s =
      rates.empty() ? static_cast<double>(run.step_ms.size()) /
                          run.summary.train_seconds
                    : Percentile(rates, 0.25);
  run.pool_tasks = ThreadPool::Shared()->tasks_executed() - tasks_before;
  return run;
}

double TestHitRate(const ExperimentData& data, RecModel* model) {
  const ScenarioMetrics m = EvaluateScenario(
      model, data.full_graph_z(), data.full_graph_zbar(), data.split_z(),
      data.split_zbar(), EvalPhase::kTest, EvalConfig());
  return 0.5 * (m.z.hr + m.zbar.hr);
}

void ReportTraining(const TrainRun& run, Result* r) {
  const auto steps = static_cast<int64_t>(run.step_ms.size());
  r->Set("train.ms_per_batch",
         run.summary.train_seconds * 1e3 / static_cast<double>(steps), "ms",
         steps);
  r->Set("program.fused_step_ms", Median(run.step_ms), "ms", steps);
  r->Set("util.pool.tasks_per_op",
         static_cast<double>(run.pool_tasks) / static_cast<double>(steps),
         "count", steps);
  r->Check(std::isfinite(run.summary.final_loss), "training loss not finite");
  r->attempted += steps;
}

// --- Per-layer probes of the training path ---------------------------------

/// Median wall time (ms) of `reps` forward+backward passes of `forward`,
/// reduced to a scalar with Mean. Gradients are cleared outside the timing.
double FwdBwdMs(ag::ParameterStore* store, int reps,
                const std::function<ag::Tensor()>& forward) {
  std::vector<double> ms;
  ms.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const int64_t start = obs::NowNs();
    ag::Backward(ag::Mean(forward()));
    ms.push_back(MsSince(start));
    store->ZeroGrad();
  }
  return Median(ms);
}

/// Times each NMCDR core module on the workload's real graphs with
/// NmcdrConfig defaults, outside the model: per call, averaged over the
/// two domains. Coverage weighs each by its calls per TrainStep against
/// the eager step time.
void ProbeCoreModules(const ExperimentData& data, int seed, double eager_step_ms,
                      RecModel* model, Result* r) {
  const NmcdrConfig config;
  const int d = config.hidden_dim;
  const int reps = 20;
  Rng rng(1000 + static_cast<uint64_t>(seed));
  ag::ParameterStore store;
  const CdrScenario& scenario = data.scenario();
  const InteractionGraph* graphs[2] = {&data.train_graph_z(),
                                       &data.train_graph_zbar()};
  const std::vector<int>* self_index[2] = {&scenario.z_to_zbar,
                                           &scenario.zbar_to_z};
  ag::Tensor users[2];
  ag::Tensor items[2];
  ag::Tensor w_cross[2];
  for (int s = 0; s < 2; ++s) {
    const std::string p = s == 0 ? "z" : "zbar";
    users[s] = store.Register(
        p + ".users", Matrix::Gaussian(graphs[s]->num_users(), d, &rng, 0.f, 0.1f));
    items[s] = store.Register(
        p + ".items", Matrix::Gaussian(graphs[s]->num_items(), d, &rng, 0.f, 0.1f));
    w_cross[s] = store.Register(p + ".w_cross", Matrix::Xavier(d, d, &rng));
  }
  HeteroGraphEncoder encoder(&store, "enc", d, config.hge_layers, &rng,
                             config.gnn_kernel);
  IntraMatchingComponent intra(&store, "intra", d, &rng, config.gate_fusion,
                               config.shared_intra_transform);
  InterMatchingComponent inter(&store, "inter", d, &rng, config.gate_fusion);
  ComplementingComponent complement(&store, "comp", d, &rng);
  PredictionLayer prediction(&store, "pred", d, config.mlp_hidden, &rng);
  const int batch_rows = 256;
  const ag::Tensor batch_users = store.Register(
      "batch_users", Matrix::Gaussian(batch_rows, d, &rng, 0.f, 0.1f));
  const ag::Tensor batch_items = store.Register(
      "batch_items", Matrix::Gaussian(batch_rows, d, &rng, 0.f, 0.1f));

  double enc = 0.0, intra_ms = 0.0, inter_ms = 0.0, comp = 0.0;
  for (int s = 0; s < 2; ++s) {
    const InteractionGraph& g = *graphs[s];
    const auto adj_ui = g.NormalizedUserItemAdj();
    const auto adj_iu = g.NormalizedItemUserAdj();
    enc += 0.5 * FwdBwdMs(&store, reps, [&] {
      return encoder.Forward(users[s], items[s], adj_ui, adj_iu);
    });
    const MatchingPools pools = BuildMatchingPools(g, config.k_head);
    const std::vector<int> heads =
        SamplePool(pools.head_users, config.matching_neighbors, &rng);
    const std::vector<int> tails =
        SamplePool(pools.tail_users, config.matching_neighbors, &rng);
    intra_ms += 0.5 * FwdBwdMs(&store, reps, [&] {
      return intra.Forward(users[s], heads, tails);
    });
    std::vector<int> other_pool;
    for (size_t u = 0; u < self_index[1 - s]->size(); ++u) {
      if ((*self_index[1 - s])[u] < 0) other_pool.push_back(static_cast<int>(u));
    }
    const std::vector<int> other_sample =
        SamplePool(other_pool, config.matching_neighbors, &rng);
    inter_ms += 0.5 * FwdBwdMs(&store, reps, [&] {
      return inter.Forward(users[s], users[1 - s], *self_index[s],
                           other_sample, w_cross[s], w_cross[1 - s]);
    });
    const auto candidates = BuildComplementCandidates(
        g, config.complement_candidates, config.complement_observed_only,
        &rng);
    comp += 0.5 * FwdBwdMs(&store, reps, [&] {
      return complement.Forward(users[s], items[s], candidates);
    });
  }
  const double pred = FwdBwdMs(&store, reps, [&] {
    return prediction.Forward(batch_users, batch_items);
  });

  // Adam over the full NMCDR parameter set (its gradients are allocated
  // by the training the model already ran).
  ag::Adam adam(model->params(), 1e-3f, 0.9f, 0.999f, 1e-8f, 1e-4f);
  std::vector<double> adam_ms;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t start = obs::NowNs();
    adam.Step();
    adam_ms.push_back(MsSince(start));
  }
  const double adam_step = Median(adam_ms);

  // Calls per TrainStep at the defaults: one encoder, intra, inter and
  // complement block per domain; five prediction heads per domain (the
  // final classifier plus four companion stages).
  const double covered = 2 * enc + 2 * intra_ms + 2 * inter_ms + 2 * comp +
                         10 * pred + adam_step;
  r->Set("core.encoder.fwd_bwd_ms", enc, "ms", 2 * reps);
  r->Set("core.intra.fwd_bwd_ms", intra_ms, "ms", 2 * reps);
  r->Set("core.inter.fwd_bwd_ms", inter_ms, "ms", 2 * reps);
  r->Set("core.complement.fwd_bwd_ms", comp, "ms", 2 * reps);
  r->Set("core.prediction.fwd_bwd_ms", pred, "ms", reps);
  r->Set("core.adam_step_ms", adam_step, "ms", reps);
  r->Set("core.coverage", covered / eager_step_ms, "ratio", 1);
}

/// Autograd ops reported per step: the ten costliest on the train workload
/// when the benchmark was written, fixed so every run reports the same
/// names. "Fused" is the graph program's fused groups.
const char* const kReportedOps[] = {
    "Fused", "NeighborAttention", "SpMM",     "Relu",   "AddRowBroadcast",
    "Add",   "Embedding",         "Hadamard", "MatMul", "Tanh"};

const obs::Kernel kReportedKernels[] = {
    obs::Kernel::kFusedMatMulBiasAct,  obs::Kernel::kPlannedMatMulTransA,
    obs::Kernel::kPlannedMatMulTransB, obs::Kernel::kMatMulAccumInto,
    obs::Kernel::kSpMM,                obs::Kernel::kGatherRows,
    obs::Kernel::kScatterAddRows,      obs::Kernel::kFusedEltwise,
    obs::Kernel::kColSum,              obs::Kernel::kAxpyInto};

/// Reads the op and kernel tables a profiled training run filled.
void ReportOpAndKernelStats(const TrainRun& traced, Result* r) {
  const auto steps = static_cast<double>(traced.step_ms.size());
  const std::vector<obs::OpStatsRow> ops = obs::SnapshotOpStats();
  for (const char* name : kReportedOps) {
    double ns = 0.0;
    for (const obs::OpStatsRow& row : ops) {
      if (row.name == name) {
        ns = static_cast<double>(row.forward_ns + row.backward_ns);
      }
    }
    r->Set(std::string("autograd.op.") + name + ".ms_per_step",
           ns * 1e-6 / steps, "ms", static_cast<int64_t>(steps));
  }
  const std::vector<obs::KernelStatsRow> kernels = obs::SnapshotKernelStats();
  double all_ns = 0.0;
  for (const obs::KernelStatsRow& row : kernels) {
    all_ns += static_cast<double>(row.ns);
  }
  for (const obs::Kernel k : kReportedKernels) {
    double ns = 0.0, flops = 0.0;
    for (const obs::KernelStatsRow& row : kernels) {
      if (row.kernel == k) {
        ns = static_cast<double>(row.ns);
        flops = static_cast<double>(row.flops);
      }
    }
    const std::string prefix = std::string("tensor.kernel.") + obs::KernelName(k);
    r->Set(prefix + ".ms_per_step", ns * 1e-6 / steps, "ms",
           static_cast<int64_t>(steps));
    r->Set(prefix + ".gflops", ns > 0 ? flops / ns : 0.0, "GFLOP/s",
           static_cast<int64_t>(steps));
  }
  double step_ns = 0.0;
  for (const double ms : traced.step_ms) step_ns += ms * 1e6;
  r->Set("tensor.kernel.coverage", all_ns / step_ns, "ratio", 1);
}

/// Round trip of a ParallelFor whose chunks do nothing: the pool's
/// dispatch cost, paid by every parallel kernel call.
void ProbePool(Result* r) {
  const int reps = 2000;
  std::vector<double> us;
  us.reserve(reps);
  ThreadPool* pool = ThreadPool::Shared();
  for (int i = 0; i < reps; ++i) {
    const int64_t start = obs::NowNs();
    pool->ParallelFor(0, pool->num_threads(), 1, [](int64_t, int64_t) {});
    us.push_back(static_cast<double>(obs::NowNs() - start) * 1e-3);
  }
  r->Set("util.pool.parallel_for_us", Median(us), "us", reps);
}

/// Negative sampling and evaluation scoring.
void ProbeTrainingSupport(const ExperimentData& data, RecModel* model,
                          int seed, Result* r) {
  Rng rng(2000 + static_cast<uint64_t>(seed));
  const NegativeSampler sampler(&data.train_graph_z());
  const int users = data.train_graph_z().num_users();
  const int calls = 100000;
  std::vector<double> ns;
  int64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t start = obs::NowNs();
    for (int i = 0; i < calls; ++i) {
      sink += sampler.SampleNegative(static_cast<int>(rng.NextUint64(users)),
                                     &rng);
    }
    ns.push_back(static_cast<double>(obs::NowNs() - start) / calls);
  }
  r->Check(sink >= 0, "negative sampler returned a negative id");
  r->Set("graph.neg_sample_ns", Median(ns), "ns", 5 * calls);

  // RecModel::Score on the evaluator's 20k-pair call size.
  const int pairs = EvalConfig().score_batch;
  std::vector<int> pair_users(pairs), pair_items(pairs);
  for (int i = 0; i < pairs; ++i) {
    pair_users[i] = static_cast<int>(rng.NextUint64(users));
    pair_items[i] = static_cast<int>(
        rng.NextUint64(data.train_graph_z().num_items()));
  }
  std::vector<double> score_ms;
  for (int rep = 0; rep < 6; ++rep) {
    const int64_t start = obs::NowNs();
    const std::vector<float> scores =
        model->Score(DomainSide::kZ, pair_users, pair_items);
    if (rep > 0) score_ms.push_back(MsSince(start));
    r->Check(scores.size() == pair_users.size(), "Score returned wrong size");
  }
  r->Set("eval.score_ms_per_call", Median(score_ms), "ms", 5);
}

/// The traced half of a training workload: a fresh model trained with
/// profiling on (its final loss must equal the untraced run's bit for
/// bit), then the module, program and support probes.
void TraceTraining(const SyntheticScenarioSpec& spec, int seed,
                   const TrainConfig& config, const TrainRun& untraced,
                   const ExperimentData& data, RecModel* trained, Result* r) {
  TrainRun traced;
  {
    TrainingSetup fresh = BuildTraining(spec, seed);
    obs::ResetOpAndKernelStats();
    const obs::ProfilingEnabledGuard profiling(true);
    traced = RunTraining(*fresh.data, fresh.model.get(), config);
  }
  r->Check(std::memcmp(&traced.summary.final_loss,
                       &untraced.summary.final_loss, sizeof(float)) == 0,
           "traced and untraced training losses differ bitwise");
  ReportOpAndKernelStats(traced, r);
  r->Set("trace_overhead.train_p90_ms",
         Percentile(traced.step_ms, 0.9) / Percentile(untraced.step_ms, 0.9) -
             1.0,
         "ratio", 1);

  // Eager steps: the same trainer with fusion off, on a fresh model.
  TrainingSetup eager = BuildTraining(spec, seed);
  TrainConfig eager_config = config;
  eager_config.fusion = false;
  eager_config.epochs = 1;
  eager_config.min_total_steps = 100;
  const TrainRun eager_run =
      RunTraining(*eager.data, eager.model.get(), eager_config);
  const double eager_ms = Median(eager_run.step_ms);
  r->Set("program.eager_step_ms", eager_ms, "ms",
         static_cast<int64_t>(eager_run.step_ms.size()));
  ProbeCoreModules(data, seed, eager_ms, eager.model.get(), r);
  ProbeTrainingSupport(data, trained, seed, r);
}

// ---------------------------------------------------------------------------
// Serving probes
// ---------------------------------------------------------------------------

void ReportGenerator(const LoadRun& run, Result* r) {
  int64_t late = 0;
  for (const double lag : run.lag_ms) late += lag > 1.0 ? 1 : 0;
  const auto sends = static_cast<int64_t>(run.lag_ms.size());
  const double late_frac =
      static_cast<double>(late) / static_cast<double>(std::max<int64_t>(sends, 1));
  r->Set("gen.lag_ms_p50", Percentile(run.lag_ms, 0.5), "ms", sends);
  r->Set("gen.lag_ms_p99", Percentile(run.lag_ms, 0.99), "ms", sends);
  r->Set("gen.lag_ms_max", MaxOf(run.lag_ms), "ms", sends);
  r->Set("gen.late_frac", late_frac, "ratio", sends);
  if (late_frac > 0.01) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "run invalid: %.2f%% of sends were over 1 ms late",
                  100.0 * late_frac);
    r->warnings.push_back(buf);
  }
}

std::vector<double> LatenciesOf(const LoadRun& run, cluster::RequestClass cls) {
  std::vector<double> out;
  out.reserve(run.latency_ms.size());
  for (size_t i = 0; i < run.latency_ms.size(); ++i) {
    if (run.latency_class[i] == cls) out.push_back(run.latency_ms[i]);
  }
  return out;
}

int64_t Count(const cluster::ClusterServer& server, const std::string& name) {
  return server.metrics_registry().GetCounter(name).Value();
}

/// Per-layer serving probes, run after the loads: scoring kernel cost per
/// item, monolithic vs sharded top-K (inside a pool task, as drainers run
/// them), each request's own service time replayed against its server
/// latency, and a few timed publishes.
void ProbeServing(cluster::ClusterServer* server, Versions* versions,
                  const LoadRun& traced,
                  const std::vector<cluster::ClusterRequest>& requests,
                  Result* r) {
  const ModelSnapshot& source = *versions->sources[0];
  const FrozenDomainState& frozen = source.domain(0).frozen;
  const int n = frozen.num_items();
  const Matrix item_first =
      scoring::BuildItemFirst(frozen.head, frozen.item_reps);
  const int width = scoring::MaxHeadWidth(frozen.head);
  std::vector<float> u_first(frozen.head.b0.cols()), h(width), next(width),
      out(n);
  std::vector<int> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  std::vector<double> ns_per_item;
  for (int rep = 0; rep < 21; ++rep) {
    const float* u = frozen.user_reps.data() +
                     static_cast<size_t>(rep % frozen.num_users()) *
                         frozen.dim();
    const int64_t start = obs::NowNs();
    scoring::UserFirstPartial(frozen.head, u, u_first.data());
    scoring::FastScoreIds(frozen.head, frozen.item_reps, item_first, u,
                          u_first.data(), ids.data(), n, h.data(),
                          next.data(), out.data());
    ns_per_item.push_back(static_cast<double>(obs::NowNs() - start) / n);
  }
  r->Set("serving.score.ns_per_item", Median(ns_per_item), "ns", 21);

  const size_t samples = std::min<size_t>(200, requests.size());
  std::vector<double> engine_us, cluster_us;
  const ScoreEngine& engine = *versions->references[0];
  const cluster::ShardedSnapshot& sharded = *versions->sharded[0];
  RunAsPoolTask([&] {
    ScoreScratch scratch;
    cluster::ShardScratch shard_scratch;
    for (size_t i = 0; i < samples; ++i) {
      const RecRequest& rec = requests[i * requests.size() / samples].rec;
      int64_t start = obs::NowNs();
      const Recommendation a = engine.TopKWithScratch(rec, &scratch);
      engine_us.push_back(static_cast<double>(obs::NowNs() - start) * 1e-3);
      start = obs::NowNs();
      const Recommendation b = sharded.TopKWithScratch(rec, &shard_scratch);
      cluster_us.push_back(static_cast<double>(obs::NowNs() - start) * 1e-3);
    }
  });
  const double engine_topk = Median(engine_us);
  const double cluster_topk = Median(cluster_us);
  r->Set("serving.engine.topk_us", engine_topk, "us",
         static_cast<int64_t>(samples));
  r->Set("serving.cluster.topk_us", cluster_topk, "us",
         static_cast<int64_t>(samples));
  r->Set("serving.cluster.fanout_merge_us", cluster_topk - engine_topk, "us",
         static_cast<int64_t>(samples));

  r->Set("serving.cluster.submit_us_p50", Percentile(traced.submit_us, 0.5),
         "us", static_cast<int64_t>(traced.submit_us.size()));
  r->Set("serving.cluster.submit_us_p99", Percentile(traced.submit_us, 0.99),
         "us", static_cast<int64_t>(traced.submit_us.size()));

  // Queueing and batching wait: a served request's server latency minus
  // its own service time, replayed on the version that served it.
  std::vector<size_t> served;
  for (size_t i = 0; i < traced.responses.size(); ++i) {
    if (traced.responses[i].status == cluster::ClusterStatus::kOk) {
      served.push_back(i);
    }
  }
  const size_t replays = std::min<size_t>(1000, served.size());
  std::vector<double> wait_ms;
  wait_ms.reserve(replays);
  RunAsPoolTask([&] {
    cluster::ShardScratch scratch;
    for (size_t j = 0; j < replays; ++j) {
      const size_t i = served[j * served.size() / replays];
      const cluster::ClusterResponse& response = traced.responses[i];
      const size_t slot =
          versions->slot_of_version.at(response.snapshot_version);
      const int64_t start = obs::NowNs();
      const Recommendation again = versions->sharded[slot]->TopKWithScratch(
          requests[traced.request_index[i]].rec, &scratch);
      wait_ms.push_back(response.latency_ms - MsSince(start));
    }
  });
  r->Set("serving.cluster.wait_ms_p50", Percentile(wait_ms, 0.5), "ms",
         static_cast<int64_t>(replays));
  r->Set("serving.cluster.wait_ms_p99", Percentile(wait_ms, 0.99), "ms",
         static_cast<int64_t>(replays));

  int64_t cold = 0;
  for (const size_t i : served) cold += traced.responses[i].rec.cold_start;
  r->Set("serving.cold_start_frac",
         static_cast<double>(cold) /
             static_cast<double>(std::max<size_t>(served.size(), 1)),
         "ratio", static_cast<int64_t>(served.size()));

  std::vector<double> publish_ms = traced.publish_ms;
  if (publish_ms.empty()) {
    // No publishes in the traffic: republish the live version a few times.
    for (int rep = 0; rep < 5; ++rep) {
      const int64_t start = obs::NowNs();
      const int64_t version = server->Publish(versions->sharded[0]);
      publish_ms.push_back(MsSince(start));
      versions->slot_of_version[version] = 0;
    }
  }
  r->Set("serving.cluster.publish_ms", Median(publish_ms), "ms",
         static_cast<int64_t>(publish_ms.size()));
}

// ---------------------------------------------------------------------------
// Serving phases shared by pipeline, serve-large and serve-mixed
// ---------------------------------------------------------------------------

struct ServePlan {
  TrafficSpec traffic;
  std::vector<int64_t> schedule;
  std::vector<cluster::ClusterRequest> requests;  // open loop, by arrival
  std::vector<cluster::ClusterRequest> closed;    // closed loop, cycled
  double closed_s = 0.0;
};

ServePlan MakeServePlan(const ModelSnapshot& snapshot, const TrafficSpec& traffic,
                        const ExcludeFn& train_items, double open_s,
                        double closed_s, int seed) {
  ServePlan plan;
  plan.traffic = traffic;
  plan.schedule = PoissonSchedule(0x5EED0000ULL + static_cast<uint64_t>(seed),
                                  traffic.rates, traffic.phase_s, open_s);
  plan.requests = DrawRequests(snapshot, traffic, train_items,
                               plan.schedule.size(),
                               0xC0FFEE00ULL + static_cast<uint64_t>(seed));
  plan.closed = DrawRequests(snapshot, traffic, train_items, 4096,
                             0xB10C0000ULL + static_cast<uint64_t>(seed));
  plan.closed_s = closed_s;
  return plan;
}

/// One open-loop pass, a closed-loop saturation pass and the reference
/// checks; with `trace`, a second profiled open-loop pass and the serving
/// probes follow.
void RunServing(cluster::ClusterServer* server, Versions* versions,
                const ServePlan& plan, bool trace, Result* r) {
  const int64_t tasks_before = ThreadPool::Shared()->tasks_executed();
  const LoadRun open = RunOpenLoop(server, plan.schedule, plan.requests,
                                   plan.traffic, versions);
  const int64_t tasks = ThreadPool::Shared()->tasks_executed() - tasks_before;
  const size_t kCheckEvery = 50;
  LoadRun closed;
  const double sat_rps = RunClosedLoop(server, plan.closed, 32, plan.closed_s,
                                       kCheckEvery, &closed);

  const std::vector<double> interactive =
      LatenciesOf(open, cluster::RequestClass::kInteractive);
  const std::vector<double> batch =
      LatenciesOf(open, cluster::RequestClass::kBatch);
  const auto n_int = static_cast<int64_t>(interactive.size());
  r->Set("p50_ms", Percentile(interactive, 0.5), "ms", n_int);
  r->Set("p90_ms", Percentile(interactive, 0.9), "ms", n_int);
  r->Set("p99_ms", WindowedP99(interactive), "ms", n_int);
  r->Set("throughput_per_s", sat_rps, "1/s", closed.attempted);
  if (!batch.empty()) {
    r->Set("serving.batch_p99_ms", WindowedP99(batch), "ms",
           static_cast<int64_t>(batch.size()));
  }
  r->Set("serving.offered_rps",
         static_cast<double>(plan.schedule.size()) / open.seconds, "1/s",
         static_cast<int64_t>(plan.schedule.size()));
  r->Set("util.pool.tasks_per_op",
         static_cast<double>(tasks) /
             static_cast<double>(std::max<size_t>(plan.schedule.size(), 1)),
         "count", static_cast<int64_t>(plan.schedule.size()));
  ReportGenerator(open, r);

  int64_t checked = 0;
  const int64_t mismatches =
      CountMismatches(open, plan.requests, *versions, kCheckEvery, &checked) +
      CountMismatches(closed, plan.closed, *versions, 1, &checked);
  const int64_t attempted = open.attempted + closed.attempted;
  const int64_t failed = open.failed + closed.failed + mismatches;
  r->attempted += attempted;
  r->failed += failed;
  r->Set("serving.reference_checked", static_cast<double>(checked), "count");
  r->Set("serving.fail_frac",
         static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
         attempted);
  r->Check(checked > 0, "no response was checked against the reference");
  r->Check(mismatches == 0, std::to_string(mismatches) +
                                " responses differ from ScoreEngine(kFast)");
  r->Check(open.failed + closed.failed == 0,
           std::to_string(open.failed + closed.failed) +
               " requests were shed or stopped");
  if (plan.traffic.publish_every_s > 0) {
    r->Check(!open.publish_ms.empty(), "no publish happened under load");
    std::map<int64_t, int> served_versions;
    for (const auto& response : open.responses) {
      ++served_versions[response.snapshot_version];
    }
    r->Check(served_versions.size() > 1, "traffic did not span a publish");
  }
  if (!trace) return;

  const char* kClasses[] = {"interactive", "batch"};
  int64_t served_before[2], shed_before[2];
  for (int c = 0; c < 2; ++c) {
    const std::string cls = kClasses[c];
    served_before[c] = Count(*server, "cluster.served." + cls);
    shed_before[c] = Count(*server, "cluster.shed_queue_full." + cls) +
                     Count(*server, "cluster.shed_deadline." + cls);
  }
  LoadRun traced;
  {
    const obs::ProfilingEnabledGuard profiling(true);
    traced = RunOpenLoop(server, plan.schedule, plan.requests, plan.traffic,
                         versions);
  }
  for (int c = 0; c < 2; ++c) {
    const std::string cls = kClasses[c];
    r->Set("serving.cluster.served." + cls,
           static_cast<double>(Count(*server, "cluster.served." + cls) -
                               served_before[c]),
           "count");
    r->Set("serving.cluster.shed." + cls,
           static_cast<double>(Count(*server, "cluster.shed_queue_full." + cls) +
                               Count(*server, "cluster.shed_deadline." + cls) -
                               shed_before[c]),
           "count");
  }
  int64_t traced_checked = 0;
  const int64_t traced_failed =
      traced.failed + CountMismatches(traced, plan.requests, *versions,
                                      kCheckEvery, &traced_checked);
  r->attempted += traced.attempted;
  r->failed += traced_failed;
  r->Check(traced_failed == 0, "traced serving pass failed or mismatched");
  r->Set("trace_overhead.req_p90_ms",
         Percentile(LatenciesOf(traced, cluster::RequestClass::kInteractive),
                    0.9) /
                 Percentile(interactive, 0.9) -
             1.0,
         "ratio", 1);
  ProbeServing(server, versions, traced, plan.requests, r);
}

/// Sends one request and waits for it: the end of a "ready" measurement.
bool FirstResponseOk(cluster::ClusterServer* server,
                     const cluster::ClusterRequest& request) {
  return server->Submit(request).get().status == cluster::ClusterStatus::kOk;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  int seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir = ".";
};

constexpr int kSetupReps = 9;

// Work per run is a function of --seconds (S) alone, so two commits always
// do the same work; the shares below make a run measure about S seconds
// on a 4-core machine.
int TrainEpochs(double seconds) {  // Music-Movie: ~76 steps, ~1.4 s each
  return std::max(1, static_cast<int>(std::ceil(0.7 * seconds)));
}
int PipelineEpochs(double seconds) {  // Loan-Fund: ~14 steps, ~0.3 s each
  return std::max(1, static_cast<int>(std::lround(seconds)));
}
constexpr double kPipelineOpenShare = 0.35;
constexpr double kPipelineClosedShare = 0.2;
constexpr double kServeOpenShare = 0.6;
constexpr double kServeClosedShare = 0.25;

/// A request every workload can serve: the first answer of a fresh server.
cluster::ClusterRequest FirstRequest() {
  cluster::ClusterRequest request;
  request.rec.k = 10;
  return request;
}

void RunTrainWorkload(const Options& opt, Result* r) {
  const SyntheticScenarioSpec spec =
      SeededSpec(MusicMovieSpec(BenchScale::kSmall), opt.seed);
  TrainingSetup setup;
  const std::vector<double> setup_s =
      RepeatTrainingSetup(spec, opt.seed, kSetupReps, &setup);
  const int epochs = TrainEpochs(opt.seconds);
  const TrainConfig config = MakeTrainConfig(epochs, opt.seed);
  std::printf("train: %s (seed %llu), %d epochs\n", spec.name.c_str(),
              static_cast<unsigned long long>(spec.seed), epochs);

  const Stopwatch after_setup;
  const TrainRun run = RunTraining(*setup.data, setup.model.get(), config);
  double ready_s = 0.0;
  std::vector<double> eval_ms;
  double hr = 0.0;
  for (int e = 0; e < 10; ++e) {
    Stopwatch watch;
    const double this_hr = TestHitRate(*setup.data, setup.model.get());
    eval_ms.push_back(watch.ElapsedMillis());
    if (e == 0) {
      hr = this_hr;
      ready_s = setup.total_s() + after_setup.ElapsedSeconds();
    }
    r->Check(this_hr == hr, "test evaluation is not repeatable");
  }
  r->attempted += static_cast<int64_t>(eval_ms.size());
  const double first_eval_s = eval_ms[0] * 1e-3;

  const auto steps = static_cast<int64_t>(run.step_ms.size());
  r->Set("setup_s", Median(setup_s), "s", kSetupReps);
  r->Set("stage.ready_s", ready_s, "s");
  r->Set("p50_ms", Percentile(run.step_ms, 0.5), "ms", steps);
  r->Set("p90_ms", Percentile(run.step_ms, 0.9), "ms", steps);
  r->Set("p99_ms", WindowedP99(run.step_ms), "ms", steps);
  r->Set("throughput_per_s", run.sustained_steps_per_s, "1/s", steps);
  ReportTraining(run, r);
  r->Set("eval.test_pass_ms", Median(eval_ms), "ms",
         static_cast<int64_t>(eval_ms.size()));
  r->Set("quality.hr_at_10", hr, "ratio", 2);
  r->Set("train.final_loss", run.summary.final_loss, "loss");
  r->Set("program.fallback_steps",
         obs::MetricsRegistry::Global().GetGauge("program.fallback_steps").Value(),
         "count");
  r->Set("stage.generate_s", setup.generate_s, "s");
  r->Set("stage.experiment_data_s", setup.experiment_data_s, "s");
  r->Set("stage.model_init_s", setup.model_init_s, "s");
  r->Set("stage.train_s", run.summary.train_seconds, "s");
  r->Set("stage.evaluate_s", first_eval_s, "s");
  r->Set("stage.coverage",
         (setup.total_s() + run.summary.train_seconds + first_eval_s) / ready_s,
         "ratio");
  // HR@10 ranks each held-out item among 199 sampled negatives, so a model
  // that learned nothing scores 10 / 200 = 0.05.
  r->Check(hr > 0.10, "test HR@10 " + std::to_string(hr) + " is not above 0.10");
  if (opt.trace) {
    TraceTraining(spec, opt.seed, config, run, *setup.data, setup.model.get(), r);
  }
}

void RunPipelineWorkload(const Options& opt, Result* r) {
  const SyntheticScenarioSpec spec =
      SeededSpec(LoanFundSpec(BenchScale::kSmall), opt.seed);
  TrainingSetup setup;
  const std::vector<double> setup_s =
      RepeatTrainingSetup(spec, opt.seed, kSetupReps, &setup);
  const int epochs = PipelineEpochs(opt.seconds);
  const TrainConfig config = MakeTrainConfig(epochs, opt.seed);
  std::printf("pipeline: %s (seed %llu), %d epochs\n", spec.name.c_str(),
              static_cast<unsigned long long>(spec.seed), epochs);

  const TrainRun run = RunTraining(*setup.data, setup.model.get(), config);
  Stopwatch watch;
  ModelSnapshot frozen;
  r->Check(ModelSnapshot::FreezePair(setup.model.get(), setup.data->scenario(),
                                     &frozen),
           "FreezePair failed");
  const double freeze_s = watch.ElapsedSeconds();

  std::filesystem::create_directories(opt.tmp_dir);
  const std::string path = opt.tmp_dir + "/pipeline-" +
                           std::to_string(opt.seed) + "-" +
                           std::to_string(::getpid()) + ".snapshot";
  watch.Restart();
  r->Check(frozen.Save(path), "snapshot Save failed");
  const double save_s = watch.ElapsedSeconds();
  watch.Restart();
  ModelSnapshot loaded;
  std::string error;
  r->Check(ModelSnapshot::Load(path, &loaded, &error),
           "snapshot Load failed: " + error);
  const double load_s = watch.ElapsedSeconds();
  std::filesystem::remove(path);
  r->Check(loaded.Equals(frozen), "loaded snapshot differs from the saved one");

  watch.Restart();
  const cluster::ShardLayout layout = cluster::ShardLayout::Uniform(loaded, 1);
  auto sharded = std::make_shared<const cluster::ShardedSnapshot>(loaded, layout);
  const double shard_s = watch.ElapsedSeconds();

  // The plan is input, not pipeline work: built outside the timings.
  TrafficSpec traffic;
  traffic.rates = {20000.0};
  traffic.phase_s = opt.seconds;
  const ExperimentData& data = *setup.data;
  const ExcludeFn train_items = [&data](int domain, int user) {
    const InteractionGraph& g =
        domain == 0 ? data.train_graph_z() : data.train_graph_zbar();
    return g.UserNeighbors(user);
  };
  const ServePlan plan = MakeServePlan(
      loaded, traffic, train_items, kPipelineOpenShare * opt.seconds,
      kPipelineClosedShare * opt.seconds, opt.seed);

  watch.Restart();
  cluster::ClusterServer server(sharded, ServerOptions());
  r->Check(FirstResponseOk(&server, FirstRequest()), "first request failed");
  const double serve_s = watch.ElapsedSeconds();

  const double stages = setup.total_s() + run.summary.train_seconds +
                        freeze_s + save_s + load_s + shard_s;
  r->Set("setup_s", Median(setup_s), "s", kSetupReps);
  r->Set("stage.ready_s", stages + serve_s, "s");
  r->Set("stage.generate_s", setup.generate_s, "s");
  r->Set("stage.experiment_data_s", setup.experiment_data_s, "s");
  r->Set("stage.model_init_s", setup.model_init_s, "s");
  r->Set("stage.train_s", run.summary.train_seconds, "s");
  r->Set("stage.freeze_s", freeze_s, "s");
  r->Set("stage.save_s", save_s, "s");
  r->Set("stage.load_s", load_s, "s");
  r->Set("stage.shard_s", shard_s, "s");
  r->Set("stage.coverage", stages / (stages + serve_s), "ratio");
  r->Set("train.final_loss", run.summary.final_loss, "loss");
  r->Set("program.fallback_steps",
         obs::MetricsRegistry::Global().GetGauge("program.fallback_steps").Value(),
         "count");
  ReportTraining(run, r);

  Versions versions;
  versions.Add(&loaded, sharded);
  versions.slot_of_version[1] = 0;
  RunServing(&server, &versions, plan, opt.trace, r);

  const double hr = TestHitRate(data, setup.model.get());
  r->Set("quality.hr_at_10", hr, "ratio", 2);
  r->Check(hr > 0.10, "test HR@10 " + std::to_string(hr) + " is not above 0.10");
  if (opt.trace) {
    TraceTraining(spec, opt.seed, config, run, data, setup.model.get(), r);
  }
  server.Stop();
}

struct SyntheticServeSpec {
  int users = 200000;
  int items = 20000;
  int shards = 4;
  int versions = 1;
  TrafficSpec traffic;
};

void RunServeWorkload(const Options& opt, const SyntheticServeSpec& spec,
                      Result* r) {
  std::vector<std::unique_ptr<ModelSnapshot>> sources;
  std::unique_ptr<cluster::ClusterServer> server;
  Versions versions;
  std::vector<double> setup_s, ready_s;
  double generate_s = 0.0, shard_s = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    versions = Versions();
    sources.clear();
    Stopwatch setup_watch;
    for (int v = 0; v < spec.versions; ++v) {
      SyntheticSnapshotSpec synth;
      synth.num_domains = 2;
      synth.users_per_domain = spec.users;
      synth.items_per_domain = spec.items;
      synth.dim = 16;
      synth.hidden = 16;
      synth.overlap = 0.2f;
      synth.seed = 1000ULL * static_cast<uint64_t>(opt.seed) + v;
      sources.push_back(
          std::make_unique<ModelSnapshot>(ModelSnapshot::MakeSynthetic(synth)));
    }
    generate_s = setup_watch.ElapsedSeconds();
    Stopwatch ready_watch;
    std::vector<std::shared_ptr<const cluster::ShardedSnapshot>> sharded;
    for (const auto& source : sources) {
      sharded.push_back(std::make_shared<const cluster::ShardedSnapshot>(
          *source, cluster::ShardLayout::Uniform(*source, spec.shards)));
    }
    shard_s = ready_watch.ElapsedSeconds();
    server = std::make_unique<cluster::ClusterServer>(sharded[0],
                                                      ServerOptions());
    r->Check(FirstResponseOk(server.get(), FirstRequest()),
             "first request failed");
    ready_s.push_back(ready_watch.ElapsedSeconds());
    setup_s.push_back(setup_watch.ElapsedSeconds());
    for (size_t v = 0; v < sources.size(); ++v) {
      versions.Add(sources[v].get(), sharded[v]);
    }
  }
  versions.slot_of_version[1] = 0;
  const ServePlan plan = MakeServePlan(
      *sources[0], spec.traffic, nullptr, kServeOpenShare * opt.seconds,
      kServeClosedShare * opt.seconds, opt.seed);
  std::printf("%s: %d domains x %d users, %d items, %d shards, %zu arrivals\n",
              opt.workload.c_str(), 2, spec.users, spec.items, spec.shards,
              plan.schedule.size());

  r->Set("setup_s", Median(setup_s), "s", kSetupReps);
  r->Set("stage.ready_s", Median(ready_s), "s", kSetupReps);
  r->Set("stage.generate_s", generate_s, "s");
  r->Set("stage.shard_s", shard_s, "s");
  r->Set("stage.coverage", shard_s / ready_s.back(), "ratio");
  RunServing(server.get(), &versions, plan, opt.trace, r);
  server->Stop();
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

int SelfTest() {
  std::vector<std::string> failures;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };

  const std::vector<int64_t> a = PoissonSchedule(5, {1000.0}, 1.0, 1.0);
  const std::vector<int64_t> b = PoissonSchedule(5, {1000.0}, 1.0, 1.0);
  const std::vector<int64_t> c = PoissonSchedule(6, {1000.0}, 1.0, 1.0);
  expect(a == b, "schedule differs for the same seed");
  expect(a != c, "schedule equal for different seeds");
  expect(a.size() > 850 && a.size() < 1150,
         "1000 req/s for 1 s gave " + std::to_string(a.size()) + " arrivals");
  expect(std::is_sorted(a.begin(), a.end()) && !a.empty() && a.front() > 0 &&
             a.back() < 1'000'000'000,
         "schedule not increasing inside [0, 1 s)");
  const std::vector<int64_t> bursty =
      PoissonSchedule(7, {9000.0, 1000.0}, 0.5, 2.0);
  int64_t in_high = 0;
  for (const int64_t t : bursty) {
    in_high += (t / 500'000'000) % 2 == 0 ? 1 : 0;
  }
  const auto in_low = static_cast<int64_t>(bursty.size()) - in_high;
  expect(in_high > 8000 && in_high < 10000 && in_low > 800 && in_low < 1200,
         "alternating phases gave " + std::to_string(in_high) + " / " +
             std::to_string(in_low) + " arrivals");

  SyntheticSnapshotSpec synth;
  synth.users_per_domain = 50;
  synth.items_per_domain = 40;
  const ModelSnapshot snapshot = ModelSnapshot::MakeSynthetic(synth);
  TrafficSpec traffic;
  traffic.rates = {100.0};
  traffic.interactive = 0.7;
  traffic.max_exclusions = 20;
  const auto ra = DrawRequests(snapshot, traffic, nullptr, 200, 9);
  const auto rb = DrawRequests(snapshot, traffic, nullptr, 200, 9);
  bool same = true;
  for (size_t i = 0; i < ra.size(); ++i) {
    same = same && ra[i].rec.user == rb[i].rec.user &&
           ra[i].rec.user_domain == rb[i].rec.user_domain &&
           ra[i].rec.target_domain == rb[i].rec.target_domain &&
           ra[i].rec.exclude == rb[i].rec.exclude && ra[i].cls == rb[i].cls;
  }
  expect(same, "request plan differs for the same seed");

  std::vector<double> v(1000);
  for (int i = 0; i < 1000; ++i) v[i] = 1000 - i;  // 1..1000, unsorted
  expect(Percentile(v, 0.5) == 500.0, "p50 of 1..1000 is not 500");
  expect(Percentile(v, 0.99) == 990.0, "p99 of 1..1000 is not 990");
  expect(Percentile(v, 1.0) == 1000.0, "p100 of 1..1000 is not 1000");
  expect(Percentile(v, 0.0) == 1.0, "p0 of 1..1000 is not 1");
  const double p99 = Percentile(v, 0.99);
  expect(std::count_if(v.begin(), v.end(),
                       [p99](double x) { return x > p99; }) == 10,
         "not 10 samples beyond p99 of 1000");
  expect(Percentile({7.0}, 0.99) == 7.0, "percentile of one sample");
  expect(Median({3.0, 1.0, 2.0}) == 2.0, "median of {3,1,2} is not 2");
  expect(Percentile({}, 0.5) == 0.0, "percentile of no samples");

  for (const std::string& f : failures) std::printf("FAIL: %s\n", f.c_str());
  std::printf("self-test: %s\n", failures.empty() ? "ok" : "FAILED");
  return failures.empty() ? 0 : 1;
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  if (flags.Has("self-test")) return SelfTest();
  Options opt;
  opt.workload = flags.GetString("workload");
  opt.seed = flags.GetInt("seed", 1);
  opt.seconds = flags.GetDouble("seconds", 10.0);
  opt.trace = flags.GetInt("trace", 0) != 0;
  opt.tmp_dir = flags.GetString("tmp", ".");
  if (opt.seconds < 1.0 || opt.seconds > 600.0) {
    std::fprintf(stderr, "--seconds must be in [1, 600]\n");
    return 2;
  }

  ThreadPool::SetSharedThreads(PoolThreads());
  RegisterNmcdrModel();
  std::printf("bench_e2e: workload %s, seed %d, %.3g s, trace %d, nproc %u, "
              "pool %d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
              std::thread::hardware_concurrency(), ThreadPool::SharedThreads());

  Result r;
  if (opt.workload == "train") {
    RunTrainWorkload(opt, &r);
  } else if (opt.workload == "pipeline") {
    RunPipelineWorkload(opt, &r);
  } else if (opt.workload == "serve-large") {
    SyntheticServeSpec spec;
    spec.items = 20000;
    spec.traffic.rates = {400.0};
    spec.traffic.phase_s = opt.seconds;
    RunServeWorkload(opt, spec, &r);
  } else if (opt.workload == "serve-mixed") {
    SyntheticServeSpec spec;
    spec.items = 2000;
    spec.versions = 2;
    spec.traffic.rates = {4000.0, 1000.0};
    spec.traffic.phase_s = 0.5;
    spec.traffic.interactive = 0.7;
    spec.traffic.max_exclusions = 20;
    // Every 2 s, and at least twice in a short run.
    spec.traffic.publish_every_s =
        std::min(2.0, kServeOpenShare * opt.seconds / 3.0);
    RunServeWorkload(opt, spec, &r);
  } else {
    std::fprintf(stderr,
                 "unknown --workload '%s' (train, pipeline, serve-large, "
                 "serve-mixed)\n",
                 opt.workload.c_str());
    return 2;
  }
  r.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (opt.trace) ProbePool(&r);
  PrintResult(opt.workload, opt.seed, opt.seconds, opt.trace, r);
  return r.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace nmcdr

int main(int argc, char** argv) { return nmcdr::e2e::Main(argc, argv); }
