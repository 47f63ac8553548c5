// nmcdr_serve — end-to-end serving demo: train NMCDR on a synthetic
// two-domain scenario, freeze it into a snapshot file, reload the file,
// and serve a concurrent request mix through the InferenceServer.
//
//   nmcdr_serve [--scenario loan-fund] [--scale smoke|small|full]
//               [--steps 600] [--dim 16] [--seed 7]
//               [--snapshot model.snapshot] [--threads 4] [--batch 8]
//               [--requests 400] [--k 10] [--mode exact|fast|quantized]
//               [--backend serial|vector|parallel]
//               [--shards N] [--layout layout.json]
//               [--metrics-out metrics.json] [--profile]
//
// The tool prints the engine's usage counters and the server's latency /
// throughput stats, and leaves the snapshot file on disk so a later run
// can be pointed at it (skipping training) with --load-only.
//
// --threads N sizes both the shared kernel pool (training + batched
// scoring; defaults to NMCDR_THREADS or all cores) and the server's
// concurrent drainer limit.
//
// --backend pins the process-default kernel backend (same knob as
// NMCDR_BACKEND, which it overrides): `serial` is the bit-exact
// reference, `vector` (default) the register-blocked SIMD kernels on the
// calling thread, `parallel` the pool-sharded tiles over the vector
// cores. Results are bit-identical across all three by the backend
// contract.
//
// --mode quantized serves the per-row int8 item tables
// (serving/quantized_snapshot.h): the tool quantizes at freeze, saves the
// artifact next to the snapshot (<snapshot>.quant), reloads it, and
// serves from the reloaded artifact — the full deployment pipeline.
// Ranking agreement vs exact is reported by bench_quant and gated in CI.
//
// --shards N serves through the sharded cluster runtime instead of the
// monolithic InferenceServer: the snapshot is partitioned by a uniform
// ShardLayout into N shards, published through a SnapshotRegistry, and
// the request mix is driven through the ClusterServer's admission queue
// (every 4th request in the batch class, the rest interactive).
// --layout PATH loads a declarative NMCDR_SHARD_LAYOUT_V1 JSON instead
// of the uniform split; it must Validate against the snapshot.
//
// --metrics-out PATH writes the full observability dump (schema
// NMCDR_OBS_V1, src/obs/export.h): trainer epoch spans, per-kernel call
// counts + FLOP estimates, scoring counters, and the serving latency
// histogram with p50/p95/p99 (the server is bound to the global registry
// here; the cluster path lands its cluster.* metrics the same way). The
// dump is flushed on EVERY exit path, including early failures, so a
// crashed run still leaves its partial metrics behind for diagnosis.
// --profile additionally enables per-op / per-kernel wall-clock timing
// for this run.

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/nmcdr_model.h"
#include "data/presets.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serving/cluster/cluster_server.h"
#include "serving/cluster/shard_layout.h"
#include "serving/cluster/sharded_snapshot.h"
#include "serving/inference_server.h"
#include "serving/model_snapshot.h"
#include "serving/quantized_snapshot.h"
#include "serving/score_engine.h"
#include "tensor/backend.h"
#include "train/experiment.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace nmcdr {
namespace {

BenchScale ParseScale(const std::string& s) {
  if (s == "smoke") return BenchScale::kSmoke;
  if (s == "full") return BenchScale::kFull;
  return BenchScale::kSmall;
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

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("profile", false)) obs::SetProfilingEnabled(true);
  MetricsFlusher metrics_flusher(flags.GetString("metrics-out", ""));
  if (flags.Has("threads")) {
    ThreadPool::SetSharedThreads(flags.GetInt("threads", 0));
  }
  if (flags.Has("backend")) {
    const std::string backend_name = flags.GetString("backend", "");
    const KernelBackend* backend = BackendByName(backend_name);
    if (backend == nullptr) {
      std::fprintf(stderr,
                   "--backend %s: unknown (serial, vector, parallel)\n",
                   backend_name.c_str());
      return 2;
    }
    SetDefaultBackend(backend);
    std::printf("kernel backend: %s\n", backend->name());
  }
  // Flag validation before the (seconds-long) train/freeze work below.
  ScoreEngine::Options engine_options;
  const std::string mode_name = flags.GetString("mode", "fast");
  if (mode_name == "exact") {
    engine_options.mode = ScoreEngine::Mode::kExact;
  } else if (mode_name == "quantized") {
    engine_options.mode = ScoreEngine::Mode::kQuantized;
  } else if (mode_name == "fast") {
    engine_options.mode = ScoreEngine::Mode::kFast;
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
    const BenchScale scale = ParseScale(flags.GetString("scale", "smoke"));
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

  // Sharded cluster path: --shards and/or --layout route the same mixed
  // request stream through ShardedSnapshot + SnapshotRegistry +
  // ClusterServer instead of the monolithic engine. Results are
  // bit-exact either way (per-item scores are row-independent); what
  // changes is the execution shape — per-shard fan-out over the shared
  // pool and class-aware admission.
  const int num_shards = flags.GetInt("shards", 0);
  const std::string layout_path = flags.GetString("layout", "");
  if (num_shards > 0 || !layout_path.empty()) {
    cluster::ShardLayout layout;
    std::string error;
    if (!layout_path.empty()) {
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
    cluster::ShardedSnapshot::Options sharded_options;
    sharded_options.mode = engine_options.mode;
    const auto sharded = std::make_shared<const cluster::ShardedSnapshot>(
        snapshot, layout, sharded_options);

    cluster::ClusterServer::Options cluster_options;
    cluster_options.num_threads = flags.GetInt("threads", 4);
    cluster_options.max_batch = flags.GetInt("batch", 8);
    cluster_options.metrics = &obs::MetricsRegistry::Global();
    cluster::ClusterServer server(sharded, cluster_options);

    const int num_requests = flags.GetInt("requests", 400);
    const int k = flags.GetInt("k", 10);
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
    server.Stop();
    std::printf(
        "\ncluster: served %lld/%d top-%d requests (%lld cold-start) over "
        "%d shards, snapshot v%lld\n",
        static_cast<long long>(served), num_requests, k,
        static_cast<long long>(cold), layout.num_shards,
        static_cast<long long>(server.last_observed_version()));
    return metrics_flusher.Flush() ? 0 : 1;
  }

  // Quantized mode runs the full artifact pipeline: quantize at freeze,
  // save, reload, verify the round trip bit-exactly, and serve from the
  // reloaded artifact (the three-argument engine constructor).
  std::unique_ptr<ScoreEngine> engine_storage;
  if (engine_options.mode == ScoreEngine::Mode::kQuantized) {
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
    engine_storage = std::make_unique<ScoreEngine>(&snapshot, engine_options,
                                                   std::move(reloaded));
  } else {
    engine_storage = std::make_unique<ScoreEngine>(&snapshot, engine_options);
  }
  const ScoreEngine& engine = *engine_storage;

  InferenceServer::Options server_options;
  server_options.num_threads = flags.GetInt("threads", 4);
  server_options.max_batch = flags.GetInt("batch", 8);
  // Bind the server to the global registry so its serving.* metrics land
  // in the --metrics-out dump alongside the trainer and kernel tables.
  server_options.metrics = &obs::MetricsRegistry::Global();
  InferenceServer server(&engine, server_options);

  // Mixed request stream: same-domain traffic for both domains plus a
  // cross-domain slice (domain-1 users asking for domain-0 items, served
  // cold-start when the identity link is unknown).
  const int num_requests = flags.GetInt("requests", 400);
  const int k = flags.GetInt("k", 10);
  std::vector<std::future<Recommendation>> futures;
  futures.reserve(num_requests);
  for (int i = 0; i < num_requests; ++i) {
    RecRequest request;
    if (i % 4 == 3 && snapshot.num_domains() >= 2) {
      request.target_domain = 0;
      request.user_domain = 1;
    } else {
      request.target_domain = request.user_domain =
          i % snapshot.num_domains();
    }
    request.user = i % snapshot.domain(request.user_domain).num_users();
    request.k = k;
    futures.push_back(server.Submit(request));
  }
  int64_t cold = 0;
  for (auto& future : futures) {
    if (future.get().cold_start) ++cold;
  }
  server.Stop();

  const ScoreEngine::Counters counters = engine.counters();
  std::printf("\nserved %d top-%d requests (%lld cold-start)\n", num_requests,
              k, static_cast<long long>(cold));
  std::printf("engine: %lld requests, %lld pairs scored\n",
              static_cast<long long>(counters.requests),
              static_cast<long long>(counters.pairs_scored));
  std::printf("%s", server.stats().ToString().c_str());
  return metrics_flusher.Flush() ? 0 : 1;
}

}  // namespace
}  // namespace nmcdr

int main(int argc, char** argv) { return nmcdr::Run(argc, argv); }
