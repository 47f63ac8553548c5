// bench_trainer: eager vs fused (graph-program) training throughput for
// the NMCDR model (src/program). Runs the same pre-drawn batch sequence
// through an eager twin and a fused twin (record one step, replay the
// rest) and reports per-epoch wall time for both modes, the fused
// speedup, steady-state heap allocations per replayed step (must be 0 —
// the arena plan covers all tensor storage), and the arena
// reservation/peak. Before any timing, every step's fused loss is checked
// bit-equal to the eager twin's, so the numbers can never come from a
// divergent numeric path; the binary exits non-zero on any mismatch, on a
// replay fallback, or on steady-state heap/arena growth.
//
// Writes BENCH_trainer.json next to the binary; the `trainer[]` entries
// carry `fused_speedup`, which scripts/check_bench_regression.py gates
// against bench/baselines/trainer_baseline.json (higher is better). Both
// twins run with the serial reference backend pinned, but the replay
// calls the vector GEMM cores under any backend while the eager twin runs
// the serial loops, so the ratio measures replay's vector GEMMs plus
// fusion against the serial eager step; fusion alone, on the default
// backend, is bench/e2e's program.{eager,fused}_step_ms.
//
// `--smoke` shrinks the step counts so the binary doubles as a CTest.
// NMCDR_FUSION=0 is intentionally ignored here (the whole point is to
// measure the fused path): the program scopes are driven directly.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/rec_model.h"
#include "data/presets.h"
#include "graph/sampling.h"
#include "program/program.h"
#include "tensor/backend.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "train/experiment.h"
#include "train/registry.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace nmcdr {
namespace {

struct TrainerResult {
  std::string name;
  int steps_per_epoch = 0;
  double eager_epoch_seconds = 0.0;
  double fused_epoch_seconds = 0.0;
  double fused_speedup = 0.0;
  int64_t steady_heap_allocs_per_step = 0;
  int64_t arena_reserved_bytes = 0;
  int64_t arena_peak_bytes = 0;
  int fusion_groups = 0;
  int spmm_plans = 0;
};

/// Draws the full batch sequence up front so both twins see byte-identical
/// training data in the same order.
std::vector<std::pair<LabeledBatch, LabeledBatch>> DrawBatches(
    const ExperimentData& data, int steps, int batch_size) {
  Rng rng(41);
  NegativeSampler sampler_z(&data.train_graph_z());
  NegativeSampler sampler_zbar(&data.train_graph_zbar());
  auto draw = [&](const DomainSplit& split, const NegativeSampler& sampler) {
    LabeledBatch batch;
    batch.users.reserve(batch_size);
    batch.items.reserve(batch_size);
    batch.labels.reserve(batch_size);
    for (int i = 0; i < batch_size / 2; ++i) {
      const Interaction pos =
          split.train[rng.NextUint64(split.train.size())];
      batch.users.push_back(pos.user);
      batch.items.push_back(pos.item);
      batch.labels.push_back(1.f);
      batch.users.push_back(pos.user);
      batch.items.push_back(sampler.SampleNegative(pos.user, &rng));
      batch.labels.push_back(0.f);
    }
    return batch;
  };
  std::vector<std::pair<LabeledBatch, LabeledBatch>> batches;
  batches.reserve(steps);
  for (int s = 0; s < steps; ++s) {
    batches.emplace_back(draw(data.split_z(), sampler_z),
                         draw(data.split_zbar(), sampler_zbar));
  }
  return batches;
}

std::unique_ptr<RecModel> MakeModel(const ExperimentData& data) {
  CommonHyper hyper;
  hyper.seed = 3;
  return ModelRegistry::Instance().Get("NMCDR")(data.View(), hyper,
                                                /*lr=*/1e-3f);
}

bool RunOne(const ExperimentData& data, int steps_per_epoch, int epochs,
            TrainerResult* result) {
  const int warmup = 3;
  const int total_steps = warmup + steps_per_epoch * epochs;
  const auto batches = DrawBatches(data, total_steps, /*batch_size=*/256);

  // Eager twin: time everything after warm-up.
  auto eager = MakeModel(data);
  std::vector<float> eager_loss(total_steps);
  double eager_seconds = 0.0;
  for (int s = 0; s < total_steps; ++s) {
    Stopwatch timer;
    eager_loss[s] = eager->TrainStep(batches[s].first, batches[s].second);
    if (s >= warmup) eager_seconds += timer.ElapsedSeconds();
  }

  // Fused twin: record step 0, replay every following step. Warm-up
  // replays let lazily sized buffers (optimizer state, grad shapes, group
  // bookkeeping capacity) reach steady state before counters are read.
  auto fused = MakeModel(data);
  prog::GraphProgram program;
  std::vector<float> fused_loss(total_steps);
  double fused_seconds = 0.0;
  bool all_replayed = true;
  int64_t heap_before = 0;
  {
    prog::GraphProgram::RecordScope record(&program);
    fused_loss[0] = fused->TrainStep(batches[0].first, batches[0].second);
  }
  if (!program.usable()) {
    std::fprintf(stderr, "FAIL: program did not compile for NMCDR\n");
    return false;
  }
  const int64_t growth_after_compile = program.stats().arena_growth_events;
  for (int s = 1; s < total_steps; ++s) {
    if (s == warmup) heap_before = Matrix::HeapAllocCount();
    Stopwatch timer;
    prog::GraphProgram::ReplayScope replay(&program);
    fused_loss[s] = fused->TrainStep(batches[s].first, batches[s].second);
    if (s >= warmup) fused_seconds += timer.ElapsedSeconds();
    all_replayed = all_replayed && replay.replayed();
  }
  const int64_t heap_delta = Matrix::HeapAllocCount() - heap_before;
  const prog::ProgramStats stats = program.stats();

  // Gates: bitwise equality on every step, no fallback, no steady-state
  // tensor-storage heap traffic, no arena growth past the reservation.
  bool ok = true;
  for (int s = 0; s < total_steps; ++s) {
    if (std::memcmp(&eager_loss[s], &fused_loss[s], sizeof(float)) != 0) {
      std::fprintf(stderr, "FAIL: loss diverged at step %d: %g vs %g\n", s,
                   eager_loss[s], fused_loss[s]);
      ok = false;
      break;
    }
  }
  if (!all_replayed || stats.fallback_steps != 0) {
    std::fprintf(stderr, "FAIL: %lld replay steps fell back to eager\n",
                 static_cast<long long>(stats.fallback_steps));
    ok = false;
  }
  const int measured_steps = steps_per_epoch * epochs;
  if (heap_delta != 0) {
    std::fprintf(stderr,
                 "FAIL: %lld heap allocations across %d steady-state "
                 "replay steps (want 0)\n",
                 static_cast<long long>(heap_delta), measured_steps);
    ok = false;
  }
  if (stats.arena_growth_events != growth_after_compile) {
    std::fprintf(stderr, "FAIL: arena grew %lld times after compile\n",
                 static_cast<long long>(stats.arena_growth_events -
                                        growth_after_compile));
    ok = false;
  }

  result->name = "NMCDR " + data.scenario().name;
  result->steps_per_epoch = steps_per_epoch;
  result->eager_epoch_seconds = eager_seconds / epochs;
  result->fused_epoch_seconds = fused_seconds / epochs;
  result->fused_speedup =
      fused_seconds > 0.0 ? eager_seconds / fused_seconds : 0.0;
  result->steady_heap_allocs_per_step =
      measured_steps > 0 ? heap_delta / measured_steps : 0;
  result->arena_reserved_bytes = stats.arena_reserved_bytes;
  result->arena_peak_bytes = stats.arena_peak_bytes;
  result->fusion_groups = stats.fusion_groups;
  result->spmm_plans = stats.spmm_plans;
  return ok;
}

void WriteJson(const std::string& path,
               const std::vector<TrainerResult>& results, bool smoke) {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"trainer\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const TrainerResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\""
        << ", \"steps_per_epoch\": " << r.steps_per_epoch
        << ", \"eager_epoch_seconds\": "
        << FormatFloat(r.eager_epoch_seconds, 5)
        << ", \"fused_epoch_seconds\": "
        << FormatFloat(r.fused_epoch_seconds, 5)
        << ", \"fused_speedup\": " << FormatFloat(r.fused_speedup, 3)
        << ", \"steady_heap_allocs_per_step\": "
        << r.steady_heap_allocs_per_step
        << ", \"arena_reserved_bytes\": " << r.arena_reserved_bytes
        << ", \"arena_peak_bytes\": " << r.arena_peak_bytes
        << ", \"fusion_groups\": " << r.fusion_groups
        << ", \"spmm_plans\": " << r.spmm_plans << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

int Run(bool smoke) {
  const BenchScale scale = smoke ? BenchScale::kSmoke : BenchScaleFromEnv();
  std::printf("bench_trainer (%s scale, hardware_concurrency=%u)\n",
              BenchScaleName(scale).c_str(),
              std::thread::hardware_concurrency());
  RegisterAllModels();
  // The eager twin runs the serial reference loops (see the header).
  BackendGuard backend(&SerialKernelBackend());

  const int steps_per_epoch = smoke ? 30 : 200;
  const int epochs = smoke ? 2 : 3;

  std::vector<TrainerResult> results;
  bool ok = true;
  for (const SyntheticScenarioSpec& spec : AllScenarioSpecs(scale)) {
    ExperimentData data(GenerateScenario(spec), spec.seed + 1);
    TrainerResult result;
    ok = RunOne(data, steps_per_epoch, epochs, &result) && ok;
    results.push_back(result);
    break;  // one preset is enough for the trajectory; keep runs fast
  }

  TablePrinter table;
  table.SetHeader({"Run", "Eager s/epoch", "Fused s/epoch", "Speedup",
                   "Allocs/step", "Arena peak KiB", "Groups", "SpMM"});
  for (const TrainerResult& r : results) {
    table.AddRow({r.name, FormatFloat(r.eager_epoch_seconds, 4),
                  FormatFloat(r.fused_epoch_seconds, 4),
                  FormatFloat(r.fused_speedup, 2) + "x",
                  std::to_string(r.steady_heap_allocs_per_step),
                  std::to_string(r.arena_peak_bytes / 1024),
                  std::to_string(r.fusion_groups),
                  std::to_string(r.spmm_plans)});
  }
  std::printf("%s", table.ToString().c_str());

  WriteJson("BENCH_trainer.json", results, smoke);
  if (!ok) {
    std::printf("FAILED: fused trainer diverged from eager (see above)\n");
    return 1;
  }
  std::printf("fused == eager bitwise on every step; steady state "
              "allocation-free\n");
  return 0;
}

}  // namespace
}  // namespace nmcdr

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return nmcdr::Run(smoke);
}
