#ifndef NMCDR_TRAIN_TRAINER_H_
#define NMCDR_TRAIN_TRAINER_H_

#include "core/rec_model.h"
#include "eval/evaluator.h"
#include "graph/sampling.h"

namespace nmcdr {

/// Training-loop parameters (§III.A.4: batch 512, lr 1e-4, 1 negative per
/// positive for training — scaled defaults for the CPU substrate).
struct TrainConfig {
  int epochs = 10;
  /// Lower bound on total optimizer steps: tiny scenarios (few steps per
  /// epoch) get their epoch count raised so every model sees at least this
  /// many updates. 0 disables.
  int min_total_steps = 0;
  int batch_size = 256;
  float learning_rate = 1e-3f;
  int negatives_per_positive = 1;
  uint64_t seed = 7;
  /// Evaluate on validation every `eval_every` epochs and snapshot the
  /// best parameters (restored at the end — the stand-in for the paper's
  /// best-of-5-runs selection). 0 = never, -1 = auto (~8 evaluations).
  int eval_every = 0;
  /// With eval_every active, stop after this many non-improving
  /// evaluations (0 = never stop early).
  int early_stop_patience = 0;
  /// Kernel threads for this run: 0 = inherit the process-wide backend
  /// (by default one thread of vector tile cores, the fastest setting at
  /// D = 16), 1 = force the serial reference backend (slower than the
  /// default), >1 = the parallel backend over the shared pool. Results
  /// are bit-identical at any setting — backends are bit-exact by contract
  /// (tensor/backend.h).
  int threads = 0;
  /// Compile the first training step into a graph program (src/program)
  /// and replay it — fused kernels + arena-planned buffers — for the rest
  /// of the run. Bitwise-identical to eager by contract; ANDed with the
  /// NMCDR_FUSION environment switch. Any unfusable op stream falls back
  /// to eager deterministically.
  bool fusion = true;
  bool verbose = false;
};

/// Summary of a training run.
struct TrainSummary {
  int epochs_run = 0;
  float final_loss = 0.f;
  double train_seconds = 0.0;
  /// Mean validation HR@10 over the two domains at the best evaluation
  /// (only populated when eval_every > 0).
  double best_valid_hr = 0.0;
};

/// Mini-batch trainer over both domains simultaneously: each step draws a
/// batch of positives from each domain's train split (cycling with
/// reshuffle) and pairs every positive with sampled negatives.
class Trainer {
 public:
  /// Graphs for validation-time negative sampling must be the FULL graphs
  /// (all interactions) of each domain; pass nullptr to disable eval.
  Trainer(const ScenarioView& view, const TrainConfig& config,
          const InteractionGraph* full_graph_z = nullptr,
          const InteractionGraph* full_graph_zbar = nullptr);

  /// Runs the configured number of epochs on `model`.
  TrainSummary Train(RecModel* model);

 private:
  LabeledBatch NextBatch(DomainSide side, Rng* rng);

  struct DomainCursor {
    std::vector<Interaction> order;
    size_t next = 0;
  };

  ScenarioView view_;
  TrainConfig config_;
  const InteractionGraph* full_graph_z_;
  const InteractionGraph* full_graph_zbar_;
  NegativeSampler sampler_z_;
  NegativeSampler sampler_zbar_;
  DomainCursor cursor_z_;
  DomainCursor cursor_zbar_;
};

}  // namespace nmcdr

#endif  // NMCDR_TRAIN_TRAINER_H_
