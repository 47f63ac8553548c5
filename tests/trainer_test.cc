#include "train/trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "core/nmcdr_model.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "tensor/backend.h"
#include "tests/test_util.h"
#include "train/registry.h"
#include "util/thread_pool.h"

namespace nmcdr {
namespace {

using testing_util::TinyData;

NmcdrConfig TinyConfig() {
  NmcdrConfig config;
  config.hidden_dim = 8;
  config.mlp_hidden = {16};
  return config;
}

TEST(TrainerTest, LossDecreasesOverTraining) {
  auto data = TinyData();
  NmcdrModel model(data->View(), TinyConfig(), /*seed=*/1, 5e-3f);
  const auto [first, last] =
      testing_util::TrainLossTrend(&model, *data, /*steps=*/120);
  EXPECT_LT(last, first);
}

TEST(TrainerTest, RunsConfiguredEpochs) {
  auto data = TinyData();
  NmcdrModel model(data->View(), TinyConfig(), 1, 1e-3f);
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 64;
  Trainer trainer(data->View(), config);
  const TrainSummary summary = trainer.Train(&model);
  EXPECT_EQ(summary.epochs_run, 3);
  EXPECT_GT(summary.train_seconds, 0.0);
}

TEST(TrainerTest, MinTotalStepsRaisesEpochCount) {
  auto data = TinyData();
  NmcdrModel model(data->View(), TinyConfig(), 1, 1e-3f);
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 64;
  // steps/epoch = ceil(max_train / 32); force many more total steps.
  config.min_total_steps = 100;
  Trainer trainer(data->View(), config);
  const TrainSummary summary = trainer.Train(&model);
  const int steps_per_epoch = static_cast<int>(
      (std::max(data->split_z().train.size(),
                data->split_zbar().train.size()) + 31) / 32);
  EXPECT_GE(summary.epochs_run * steps_per_epoch, 100);
}

TEST(TrainerTest, ValidationTrackingReportsBestHr) {
  auto data = TinyData();
  NmcdrModel model(data->View(), TinyConfig(), 1, 5e-3f);
  TrainConfig config;
  config.epochs = 4;
  config.batch_size = 64;
  config.eval_every = 1;
  Trainer trainer(data->View(), config, &data->full_graph_z(),
                  &data->full_graph_zbar());
  const TrainSummary summary = trainer.Train(&model);
  EXPECT_GT(summary.best_valid_hr, 0.0);
}

TEST(TrainerTest, EarlyStoppingHalts) {
  auto data = TinyData();
  NmcdrModel model(data->View(), TinyConfig(), 1, 0.f);  // lr 0: no progress
  TrainConfig config;
  config.epochs = 50;
  config.batch_size = 64;
  config.eval_every = 1;
  config.early_stop_patience = 2;
  Trainer trainer(data->View(), config, &data->full_graph_z(),
                  &data->full_graph_zbar());
  const TrainSummary summary = trainer.Train(&model);
  // First eval sets the best; two stale evals stop at epoch 3.
  EXPECT_LE(summary.epochs_run, 4);
}

TEST(TrainerTest, BestCheckpointRestoredAfterDegradation) {
  // A model whose Score quality degrades monotonically with every train
  // step: the trainer must restore the parameters of the earliest (best)
  // evaluation.
  class DegradingModel : public RecModel {
   public:
    explicit DegradingModel(const DomainSplit* split) : split_(split) {
      quality_ = store_.Register("q", Matrix(1, 1, 10.f));
    }
    std::string name() const override { return "degrading"; }
    float TrainStep(const LabeledBatch&, const LabeledBatch&) override {
      quality_.mutable_value().At(0, 0) -= 1.f;
      return 0.f;
    }
    std::vector<float> Score(DomainSide, const std::vector<int>& users,
                             const std::vector<int>& items) override {
      // With positive quality, prefer the held-out item; with negative
      // quality, prefer everything else.
      const float q = quality_.value().At(0, 0);
      std::vector<float> out(users.size());
      for (size_t i = 0; i < users.size(); ++i) {
        const bool is_held_out = split_->test_item[users[i]] == items[i] ||
                                 split_->valid_item[users[i]] == items[i];
        out[i] = is_held_out ? q : 0.f;
      }
      return out;
    }
    ag::ParameterStore* params() override { return &store_; }
    float quality() const { return quality_.value().At(0, 0); }

   private:
    const DomainSplit* split_;
    ag::ParameterStore store_;
    ag::Tensor quality_;
  };

  auto data = TinyData();
  DegradingModel model(&data->split_z());
  TrainConfig config;
  config.epochs = 12;
  config.batch_size = 1000000;  // 1 step per epoch
  config.eval_every = 1;
  Trainer trainer(data->View(), config, &data->full_graph_z(),
                  &data->full_graph_zbar());
  trainer.Train(&model);
  // After 12 degradation steps quality would be -2; the restored best
  // checkpoint is from epoch 1 (quality 9).
  EXPECT_NEAR(model.quality(), 9.f, 1e-5f);
}

/// Training runs on one thread: the default backend is the vector one,
/// and a threads = 0 run of the production NMCDR shape dispatches nothing
/// onto the shared pool — no per-kernel fork/join on any step.
TEST(TrainerTest, DefaultTrainingForksNothing) {
  EXPECT_STREQ(CurrentBackend().name(), "vector");

  auto data = TinyData();
  NmcdrModel model(data->View(), NmcdrConfig(), /*seed=*/1, 1e-3f);
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 256;
  config.threads = 0;
  Trainer trainer(data->View(), config);
  ThreadPool* pool = ThreadPool::Shared();
  const int64_t before = pool->tasks_executed();
  trainer.Train(&model);
  EXPECT_EQ(pool->tasks_executed(), before);
}

/// TrainConfig::threads picks a backend, never a thread count: 0 inherits,
/// 1 pins the serial reference, and Trainer rejects anything else.
TEST(TrainerDeathTest, RejectsThreadsAboveOne) {
  auto data = TinyData();
  TrainConfig config;
  config.threads = 2;
  EXPECT_DEATH(Trainer(data->View(), config), "config_.threads");
}

/// The replayed step hands kernels unfilled arena storage for every output
/// they fully overwrite. In NMCDR_DEBUG_CHECKS builds that storage is
/// NaN-poisoned when handed out, so a kernel reading an element before
/// writing it would turn the fused loss into NaN or at least move it. NMCDR
/// and MiNet (the two NeighborAttention users) must land on the same final
/// loss bit for bit fused (arena replay), eager, and fused on the serial
/// reference backend.
TEST(TrainerTest, WriteOnceReplayMatchesEagerAndSerial) {
  RegisterAllModels();
  for (const char* name : {"NMCDR", "MiNet"}) {
    SCOPED_TRACE(name);
    auto run = [&](bool fusion, const KernelBackend* backend,
                   double* replay_steps) {
      const BackendGuard guard(backend);
      const obs::MetricsEnabledGuard metrics(true);
      auto data = TinyData();
      CommonHyper hyper;
      hyper.embed_dim = 8;
      hyper.mlp_hidden = {16};
      std::unique_ptr<RecModel> model =
          ModelRegistry::Instance().Get(name)(data->View(), hyper, 1e-3f);
      TrainConfig config;
      config.epochs = 2;
      config.batch_size = 64;
      config.fusion = fusion;
      Trainer trainer(data->View(), config);
      const float loss = trainer.Train(model.get()).final_loss;
      if (replay_steps != nullptr) {
        *replay_steps = obs::MetricsRegistry::Global()
                            .GetGauge("program.replay_steps")
                            .Value();
      }
      return loss;
    };
    double replay_steps = 0.0;
    const float fused = run(/*fusion=*/true, nullptr, &replay_steps);
    EXPECT_GT(replay_steps, 0.0);  // the arena path really ran
    EXPECT_FALSE(std::isnan(fused));
    const float eager = run(/*fusion=*/false, nullptr, nullptr);
    const float serial = run(/*fusion=*/true, &SerialKernelBackend(), nullptr);
    EXPECT_EQ(0, std::memcmp(&fused, &eager, sizeof(float)))
        << fused << " vs " << eager;
    EXPECT_EQ(0, std::memcmp(&fused, &serial, sizeof(float)))
        << fused << " vs " << serial;
  }
}

TEST(TrainerTest, BatchesHaveConfiguredNegativeRatio) {
  // Inspect batches via a capturing model.
  class CapturingModel : public RecModel {
   public:
    std::string name() const override { return "capture"; }
    float TrainStep(const LabeledBatch& z, const LabeledBatch& zbar) override {
      for (const LabeledBatch* b : {&z, &zbar}) {
        int pos = 0, neg = 0;
        for (float label : b->labels) (label > 0.5f ? pos : neg)++;
        EXPECT_EQ(neg, pos * 3);
      }
      ++steps;
      return 0.f;
    }
    std::vector<float> Score(DomainSide, const std::vector<int>& users,
                             const std::vector<int>&) override {
      return std::vector<float>(users.size(), 0.f);
    }
    ag::ParameterStore* params() override { return &store_; }
    int steps = 0;

   private:
    ag::ParameterStore store_;
  };

  auto data = TinyData();
  CapturingModel model;
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 64;
  config.negatives_per_positive = 3;
  Trainer trainer(data->View(), config);
  trainer.Train(&model);
  EXPECT_GT(model.steps, 0);
}

TEST(TrainerTest, NegativesAreTrueNegatives) {
  class NegCheckModel : public RecModel {
   public:
    explicit NegCheckModel(const InteractionGraph* graph) : graph_(graph) {}
    std::string name() const override { return "negcheck"; }
    float TrainStep(const LabeledBatch& z, const LabeledBatch&) override {
      for (int i = 0; i < z.size(); ++i) {
        if (z.labels[i] < 0.5f) {
          EXPECT_FALSE(graph_->HasInteraction(z.users[i], z.items[i]));
        } else {
          EXPECT_TRUE(graph_->HasInteraction(z.users[i], z.items[i]));
        }
      }
      return 0.f;
    }
    std::vector<float> Score(DomainSide, const std::vector<int>& users,
                             const std::vector<int>&) override {
      return std::vector<float>(users.size(), 0.f);
    }
    ag::ParameterStore* params() override { return &store_; }

   private:
    const InteractionGraph* graph_;
    ag::ParameterStore store_;
  };

  auto data = TinyData();
  NegCheckModel model(&data->train_graph_z());
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 32;
  Trainer trainer(data->View(), config);
  trainer.Train(&model);
}

}  // namespace
}  // namespace nmcdr
