// Tests for the graph-program optimizer stack (src/program + the bump
// arena + the fused kernels): the bump arena's steady-state-zero-growth
// contract, bit-exactness of the fused kernels against the op-by-op
// sequences they replace, record/replay bitwise equality on hand-built
// tapes and on a real model, the zero-allocation steady state the arena
// plan buys (ISSUE-9's acceptance criterion), deterministic eager
// fallback on stream divergence, and the static SpMM gather plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tensor.h"
#include "core/nmcdr_model.h"
#include "program/program.h"
#include "tensor/arena.h"
#include "tensor/backend.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "tests/test_util.h"
#include "train/trainer.h"
#include "util/thread_pool.h"

namespace nmcdr {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Bernoulli(0.125) ? 0.f : rng->Uniform(-2.f, 2.f);
  }
  return m;
}

::testing::AssertionResult BitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  if (a.size() > 0 && std::memcmp(a.data(), b.data(),
                                  sizeof(float) * a.size()) != 0) {
    for (int i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first differing element " << i << ": " << a.data()[i]
               << " vs " << b.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// BumpArena

TEST(BumpArenaTest, ReserveCoversSteadyStateAllocs) {
  BumpArena arena;
  arena.Reserve(1024 * sizeof(float));
  EXPECT_GE(arena.capacity_bytes(), 1024 * sizeof(float));
  const int64_t growth_after_reserve = arena.growth_events();

  for (int step = 0; step < 5; ++step) {
    float* a = arena.Alloc(256);
    float* b = arena.Alloc(512);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(arena.step_bytes(), (256 + 512) * sizeof(float));
    arena.ResetStep();
    EXPECT_EQ(arena.step_bytes(), 0u);
  }
  // Reserve sized the arena; per-step traffic within it never grows.
  EXPECT_EQ(arena.growth_events(), growth_after_reserve);
  EXPECT_EQ(arena.steps(), 5);
  EXPECT_GE(arena.peak_bytes(), (256 + 512) * sizeof(float));
}

TEST(BumpArenaTest, AllocBeyondReserveGrowsAndCounts) {
  BumpArena arena;
  arena.Reserve(16 * sizeof(float));
  const int64_t before = arena.growth_events();
  (void)arena.Alloc(16);
  // Far past any minimum block grain: must append a block (reserve miss).
  const size_t big_floats = arena.capacity_bytes() / sizeof(float) + 1024;
  float* big = arena.Alloc(big_floats);
  ASSERT_NE(big, nullptr);
  EXPECT_GT(arena.growth_events(), before);
  EXPECT_GE(arena.capacity_bytes(), big_floats * sizeof(float));
}

TEST(BumpArenaTest, StorageIsReusedAcrossSteps) {
  BumpArena arena;
  arena.Reserve(64 * sizeof(float));
  float* first = arena.Alloc(64);
  arena.ResetStep();
  float* second = arena.Alloc(64);
  // Same bytes handed out again — the whole point of the bump plan.
  EXPECT_EQ(first, second);
}

TEST(BumpArenaTest, ScopedMatricesBorrowAndCopiesOwnHeap) {
  BumpArena arena;
  arena.Reserve(1024 * sizeof(float));
  (void)arena.Alloc(1);  // fault in the reserved block
  arena.ResetStep();

  Matrix copy;
  {
    ArenaScope scope(&arena);
    const int64_t heap_before = Matrix::HeapAllocCount();
    Matrix borrowed(4, 4, 2.5f);
    // Arena-backed: no heap traffic for the matrix storage.
    EXPECT_EQ(Matrix::HeapAllocCount(), heap_before);
    EXPECT_GT(arena.step_bytes(), 0u);
    // Copies must own heap storage so they survive ResetStep.
    copy = borrowed;
    EXPECT_GT(Matrix::HeapAllocCount(), heap_before);
  }
  arena.ResetStep();
  ASSERT_EQ(copy.size(), 16);
  for (int i = 0; i < copy.size(); ++i) EXPECT_EQ(copy.data()[i], 2.5f);
}

// ---------------------------------------------------------------------------
// Fused kernels: bit-exact against the op-by-op sequences they replace,
// under both backends at several pool sizes.

const int kPoolSizes[] = {1, 2, 3, 5};

template <typename Fn>
void ForEachParallelBackend(Fn check) {
  const SerialBackend& serial = SerialKernelBackend();
  for (int pool_size : kPoolSizes) {
    SCOPED_TRACE("pool size " + std::to_string(pool_size));
    ThreadPool pool(pool_size);
    const ParallelBackend parallel(&pool);
    check(serial, parallel);
  }
}

TEST(FusedKernelTest, MatMulBiasActMatchesComposedOps) {
  Rng rng(11);
  const int shapes[][3] = {{1, 1, 1}, {3, 5, 7}, {7, 3, 2}, {33, 9, 17}};
  const FusedAct acts[] = {FusedAct::kNone, FusedAct::kRelu,
                           FusedAct::kSigmoid, FusedAct::kTanh};
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s[0], s[1], &rng);
    const Matrix b = RandomMatrix(s[1], s[2], &rng);
    const Matrix bias = RandomMatrix(1, s[2], &rng);
    for (FusedAct act : acts) {
      for (bool with_bias : {false, true}) {
        SCOPED_TRACE(std::to_string(s[0]) + "x" + std::to_string(s[1]) +
                     "x" + std::to_string(s[2]) + " act " +
                     std::to_string(static_cast<int>(act)) +
                     (with_bias ? " +bias" : ""));
        const SerialBackend& serial = SerialKernelBackend();
        // Composed reference: the exact eager sequence the fusion replaces.
        Matrix want(s[0], s[2]);
        serial.MatMulAccumInto(a, b, &want);
        if (with_bias) want = serial.AddRowBroadcast(want, bias);
        if (act == FusedAct::kRelu) want = serial.Relu(want);
        if (act == FusedAct::kSigmoid) want = serial.Sigmoid(want);
        if (act == FusedAct::kTanh) want = serial.Tanh(want);

        Matrix got_serial(s[0], s[2]);
        serial.FusedMatMulBiasActInto(a, b, with_bias ? &bias : nullptr, act,
                                      &got_serial);
        EXPECT_TRUE(BitEqual(want, got_serial));

        ForEachParallelBackend([&](const SerialBackend&,
                                   const ParallelBackend& parallel) {
          Matrix got_parallel(s[0], s[2]);
          parallel.FusedMatMulBiasActInto(a, b, with_bias ? &bias : nullptr,
                                          act, &got_parallel);
          EXPECT_TRUE(BitEqual(want, got_parallel));
        });
      }
    }
  }
}

TEST(FusedKernelTest, PlannedTransGemmsMatchReferenceKernels) {
  Rng rng(17);
  // Odd shapes walk every tail-tile width (32/16/8/4/1 float, 8/4/2/1
  // double); RandomMatrix's zeros exercise the av == 0 skip both kernels
  // share.
  const int shapes[][3] = {{1, 1, 1},   {2, 3, 2},    {7, 5, 9},
                           {16, 16, 16}, {33, 17, 21}, {64, 31, 33}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(std::to_string(s[0]) + "x" + std::to_string(s[1]) + "x" +
                 std::to_string(s[2]));
    const SerialBackend& serial = SerialKernelBackend();
    // TransA: A is [k, m], grad-like B is [k, n].
    const Matrix a = RandomMatrix(s[0], s[1], &rng);
    const Matrix g = RandomMatrix(s[0], s[2], &rng);
    const Matrix want_ta = serial.MatMulTransA(a, g);
    EXPECT_TRUE(BitEqual(want_ta, serial.PlannedMatMulTransA(a, g)));
    // TransB: grad-like A is [m, n], B is [j, n].
    const Matrix gy = RandomMatrix(s[0], s[1], &rng);
    const Matrix b = RandomMatrix(s[2], s[1], &rng);
    const Matrix want_tb = serial.MatMulTransB(gy, b);
    EXPECT_TRUE(BitEqual(want_tb, serial.PlannedMatMulTransB(gy, b)));

    ForEachParallelBackend(
        [&](const SerialBackend&, const ParallelBackend& parallel) {
          EXPECT_TRUE(BitEqual(want_ta, parallel.PlannedMatMulTransA(a, g)));
          EXPECT_TRUE(BitEqual(want_tb, parallel.PlannedMatMulTransB(gy, b)));
        });
  }
}

TEST(FusedKernelTest, EltwiseChainMatchesComposedOps) {
  Rng rng(13);
  const Matrix a = RandomMatrix(9, 7, &rng);
  const Matrix s1 = RandomMatrix(9, 7, &rng);
  const Matrix s2 = RandomMatrix(9, 7, &rng);
  const Matrix s3 = RandomMatrix(9, 7, &rng);

  // One chain exercising every EltwiseOp, in an order whose intermediate
  // values stay finite.
  std::vector<EltwiseStep> steps;
  steps.push_back({EltwiseOp::kAddMat, false, 0.f, s1.data()});
  steps.push_back({EltwiseOp::kSubMat, false, 0.f, s2.data()});
  steps.push_back({EltwiseOp::kSubMat, true, 0.f, s3.data()});  // side - cur
  steps.push_back({EltwiseOp::kMulMat, false, 0.f, s1.data()});
  steps.push_back({EltwiseOp::kScale, false, 0.25f, nullptr});
  steps.push_back({EltwiseOp::kAddScalar, false, -0.5f, nullptr});
  steps.push_back({EltwiseOp::kTanh, false, 0.f, nullptr});
  steps.push_back({EltwiseOp::kOneMinus, false, 0.f, nullptr});
  steps.push_back({EltwiseOp::kSoftplus, false, 0.f, nullptr});
  steps.push_back({EltwiseOp::kSigmoid, false, 0.f, nullptr});
  steps.push_back({EltwiseOp::kExp, false, 0.f, nullptr});
  steps.push_back({EltwiseOp::kRelu, false, 0.f, nullptr});

  const SerialBackend& serial = SerialKernelBackend();
  // Composed reference via the separate eager kernels.
  Matrix want = serial.Add(a, s1);
  want = serial.Sub(want, s2);
  want = serial.Sub(s3, want);
  want = serial.Hadamard(want, s1);
  want = serial.Scale(want, 0.25f);
  want = serial.AddScalar(want, -0.5f);
  want = serial.Tanh(want);
  want = serial.Scale(serial.AddScalar(want, -1.f), -1.f);  // 1 - x
  want = serial.Softplus(want);
  want = serial.Sigmoid(want);
  want = serial.Exp(want);
  want = serial.Relu(want);

  Matrix got(9, 7);
  serial.FusedEltwiseInto(a, steps.data(), static_cast<int>(steps.size()),
                          &got);
  EXPECT_TRUE(BitEqual(want, got));

  ForEachParallelBackend([&](const SerialBackend&,
                             const ParallelBackend& parallel) {
    Matrix got_parallel(9, 7);
    parallel.FusedEltwiseInto(a, steps.data(),
                              static_cast<int>(steps.size()), &got_parallel);
    EXPECT_TRUE(BitEqual(want, got_parallel));
  });
}

// ---------------------------------------------------------------------------
// GraphProgram record/replay on hand-built tapes.

/// One "training step" of a tiny fusable tape: relu(w*x + b) summed, plus
/// an eltwise chain on the side. Returns the loss tensor after Backward.
struct TapeResult {
  float loss = 0.f;
  Matrix grad_w;
  Matrix grad_b;
};

TapeResult RunTinyTape(const Matrix& w_val, const Matrix& b_val,
                       const Matrix& x_val) {
  ag::Tensor w(w_val, /*requires_grad=*/true);
  ag::Tensor b(b_val, /*requires_grad=*/true);
  ag::Tensor x(x_val);
  ag::Tensor h = ag::Relu(ag::AddRowBroadcast(ag::MatMul(x, w), b));
  ag::Tensor g = ag::Sigmoid(ag::Scale(ag::Add(h, h), 0.5f));
  ag::Tensor loss = ag::Sum(ag::Hadamard(h, g));
  ag::Backward(loss);
  TapeResult out;
  out.loss = loss.value().data()[0];
  out.grad_w = w.grad();  // copies own heap storage — survive the arena
  out.grad_b = b.grad();
  return out;
}

TEST(GraphProgramTest, ReplayOfHandBuiltTapeIsBitwiseEager) {
  Rng rng(17);
  const Matrix w = RandomMatrix(6, 4, &rng);
  const Matrix b = RandomMatrix(1, 4, &rng);
  std::vector<Matrix> xs;
  for (int i = 0; i < 4; ++i) xs.push_back(RandomMatrix(5, 6, &rng));

  // Eager reference for every step.
  std::vector<TapeResult> want;
  for (const Matrix& x : xs) want.push_back(RunTinyTape(w, b, x));

  prog::GraphProgram program;
  {
    prog::GraphProgram::RecordScope record(&program);
    const TapeResult got = RunTinyTape(w, b, xs[0]);
    EXPECT_EQ(want[0].loss, got.loss);
  }
  ASSERT_TRUE(program.compiled());
  ASSERT_TRUE(program.usable());
  const prog::ProgramStats stats = program.stats();
  EXPECT_GT(stats.fusion_groups, 0);
  EXPECT_GT(stats.fused_ops, 0);
  EXPECT_GT(stats.arena_reserved_bytes, 0);

  for (size_t i = 1; i < xs.size(); ++i) {
    SCOPED_TRACE("replay step " + std::to_string(i));
    prog::GraphProgram::ReplayScope replay(&program);
    const TapeResult got = RunTinyTape(w, b, xs[i]);
    EXPECT_EQ(want[i].loss, got.loss);  // bitwise, not approximately
    EXPECT_TRUE(BitEqual(want[i].grad_w, got.grad_w));
    EXPECT_TRUE(BitEqual(want[i].grad_b, got.grad_b));
    EXPECT_TRUE(replay.replayed());
  }
  EXPECT_EQ(program.stats().replay_steps, 3);
  EXPECT_EQ(program.stats().fallback_steps, 0);
}

TEST(GraphProgramTest, DivergentReplayFallsBackToEagerAndRetires) {
  Rng rng(19);
  const Matrix a_val = RandomMatrix(4, 3, &rng);
  const Matrix b_val = RandomMatrix(4, 3, &rng);

  auto add_step = [&]() {
    ag::Tensor a(a_val, true);
    ag::Tensor b(b_val, true);
    ag::Tensor loss = ag::Sum(ag::Relu(ag::Add(a, b)));
    ag::Backward(loss);
    return loss.value().data()[0];
  };
  auto sub_step = [&](Matrix* grad_a) {
    ag::Tensor a(a_val, true);
    ag::Tensor b(b_val, true);
    ag::Tensor loss = ag::Sum(ag::Relu(ag::Sub(a, b)));
    ag::Backward(loss);
    *grad_a = a.grad();
    return loss.value().data()[0];
  };

  Matrix want_grad_a;
  const float want_sub = sub_step(&want_grad_a);

  prog::GraphProgram program;
  {
    prog::GraphProgram::RecordScope record(&program);
    (void)add_step();
  }
  ASSERT_TRUE(program.usable());

  // The live stream leads with Sub where Add was recorded: the program
  // must retire and let the step finish eagerly with exact results.
  Matrix got_grad_a;
  float got_sub = 0.f;
  {
    prog::GraphProgram::ReplayScope replay(&program);
    got_sub = sub_step(&got_grad_a);
    EXPECT_FALSE(replay.replayed());
  }
  EXPECT_EQ(want_sub, got_sub);
  EXPECT_TRUE(BitEqual(want_grad_a, got_grad_a));
  EXPECT_FALSE(program.usable());
  EXPECT_TRUE(program.stats().dead);
  EXPECT_EQ(program.stats().fallback_steps, 1);

  // A retired program's ReplayScope is a pass-through forever after.
  {
    prog::GraphProgram::ReplayScope replay(&program);
    Matrix again;
    EXPECT_EQ(want_sub, sub_step(&again));
    EXPECT_FALSE(replay.replayed());
  }
}

TEST(GraphProgramTest, SpMMPlanBackwardMatchesEager) {
  Rng rng(23);
  // 5x4 adjacency with an empty row and duplicate-column rows — the
  // gather plan must reproduce MultiplyTransposed's accumulation order.
  std::vector<std::vector<std::pair<int, float>>> rows(5);
  rows[0] = {{0, 0.5f}, {2, 1.5f}};
  rows[1] = {};
  rows[2] = {{1, -1.f}, {2, 0.25f}, {3, 2.f}};
  rows[3] = {{0, 1.f}};
  rows[4] = {{2, -0.75f}, {3, 0.125f}};
  auto adj = std::make_shared<const CsrMatrix>(5, 4, rows);

  auto spmm_step = [&](const Matrix& x_val, Matrix* grad_x) {
    ag::Tensor x(x_val, /*requires_grad=*/true);
    ag::Tensor y = ag::SpMM(adj, x);
    ag::Tensor loss = ag::Sum(ag::Hadamard(y, y));
    ag::Backward(loss);
    *grad_x = x.grad();
    return loss.value().data()[0];
  };

  std::vector<Matrix> xs;
  for (int i = 0; i < 3; ++i) xs.push_back(RandomMatrix(4, 6, &rng));

  std::vector<float> want_loss(xs.size());
  std::vector<Matrix> want_grad(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    want_loss[i] = spmm_step(xs[i], &want_grad[i]);
  }

  prog::GraphProgram program;
  {
    prog::GraphProgram::RecordScope record(&program);
    Matrix g;
    EXPECT_EQ(want_loss[0], spmm_step(xs[0], &g));
  }
  ASSERT_TRUE(program.usable());
  EXPECT_EQ(program.stats().spmm_plans, 1);

  for (size_t i = 1; i < xs.size(); ++i) {
    SCOPED_TRACE("replay step " + std::to_string(i));
    prog::GraphProgram::ReplayScope replay(&program);
    Matrix got_grad;
    EXPECT_EQ(want_loss[i], spmm_step(xs[i], &got_grad));
    EXPECT_TRUE(BitEqual(want_grad[i], got_grad));
    EXPECT_TRUE(replay.replayed());
  }
}

// ---------------------------------------------------------------------------
// End to end on a real model: fused trainer steps are bitwise-eager, and
// steady-state replay performs zero heap allocations for tensor storage.

TEST(GraphProgramTest, RealModelReplayIsBitwiseEagerAndAllocationFree) {
  NmcdrConfig model_config;
  model_config.hidden_dim = 8;
  model_config.mlp_hidden = {16};

  auto data = testing_util::TinyData();
  NmcdrModel eager(data->View(), model_config, /*seed=*/3, 1e-3f);
  NmcdrModel fused(data->View(), model_config, /*seed=*/3, 1e-3f);

  // Identical fixed batches for both twins, every step.
  auto probe = [](const DomainSplit& split) {
    LabeledBatch b;
    const int n = std::min<int>(16, static_cast<int>(split.train.size()));
    for (int i = 0; i < n; ++i) {
      b.users.push_back(split.train[i].user);
      b.items.push_back(split.train[i].item);
      b.labels.push_back(i % 2 == 0 ? 1.f : 0.f);
    }
    return b;
  };
  const LabeledBatch batch_z = probe(data->split_z());
  const LabeledBatch batch_zbar = probe(data->split_zbar());

  constexpr int kSteps = 8;
  std::vector<float> eager_loss;
  for (int i = 0; i < kSteps; ++i) {
    eager_loss.push_back(eager.TrainStep(batch_z, batch_zbar));
  }

  prog::GraphProgram program;
  {
    prog::GraphProgram::RecordScope record(&program);
    EXPECT_EQ(eager_loss[0], fused.TrainStep(batch_z, batch_zbar));
  }
  ASSERT_TRUE(program.compiled());
  const prog::ProgramStats compiled = program.stats();
  EXPECT_GT(compiled.instrs, 0);
  EXPECT_GT(compiled.fusion_groups, 0);
  EXPECT_GT(compiled.spmm_plans, 0);
  EXPECT_GT(compiled.arena_reserved_bytes, 0);

  int64_t heap_after_warmup = 0;
  for (int i = 1; i < kSteps; ++i) {
    SCOPED_TRACE("replay step " + std::to_string(i));
    // Two warm-up replays let every lazily sized buffer (optimizer state,
    // grad shapes, group bookkeeping capacity) reach steady state.
    if (i == 3) heap_after_warmup = Matrix::HeapAllocCount();
    prog::GraphProgram::ReplayScope replay(&program);
    EXPECT_EQ(eager_loss[i], fused.TrainStep(batch_z, batch_zbar));
    EXPECT_TRUE(replay.replayed());
  }
  // ISSUE-9 acceptance: zero per-op heap allocations for tensor storage in
  // the steady state — the heap counter must not move across the post-
  // warm-up replay steps, and the arena never outgrew its compile-time
  // reservation.
  EXPECT_EQ(Matrix::HeapAllocCount(), heap_after_warmup);
  const prog::ProgramStats final_stats = program.stats();
  EXPECT_EQ(final_stats.replay_steps, kSteps - 1);
  EXPECT_EQ(final_stats.fallback_steps, 0);
  EXPECT_EQ(final_stats.arena_growth_events, 0);
  EXPECT_LE(final_stats.arena_peak_bytes, final_stats.arena_reserved_bytes);
}

/// Parameter grads must outlive the step, so they never borrow the replay
/// arena — not even a parameter whose grad is still empty when a replayed
/// step first reaches it (gradients built in backward closures come from
/// the arena, and an empty non-leaf grad adopts them).
TEST(GraphProgramTest, ParameterGradsStayHeapOwnedUnderReplay) {
  Rng rng(31);
  const Matrix x = RandomMatrix(6, 4, &rng);
  // A fresh parameter set per step: the replayed step's parameters start
  // with empty grads, fed by both the rvalue (MatMul backward) and the
  // lvalue (Add backward) accumulation paths.
  auto step = [&](ag::Tensor* w, ag::Tensor* b) {
    *w = ag::Tensor(RandomMatrix(4, 3, &rng), /*requires_grad=*/true);
    *b = ag::Tensor(RandomMatrix(6, 3, &rng), /*requires_grad=*/true);
    ag::Tensor y = ag::Add(ag::MatMul(ag::Tensor(x), *w), *b);
    ag::Backward(ag::Sum(ag::Hadamard(y, y)));
  };
  prog::GraphProgram program;
  ag::Tensor w, b;
  {
    prog::GraphProgram::RecordScope record(&program);
    step(&w, &b);
  }
  ASSERT_TRUE(program.usable());
  {
    prog::GraphProgram::ReplayScope replay(&program);
    step(&w, &b);
    EXPECT_TRUE(replay.replayed());
  }
  for (const ag::Tensor* p : {&w, &b}) {
    ASSERT_FALSE(p->grad().empty());
    EXPECT_FALSE(p->grad().arena_backed());
  }

  // The same on a real model, over several replayed steps.
  NmcdrConfig model_config;
  model_config.hidden_dim = 8;
  model_config.mlp_hidden = {16};
  auto data = testing_util::TinyData();
  NmcdrModel model(data->View(), model_config, /*seed=*/3, 1e-3f);
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 64;
  Trainer trainer(data->View(), config);
  trainer.Train(&model);
  for (const ag::Tensor& p : model.params()->params()) {
    EXPECT_FALSE(p.grad().arena_backed()) << p.raw()->name;
  }
}

/// The trainer honors TrainConfig::fusion: a fused run and an eager run of
/// the same model land on the bit-identical final loss.
TEST(GraphProgramTest, TrainerFusionToggleIsBitwiseNeutral) {
  NmcdrConfig model_config;
  model_config.hidden_dim = 8;
  model_config.mlp_hidden = {16};

  auto run = [&](bool fusion) {
    auto data = testing_util::TinyData();
    NmcdrModel model(data->View(), model_config, /*seed=*/3, 1e-3f);
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 64;
    config.fusion = fusion;
    Trainer trainer(data->View(), config);
    return trainer.Train(&model).final_loss;
  };

  EXPECT_EQ(run(/*fusion=*/true), run(/*fusion=*/false));
}

}  // namespace
}  // namespace nmcdr
