// Bit-exactness fuzz for the kernel backends (src/tensor/backend.h): every
// KernelBackend entry point must produce byte-identical results under the
// serial backend, under the explicitly vectorized backend (register-blocked
// SIMD GEMM family), and under the parallel backend at several pool sizes,
// including 0-row, 1-row, and ragged-tail shapes — tails are where SIMD
// remainder handling breaks first. This is the enforcement arm of the
// backend contract — training and serving results must not depend on the
// backend or thread count. Trainer-level tests close the loop end to end:
// identical final loss serial vs vector vs parallel, across the model zoo.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/nmcdr_model.h"
#include "obs/obs.h"
#include "tensor/backend.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "tests/test_util.h"
#include "train/registry.h"
#include "util/thread_pool.h"

namespace nmcdr {
namespace {

/// Uniform entries in [-2, 2) with ~1/8 exact zeros, so the GEMMs' `av ==
/// 0.f` skip path is exercised by the fuzz.
Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Bernoulli(0.125) ? 0.f : rng->Uniform(-2.f, 2.f);
  }
  return m;
}

/// The NaN this machine's FPU produces for an invalid operation (0/0).
/// When two NaNs meet in an add, IEEE 754 leaves open which one comes out,
/// and the compiler orders commutative operands as it likes — the serial
/// reference and a tile core may legitimately disagree on which of two
/// different NaNs survives. Feeding in the FPU's own NaN keeps one NaN bit
/// pattern in flight, so the bitwise checks stay exact everywhere.
float DefaultNaN() {
  volatile float zero = 0.f;
  return zero / zero;
}

/// Entries for the GEMM tile sweep: uniform values with ~1/4 zeros, half
/// of them −0.0 (so rows of one 4-row tile skip different steps), plus ±Inf
/// and NaN at `special_rate` each. A zero that meets an Inf in B is exactly
/// the case the reference's skip decides (0 * Inf would be NaN).
Matrix SpecialMatrix(int rows, int cols, double special_rate, Rng* rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {inf, -inf, DefaultNaN()};
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    float x = rng->Uniform(-2.f, 2.f);
    if (rng->Bernoulli(0.25)) x = rng->Bernoulli(0.5) ? 0.f : -0.f;
    for (const float special : specials) {
      if (rng->Bernoulli(special_rate)) x = special;
    }
    m.data()[i] = x;
  }
  return m;
}

/// Strictly positive entries for Log.
Matrix RandomPositiveMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(0.1f, 3.f);
  return m;
}

std::vector<int> RandomIds(int count, int table_rows, Rng* rng) {
  std::vector<int> ids(count);
  // Duplicates are likely by construction — ScatterAddRows must keep
  // colliding updates in serial order.
  for (int& id : ids) id = static_cast<int>(rng->NextUint64(table_rows));
  return ids;
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

/// Pool sizes the parallel backend is fuzzed at. 1 (degenerate), 2/3
/// (ragged splits of most shapes), 5 (more chunks than some dimensions).
const int kPoolSizes[] = {1, 2, 3, 5};

/// (rows, cols) shapes covering empty, single-row/col, and ragged tails
/// (sizes not divisible by typical chunk counts).
const int kShapes[][2] = {{0, 4}, {1, 1},  {1, 7},  {3, 5},
                          {7, 3}, {5, 17}, {33, 9}, {64, 1}};

/// Runs `check(serial, other)` once with the vector backend and once per
/// fuzzed pool size with the parallel backend, so every call site fuzzes
/// all non-reference backends against the serial reference.
template <typename Fn>
void ForEachCheckedBackend(Fn check) {
  const SerialBackend& serial = SerialKernelBackend();
  {
    SCOPED_TRACE("vector backend");
    check(serial, VectorKernelBackend());
  }
  for (int pool_size : kPoolSizes) {
    SCOPED_TRACE("pool size " + std::to_string(pool_size));
    ThreadPool pool(pool_size);
    const ParallelBackend parallel(&pool);
    check(serial, parallel);
  }
}

TEST(BackendEquivalenceTest, MatMulFamily) {
  Rng rng(11);
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    for (const auto& shape : kShapes) {
      const int m = shape[0], k = shape[1];
      const int n = 1 + static_cast<int>(rng.NextUint64(19));
      const Matrix a = RandomMatrix(m, k, &rng);
      const Matrix b = RandomMatrix(k, n, &rng);
      SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + " * " +
                   std::to_string(k) + "x" + std::to_string(n));

      Matrix out_s = RandomMatrix(m, n, &rng);  // accumulate onto noise
      Matrix out_p = out_s;
      s.MatMulAccumInto(a, b, &out_s);
      p.MatMulAccumInto(a, b, &out_p);
      EXPECT_TRUE(BitEqual(out_s, out_p));

      const Matrix ta = RandomMatrix(k, m, &rng);
      const Matrix tb = RandomMatrix(k, n, &rng);
      EXPECT_TRUE(BitEqual(s.MatMulTransA(ta, tb), p.MatMulTransA(ta, tb)));

      const Matrix bb = RandomMatrix(n, k, &rng);
      EXPECT_TRUE(BitEqual(s.MatMulTransB(a, bb), p.MatMulTransB(a, bb)));

      EXPECT_TRUE(BitEqual(s.Transpose(a), p.Transpose(a)));
    }
  });
}

TEST(BackendEquivalenceTest, ElementwiseAndBroadcast) {
  Rng rng(12);
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    for (const auto& shape : kShapes) {
      const int r = shape[0], c = shape[1];
      SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c));
      const Matrix a = RandomMatrix(r, c, &rng);
      const Matrix b = RandomMatrix(r, c, &rng);
      EXPECT_TRUE(BitEqual(s.Add(a, b), p.Add(a, b)));
      EXPECT_TRUE(BitEqual(s.Sub(a, b), p.Sub(a, b)));
      EXPECT_TRUE(BitEqual(s.Hadamard(a, b), p.Hadamard(a, b)));
      EXPECT_TRUE(BitEqual(s.Axpby(a, 1.7f, b, -0.3f),
                           p.Axpby(a, 1.7f, b, -0.3f)));
      EXPECT_TRUE(BitEqual(s.Scale(a, -2.5f), p.Scale(a, -2.5f)));
      EXPECT_TRUE(BitEqual(s.AddScalar(a, 0.75f), p.AddScalar(a, 0.75f)));

      Matrix acc_s = RandomMatrix(r, c, &rng);
      Matrix acc_p = acc_s;
      s.AxpyInto(a, 0.5f, &acc_s);
      p.AxpyInto(a, 0.5f, &acc_p);
      EXPECT_TRUE(BitEqual(acc_s, acc_p));

      const Matrix row = RandomMatrix(1, c, &rng);
      EXPECT_TRUE(BitEqual(s.AddRowBroadcast(a, row),
                           p.AddRowBroadcast(a, row)));
      EXPECT_TRUE(BitEqual(s.ConcatCols(a, b), p.ConcatCols(a, b)));
    }
  });
}

TEST(BackendEquivalenceTest, Activations) {
  Rng rng(13);
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    for (const auto& shape : kShapes) {
      const int r = shape[0], c = shape[1];
      SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c));
      const Matrix a = RandomMatrix(r, c, &rng);
      EXPECT_TRUE(BitEqual(s.Relu(a), p.Relu(a)));
      EXPECT_TRUE(BitEqual(s.Sigmoid(a), p.Sigmoid(a)));
      EXPECT_TRUE(BitEqual(s.Tanh(a), p.Tanh(a)));
      EXPECT_TRUE(BitEqual(s.Softplus(a), p.Softplus(a)));
      EXPECT_TRUE(BitEqual(s.Exp(a), p.Exp(a)));
      const Matrix pos = RandomPositiveMatrix(r, c, &rng);
      EXPECT_TRUE(BitEqual(s.Log(pos), p.Log(pos)));
      if (c > 0) {
        EXPECT_TRUE(BitEqual(s.SoftmaxRows(a), p.SoftmaxRows(a)));
      }
    }
  });
}

TEST(BackendEquivalenceTest, Reductions) {
  Rng rng(14);
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    for (const auto& shape : kShapes) {
      const int r = shape[0], c = shape[1];
      SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c));
      const Matrix a = RandomMatrix(r, c, &rng);
      const Matrix b = RandomMatrix(r, c, &rng);
      EXPECT_TRUE(BitEqual(s.RowSum(a), p.RowSum(a)));
      EXPECT_TRUE(BitEqual(s.RowDot(a, b), p.RowDot(a, b)));
      EXPECT_TRUE(BitEqual(s.ColSum(a), p.ColSum(a)));
    }
  });
}

TEST(BackendEquivalenceTest, GatherAndScatter) {
  Rng rng(15);
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    const int table_rows = 23;
    for (int cols : {1, 5, 16}) {
      const Matrix table = RandomMatrix(table_rows, cols, &rng);
      for (int count : {0, 1, 7, 64}) {
        SCOPED_TRACE(std::to_string(count) + " ids, " + std::to_string(cols) +
                     " cols");
        const std::vector<int> ids = RandomIds(count, table_rows, &rng);
        EXPECT_TRUE(BitEqual(s.GatherRows(table, ids),
                             p.GatherRows(table, ids)));

        const Matrix src = RandomMatrix(count, cols, &rng);
        Matrix out_s = RandomMatrix(table_rows, cols, &rng);
        Matrix out_p = out_s;
        s.ScatterAddRows(src, ids, &out_s);
        p.ScatterAddRows(src, ids, &out_p);
        EXPECT_TRUE(BitEqual(out_s, out_p));
      }
    }
  });
}

/// The fused kernels (graph-program replay path): the GEMM+bias+activation
/// epilogue in every activation variant with and without bias, the fused
/// elementwise chain, and the planned backward GEMMs — all bit-exact with
/// serial under the vector backend (whose epilogues run inside the SIMD
/// tile cores) and the parallel backend at every pool size.
TEST(BackendEquivalenceTest, FusedEpilogues) {
  Rng rng(17);
  const FusedAct kActs[] = {FusedAct::kNone, FusedAct::kRelu,
                            FusedAct::kSigmoid, FusedAct::kTanh};
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    for (const auto& shape : kShapes) {
      const int m = shape[0], k = shape[1];
      const int n = 1 + static_cast<int>(rng.NextUint64(19));
      const Matrix a = RandomMatrix(m, k, &rng);
      const Matrix b = RandomMatrix(k, n, &rng);
      const Matrix bias = RandomMatrix(1, n, &rng);
      SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + " * " +
                   std::to_string(k) + "x" + std::to_string(n));
      for (const FusedAct act : kActs) {
        SCOPED_TRACE("act " + std::to_string(static_cast<int>(act)));
        for (const Matrix* bias_arg : {&bias, static_cast<const Matrix*>(
                                                  nullptr)}) {
          Matrix out_s(m, n);
          Matrix out_p(m, n);
          s.FusedMatMulBiasActInto(a, b, bias_arg, act, &out_s);
          p.FusedMatMulBiasActInto(a, b, bias_arg, act, &out_p);
          EXPECT_TRUE(BitEqual(out_s, out_p));
        }
      }

      const Matrix ta = RandomMatrix(k, m, &rng);
      const Matrix tb = RandomMatrix(k, n, &rng);
      EXPECT_TRUE(BitEqual(s.PlannedMatMulTransA(ta, tb),
                           p.PlannedMatMulTransA(ta, tb)));
      const Matrix bb = RandomMatrix(n, k, &rng);
      EXPECT_TRUE(BitEqual(s.PlannedMatMulTransB(a, bb),
                           p.PlannedMatMulTransB(a, bb)));

      // A representative fused elementwise chain (the sigmoid-BCE shape):
      // sigmoid(cur), then side - cur, then scale.
      const Matrix side = RandomMatrix(m, k, &rng);
      EltwiseStep steps[3];
      steps[0].op = EltwiseOp::kSigmoid;
      steps[1].op = EltwiseOp::kSubMat;
      steps[1].rhs = true;
      steps[1].side = side.data();
      steps[2].op = EltwiseOp::kScale;
      steps[2].scalar = 0.5f;
      Matrix ew_s(m, k);
      Matrix ew_p(m, k);
      s.FusedEltwiseInto(a, steps, 3, &ew_s);
      p.FusedEltwiseInto(a, steps, 3, &ew_p);
      EXPECT_TRUE(BitEqual(ew_s, ew_p));
    }
  });
}

/// The GEMM tile paths on the model's real shapes and their edges: row
/// counts around the 4-row accumulate block and the 2-row dot block,
/// column counts around the 8- and 16-lane tiles and the narrow row-lane
/// tail, and depths from 1 past the 64-step accumulate chunk and the
/// 128-step TransB panel (880 is the Music-Movie item count TransA runs
/// at). Every GEMM entry point must match serial bit for bit under the
/// vector backend and the tile-sharded parallel backend, with IEEE
/// special values in every operand and in the accumulate target.
TEST(BackendEquivalenceTest, GemmTileSweepWithSpecialValues) {
  Rng rng(18);
  const SerialBackend& serial = SerialKernelBackend();
  ThreadPool pool(3);
  const ParallelBackend parallel(&pool);
  const KernelBackend* const others[] = {&VectorKernelBackend(), &parallel};
  const FusedAct kActs[] = {FusedAct::kNone, FusedAct::kRelu,
                            FusedAct::kSigmoid, FusedAct::kTanh};
  for (const int m : {1, 3, 4, 5, 390, 880}) {
    for (const int n : {1, 8, 15, 16, 17, 24, 32, 33}) {
      for (const int k : {1, 16, 32, 880}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                     " k=" + std::to_string(k));
        // Rarer specials in deep products, so most sums stay finite.
        const double rate = 0.02 / k + 0.0005;
        const Matrix a = SpecialMatrix(m, k, rate, &rng);
        const Matrix b = SpecialMatrix(k, n, rate, &rng);
        const Matrix noise = SpecialMatrix(m, n, rate, &rng);
        const Matrix ta = SpecialMatrix(k, m, rate, &rng);
        const Matrix tb = SpecialMatrix(k, n, rate, &rng);
        const Matrix bt = SpecialMatrix(n, k, rate, &rng);
        const Matrix bias = SpecialMatrix(1, n, rate, &rng);

        Matrix accum_s = noise;
        serial.MatMulAccumInto(a, b, &accum_s);
        const Matrix trans_a_s = serial.MatMulTransA(ta, tb);
        const Matrix trans_b_s = serial.MatMulTransB(a, bt);
        const Matrix planned_a_s = serial.PlannedMatMulTransA(ta, tb);
        const Matrix planned_b_s = serial.PlannedMatMulTransB(a, bt);
        Matrix fused_s[4];
        for (int f = 0; f < 4; ++f) {
          fused_s[f] = Matrix(m, n);
          serial.FusedMatMulBiasActInto(a, b, &bias, kActs[f], &fused_s[f]);
        }

        for (const KernelBackend* other : others) {
          SCOPED_TRACE(other->name());
          Matrix accum = noise;
          other->MatMulAccumInto(a, b, &accum);
          EXPECT_TRUE(BitEqual(accum_s, accum));
          EXPECT_TRUE(BitEqual(trans_a_s, other->MatMulTransA(ta, tb)));
          EXPECT_TRUE(BitEqual(trans_b_s, other->MatMulTransB(a, bt)));
          EXPECT_TRUE(
              BitEqual(planned_a_s, other->PlannedMatMulTransA(ta, tb)));
          EXPECT_TRUE(
              BitEqual(planned_b_s, other->PlannedMatMulTransB(a, bt)));
          for (int f = 0; f < 4; ++f) {
            SCOPED_TRACE("act " + std::to_string(f));
            Matrix fused(m, n);
            other->FusedMatMulBiasActInto(a, b, &bias, kActs[f], &fused);
            EXPECT_TRUE(BitEqual(fused_s[f], fused));
          }
        }
      }
    }
  }
}

TEST(BackendEquivalenceTest, BackendGuardSelectsPerThread) {
  Rng rng(16);
  const Matrix a = RandomMatrix(4, 4, &rng);
  {
    BackendGuard guard(&SerialKernelBackend());
    EXPECT_STREQ(CurrentBackend().name(), "serial");
    {
      BackendGuard nested(&ParallelKernelBackend());
      EXPECT_STREQ(CurrentBackend().name(), "parallel");
      BackendGuard noop(nullptr);  // keeps whatever is current
      EXPECT_STREQ(CurrentBackend().name(), "parallel");
    }
    EXPECT_STREQ(CurrentBackend().name(), "serial");
    // Dispatchers follow the guard; result identical either way.
    EXPECT_TRUE(BitEqual(Add(a, a), SerialKernelBackend().Add(a, a)));
  }
}

TEST(BackendEquivalenceTest, BackendForThreadsMapsKnob) {
  EXPECT_EQ(BackendForThreads(0), nullptr);
  EXPECT_EQ(BackendForThreads(1), &SerialKernelBackend());
  EXPECT_EQ(BackendForThreads(4), &ParallelKernelBackend());
}

/// End-to-end determinism: the same model trained with the serial backend
/// and with the parallel backend (shared pool) reaches the bit-identical
/// final loss — the whole forward/backward/update chain is backend-proof.
TEST(BackendEquivalenceTest, TrainerFinalLossIdenticalAcrossBackends) {
  NmcdrConfig model_config;
  model_config.hidden_dim = 8;
  model_config.mlp_hidden = {16};

  auto run = [&](int threads) {
    auto data = testing_util::TinyData();
    NmcdrModel model(data->View(), model_config, /*seed=*/3, 1e-3f);
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 64;
    config.threads = threads;
    Trainer trainer(data->View(), config);
    return trainer.Train(&model).final_loss;
  };

  const float serial_loss = run(1);
  const float parallel_loss = run(4);
  EXPECT_EQ(serial_loss, parallel_loss);  // bitwise, not approximately
}

/// The vector backend end to end, across the model zoo: every registered
/// model trained with the register-blocked SIMD kernels (BackendGuard
/// pinning the vector backend; TrainConfig::threads = 0 inherits it)
/// reaches the bit-identical final loss of the serial run. This is the
/// trainer-level arm of the vector bit-exactness contract — the same
/// guarantee NMCDR_BACKEND=vector relies on in the release-vector CI leg.
TEST(BackendEquivalenceTest, TrainerFinalLossIdenticalVectorAcrossModels) {
  RegisterAllModels();
  CommonHyper hyper;
  hyper.embed_dim = 8;
  hyper.mlp_hidden = {16};
  hyper.seed = 3;

  for (const std::string& name : ModelRegistry::Instance().Names()) {
    SCOPED_TRACE("model " + name);
    auto run = [&](const KernelBackend* backend) {
      BackendGuard guard(backend);
      auto data = testing_util::TinyData();
      auto model = ModelRegistry::Instance().Get(name)(data->View(), hyper,
                                                       /*lr=*/1e-3f);
      TrainConfig config;
      config.epochs = 2;
      config.batch_size = 64;
      config.threads = 0;  // inherit the guard's backend
      Trainer trainer(data->View(), config, &data->full_graph_z(),
                      &data->full_graph_zbar());
      return trainer.Train(model.get()).final_loss;
    };

    const float serial_loss = run(&SerialKernelBackend());
    const float vector_loss = run(&VectorKernelBackend());
    EXPECT_EQ(serial_loss, vector_loss);  // bitwise, not approximately
  }
}

/// The production NMCDR shape (hidden_dim 16, mlp_hidden {32}, the
/// NmcdrConfig defaults): the tests above train at half that width, while
/// every production step runs D = 16 GEMMs through the 16-column tiles and
/// TransB panel and the n = 1 head through the row-lane tail. Serial,
/// vector and parallel training must end at the bit-identical loss.
TEST(BackendEquivalenceTest, TrainerFinalLossIdenticalAtProductionShape) {
  const NmcdrConfig model_config;
  ASSERT_EQ(model_config.hidden_dim, 16);
  ASSERT_EQ(model_config.mlp_hidden, std::vector<int>{32});

  auto run = [&](const KernelBackend* backend) {
    BackendGuard guard(backend);
    auto data = testing_util::TinyData();
    NmcdrModel model(data->View(), model_config, /*seed=*/3, 1e-3f);
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 64;
    config.threads = 0;  // inherit the guard's backend
    Trainer trainer(data->View(), config);
    return trainer.Train(&model).final_loss;
  };

  const float serial_loss = run(&SerialKernelBackend());
  EXPECT_EQ(serial_loss, run(&VectorKernelBackend()));  // bitwise
  EXPECT_EQ(serial_loss, run(&ParallelKernelBackend()));
}

/// Graph-program fusion is numerics-neutral: every registered model
/// trained with the compiled fused program (TrainConfig::fusion) reaches
/// the bit-identical final loss of a fully eager run — under the serial
/// backend and under the parallel backend. This is the model-zoo-wide
/// enforcement arm of the src/program bitwise contract; models whose op
/// streams the compiler cannot cover fall back to eager and must still
/// match trivially.
TEST(BackendEquivalenceTest, TrainerFinalLossIdenticalFusedVsEager) {
  RegisterAllModels();
  CommonHyper hyper;
  hyper.embed_dim = 8;
  hyper.mlp_hidden = {16};
  hyper.seed = 3;

  for (const std::string& name : ModelRegistry::Instance().Names()) {
    SCOPED_TRACE("model " + name);
    auto run = [&](bool fusion, int threads) {
      auto data = testing_util::TinyData();
      auto model = ModelRegistry::Instance().Get(name)(data->View(), hyper,
                                                       /*lr=*/1e-3f);
      TrainConfig config;
      config.epochs = 2;
      config.batch_size = 64;
      config.threads = threads;
      config.fusion = fusion;
      Trainer trainer(data->View(), config, &data->full_graph_z(),
                      &data->full_graph_zbar());
      return trainer.Train(model.get()).final_loss;
    };

    const float eager_serial = run(/*fusion=*/false, /*threads=*/1);
    const float fused_serial = run(/*fusion=*/true, /*threads=*/1);
    const float eager_parallel = run(/*fusion=*/false, /*threads=*/4);
    const float fused_parallel = run(/*fusion=*/true, /*threads=*/4);
    EXPECT_EQ(eager_serial, fused_serial);      // bitwise, not approximately
    EXPECT_EQ(eager_parallel, fused_parallel);
    EXPECT_EQ(eager_serial, eager_parallel);
  }
}

/// Observability is read-only: training with metrics + profiling enabled
/// must produce the bit-identical final loss as training with both
/// disabled. The probes (KernelScope, OpScope, TraceSpan, backward
/// timing) may only observe — never perturb — the numeric path.
TEST(BackendEquivalenceTest, TrainerFinalLossIdenticalWithObsOnAndOff) {
  NmcdrConfig model_config;
  model_config.hidden_dim = 8;
  model_config.mlp_hidden = {16};

  auto run = [&](bool metrics, bool profiling) {
    obs::MetricsEnabledGuard metrics_guard(metrics);
    obs::ProfilingEnabledGuard profiling_guard(profiling);
    auto data = testing_util::TinyData();
    NmcdrModel model(data->View(), model_config, /*seed=*/3, 1e-3f);
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 64;
    config.threads = 2;
    Trainer trainer(data->View(), config);
    return trainer.Train(&model).final_loss;
  };

  const float off_loss = run(/*metrics=*/false, /*profiling=*/false);
  const float metrics_loss = run(/*metrics=*/true, /*profiling=*/false);
  const float profiled_loss = run(/*metrics=*/true, /*profiling=*/true);
  EXPECT_EQ(off_loss, metrics_loss);    // bitwise, not approximately
  EXPECT_EQ(off_loss, profiled_loss);
}

}  // namespace
}  // namespace nmcdr
