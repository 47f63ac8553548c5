// Bit-exactness fuzz for the kernel backends (src/tensor/backend.h): every
// KernelBackend entry point must produce byte-identical results under the
// serial reference and under the explicitly vectorized backend
// (register-blocked SIMD GEMM family), including 0-row, 1-row, and
// ragged-tail shapes — tails are where SIMD remainder handling breaks
// first. The graph-program replay's kernels (the fused epilogue, the
// eltwise chain, the vector TransA/TransB it calls under any backend) must
// match the composed serial eager ops they replace, and the kernels with
// one implementation must match the GEMMs that compute the same sums under
// both backends. This is the enforcement arm of the backend contract —
// training and serving results must not depend on the backend.
// Trainer-level tests close the loop end to end: identical final loss
// serial vs vector, fused vs eager, across the model zoo.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/nmcdr_model.h"
#include "obs/obs.h"
#include "tensor/backend.h"
#include "tensor/fused_kernels.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "tensor/vector_kernels.h"
#include "tests/test_util.h"
#include "train/registry.h"

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

/// (rows, cols) shapes covering empty, single-row/col, and ragged tails
/// (sizes not divisible by the 8-lane and 4-row tiles).
const int kShapes[][2] = {{0, 4}, {1, 1},  {1, 7},  {3, 5},
                          {7, 3}, {5, 17}, {33, 9}, {64, 1}};

const FusedAct kActs[] = {FusedAct::kNone, FusedAct::kRelu,
                          FusedAct::kSigmoid, FusedAct::kTanh};

Matrix Ones(int rows, int cols) { return Matrix(rows, cols, 1.f); }

/// The serial reference's MatMul: MatMulAccumInto onto zeros.
Matrix SerialMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  SerialKernelBackend().MatMulAccumInto(a, b, &out);
  return out;
}

/// The eager ops a fused epilogue applies after the MatMul `product`: the
/// bias row, then the activation.
Matrix ComposedEpilogue(Matrix out, const Matrix* bias, FusedAct act) {
  if (bias != nullptr) out = AddRowBroadcast(out, *bias);
  if (act == FusedAct::kRelu) out = Relu(out);
  if (act == FusedAct::kSigmoid) out = Sigmoid(out);
  if (act == FusedAct::kTanh) out = Tanh(out);
  return out;
}

/// The replay path's fused epilogue (GraphProgram calls it directly).
Matrix FusedEpilogue(const Matrix& a, const Matrix& b, const Matrix* bias,
                     FusedAct act) {
  Matrix out = Matrix::ForOverwrite(a.rows(), b.cols());
  VectorFusedMatMul(a, b, bias, act, &out);
  return out;
}

/// A one-step eltwise chain: the replay's implementation of one eager op.
Matrix Chain(const Matrix& a, EltwiseOp op, const Matrix* side = nullptr,
             float scalar = 0.f, bool rhs = false) {
  EltwiseStep step;
  step.op = op;
  step.rhs = rhs;
  step.scalar = scalar;
  step.side = side != nullptr ? side->data() : nullptr;
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  FusedEltwiseInto(a, &step, 1, &out);
  return out;
}

/// out[i][ids[i]] = 1: GatherRows(table, ids) is OneHot(ids) * table.
Matrix OneHot(const std::vector<int>& ids, int cols) {
  Matrix m(static_cast<int>(ids.size()), cols);
  for (size_t i = 0; i < ids.size(); ++i) {
    m.At(static_cast<int>(i), ids[i]) = 1.f;
  }
  return m;
}

TEST(BackendEquivalenceTest, MatMulFamily) {
  Rng rng(11);
  const SerialBackend& s = SerialKernelBackend();
  const VectorBackend& v = VectorKernelBackend();
  for (const auto& shape : kShapes) {
    const int m = shape[0], k = shape[1];
    const int n = 1 + static_cast<int>(rng.NextUint64(19));
    const Matrix a = RandomMatrix(m, k, &rng);
    const Matrix b = RandomMatrix(k, n, &rng);
    SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + " * " +
                 std::to_string(k) + "x" + std::to_string(n));

    Matrix out_s = RandomMatrix(m, n, &rng);  // accumulate onto noise
    Matrix out_v = out_s;
    s.MatMulAccumInto(a, b, &out_s);
    v.MatMulAccumInto(a, b, &out_v);
    EXPECT_TRUE(BitEqual(out_s, out_v));

    const Matrix ta = RandomMatrix(k, m, &rng);
    const Matrix tb = RandomMatrix(k, n, &rng);
    EXPECT_TRUE(BitEqual(s.MatMulTransA(ta, tb), v.MatMulTransA(ta, tb)));

    const Matrix bb = RandomMatrix(n, k, &rng);
    EXPECT_TRUE(BitEqual(s.MatMulTransB(a, bb), v.MatMulTransB(a, bb)));
  }
}

/// AxpyInto under both backends; FirstAccumInto against an AxpyInto onto
/// zeros; and every elementwise eager kernel against the one-step eltwise
/// chain the graph-program replay runs in its place.
TEST(BackendEquivalenceTest, ElementwiseAndBroadcast) {
  Rng rng(12);
  for (const auto& shape : kShapes) {
    const int r = shape[0], c = shape[1];
    SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c));
    const Matrix a = SpecialMatrix(r, c, 0.02, &rng);
    const Matrix b = SpecialMatrix(r, c, 0.02, &rng);

    Matrix acc_s = RandomMatrix(r, c, &rng);
    Matrix acc_v = acc_s;
    SerialKernelBackend().AxpyInto(a, 0.5f, &acc_s);
    VectorKernelBackend().AxpyInto(a, 0.5f, &acc_v);
    EXPECT_TRUE(BitEqual(acc_s, acc_v));

    Matrix onto_zero(r, c);
    SerialKernelBackend().AxpyInto(a, 1.f, &onto_zero);
    Matrix first = Matrix::ForOverwrite(r, c);
    FirstAccumInto(a, &first);
    EXPECT_TRUE(BitEqual(onto_zero, first));

    EXPECT_TRUE(BitEqual(Add(a, b), Chain(a, EltwiseOp::kAddMat, &b)));
    EXPECT_TRUE(BitEqual(Sub(a, b), Chain(a, EltwiseOp::kSubMat, &b)));
    EXPECT_TRUE(BitEqual(Sub(b, a), Chain(a, EltwiseOp::kSubMat, &b, 0.f,
                                          /*rhs=*/true)));
    EXPECT_TRUE(BitEqual(Hadamard(a, b), Chain(a, EltwiseOp::kMulMat, &b)));
    EXPECT_TRUE(BitEqual(Scale(a, -2.5f),
                         Chain(a, EltwiseOp::kScale, nullptr, -2.5f)));
    EXPECT_TRUE(BitEqual(AddScalar(a, 0.75f),
                         Chain(a, EltwiseOp::kAddScalar, nullptr, 0.75f)));
  }
}

/// Every activation the replay's eltwise chain can hold, eager vs chain,
/// over ±0, ±Inf and NaN inputs.
TEST(BackendEquivalenceTest, Activations) {
  Rng rng(13);
  for (const auto& shape : kShapes) {
    const int r = shape[0], c = shape[1];
    SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c));
    const Matrix a = SpecialMatrix(r, c, 0.05, &rng);
    EXPECT_TRUE(BitEqual(Relu(a), Chain(a, EltwiseOp::kRelu)));
    EXPECT_TRUE(BitEqual(Sigmoid(a), Chain(a, EltwiseOp::kSigmoid)));
    EXPECT_TRUE(BitEqual(Tanh(a), Chain(a, EltwiseOp::kTanh)));
    EXPECT_TRUE(BitEqual(Softplus(a), Chain(a, EltwiseOp::kSoftplus)));
    EXPECT_TRUE(BitEqual(Exp(a), Chain(a, EltwiseOp::kExp)));
  }
}

/// The reductions have one implementation each; under both backends they
/// must equal the GEMMs that compute the same sums in the same order:
/// ColSum(A) = (A^T 1)^T, RowSum(A) = A 1^T, RowDot(A, B) = diag(A B^T).
TEST(BackendEquivalenceTest, Reductions) {
  Rng rng(14);
  for (const KernelBackend* backend :
       {static_cast<const KernelBackend*>(&SerialKernelBackend()),
        static_cast<const KernelBackend*>(&VectorKernelBackend())}) {
    SCOPED_TRACE(backend->name());
    for (const auto& shape : kShapes) {
      const int r = shape[0], c = shape[1];
      SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c));
      const Matrix a = RandomMatrix(r, c, &rng);
      const Matrix b = RandomMatrix(r, c, &rng);
      EXPECT_TRUE(BitEqual(ColSum(a),
                           Transpose(backend->MatMulTransA(a, Ones(r, 1)))));
      EXPECT_TRUE(BitEqual(RowSum(a), backend->MatMulTransB(a, Ones(1, c))));
      const Matrix gram = backend->MatMulTransB(a, b);
      Matrix diag(r, 1);
      for (int i = 0; i < r; ++i) diag.At(i, 0) = gram.At(i, i);
      EXPECT_TRUE(BitEqual(RowDot(a, b), diag));
    }
  }
}

/// The embedding kernels are one-hot GEMMs: GatherRows(T, ids) =
/// OneHot(ids) T, and ScatterAddRows(S, ids, out) = out += OneHot(ids)^T S
/// with colliding ids adding in ascending order — under both backends.
TEST(BackendEquivalenceTest, GatherAndScatter) {
  Rng rng(15);
  const int table_rows = 23;
  for (const KernelBackend* backend :
       {static_cast<const KernelBackend*>(&SerialKernelBackend()),
        static_cast<const KernelBackend*>(&VectorKernelBackend())}) {
    SCOPED_TRACE(backend->name());
    for (int cols : {1, 5, 16}) {
      const Matrix table = RandomMatrix(table_rows, cols, &rng);
      for (int count : {0, 1, 7, 64}) {
        SCOPED_TRACE(std::to_string(count) + " ids, " + std::to_string(cols) +
                     " cols");
        const std::vector<int> ids = RandomIds(count, table_rows, &rng);
        const Matrix one_hot = OneHot(ids, table_rows);
        Matrix gathered(count, cols);
        backend->MatMulAccumInto(one_hot, table, &gathered);
        EXPECT_TRUE(BitEqual(GatherRows(table, ids), gathered));

        const Matrix src = RandomMatrix(count, cols, &rng);
        Matrix scattered = RandomMatrix(table_rows, cols, &rng);
        Matrix want = scattered;
        ScatterAddRows(src, ids, &scattered);
        backend->MatMulAccumInto(Transpose(one_hot), src, &want);
        EXPECT_TRUE(BitEqual(want, scattered));
      }
    }
  }
}

/// The graph-program replay kernels against the eager sequences they
/// replace: the fused GEMM+bias+activation epilogue in every activation
/// variant with and without bias, and a fused elementwise chain.
TEST(BackendEquivalenceTest, FusedEpilogues) {
  Rng rng(17);
  for (const auto& shape : kShapes) {
    const int m = shape[0], k = shape[1];
    const int n = 1 + static_cast<int>(rng.NextUint64(19));
    const Matrix a = RandomMatrix(m, k, &rng);
    const Matrix b = RandomMatrix(k, n, &rng);
    const Matrix bias = RandomMatrix(1, n, &rng);
    SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + " * " +
                 std::to_string(k) + "x" + std::to_string(n));
    const Matrix product = SerialMatMul(a, b);
    for (const FusedAct act : kActs) {
      SCOPED_TRACE("act " + std::to_string(static_cast<int>(act)));
      for (const Matrix* bias_arg :
           {&bias, static_cast<const Matrix*>(nullptr)}) {
        EXPECT_TRUE(BitEqual(ComposedEpilogue(product, bias_arg, act),
                             FusedEpilogue(a, b, bias_arg, act)));
      }
    }

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
    Matrix chain = Matrix::ForOverwrite(m, k);
    FusedEltwiseInto(a, steps, 3, &chain);
    EXPECT_TRUE(BitEqual(Scale(Sub(side, Sigmoid(a)), 0.5f), chain));
  }
}

/// The GEMM tile paths on the model's real shapes and their edges: row
/// counts around the 4-row accumulate block and the 2-row dot block,
/// column counts around the 8- and 16-lane tiles and the narrow row-lane
/// tail, and depths from 1 past the 64-step accumulate chunk and the
/// 128-step TransB panel (880 is the Music-Movie item count TransA runs
/// at). Every backend GEMM must match serial bit for bit under the vector
/// backend — whose TransA / TransB the replay also calls under either
/// backend — and the replay's fused epilogue, in every activation with
/// and without bias, must match the composed serial eager ops, with IEEE
/// special values in every operand and in the accumulate target.
TEST(BackendEquivalenceTest, GemmTileSweepWithSpecialValues) {
  Rng rng(18);
  const SerialBackend& serial = SerialKernelBackend();
  const VectorBackend& vector = VectorKernelBackend();
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
        Matrix accum_v = noise;
        vector.MatMulAccumInto(a, b, &accum_v);
        EXPECT_TRUE(BitEqual(accum_s, accum_v));
        EXPECT_TRUE(BitEqual(serial.MatMulTransA(ta, tb),
                             vector.MatMulTransA(ta, tb)));
        EXPECT_TRUE(BitEqual(serial.MatMulTransB(a, bt),
                             vector.MatMulTransB(a, bt)));
        const Matrix product = SerialMatMul(a, b);
        for (const FusedAct act : kActs) {
          SCOPED_TRACE("act " + std::to_string(static_cast<int>(act)));
          for (const Matrix* bias_arg :
               {&bias, static_cast<const Matrix*>(nullptr)}) {
            EXPECT_TRUE(BitEqual(ComposedEpilogue(product, bias_arg, act),
                                 FusedEpilogue(a, b, bias_arg, act)));
          }
        }
      }
    }
  }
}

TEST(BackendEquivalenceTest, BackendGuardSelectsPerThread) {
  EXPECT_STREQ(CurrentBackend().name(), "vector");  // the default
  {
    BackendGuard guard(&SerialKernelBackend());
    EXPECT_STREQ(CurrentBackend().name(), "serial");
    {
      BackendGuard nested(&VectorKernelBackend());
      EXPECT_STREQ(CurrentBackend().name(), "vector");
      BackendGuard noop(nullptr);  // keeps whatever is current
      EXPECT_STREQ(CurrentBackend().name(), "vector");
    }
    EXPECT_STREQ(CurrentBackend().name(), "serial");
  }
  EXPECT_STREQ(CurrentBackend().name(), "vector");
}

/// End-to-end determinism: the same model trained on the serial reference
/// (TrainConfig::threads = 1) and on the default vector backend (0)
/// reaches the bit-identical final loss — the whole forward/backward/update
/// chain is backend-proof.
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
  const float vector_loss = run(0);
  EXPECT_EQ(serial_loss, vector_loss);  // bitwise, not approximately
}

/// The vector backend end to end, across the model zoo: every registered
/// model trained with the register-blocked SIMD kernels (BackendGuard
/// pinning the vector backend; TrainConfig::threads = 0 inherits it)
/// reaches the bit-identical final loss of the serial run. This is the
/// trainer-level arm of the vector bit-exactness contract.
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
/// TransB panel and the n = 1 head through the row-lane tail. Serial and
/// vector training must end at the bit-identical loss.
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
}

/// Graph-program fusion is numerics-neutral: every registered model
/// trained with the compiled fused program (TrainConfig::fusion) reaches
/// the bit-identical final loss of a fully eager run — under the serial
/// backend and under the default vector backend. This is the model-zoo-wide
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
    const float eager_vector = run(/*fusion=*/false, /*threads=*/0);
    const float fused_vector = run(/*fusion=*/true, /*threads=*/0);
    EXPECT_EQ(eager_serial, fused_serial);  // bitwise, not approximately
    EXPECT_EQ(eager_vector, fused_vector);
    EXPECT_EQ(eager_serial, eager_vector);
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
