// Dense-kernel micro-benchmark for the kernel backends
// (src/tensor/backend.h): serial and vector GFLOP/s for the GEMM family
// behind the KernelBackend seam, and GFLOP/s for the kernels with one
// implementation (the replay path's fused epilogue, elementwise,
// activation, reduction and gather/scatter kernels), on training-shaped
// matrices (batch x hidden blocks as the trainer sees them). Before
// timing, every GEMM's vector output is checked bit-equal to the serial
// reference, and the fused epilogue bit-equal to the serial eager
// sequence it replaces, so the numbers can never come from a divergent
// code path; any mismatch fails the run.
//
// Writes BENCH_kernels.json next to the binary so the perf trajectory has a
// machine-readable baseline; scripts/check_bench_regression.py gates it.
//
// `--smoke` shrinks the timing budget so the binary doubles as a CTest.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "tensor/backend.h"
#include "tensor/matrix.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "tensor/vector_kernels.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace nmcdr {
namespace {

/// One benchmarked kernel: `run` executes it once and returns the result
/// for the bit-equality check. For the KernelBackend GEMMs (`vectorized`)
/// it runs under the backend it is handed, timed under serial and vector;
/// every other kernel has one implementation and ignores the argument. A
/// non-null `reference` is the serial eager sequence a single
/// implementation must match bit for bit.
struct KernelCase {
  std::string name;
  std::string shape;
  double flops = 0.0;  // nominal flops per run, for the GFLOP/s column
  bool vectorized = false;
  std::function<Matrix(const KernelBackend&)> run;
  std::function<Matrix()> reference;
};

struct KernelResult {
  std::string name;
  std::string shape;
  double serial_gflops = 0.0;
  double vector_gflops = 0.0;  // 0 when the kernel is not vectorized
};

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(-1.f, 1.f);
  return m;
}

/// Seconds per run of `fn`, timed until `min_seconds` of work accumulated.
double SecondsPerRun(const std::function<Matrix(const KernelBackend&)>& fn,
                     const KernelBackend& backend, double min_seconds) {
  fn(backend);  // warm-up
  Stopwatch timer;
  int64_t runs = 0;
  do {
    fn(backend);
    ++runs;
  } while (timer.ElapsedSeconds() < min_seconds);
  return timer.ElapsedSeconds() / static_cast<double>(runs);
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(),
                                       sizeof(float) * a.size()) == 0);
}

/// Measures one kernel (under the serial and vector backends for the
/// GEMMs); flags a divergence from the serial reference.
KernelResult MeasureKernel(const KernelCase& kernel, double min_seconds,
                           bool* equivalence_ok) {
  const SerialBackend& serial = SerialKernelBackend();
  const VectorBackend& vector = VectorKernelBackend();
  KernelResult result;
  result.name = kernel.name;
  result.shape = kernel.shape;
  const Matrix got = kernel.run(serial);
  if (kernel.reference && !BitEqual(kernel.reference(), got)) {
    std::fprintf(stderr, "FAIL: %s diverges from the eager sequence\n",
                 kernel.name.c_str());
    *equivalence_ok = false;
  }
  result.serial_gflops =
      kernel.flops / SecondsPerRun(kernel.run, serial, min_seconds) * 1e-9;
  if (kernel.vectorized) {
    if (!BitEqual(got, kernel.run(vector))) {
      std::fprintf(stderr, "FAIL: %s diverges under the vector backend\n",
                   kernel.name.c_str());
      *equivalence_ok = false;
    }
    result.vector_gflops =
        kernel.flops / SecondsPerRun(kernel.run, vector, min_seconds) * 1e-9;
  }
  return result;
}

/// The benchmarked kernel set on training-shaped operands: a forward/
/// backward pass over a 512-example batch with hidden width 64 against a
/// 4096-row embedding table. Inputs live in `*store` so the lambdas can
/// capture references that outlive this function.
std::vector<KernelCase> BuildKernelCases(std::vector<Matrix>* store,
                                         std::vector<int>* ids) {
  Rng rng(29);
  const int batch = 512, hidden = 64, table_rows = 4096;
  store->clear();
  store->push_back(RandomMatrix(batch, hidden, &rng));       // 0: activations
  store->push_back(RandomMatrix(hidden, hidden, &rng));      // 1: weights
  store->push_back(RandomMatrix(batch, hidden, &rng));       // 2: second act
  store->push_back(RandomMatrix(table_rows, hidden, &rng));  // 3: table
  store->push_back(RandomMatrix(1, hidden, &rng));           // 4: bias row
  const Matrix& act = (*store)[0];
  const Matrix& w = (*store)[1];
  const Matrix& act2 = (*store)[2];
  const Matrix& table = (*store)[3];
  const Matrix& bias = (*store)[4];
  ids->resize(batch);
  for (int& id : *ids) id = static_cast<int>(rng.NextUint64(table_rows));
  const std::vector<int>& id_ref = *ids;

  const double gemm_flops = 2.0 * batch * hidden * hidden;
  const double ew_flops = 1.0 * batch * hidden;
  const std::string bxh =
      std::to_string(batch) + "x" + std::to_string(hidden);
  const std::string gemm_shape = bxh + " * " + std::to_string(hidden) + "x" +
                                 std::to_string(hidden);

  std::vector<KernelCase> cases;
  cases.push_back({"MatMul", gemm_shape, gemm_flops, true,
                   [&act, &w](const KernelBackend& b) {
                     Matrix out(act.rows(), w.cols());
                     b.MatMulAccumInto(act, w, &out);
                     return out;
                   },
                   nullptr});
  cases.push_back({"MatMulTransA", bxh + "^T * " + bxh, gemm_flops, true,
                   [&act, &act2](const KernelBackend& b) {
                     return b.MatMulTransA(act, act2);
                   },
                   nullptr});
  cases.push_back({"MatMulTransB", gemm_shape + "^T", gemm_flops, true,
                   [&act, &w](const KernelBackend& b) {
                     return b.MatMulTransB(act, w);
                   },
                   nullptr});
  // The graph-program replay epilogue: GEMM + bias + relu in one pass, the
  // shape every fused forward layer takes, checked against the serial
  // eager sequence it replaces on every run.
  cases.push_back({"FusedMatMulBiasAct", gemm_shape + " +b relu",
                   gemm_flops + 2.0 * batch * hidden, false,
                   [&act, &w, &bias](const KernelBackend&) {
                     Matrix out = Matrix::ForOverwrite(act.rows(), w.cols());
                     VectorFusedMatMul(act, w, &bias, FusedAct::kRelu, &out);
                     return out;
                   },
                   [&act, &w, &bias] {
                     Matrix out(act.rows(), w.cols());
                     SerialKernelBackend().MatMulAccumInto(act, w, &out);
                     return Relu(AddRowBroadcast(out, bias));
                   }});
  cases.push_back({"Add", bxh, ew_flops, false,
                   [&act, &act2](const KernelBackend&) {
                     return Add(act, act2);
                   },
                   nullptr});
  cases.push_back({"Sigmoid", bxh, 4.0 * batch * hidden, false,
                   [&act](const KernelBackend&) { return Sigmoid(act); },
                   nullptr});
  cases.push_back({"SoftmaxRows", bxh, 5.0 * batch * hidden, false,
                   [&act](const KernelBackend&) { return SoftmaxRows(act); },
                   nullptr});
  cases.push_back({"ColSum", bxh, ew_flops, false,
                   [&act](const KernelBackend&) { return ColSum(act); },
                   nullptr});
  cases.push_back({"GatherRows",
                   std::to_string(table.rows()) + "x" +
                       std::to_string(hidden) + " [" +
                       std::to_string(batch) + " ids]",
                   ew_flops, false,
                   [&table, &id_ref](const KernelBackend&) {
                     return GatherRows(table, id_ref);
                   },
                   nullptr});
  cases.push_back({"ScatterAddRows",
                   bxh + " -> " + std::to_string(table.rows()) + " rows",
                   ew_flops, false,
                   [&act, &table, &id_ref](const KernelBackend&) {
                     Matrix out(table.rows(), table.cols());
                     ScatterAddRows(act, id_ref, &out);
                     return out;
                   },
                   nullptr});
  return cases;
}

void WriteJson(const std::string& path,
               const std::vector<KernelResult>& results, bool smoke) {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"kernels\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"shape\": \"" << r.shape
        << "\", \"serial_gflops\": " << FormatFloat(r.serial_gflops, 4);
    if (r.vector_gflops > 0.0) {
      out << ", \"vector_gflops\": " << FormatFloat(r.vector_gflops, 4);
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

int Run(bool smoke) {
  std::printf("bench_kernels (%s, hardware_concurrency=%u)\n",
              smoke ? "smoke" : "full", std::thread::hardware_concurrency());
  const double min_seconds = smoke ? 0.01 : 0.25;
  // The dispatchers' kernel probes are metrics: off, the timings are the
  // kernels alone.
  const obs::MetricsEnabledGuard metrics(false);

  std::vector<Matrix> store;
  std::vector<int> ids;
  const std::vector<KernelCase> cases = BuildKernelCases(&store, &ids);

  bool equivalence_ok = true;
  std::vector<KernelResult> results;
  for (const KernelCase& kernel : cases) {
    results.push_back(MeasureKernel(kernel, min_seconds, &equivalence_ok));
  }

  TablePrinter table;
  table.SetHeader({"Kernel", "Shape", "Serial GFLOP/s", "Vector GFLOP/s"});
  for (const KernelResult& r : results) {
    table.AddRow({r.name, r.shape, FormatFloat(r.serial_gflops, 3),
                  r.vector_gflops > 0.0 ? FormatFloat(r.vector_gflops, 3)
                                        : std::string("-")});
  }
  std::printf("%s", table.ToString().c_str());

  WriteJson("BENCH_kernels.json", results, smoke);
  // Throughput is gated against the baseline by the script; a result that
  // differs from the serial reference is always a hard failure.
  return equivalence_ok ? 0 : 1;
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
