// nmcdr_analyze: semantic tensor-program verifier for the whole model zoo.
//
// Symbolically executes every registered model's computation graph — one
// TrainStep and one Score call per (model, scenario preset) — on meta
// tensors (shape inference only, no FLOPs; src/autograd/meta.h) and
// reports shape contradictions with op-provenance chains, ops without a
// registered shape rule, ops without finite-difference backward coverage,
// and per-model parameter/activation footprints. Exits non-zero on any
// finding, so it gates CI (registered as the `analyze_test` CTest).
//
//   nmcdr_analyze [--scale=smoke|small|full] [--gradcheck] [--programs]
//                 [--no-fusion] [--snapshot=PATH] [--report=PATH]
//                 [--metrics-out=PATH]
//
//   --scale      scenario preset scale (default smoke; analysis cost is
//                shape-only, so even full is cheap)
//   --gradcheck  additionally run the finite-difference gradient checks of
//                the op suite (real kernels; still fast), once per kernel
//                backend (serial and parallel)
//   --programs   additionally audit the graph-program compiler
//                (src/program): per (model, scenario), record one real
//                training step, replay a second, and require the compiled
//                program to match an eager twin bitwise (losses) and
//                structurally (op counts / output elements); reports
//                fusion groups and arena reserved/peak bytes plus the
//                bytes the replayed step zero-filled
//   --no-fusion  skip the program audit even with --programs (also
//                honored via NMCDR_FUSION=0 in the environment)
//   --snapshot   validate a frozen NMCDRSV1 snapshot file's scoring chain
//                against the same shape rules
//   --report     also write the report text to this path
//   --metrics-out  write the observability dump (NMCDR_OBS_V1 JSON,
//                src/obs/export.h) after analysis — with --gradcheck the
//                kernel table shows exactly which kernels the
//                finite-difference suite exercised

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "program/program.h"
#include "serving/model_snapshot.h"
#include "tensor/backend.h"
#include "util/flags.h"
#include "verify/analyzer.h"
#include "verify/op_suite.h"

int main(int argc, char** argv) {
  nmcdr::FlagParser flags(argc, argv);
  const std::string scale_name = flags.GetString("scale", "smoke");
  nmcdr::BenchScale scale = nmcdr::BenchScale::kSmoke;
  if (scale_name == "small") {
    scale = nmcdr::BenchScale::kSmall;
  } else if (scale_name == "full") {
    scale = nmcdr::BenchScale::kFull;
  } else if (scale_name != "smoke") {
    std::cerr << "nmcdr_analyze: unknown --scale '" << scale_name
              << "' (want smoke|small|full)\n";
    return 2;
  }

  nmcdr::verify::AnalyzeReport report =
      nmcdr::verify::AnalyzeAllModels(scale);
  std::string text = report.ToString();
  int findings = report.finding_count();

  if (flags.GetBool("programs", false)) {
    if (flags.GetBool("no-fusion", false) ||
        !nmcdr::prog::FusionEnvEnabled()) {
      text += "\nprogram audit: skipped (fusion disabled)\n";
    } else {
      const nmcdr::verify::ProgramReport programs =
          nmcdr::verify::AuditPrograms(scale);
      text += "\n" + programs.ToString();
      findings += programs.finding_count();
    }
  }

  if (flags.GetBool("gradcheck", false)) {
    // Every backward pass must verify under BOTH kernel backends: the
    // backends are bit-exact by contract, so any divergence here is a
    // backend bug, not a gradient bug.
    const nmcdr::KernelBackend* backends[] = {
        &nmcdr::SerialKernelBackend(), &nmcdr::ParallelKernelBackend()};
    for (const nmcdr::KernelBackend* backend : backends) {
      const std::vector<nmcdr::verify::GradCheckIssue> issues =
          nmcdr::verify::RunAllGradChecks(backend);
      text += "\ngradcheck[" + std::string(backend->name()) + "]: " +
              std::to_string(nmcdr::verify::OpSuite().size()) + " cases, " +
              std::to_string(issues.size()) + " failures\n";
      for (const nmcdr::verify::GradCheckIssue& i : issues) {
        text += "  [gradcheck " + std::string(backend->name()) + "] " +
                i.case_name + ": " + i.detail + "\n";
      }
      findings += static_cast<int>(issues.size());
    }
  }

  const std::string snapshot_path = flags.GetString("snapshot");
  if (!snapshot_path.empty()) {
    nmcdr::ModelSnapshot snapshot;
    if (!nmcdr::ModelSnapshot::Load(snapshot_path, &snapshot)) {
      text += "\nsnapshot " + snapshot_path + ": failed to load\n";
      ++findings;
    } else {
      const std::vector<nmcdr::verify::Finding> snap_findings =
          nmcdr::verify::VerifySnapshotShapes(snapshot);
      text += "\nsnapshot " + snapshot_path + ": " +
              std::to_string(snapshot.num_domains()) + " domains, " +
              std::to_string(snap_findings.size()) + " shape findings\n";
      for (const nmcdr::verify::Finding& f : snap_findings) {
        text += "  " + f.ToString() + "\n";
      }
      findings += static_cast<int>(snap_findings.size());
    }
  }

  std::cout << text;
  const std::string metrics_path = flags.GetString("metrics-out");
  if (!metrics_path.empty() && !nmcdr::obs::WriteJsonFile(metrics_path)) {
    return 2;
  }
  const std::string report_path = flags.GetString("report");
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) {
      std::cerr << "nmcdr_analyze: cannot write " << report_path << "\n";
      return 2;
    }
    out << text;
  }
  return findings == 0 ? 0 : 1;
}
