#ifndef NMCDR_VERIFY_ANALYZER_H_
#define NMCDR_VERIFY_ANALYZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/presets.h"
#include "serving/model_snapshot.h"
#include "train/experiment.h"

namespace nmcdr {
namespace verify {

/// Semantic tensor-program verifier: symbolically executes the full
/// computation graph of every registered model — one TrainStep and one
/// Score call per (model, scenario) — on meta tensors (shape only, no
/// data, no FLOPs; autograd/meta.h) and reports, before any real training
/// step runs:
///
///  - shape contradictions, with the full op-provenance chain of the
///    offending inputs;
///  - ops reaching the tape without a registered shape rule;
///  - ops used by a model whose backward pass has no finite-difference
///    coverage in the op suite (verify/op_suite.h);
///  - per-model parameter counts and an activation-footprint estimate.
///
/// The same shape rules also validate frozen serving snapshots
/// (VerifySnapshotShapes), so a stale NMCDRSV1 file whose head no longer
/// matches its tables is rejected with a precise dimension diff.

/// One verifier finding.
struct Finding {
  enum class Kind {
    kShapeContradiction,  // a shape rule rejected an op call
    kUnregisteredOp,      // an op ran with no registered shape rule
    kMissingBackward,     // op used by a model but absent from the op suite
    kMissingShapeRule,    // op covered by the suite but with no shape rule
    kModelFailure,        // model factory / audit infrastructure failed
    kSnapshotShape,       // frozen snapshot violates the head shape chain
    kProgramMismatch,     // compiled graph program diverged from eager
  };

  Kind kind = Kind::kShapeContradiction;
  std::string model;     // empty for model-independent findings
  std::string scenario;  // empty for scenario-independent findings
  std::string op;        // offending op name when applicable
  std::string message;

  std::string ToString() const;
};

/// Audit of one (model, scenario) pair.
struct ModelAudit {
  std::string model;
  std::string scenario;
  int64_t parameter_count = 0;
  /// Sum of op-output elements across the traced TrainStep + Score graphs:
  /// an activation-footprint estimate (x4 bytes) for one pass.
  int64_t activation_elements = 0;
  std::map<std::string, int> op_counts;
  std::vector<Finding> findings;

  int64_t parameter_bytes() const { return parameter_count * 4; }
  int64_t activation_bytes() const { return activation_elements * 4; }
};

/// Symbolically executes `model_name` (must be registered) against `data`:
/// builds the model, then runs one two-domain TrainStep and one Score call
/// per domain under meta mode, collecting the op trace and findings. Never
/// throws; contract violations become findings.
ModelAudit AuditModel(const std::string& model_name, const ExperimentData& data,
                      const std::string& scenario_name,
                      const CommonHyper& hyper);

/// Whole-registry report.
struct AnalyzeReport {
  std::vector<ModelAudit> audits;
  /// Registry-level coverage findings (missing backward coverage or shape
  /// rules), independent of any model.
  std::vector<Finding> coverage;

  bool clean() const;
  int finding_count() const;
  std::string ToString() const;
};

/// Runs AuditModel for every registered model over every scenario preset
/// of `scale` (data/presets.h), plus the registry-wide coverage audit.
/// Registers all models if the registry is empty.
AnalyzeReport AnalyzeAllModels(BenchScale scale);

/// Program audit of one (model, scenario): records one real training step
/// into a graph program (src/program) on a fresh model instance, replays a
/// second step, and cross-checks against an identically seeded eager twin —
/// per-op-kind counts and total output elements must match the eager op
/// stream (shape equivalence), and both step losses must be bitwise equal
/// (numeric equivalence). Also reports the compiled fusion groups and the
/// arena plan (reserved capacity / observed peak / bytes the replayed step
/// zero-filled).
struct ProgramAudit {
  std::string model;
  std::string scenario;
  bool compiled = false;
  int instrs = 0;
  int fusion_groups = 0;
  int fused_ops = 0;
  int spmm_plans = 0;
  int64_t arena_reserved_bytes = 0;
  int64_t arena_peak_bytes = 0;
  int64_t arena_zeroed_bytes = 0;
  /// DescribeGroups() text — one fusion group per line.
  std::string groups;
  std::vector<Finding> findings;
};

struct ProgramReport {
  std::vector<ProgramAudit> audits;

  bool clean() const;
  int finding_count() const;
  std::string ToString() const;
};

/// Runs the program audit for every registered model over every scenario
/// preset of `scale`. Respects the NMCDR_FUSION environment switch: when
/// fusion is disabled the report is empty (and says so).
ProgramReport AuditPrograms(BenchScale scale);

/// Cross-checks the shape-rule registry against the gradient-check suite:
/// every op with a shape rule needs finite-difference backward coverage
/// and vice versa. Empty result = the two tables enumerate the same ops.
std::vector<Finding> AuditOpCoverage();

/// Validates a frozen snapshot's scoring chain — user/item tables through
/// the prediction head to the [B,1] logit — against the registered shape
/// rules, mirroring FrozenPredictionHead::Forward op by op. Findings carry
/// the exact dimension diff.
std::vector<Finding> VerifySnapshotShapes(const ModelSnapshot& snapshot);

}  // namespace verify
}  // namespace nmcdr

#endif  // NMCDR_VERIFY_ANALYZER_H_
