#include "verify/analyzer.h"

#include <cstring>
#include <exception>
#include <set>
#include <sstream>
#include <utility>

#include "autograd/meta.h"
#include "autograd/op_stream.h"
#include "program/program.h"
#include "train/registry.h"
#include "verify/op_suite.h"

namespace nmcdr {
namespace verify {
namespace {

std::string KindName(Finding::Kind kind) {
  switch (kind) {
    case Finding::Kind::kShapeContradiction:
      return "shape-contradiction";
    case Finding::Kind::kUnregisteredOp:
      return "unregistered-op";
    case Finding::Kind::kMissingBackward:
      return "missing-backward";
    case Finding::Kind::kMissingShapeRule:
      return "missing-shape-rule";
    case Finding::Kind::kModelFailure:
      return "model-failure";
    case Finding::Kind::kSnapshotShape:
      return "snapshot-shape";
    case Finding::Kind::kProgramMismatch:
      return "program-mismatch";
  }
  return "unknown";
}

/// Passive op-stream observer: counts every eagerly executed op (by node
/// creation, mirroring what GraphProgram records) without intercepting
/// anything. Used to cross-check a compiled program against the live
/// eager stream of an identically seeded twin model.
class OpCountingHandler final : public ag::OpStreamHandler {
 public:
  bool OnOpEntry(ag::OpKind, const ag::Tensor* const*, int, const float*, int,
                 ag::Tensor*) override {
    return false;
  }
  bool OnSpMM(const std::shared_ptr<const CsrMatrix>&, const ag::Tensor&,
              ag::Tensor*) override {
    return false;
  }
  void OnNodeCreated(const char* op, const ag::Tensor& result,
                     const std::vector<ag::Tensor>&) override {
    ++counts_[op];
    elements_ += static_cast<int64_t>(result.value().size());
  }

  const std::map<std::string, int>& counts() const { return counts_; }
  int64_t elements() const { return elements_; }

 private:
  std::map<std::string, int> counts_;
  int64_t elements_ = 0;
};

/// First few train positives of one domain as a labeled batch (alternating
/// positive/negative labels; ids are real, so gather bounds hold).
LabeledBatch ProbeBatch(const DomainSplit& split, int max_pairs) {
  LabeledBatch batch;
  const int n = std::min<int>(max_pairs, static_cast<int>(split.train.size()));
  batch.users.reserve(n);
  batch.items.reserve(n);
  batch.labels.reserve(n);
  for (int i = 0; i < n; ++i) {
    batch.users.push_back(split.train[i].user);
    batch.items.push_back(split.train[i].item);
    batch.labels.push_back(i % 2 == 0 ? 1.f : 0.f);
  }
  return batch;
}

void NoteMetaError(const ag::MetaError& e, const std::string& phase,
                   ModelAudit* audit) {
  Finding f;
  f.kind = e.kind() == ag::MetaErrorKind::kUnregisteredOp
               ? Finding::Kind::kUnregisteredOp
               : Finding::Kind::kShapeContradiction;
  f.model = audit->model;
  f.scenario = audit->scenario;
  f.op = e.op();
  f.message = phase + ": " + e.what();
  audit->findings.push_back(std::move(f));
}

/// One shape-rule application in the snapshot chain; false + finding on a
/// violated contract.
bool SnapshotStep(const char* op, const std::vector<ag::MetaShape>& in,
                  ag::MetaShape* out, const std::string& domain,
                  const std::string& context, std::vector<Finding>* findings) {
  const std::string err = ag::ApplyShapeRule(op, in, ag::MetaAttrs{}, out);
  if (err.empty()) return true;
  Finding f;
  f.kind = Finding::Kind::kSnapshotShape;
  f.scenario = domain;
  f.op = op;
  f.message = "domain '" + domain + "': " + context + ": " + err;
  findings->push_back(std::move(f));
  return false;
}

}  // namespace

std::string Finding::ToString() const {
  std::string s = "[" + KindName(kind) + "]";
  if (!model.empty()) s += " model=" + model;
  if (!scenario.empty()) s += " scenario=" + scenario;
  if (!op.empty()) s += " op=" + op;
  return s + ": " + message;
}

ModelAudit AuditModel(const std::string& model_name, const ExperimentData& data,
                      const std::string& scenario_name,
                      const CommonHyper& hyper) {
  ModelAudit audit;
  audit.model = model_name;
  audit.scenario = scenario_name;

  std::unique_ptr<RecModel> model;
  try {
    model = ModelRegistry::Instance().Get(model_name)(data.View(), hyper,
                                                      /*lr=*/1e-3f);
  } catch (const std::exception& e) {
    Finding f;
    f.kind = Finding::Kind::kModelFailure;
    f.model = model_name;
    f.scenario = scenario_name;
    f.message = std::string("model construction failed: ") + e.what();
    audit.findings.push_back(std::move(f));
    return audit;
  }
  audit.parameter_count = model->ParameterCount();

  const LabeledBatch batch_z = ProbeBatch(data.split_z(), /*max_pairs=*/8);
  const LabeledBatch batch_zbar = ProbeBatch(data.split_zbar(), 8);

  {
    ag::MetaModeGuard meta;
    ag::MetaTraceScope trace;
    try {
      model->TrainStep(batch_z, batch_zbar);
    } catch (const ag::MetaError& e) {
      NoteMetaError(e, "TrainStep", &audit);
    }
    for (const DomainSide side : {DomainSide::kZ, DomainSide::kZbar}) {
      const LabeledBatch& b = side == DomainSide::kZ ? batch_z : batch_zbar;
      if (b.empty()) continue;
      try {
        model->Score(side, b.users, b.items);
      } catch (const ag::MetaError& e) {
        NoteMetaError(e, "Score", &audit);
      }
    }
    audit.op_counts = trace.op_counts();
    audit.activation_elements = trace.total_output_elements();
    std::set<std::string> seen;
    audit.findings.reserve(audit.findings.size() +
                           trace.unregistered_ops().size());
    for (const std::string& op : trace.unregistered_ops()) {
      if (!seen.insert(op).second) continue;
      Finding f;
      f.kind = Finding::Kind::kUnregisteredOp;
      f.model = model_name;
      f.scenario = scenario_name;
      f.op = op;
      f.message = "op reached the tape with no registered shape rule; "
                  "register one in autograd/meta.cc";
      audit.findings.push_back(std::move(f));
    }
  }

  const std::vector<std::string> checked = GradCheckedOps();
  const std::set<std::string> checked_set(checked.begin(), checked.end());
  audit.findings.reserve(audit.findings.size() + audit.op_counts.size());
  for (const auto& [op, count] : audit.op_counts) {
    if (checked_set.count(op) != 0) continue;
    Finding f;
    f.kind = Finding::Kind::kMissingBackward;
    f.model = model_name;
    f.scenario = scenario_name;
    f.op = op;
    f.message =
        "model uses op with no finite-difference backward coverage; add an "
        "OpCase to verify/op_suite.cc (used " +
        std::to_string(count) + "x)";
    audit.findings.push_back(std::move(f));
  }
  return audit;
}

bool AnalyzeReport::clean() const { return finding_count() == 0; }

int AnalyzeReport::finding_count() const {
  int n = static_cast<int>(coverage.size());
  for (const ModelAudit& a : audits) n += static_cast<int>(a.findings.size());
  return n;
}

std::string AnalyzeReport::ToString() const {
  std::ostringstream out;
  out << "nmcdr_analyze: semantic tensor-program verification\n";
  std::string scenario;
  for (const ModelAudit& a : audits) {
    if (a.scenario != scenario) {
      scenario = a.scenario;
      out << "\nscenario " << scenario << "\n";
    }
    int64_t distinct_ops = static_cast<int64_t>(a.op_counts.size());
    out << "  " << a.model << ": " << a.parameter_count << " params ("
        << a.parameter_bytes() / 1024 << " KiB), " << distinct_ops
        << " distinct ops, ~" << a.activation_bytes() / 1024
        << " KiB activations/pass";
    out << (a.findings.empty() ? " .. OK\n" : "\n");
    for (const Finding& f : a.findings) out << "    " << f.ToString() << "\n";
  }
  out << "\nregistry coverage: "
      << (coverage.empty() ? "every shape-rule op has backward coverage\n"
                           : "\n");
  for (const Finding& f : coverage) out << "  " << f.ToString() << "\n";
  out << "\ntotal findings: " << finding_count() << "\n";
  return out.str();
}

AnalyzeReport AnalyzeAllModels(BenchScale scale) {
  if (ModelRegistry::Instance().Names().empty()) RegisterAllModels();
  AnalyzeReport report;
  const CommonHyper hyper;
  report.audits.reserve(AllScenarioSpecs(scale).size() *
                        ModelRegistry::Instance().Names().size());
  for (const SyntheticScenarioSpec& spec : AllScenarioSpecs(scale)) {
    ExperimentData data(GenerateScenario(spec), /*seed=*/spec.seed + 1);
    for (const std::string& name : ModelRegistry::Instance().Names()) {
      report.audits.push_back(AuditModel(name, data, spec.name, hyper));
    }
  }
  report.coverage = AuditOpCoverage();
  return report;
}

namespace {

void NoteProgramMismatch(const std::string& message, ProgramAudit* audit) {
  Finding f;
  f.kind = Finding::Kind::kProgramMismatch;
  f.model = audit->model;
  f.scenario = audit->scenario;
  f.message = message;
  audit->findings.push_back(std::move(f));
}

bool BitwiseEqual(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

ProgramAudit AuditProgram(const std::string& model_name,
                          const ExperimentData& data,
                          const std::string& scenario_name,
                          const CommonHyper& hyper) {
  ProgramAudit audit;
  audit.model = model_name;
  audit.scenario = scenario_name;

  std::unique_ptr<RecModel> eager;
  std::unique_ptr<RecModel> fused;
  try {
    const auto& factory = ModelRegistry::Instance().Get(model_name);
    eager = factory(data.View(), hyper, /*lr=*/1e-3f);
    fused = factory(data.View(), hyper, /*lr=*/1e-3f);
  } catch (const std::exception& e) {
    NoteProgramMismatch(std::string("model construction failed: ") + e.what(),
                        &audit);
    return audit;
  }

  const LabeledBatch batch_z = ProbeBatch(data.split_z(), /*max_pairs=*/8);
  const LabeledBatch batch_zbar = ProbeBatch(data.split_zbar(), 8);

  // Eager twin: the first step runs under a passive op counter so its live
  // op stream can be compared against what the program recorded.
  OpCountingHandler counter;
  float eager_loss0 = 0.f;
  {
    ag::OpStreamScope scope(&counter);
    eager_loss0 = eager->TrainStep(batch_z, batch_zbar);
  }
  const float eager_loss1 = eager->TrainStep(batch_z, batch_zbar);

  // Fused twin: record the first step, replay the second.
  prog::GraphProgram program;
  float fused_loss0 = 0.f;
  float fused_loss1 = 0.f;
  bool replayed = false;
  {
    prog::GraphProgram::RecordScope record(&program);
    fused_loss0 = fused->TrainStep(batch_z, batch_zbar);
  }
  {
    prog::GraphProgram::ReplayScope replay(&program);
    fused_loss1 = fused->TrainStep(batch_z, batch_zbar);
    replayed = replay.replayed();
  }

  const prog::ProgramStats stats = program.stats();
  audit.compiled = stats.compiled;
  audit.instrs = stats.instrs;
  audit.fusion_groups = stats.fusion_groups;
  audit.fused_ops = stats.fused_ops;
  audit.spmm_plans = stats.spmm_plans;
  audit.arena_reserved_bytes = stats.arena_reserved_bytes;
  audit.arena_peak_bytes = stats.arena_peak_bytes;
  audit.arena_zeroed_bytes = stats.arena_zeroed_bytes;
  audit.groups = program.DescribeGroups();

  // Shape equivalence: the recorded program must enumerate exactly the ops
  // (and output elements) the eager twin executed.
  if (audit.compiled) {
    if (program.OpCounts() != counter.counts()) {
      NoteProgramMismatch("recorded op-kind counts differ from the eager "
                          "twin's op stream",
                          &audit);
    }
    if (program.TotalOutputElements() != counter.elements()) {
      NoteProgramMismatch("recorded output elements differ from the eager "
                          "twin's op stream",
                          &audit);
    }
    if (!replayed) {
      NoteProgramMismatch("replay of the second step diverged from the "
                          "recorded program",
                          &audit);
    }
  }
  // Numeric equivalence holds whether or not the program compiled: an
  // uncompilable or diverged step must still fall back to exact eager.
  if (!BitwiseEqual(eager_loss0, fused_loss0) ||
      !BitwiseEqual(eager_loss1, fused_loss1)) {
    std::ostringstream os;
    os << "fused losses (" << fused_loss0 << ", " << fused_loss1
       << ") are not bitwise equal to eager losses (" << eager_loss0 << ", "
       << eager_loss1 << ")";
    NoteProgramMismatch(os.str(), &audit);
  }
  return audit;
}

}  // namespace

bool ProgramReport::clean() const { return finding_count() == 0; }

int ProgramReport::finding_count() const {
  int n = 0;
  for (const ProgramAudit& a : audits) n += static_cast<int>(a.findings.size());
  return n;
}

std::string ProgramReport::ToString() const {
  std::ostringstream out;
  out << "program audit: " << audits.size() << " (model, scenario) pairs, "
      << finding_count() << " findings\n";
  if (audits.empty()) {
    out << "  (fusion disabled via NMCDR_FUSION; nothing to audit)\n";
    return out.str();
  }
  for (const ProgramAudit& a : audits) {
    out << "  [" << a.scenario << "] " << a.model << ": ";
    if (!a.compiled) {
      out << "uncompilable (eager fallback)\n";
    } else {
      out << a.instrs << " instrs, " << a.fusion_groups << " fusion groups ("
          << a.fused_ops << " fused ops), " << a.spmm_plans
          << " spmm plans, arena reserved " << a.arena_reserved_bytes / 1024
          << " KiB peak " << a.arena_peak_bytes / 1024 << " KiB zeroed "
          << a.arena_zeroed_bytes / 1024 << " KiB/step\n";
      std::istringstream lines(a.groups);
      std::string line;
      while (std::getline(lines, line)) out << "      " << line << "\n";
    }
    for (const Finding& f : a.findings) out << "    " << f.ToString() << "\n";
  }
  return out.str();
}

ProgramReport AuditPrograms(BenchScale scale) {
  ProgramReport report;
  if (!prog::FusionEnvEnabled()) return report;
  if (ModelRegistry::Instance().Names().empty()) RegisterAllModels();
  const CommonHyper hyper;
  report.audits.reserve(AllScenarioSpecs(scale).size() *
                        ModelRegistry::Instance().Names().size());
  for (const SyntheticScenarioSpec& spec : AllScenarioSpecs(scale)) {
    ExperimentData data(GenerateScenario(spec), /*seed=*/spec.seed + 1);
    for (const std::string& name : ModelRegistry::Instance().Names()) {
      report.audits.push_back(AuditProgram(name, data, spec.name, hyper));
    }
  }
  return report;
}

std::vector<Finding> AuditOpCoverage() {
  std::vector<Finding> findings;
  const std::vector<std::string> rules = ag::RegisteredShapeRuleOps();
  const std::vector<std::string> checked = GradCheckedOps();
  const std::set<std::string> rule_set(rules.begin(), rules.end());
  const std::set<std::string> checked_set(checked.begin(), checked.end());
  findings.reserve(rules.size() + checked.size());
  for (const std::string& op : rules) {
    if (checked_set.count(op) != 0) continue;
    Finding f;
    f.kind = Finding::Kind::kMissingBackward;
    f.op = op;
    f.message =
        "op has a shape rule but no gradient-check coverage; add an OpCase "
        "to verify/op_suite.cc";
    findings.push_back(std::move(f));
  }
  for (const std::string& op : checked) {
    if (rule_set.count(op) != 0) continue;
    Finding f;
    f.kind = Finding::Kind::kMissingShapeRule;
    f.op = op;
    f.message =
        "op has gradient-check coverage but no shape rule; register one in "
        "autograd/meta.cc";
    findings.push_back(std::move(f));
  }
  return findings;
}

std::vector<Finding> VerifySnapshotShapes(const ModelSnapshot& snapshot) {
  std::vector<Finding> findings;
  // Worst case one finding per verified step per domain (~14 steps).
  findings.reserve(static_cast<size_t>(snapshot.num_domains()) * 14);
  // Symbolic candidate batch; any B works, the rules carry it through.
  constexpr int kBatch = 2;
  for (int d = 0; d < snapshot.num_domains(); ++d) {
    const SnapshotDomain& dom = snapshot.domain(d);
    const FrozenPredictionHead& head = dom.frozen.head;
    const ag::MetaShape users{kBatch, dom.frozen.user_reps.cols()};
    const ag::MetaShape items{kBatch, dom.frozen.item_reps.cols()};
    const auto shape_of = [](const Matrix& m) {
      return ag::MetaShape{m.rows(), m.cols()};
    };

    // MLP path of FrozenPredictionHead::Forward: the first layer is split
    // at the [u || v] boundary, so h0 = u*w0_user + v*w0_item + b0.
    ag::MetaShape hu, hi, h;
    bool ok =
        SnapshotStep("MatMul", {users, shape_of(head.w0_user)}, &hu, dom.name,
                     "user_reps" + users.ToString() + " x head.w0_user" +
                         shape_of(head.w0_user).ToString(),
                     &findings) &&
        SnapshotStep("MatMul", {items, shape_of(head.w0_item)}, &hi, dom.name,
                     "item_reps" + items.ToString() + " x head.w0_item" +
                         shape_of(head.w0_item).ToString(),
                     &findings) &&
        SnapshotStep("Add", {hu, hi}, &h, dom.name,
                     "user half " + hu.ToString() + " + item half " +
                         hi.ToString() + " of the split first layer",
                     &findings) &&
        SnapshotStep("AddRowBroadcast", {h, shape_of(head.b0)}, &h, dom.name,
                     "first-layer bias head.b0" + shape_of(head.b0).ToString(),
                     &findings);
    for (size_t i = 0; ok && i < head.w.size(); ++i) {
      const std::string layer = "head.w[" + std::to_string(i) + "]";
      ok = SnapshotStep("MatMul", {h, shape_of(head.w[i])}, &h, dom.name,
                        "hidden " + h.ToString() + " x " + layer +
                            shape_of(head.w[i]).ToString(),
                        &findings) &&
           SnapshotStep("AddRowBroadcast", {h, shape_of(head.b[i])}, &h,
                        dom.name,
                        "bias head.b[" + std::to_string(i) + "]" +
                            shape_of(head.b[i]).ToString(),
                        &findings);
    }

    // GMF path: logit += (u (.) v) . gmf_w + gmf_b.
    ag::MetaShape prod, dot;
    bool gmf_ok =
        SnapshotStep("Hadamard", {users, items}, &prod, dom.name,
                     "user_reps" + users.ToString() + " (.) item_reps" +
                         items.ToString(),
                     &findings) &&
        SnapshotStep("MatMul", {prod, shape_of(head.gmf_w)}, &dot, dom.name,
                     "product " + prod.ToString() + " x head.gmf_w" +
                         shape_of(head.gmf_w).ToString(),
                     &findings) &&
        SnapshotStep("AddRowBroadcast", {dot, shape_of(head.gmf_b)}, &dot,
                     dom.name,
                     "gmf bias head.gmf_b" + shape_of(head.gmf_b).ToString(),
                     &findings);

    if (ok && gmf_ok) {
      ag::MetaShape logit;
      ok = SnapshotStep("Add", {h, dot}, &logit, dom.name,
                        "mlp logits " + h.ToString() + " + gmf logits " +
                            dot.ToString(),
                        &findings);
      if (ok && (logit.rows != kBatch || logit.cols != 1)) {
        Finding f;
        f.kind = Finding::Kind::kSnapshotShape;
        f.scenario = dom.name;
        f.op = "Add";
        f.message = "domain '" + dom.name + "': scoring chain ends at " +
                    logit.ToString() + ", expected " +
                    ag::MetaShape{kBatch, 1}.ToString() +
                    " logits; the head's last layer does not reduce to one "
                    "column";
        findings.push_back(std::move(f));
      }
    }
  }
  return findings;
}

}  // namespace verify
}  // namespace nmcdr
