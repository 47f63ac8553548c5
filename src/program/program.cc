#include "program/program.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/backend.h"
#include "tensor/fused_kernels.h"
#include "tensor/matrix_ops.h"
#include "tensor/vector_kernels.h"
#include "util/check.h"

namespace nmcdr {
namespace prog {
namespace {

namespace k = ::nmcdr;

/// Role tables for the eltwise-chain matcher. A chain is a run of
/// consecutive instructions where each consumes the previous one's output
/// as its only use. Interior members are restricted to ops whose backward
/// needs neither their input nor their output value (pass / negate /
/// scale), so no intermediate ever has to be materialized; value-dependent
/// activations may only terminate a chain (their backward reads the final
/// output, which the fused node materializes).
bool IsChainLeader(ag::OpKind kind) {
  switch (kind) {
    case ag::OpKind::kAdd:
    case ag::OpKind::kSub:
    case ag::OpKind::kHadamard:
    case ag::OpKind::kScale:
    case ag::OpKind::kAddScalar:
    case ag::OpKind::kOneMinus:
    case ag::OpKind::kSoftplus:
      return true;
    default:
      return false;
  }
}

bool IsChainInterior(ag::OpKind kind) {
  switch (kind) {
    case ag::OpKind::kAdd:
    case ag::OpKind::kSub:
    case ag::OpKind::kScale:
    case ag::OpKind::kAddScalar:
    case ag::OpKind::kOneMinus:
      return true;
    default:
      return false;
  }
}

bool IsChainTailOnly(ag::OpKind kind) {
  switch (kind) {
    case ag::OpKind::kRelu:
    case ag::OpKind::kSigmoid:
    case ag::OpKind::kTanh:
    case ag::OpKind::kExp:
      return true;
    default:
      return false;
  }
}

bool IsBinaryChainOp(ag::OpKind kind) {
  return kind == ag::OpKind::kAdd || kind == ag::OpKind::kSub ||
         kind == ag::OpKind::kHadamard;
}

FusedAct EpilogueActFor(ag::OpKind kind) {
  switch (kind) {
    case ag::OpKind::kRelu:
      return FusedAct::kRelu;
    case ag::OpKind::kSigmoid:
      return FusedAct::kSigmoid;
    case ag::OpKind::kTanh:
      return FusedAct::kTanh;
    default:
      return FusedAct::kNone;
  }
}

/// Bitwise mirror of AccumulateGrad's normalization: every link between
/// two fused ops corresponds to an eager intermediate whose grad was
/// `zeros + g`, and IEEE 0+x is not always x (-0 becomes +0), so the
/// fused backward replays the same add (FirstAccumInto, one pass).
Matrix NormalizeLinkGrad(const Matrix& g) {
  Matrix norm = Matrix::ForOverwrite(g.rows(), g.cols());
  FirstAccumInto(g, &norm);
  return norm;
}

/// Activation backward bodies, element-for-element identical to the eager
/// closures in autograd/ops.cc.
Matrix ActBackward(ag::OpKind kind, const Matrix& y, const Matrix& g) {
  if (kind == ag::OpKind::kExp) return k::Hadamard(g, y);
  Matrix da = Matrix::ForOverwrite(g.rows(), g.cols());
  switch (kind) {
    case ag::OpKind::kRelu:
      for (int i = 0; i < da.size(); ++i) {
        da.data()[i] = y.data()[i] > 0.f ? g.data()[i] : 0.f;
      }
      break;
    case ag::OpKind::kSigmoid:
      for (int i = 0; i < da.size(); ++i) {
        const float yv = y.data()[i];
        da.data()[i] = g.data()[i] * yv * (1.f - yv);
      }
      break;
    case ag::OpKind::kTanh:
      for (int i = 0; i < da.size(); ++i) {
        const float yv = y.data()[i];
        da.data()[i] = g.data()[i] * (1.f - yv * yv);
      }
      break;
    default:
      NMCDR_DCHECK(false);  // unreachable: callers pass activation kinds only
  }
  return da;
}

}  // namespace

bool FusionEnvEnabled() {
  const char* v = std::getenv("NMCDR_FUSION");
  if (v == nullptr) return true;
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "false") == 0 ||
           std::strcmp(v, "off") == 0);
}

GraphProgram::GraphProgram() = default;
GraphProgram::~GraphProgram() = default;

// ---------------------------------------------------------------------------
// OpStreamHandler dispatch.

bool GraphProgram::OnOpEntry(ag::OpKind kind, const ag::Tensor* const* in,
                             int num_in, const float* scalars, int num_scalars,
                             ag::Tensor* out) {
  switch (mode_) {
    case Mode::kRecording:
      return RecordOpEntry(kind, in, num_in, scalars, num_scalars);
    case Mode::kReplaying:
      return ReplayOpEntry(kind, in, num_in, scalars, num_scalars, out);
    case Mode::kIdle:
      return false;
  }
  return false;
}

bool GraphProgram::OnSpMM(const std::shared_ptr<const CsrMatrix>& a,
                          const ag::Tensor& x, ag::Tensor* out) {
  switch (mode_) {
    case Mode::kRecording: {
      const ag::Tensor* ins[] = {&x};
      const bool handled = RecordOpEntry(ag::OpKind::kSpMM, ins, 1, nullptr, 0);
      if (pending_.valid) pending_.csr = a;
      return handled;
    }
    case Mode::kReplaying:
      return ReplaySpMM(a, x, out);
    case Mode::kIdle:
      return false;
  }
  return false;
}

void GraphProgram::OnNodeCreated(const char* op, const ag::Tensor& result,
                                 const std::vector<ag::Tensor>& parents) {
  (void)parents;
  // Replay ignores node creation entirely: eager ops were already
  // position-verified at entry, and intercepted results never pass through
  // MakeOpNode.
  if (mode_ == Mode::kRecording) RecordNodeCreated(op, result);
}

// ---------------------------------------------------------------------------
// Recording.

GraphProgram::RecordScope::RecordScope(GraphProgram* program)
    : program_(program),
      stream_(program != nullptr ? static_cast<ag::OpStreamHandler*>(program)
                                 : nullptr) {
  if (program_ == nullptr) return;
  NMCDR_CHECK(!program_->compiled_);
  program_->mode_ = Mode::kRecording;
  program_->instrs_.clear();
  program_->keepalive_.clear();
  program_->recorded_value_bytes_ = 0;
  program_->pending_ = Pending{};
}

GraphProgram::RecordScope::~RecordScope() {
  if (program_ != nullptr) program_->Compile();
}

bool GraphProgram::RecordOpEntry(ag::OpKind kind, const ag::Tensor* const* in,
                                 int num_in, const float* scalars,
                                 int num_scalars) {
  if (uncompilable_) return false;
  if (pending_.valid) {
    // An op entered while another is mid-flight: composite ops calling ops
    // re-enter pairwise, so this means an op shape we do not model.
    MarkUncompilable("nested op entry");
    return false;
  }
  if (num_in > 2) {
    MarkUncompilable("op arity above 2");
    return false;
  }
  pending_.valid = true;
  pending_.kind = kind;
  pending_.num_in = num_in;
  pending_.in_nodes[0] = num_in > 0 ? in[0]->raw() : nullptr;
  pending_.in_nodes[1] = num_in > 1 ? in[1]->raw() : nullptr;
  pending_.has_scalar = num_scalars > 0;
  pending_.scalar = num_scalars > 0 ? scalars[0] : 0.f;
  pending_.csr.reset();
  return false;  // always run the eager body while recording
}

void GraphProgram::RecordNodeCreated(const char* op, const ag::Tensor& result) {
  if (uncompilable_) return;
  if (!pending_.valid) {
    // MakeOpNode reached without an op-entry prologue: a custom op we
    // cannot verify positionally.
    MarkUncompilable("node created outside a known op");
    return;
  }
  if (std::strcmp(op, ag::OpKindName(pending_.kind)) != 0) {
    MarkUncompilable("op entry / node pairing mismatch");
    return;
  }
  Instr instr;
  instr.kind = pending_.kind;
  instr.rows = result.value().rows();
  instr.cols = result.value().cols();
  instr.num_in = pending_.num_in;
  instr.requires_grad = result.requires_grad();
  instr.has_scalar = pending_.has_scalar;
  instr.scalar = pending_.scalar;
  instr.in_nodes[0] = pending_.in_nodes[0];
  instr.in_nodes[1] = pending_.in_nodes[1];
  instr.out_node = result.raw();
  instr.csr = std::move(pending_.csr);
  instrs_.push_back(std::move(instr));
  // Pin the node so no later allocation can reuse its address and alias
  // the consumer analysis (released after Compile()).
  keepalive_.push_back(result);
  recorded_value_bytes_ +=
      static_cast<int64_t>(result.value().size()) * sizeof(float);
  pending_.valid = false;
}

void GraphProgram::MarkUncompilable(const char* why) {
  (void)why;
  uncompilable_ = true;
  pending_ = Pending{};
}

void GraphProgram::Compile() {
  mode_ = Mode::kIdle;
  if (pending_.valid) MarkUncompilable("op entry without node");
  keepalive_.clear();
  if (uncompilable_ || instrs_.empty()) {
    instrs_.clear();
    groups_.clear();
    return;
  }
  CompileGroups();
  // Reserve the replay-time scratch once so steady-state steps never grow
  // it: EltwiseStep slots for the longest chain, group bookkeeping slots.
  size_t max_chain = 0;
  for (const FusionGroup& g : groups_) {
    max_chain = std::max(max_chain, g.members.size());
  }
  eltwise_scratch_.reserve(max_chain);
  // Static gather plans for every adjacency op, built from the recorded
  // CSR operands (re-keyed at replay if the model swaps adjacencies).
  spmm_plans_.clear();
  spmm_plan_by_pc_.clear();
  spmm_plans_.reserve(instrs_.size());
  for (int pc = 0; pc < static_cast<int>(instrs_.size()); ++pc) {
    if (instrs_[pc].kind != ag::OpKind::kSpMM || instrs_[pc].csr == nullptr) {
      continue;
    }
    spmm_plan_by_pc_[pc] = static_cast<int>(spmm_plans_.size());
    spmm_plans_.push_back(std::make_shared<SpMMPlan>());
  }
  // The arena must hold one step's activations, gradients, and backward
  // temporaries; 3x the recorded forward footprint covers all three with
  // headroom, and the arena grows (and reports it) if estimation is short.
  arena_.Reserve(static_cast<size_t>(3 * recorded_value_bytes_) + (1u << 20));
  compiled_ = true;
}

void GraphProgram::CompileGroups() {
  groups_.clear();
  const int n = static_cast<int>(instrs_.size());
  // Per-occurrence consumer counts over record-time node identities.
  std::map<const void*, int> uses;
  for (const Instr& instr : instrs_) {
    for (int i = 0; i < instr.num_in; ++i) ++uses[instr.in_nodes[i]];
  }
  // True when instr `q` consumes instr `p`'s output as its only use,
  // exactly once, at argument `arg`.
  auto links_at = [&](int p, int q, int arg) {
    const void* out = instrs_[p].out_node;
    auto it = uses.find(out);
    if (it == uses.end() || it->second != 1) return false;
    if (arg >= instrs_[q].num_in || instrs_[q].in_nodes[arg] != out) {
      return false;
    }
    const int other = 1 - arg;
    if (other < instrs_[q].num_in && instrs_[q].in_nodes[other] == out) {
      return false;
    }
    return true;
  };
  auto chain_arg_of = [&](int p, int q) {
    if (links_at(p, q, 0)) return 0;
    if (links_at(p, q, 1)) return 1;
    return -1;
  };

  int pc = 0;
  while (pc < n) {
    // MatMul + bias + activation epilogue.
    if (instrs_[pc].kind == ag::OpKind::kMatMul) {
      FusionGroup g;
      g.kind = FusionGroup::Kind::kMatMulEpilogue;
      g.first_pc = pc;
      g.size = 1;
      int cur = pc;
      if (cur + 1 < n &&
          instrs_[cur + 1].kind == ag::OpKind::kAddRowBroadcast &&
          links_at(cur, cur + 1, 0)) {
        g.has_bias = true;
        ++g.size;
        ++cur;
      }
      if (cur + 1 < n &&
          EpilogueActFor(instrs_[cur + 1].kind) != FusedAct::kNone &&
          links_at(cur, cur + 1, 0)) {
        g.act = EpilogueActFor(instrs_[cur + 1].kind);
        ++g.size;
        ++cur;
      }
      // A bare MatMul (size 1) still forms a group: materialization routes
      // it through the vector GEMM cores (forward VectorFusedMatMul
      // with no epilogue, backward the vector TransA/TransB), which are
      // bit-exact with the eager kernels under either backend.
      const int gidx = static_cast<int>(groups_.size());
      for (int m = 0; m < g.size; ++m) {
        instrs_[g.first_pc + m].group = gidx;
        instrs_[g.first_pc + m].member = m;
      }
      groups_.push_back(std::move(g));
      pc = cur + 1;
      continue;
    }
    // Elementwise chain.
    if (IsChainLeader(instrs_[pc].kind)) {
      FusionGroup g;
      g.kind = FusionGroup::Kind::kEltwiseChain;
      g.first_pc = pc;
      ChainMember leader;
      leader.kind = instrs_[pc].kind;
      leader.chain_arg = -1;
      leader.has_side = IsBinaryChainOp(leader.kind);
      leader.has_scalar = instrs_[pc].has_scalar;
      g.members.push_back(leader);
      int cur = pc;
      while (cur + 1 < n) {
        const Instr& next = instrs_[cur + 1];
        const bool interior = IsChainInterior(next.kind);
        const bool tail_only = IsChainTailOnly(next.kind);
        if (!interior && !tail_only) break;
        const int arg = chain_arg_of(cur, cur + 1);
        if (arg < 0) break;
        ChainMember m;
        m.kind = next.kind;
        m.chain_arg = arg;
        m.has_side = IsBinaryChainOp(next.kind);
        m.has_scalar = next.has_scalar;
        g.members.push_back(m);
        ++cur;
        if (tail_only) break;
      }
      g.size = static_cast<int>(g.members.size());
      if (g.size >= 2) {
        const int gidx = static_cast<int>(groups_.size());
        for (int m = 0; m < g.size; ++m) {
          instrs_[g.first_pc + m].group = gidx;
          instrs_[g.first_pc + m].member = m;
        }
        groups_.push_back(std::move(g));
        pc = cur + 1;
        continue;
      }
    }
    ++pc;
  }
}

// ---------------------------------------------------------------------------
// Replay.

GraphProgram::ReplayScope::ReplayScope(GraphProgram* program)
    : program_(program),
      active_(program != nullptr && program->usable()),
      arena_(active_ ? &program->arena_ : nullptr),
      stream_(active_ ? static_cast<ag::OpStreamHandler*>(program) : nullptr) {
  if (active_) program_->BeginReplay();
}

GraphProgram::ReplayScope::~ReplayScope() {
  if (active_) program_->EndReplay();
}

bool GraphProgram::ReplayScope::replayed() const {
  return active_ && program_->step_ok_;
}

void GraphProgram::BeginReplay() {
  mode_ = Mode::kReplaying;
  pc_ = 0;
  step_ok_ = true;
  run_.Reset();
  arena_.ResetStep();
}

void GraphProgram::EndReplay() {
  mode_ = Mode::kIdle;
  if (run_.group != -1) {
    // The step ended with a group mid-flight: the model holds the pending
    // placeholder, so give it a real value before retiring.
    Die("step ended inside a fusion group");
  }
  if (step_ok_ && pc_ != static_cast<int>(instrs_.size())) {
    // The live step ran fewer ops than recorded; every executed op was
    // verified (numerics are fine) but the program no longer matches.
    step_ok_ = false;
    dead_ = true;
  }
  if (step_ok_) {
    ++replay_steps_;
    arena_zeroed_bytes_ = static_cast<int64_t>(arena_.step_zeroed_bytes());
  } else {
    ++fallback_steps_;
  }
}

void GraphProgram::Die(const char* why) {
  (void)why;
  if (run_.group != -1) {
    MaterializeGroup(run_.next_member, &run_.placeholder);
    run_.Reset();
  }
  step_ok_ = false;
  dead_ = true;
}

ag::Tensor GraphProgram::MakePlaceholder(int rows, int cols,
                                         bool requires_grad) {
  // ShapeOnly carries dimensions but no storage: any eager read of a
  // fused intermediate is a loud null-data failure instead of silent
  // garbage. Built directly (not via MakeOpNode) so no handler re-entry.
  return ag::Tensor(Matrix::ShapeOnly(rows, cols), requires_grad);
}

bool GraphProgram::ReplayOpEntry(ag::OpKind kind, const ag::Tensor* const* in,
                                 int num_in, const float* scalars,
                                 int num_scalars, ag::Tensor* out) {
  if (!step_ok_) return false;
  if (run_.group != -1) {
    return ContinueGroup(kind, in, num_in, scalars, num_scalars, out);
  }
  if (pc_ >= static_cast<int>(instrs_.size())) {
    Die("live step has more ops than the recording");
    return false;
  }
  const Instr& instr = instrs_[pc_];
  if (instr.kind != kind) {
    Die("op kind diverged from the recording");
    return false;
  }
  if (instr.group >= 0) {
    if (instr.member != 0) {
      Die("fused member reached without its leader");
      return false;
    }
    ++pc_;
    BeginGroup(instr.group, in, num_in, scalars, num_scalars, out);
    return true;
  }
  ++pc_;
  return false;  // verified; run the eager body
}

void GraphProgram::BeginGroup(int group_idx, const ag::Tensor* const* in,
                              int num_in, const float* scalars,
                              int num_scalars, ag::Tensor* out) {
  const FusionGroup& g = groups_[group_idx];
  run_.group = group_idx;
  run_.next_member = 1;
  run_.inputs.clear();
  run_.sides.clear();
  run_.scalars.clear();
  // Reserves are no-ops once warm (Reset() keeps capacity); they also mark
  // the appends below as the sanctioned amortized-growth pattern.
  run_.inputs.reserve(4);
  run_.sides.reserve(static_cast<size_t>(g.size));
  run_.scalars.reserve(static_cast<size_t>(g.size));
  for (int i = 0; i < num_in; ++i) run_.inputs.push_back(*in[i]);
  run_.sides.push_back(ag::Tensor());  // leader slot; sides start at 1
  run_.scalars.push_back(num_scalars > 0 ? scalars[0] : 0.f);
  int rows;
  int cols;
  if (g.kind == FusionGroup::Kind::kMatMulEpilogue) {
    rows = in[0]->rows();
    cols = in[1]->cols();
  } else {
    rows = in[0]->rows();
    cols = in[0]->cols();
  }
  if (g.size == 1) {
    // Single-op group (a bare MatMul): nothing to chain, materialize now.
    ag::Tensor result;
    MaterializeGroup(1, &result);
    run_.Reset();
    *out = result;
    return;
  }
  bool rg = false;
  for (int i = 0; i < num_in; ++i) rg = rg || in[i]->requires_grad();
  rg = rg && ag::GradEnabled();
  run_.placeholder = MakePlaceholder(rows, cols, rg);
  *out = run_.placeholder;
}

bool GraphProgram::ContinueGroup(ag::OpKind kind, const ag::Tensor* const* in,
                                 int num_in, const float* scalars,
                                 int num_scalars, ag::Tensor* out) {
  const FusionGroup& g = groups_[run_.group];
  const int j = run_.next_member;
  // Warm-capacity appends (BeginGroup reserved; reserve here is a no-op
  // that keeps the amortized pattern explicit in this function too).
  run_.inputs.reserve(4);
  run_.sides.reserve(static_cast<size_t>(g.size));
  run_.scalars.reserve(static_cast<size_t>(g.size));
  if (pc_ >= static_cast<int>(instrs_.size()) ||
      instrs_[pc_].group != run_.group || instrs_[pc_].member != j) {
    Die("group interrupted mid-flight");
    return false;
  }
  if (g.kind == FusionGroup::Kind::kMatMulEpilogue) {
    ag::OpKind expected;
    if (g.has_bias && j == 1) {
      expected = ag::OpKind::kAddRowBroadcast;
    } else {
      expected = g.act == FusedAct::kRelu      ? ag::OpKind::kRelu
                 : g.act == FusedAct::kSigmoid ? ag::OpKind::kSigmoid
                                               : ag::OpKind::kTanh;
    }
    if (kind != expected || num_in < 1 ||
        in[0]->raw() != run_.placeholder.raw()) {
      Die("epilogue link diverged");
      return false;
    }
    bool rg = run_.placeholder.requires_grad();
    if (kind == ag::OpKind::kAddRowBroadcast) {
      const ag::Tensor& bias = *in[1];
      if (bias.raw() == run_.placeholder.raw() ||
          !bias.value().has_storage()) {
        Die("epilogue bias is not materialized");
        return false;
      }
      run_.inputs.push_back(bias);
      rg = rg || bias.requires_grad();
    }
    rg = rg && ag::GradEnabled();
    ++pc_;
    ++run_.next_member;
    if (run_.next_member == g.size) {
      ag::Tensor result;
      MaterializeGroup(g.size, &result);
      run_.Reset();
      *out = result;
      return true;
    }
    run_.placeholder = MakePlaceholder(run_.placeholder.value().rows(),
                                       run_.placeholder.value().cols(), rg);
    *out = run_.placeholder;
    return true;
  }
  // Eltwise chain member.
  const ChainMember& m = g.members[j];
  if (kind != m.kind || m.chain_arg >= num_in ||
      in[m.chain_arg]->raw() != run_.placeholder.raw()) {
    Die("chain link diverged");
    return false;
  }
  ag::Tensor side;
  if (m.has_side) {
    side = *in[1 - m.chain_arg];
    if (side.raw() == run_.placeholder.raw() || !side.value().has_storage()) {
      Die("chain side input is not materialized");
      return false;
    }
  }
  run_.sides.push_back(side);
  run_.scalars.push_back(num_scalars > 0 ? scalars[0] : 0.f);
  bool rg = run_.placeholder.requires_grad() ||
            (side.defined() && side.requires_grad());
  rg = rg && ag::GradEnabled();
  ++pc_;
  ++run_.next_member;
  if (run_.next_member == g.size) {
    ag::Tensor result;
    MaterializeGroup(g.size, &result);
    run_.Reset();
    *out = result;
    return true;
  }
  run_.placeholder = MakePlaceholder(run_.placeholder.value().rows(),
                                     run_.placeholder.value().cols(), rg);
  *out = run_.placeholder;
  return true;
}

void GraphProgram::MaterializeGroup(int upto, ag::Tensor* target) {
  const FusionGroup& g = groups_[run_.group];
  NMCDR_DCHECK_GE(upto, 1);

  if (g.kind == FusionGroup::Kind::kMatMulEpilogue) {
    const ag::Tensor a = run_.inputs[0];
    const ag::Tensor b = run_.inputs[1];
    const bool with_bias = g.has_bias && upto >= 2;
    const bool with_act =
        g.act != FusedAct::kNone && upto >= (g.has_bias ? 3 : 2);
    const ag::Tensor bias = with_bias ? run_.inputs[2] : ag::Tensor();
    const FusedAct act = with_act ? g.act : FusedAct::kNone;

    Matrix value = Matrix::ForOverwrite(a.rows(), b.cols());
    {
      // program.cc is the dispatch site for the fused kernels (they have
      // no matrix_ops free-function dispatcher), so the obs probe lives
      // here.
      const obs::KernelScope scope(obs::Kernel::kFusedMatMulBiasAct,
                                   2ll * a.rows() * a.cols() * b.cols());
      VectorFusedMatMul(a.value(), b.value(),
                        with_bias ? &bias.value() : nullptr, act, &value);
    }

    if (!target->defined()) {
      *target = ag::Tensor(Matrix::ShapeOnly(value.rows(), value.cols()));
    }
    ag::Node* node = target->raw();
    node->value = std::move(value);
    node->op = "Fused";
    bool rg = a.requires_grad() || b.requires_grad() ||
              (with_bias && bias.requires_grad());
    rg = rg && ag::GradEnabled();
    node->requires_grad = rg;
    if (!rg) return;
    auto& parents = node->parents;
    parents.clear();
    parents.reserve(3);
    parents.push_back(a.node());
    parents.push_back(b.node());
    if (with_bias) parents.push_back(bias.node());
    // Bitwise mirror of the eager backward sequence act' -> bias -> matmul,
    // with one 0+x link normalization per fused internal edge (matching
    // each eager intermediate's AccumulateGrad from its single consumer).
    node->backward = [a, b, bias, with_bias, act](ag::Node* self) {
      const Matrix* cur = &self->grad;
      Matrix da;
      Matrix norm_act;
      Matrix norm_bias;
      if (act != FusedAct::kNone) {
        const ag::OpKind act_kind = act == FusedAct::kRelu ? ag::OpKind::kRelu
                                    : act == FusedAct::kSigmoid
                                        ? ag::OpKind::kSigmoid
                                        : ag::OpKind::kTanh;
        da = ActBackward(act_kind, self->value, *cur);
        norm_act = NormalizeLinkGrad(da);
        cur = &norm_act;
      }
      if (with_bias) {
        bias.raw()->AccumulateGrad(k::ColSum(*cur));
        norm_bias = NormalizeLinkGrad(*cur);
        cur = &norm_bias;
      }
      // The vector TransB / TransA cores under any backend: bit-exact
      // with the eager k::MatMulTransB / k::MatMulTransA calls.
      const VectorBackend& vector = VectorKernelBackend();
      {
        const obs::KernelScope scope(
            obs::Kernel::kPlannedMatMulTransB,
            2ll * cur->rows() * cur->cols() * b.value().rows());
        a.raw()->AccumulateGrad(vector.MatMulTransB(*cur, b.value()));
      }
      {
        const obs::KernelScope scope(
            obs::Kernel::kPlannedMatMulTransA,
            2ll * a.value().rows() * a.value().cols() * cur->cols());
        b.raw()->AccumulateGrad(vector.MatMulTransA(a.value(), *cur));
      }
    };
    return;
  }

  // Eltwise chain over members [0, upto). `members` points into groups_,
  // which is immutable after Compile() and outlives every step tape (see
  // the class lifetime note); the per-step sides/scalars move into the
  // backward closure below, so nothing here copies a vector.
  const ag::Tensor seed = run_.inputs[0];
  const ChainMember* members = g.members.data();
  if (members[0].has_side) run_.sides[0] = run_.inputs[1];

  eltwise_scratch_.clear();
  eltwise_scratch_.reserve(static_cast<size_t>(upto));
  for (int j = 0; j < upto; ++j) {
    EltwiseStep st;
    switch (members[j].kind) {
      case ag::OpKind::kAdd:
        st.op = EltwiseOp::kAddMat;
        st.side = run_.sides[j].value().data();
        break;
      case ag::OpKind::kSub:
        st.op = EltwiseOp::kSubMat;
        st.rhs = members[j].chain_arg == 1;
        st.side = run_.sides[j].value().data();
        break;
      case ag::OpKind::kHadamard:
        st.op = EltwiseOp::kMulMat;
        st.side = run_.sides[j].value().data();
        break;
      case ag::OpKind::kScale:
        st.op = EltwiseOp::kScale;
        st.scalar = run_.scalars[j];
        break;
      case ag::OpKind::kAddScalar:
        st.op = EltwiseOp::kAddScalar;
        st.scalar = run_.scalars[j];
        break;
      case ag::OpKind::kOneMinus:
        st.op = EltwiseOp::kOneMinus;
        break;
      case ag::OpKind::kSoftplus:
        st.op = EltwiseOp::kSoftplus;
        break;
      case ag::OpKind::kRelu:
        st.op = EltwiseOp::kRelu;
        break;
      case ag::OpKind::kSigmoid:
        st.op = EltwiseOp::kSigmoid;
        break;
      case ag::OpKind::kTanh:
        st.op = EltwiseOp::kTanh;
        break;
      case ag::OpKind::kExp:
        st.op = EltwiseOp::kExp;
        break;
      default:
        NMCDR_DCHECK(false);  // unreachable: the compiler admits these only
    }
    eltwise_scratch_.push_back(st);
  }

  Matrix value = Matrix::ForOverwrite(seed.rows(), seed.cols());
  {
    const obs::KernelScope scope(
        obs::Kernel::kFusedEltwise,
        static_cast<int64_t>(seed.value().size()) * upto);
    FusedEltwiseInto(seed.value(), eltwise_scratch_.data(), upto, &value);
  }

  if (!target->defined()) {
    *target = ag::Tensor(Matrix::ShapeOnly(value.rows(), value.cols()));
  }
  ag::Node* node = target->raw();
  node->value = std::move(value);
  node->op = "Fused";
  bool rg = seed.requires_grad();
  for (const ag::Tensor& s : run_.sides) {
    rg = rg || (s.defined() && s.requires_grad());
  }
  rg = rg && ag::GradEnabled();
  node->requires_grad = rg;
  if (!rg) return;

  // Parent order mirrors the eager tape's DFS emission: the chain value at
  // arg0 appends the side after the deeper subtree, at arg1 prepends it —
  // so arg1 sides land up front in reverse member order, then the leader's
  // operands, then arg0 sides in member order.
  auto& parents = node->parents;
  parents.clear();
  parents.reserve(static_cast<size_t>(upto) + 1);
  for (int j = upto - 1; j >= 1; --j) {
    if (members[j].has_side && members[j].chain_arg == 1) {
      parents.push_back(run_.sides[j].node());
    }
  }
  parents.push_back(seed.node());
  if (members[0].has_side) parents.push_back(run_.sides[0].node());
  for (int j = 1; j < upto; ++j) {
    if (members[j].has_side && members[j].chain_arg == 0) {
      parents.push_back(run_.sides[j].node());
    }
  }

  const ag::Tensor leader_a = seed;
  const ag::Tensor leader_b = members[0].has_side ? run_.sides[0] : ag::Tensor();
  node->backward = [members, sides = std::move(run_.sides),
                    scalars = std::move(run_.scalars), leader_a, leader_b,
                    upto](ag::Node* self) {
    Matrix buf;
    const Matrix* cur = &self->grad;
    for (int j = upto - 1; j >= 1; --j) {
      const ChainMember& m = members[j];
      // Member backward: grad wrt the chain input + side accumulation,
      // each formula identical to the eager closure it replaces.
      switch (m.kind) {
        case ag::OpKind::kRelu:
        case ag::OpKind::kSigmoid:
        case ag::OpKind::kTanh:
        case ag::OpKind::kExp: {
          Matrix da = ActBackward(m.kind, self->value, *cur);
          buf = std::move(da);
          cur = &buf;
          break;
        }
        case ag::OpKind::kAdd:
          sides[j].raw()->AccumulateGrad(*cur);
          break;
        case ag::OpKind::kSub:
          if (m.chain_arg == 0) {
            sides[j].raw()->AccumulateGrad(k::Scale(*cur, -1.f));
          } else {
            sides[j].raw()->AccumulateGrad(*cur);
            Matrix neg = k::Scale(*cur, -1.f);
            buf = std::move(neg);
            cur = &buf;
          }
          break;
        case ag::OpKind::kScale: {
          Matrix scaled = k::Scale(*cur, scalars[j]);
          buf = std::move(scaled);
          cur = &buf;
          break;
        }
        case ag::OpKind::kAddScalar:
          break;
        case ag::OpKind::kOneMinus: {
          Matrix neg = k::Scale(*cur, -1.f);
          buf = std::move(neg);
          cur = &buf;
          break;
        }
        default:
          NMCDR_DCHECK(false);  // unreachable: compiler-admitted kinds only
      }
      // Crossing the link into member j-1's output: the eager intermediate
      // accumulated `zeros + g` there.
      Matrix norm = NormalizeLinkGrad(*cur);
      buf = std::move(norm);
      cur = &buf;
    }
    // Leader: gradients flow to the external inputs.
    switch (members[0].kind) {
      case ag::OpKind::kAdd:
        leader_a.raw()->AccumulateGrad(*cur);
        leader_b.raw()->AccumulateGrad(*cur);
        break;
      case ag::OpKind::kSub:
        leader_a.raw()->AccumulateGrad(*cur);
        leader_b.raw()->AccumulateGrad(k::Scale(*cur, -1.f));
        break;
      case ag::OpKind::kHadamard:
        leader_a.raw()->AccumulateGrad(k::Hadamard(*cur, leader_b.value()));
        leader_b.raw()->AccumulateGrad(k::Hadamard(*cur, leader_a.value()));
        break;
      case ag::OpKind::kScale:
        leader_a.raw()->AccumulateGrad(k::Scale(*cur, scalars[0]));
        break;
      case ag::OpKind::kAddScalar:
        leader_a.raw()->AccumulateGrad(*cur);
        break;
      case ag::OpKind::kOneMinus:
        leader_a.raw()->AccumulateGrad(k::Scale(*cur, -1.f));
        break;
      case ag::OpKind::kSoftplus: {
        Matrix sig = k::Sigmoid(leader_a.value());
        leader_a.raw()->AccumulateGrad(k::Hadamard(*cur, sig));
        break;
      }
      default:
        NMCDR_DCHECK(false);  // unreachable: compiler-admitted kinds only
    }
  };
}

std::shared_ptr<const GraphProgram::SpMMPlan> GraphProgram::PlanFor(
    int pc, const std::shared_ptr<const CsrMatrix>& a) {
  const int idx = spmm_plan_by_pc_.at(pc);
  if (spmm_plans_[idx]->csr_key == a.get()) return spmm_plans_[idx];
  return BuildPlan(idx, a);
}

std::shared_ptr<const GraphProgram::SpMMPlan> GraphProgram::BuildPlan(
    int idx, const std::shared_ptr<const CsrMatrix>& a) {
  // First use, or the model rebuilt its adjacency: (re)build the gather
  // form of A^T with a counting sort over (row, entry) ascending so each
  // output row's accumulation order matches MultiplyTransposed exactly. A
  // fresh plan object replaces the slot so closures on still-live tape
  // nodes keep the plan they captured.
  std::shared_ptr<SpMMPlan> plan = std::make_shared<SpMMPlan>();
  const CsrMatrix& csr = *a;
  const int cols = csr.cols();
  const int64_t nnz = csr.nnz();
  plan->cols = cols;
  plan->t_row_ptr.assign(static_cast<size_t>(cols) + 1, 0);
  plan->t_src_row.assign(static_cast<size_t>(nnz), 0);
  plan->t_val.assign(static_cast<size_t>(nnz), 0.f);
  const std::vector<int64_t>& row_ptr = csr.row_ptr();
  const std::vector<int>& col_idx = csr.col_idx();
  const std::vector<float>& values = csr.values();
  for (int64_t e = 0; e < nnz; ++e) ++plan->t_row_ptr[col_idx[e] + 1];
  for (int c = 0; c < cols; ++c) plan->t_row_ptr[c + 1] += plan->t_row_ptr[c];
  std::vector<int64_t> fill(plan->t_row_ptr.begin(), plan->t_row_ptr.end() - 1);
  for (int r = 0; r < csr.rows(); ++r) {
    for (int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      const int64_t slot = fill[col_idx[e]]++;
      plan->t_src_row[slot] = r;
      plan->t_val[slot] = values[e];
    }
  }
  plan->csr_key = a.get();
  spmm_plans_[idx] = plan;
  return plan;
}

bool GraphProgram::ReplaySpMM(const std::shared_ptr<const CsrMatrix>& a,
                              const ag::Tensor& x, ag::Tensor* out) {
  if (!step_ok_) return false;
  if (run_.group != -1) {
    Die("adjacency op interrupted a fusion group");
    return false;
  }
  if (pc_ >= static_cast<int>(instrs_.size()) ||
      instrs_[pc_].kind != ag::OpKind::kSpMM) {
    Die("adjacency op diverged from the recording");
    return false;
  }
  std::shared_ptr<const SpMMPlan> plan = PlanFor(pc_, a);
  ++pc_;

  // Forward is the eager CSR kernel (already gather form); the plan turns
  // backward into the same register-row core over CSR^T.
  const bool rg = ag::GradEnabled() && x.requires_grad();
  ag::Tensor result(a->Multiply(x.value()), rg);
  ag::Node* node = result.raw();
  node->op = "SpMM";
  if (rg) {
    node->parents.assign(1, x.node());
    node->backward = [x, plan](ag::Node* self) {
      const Matrix& g = self->grad;
      Matrix dx = Matrix::ForOverwrite(plan->cols, g.cols());
      VectorSparseRowsMultiply(plan->t_row_ptr.data(), plan->t_src_row.data(),
                               plan->t_val.data(), g, &dx);
      x.raw()->AccumulateGrad(std::move(dx));
    };
  }
  *out = result;
  return true;
}

// ---------------------------------------------------------------------------
// Introspection.

ProgramStats GraphProgram::stats() const {
  ProgramStats s;
  s.compiled = compiled_;
  s.uncompilable = uncompilable_;
  s.dead = dead_;
  s.instrs = static_cast<int>(instrs_.size());
  s.fusion_groups = static_cast<int>(groups_.size());
  for (const FusionGroup& g : groups_) s.fused_ops += g.size;
  s.spmm_plans = static_cast<int>(spmm_plans_.size());
  s.arena_reserved_bytes = static_cast<int64_t>(arena_.capacity_bytes());
  s.arena_peak_bytes = static_cast<int64_t>(arena_.peak_bytes());
  s.arena_zeroed_bytes = arena_zeroed_bytes_;
  s.arena_growth_events = arena_.growth_events();
  s.replay_steps = replay_steps_;
  s.fallback_steps = fallback_steps_;
  return s;
}

std::map<std::string, int> GraphProgram::OpCounts() const {
  std::map<std::string, int> counts;
  for (const Instr& instr : instrs_) ++counts[ag::OpKindName(instr.kind)];
  return counts;
}

int64_t GraphProgram::TotalOutputElements() const {
  int64_t total = 0;
  for (const Instr& instr : instrs_) {
    total += static_cast<int64_t>(instr.rows) * instr.cols;
  }
  return total;
}

std::string GraphProgram::DescribeGroups() const {
  std::ostringstream os;
  for (const FusionGroup& g : groups_) {
    os << "pc " << g.first_pc << ": ";
    if (g.kind == FusionGroup::Kind::kMatMulEpilogue) {
      os << "MatMul";
      if (g.has_bias) os << "+Bias";
      if (g.act == FusedAct::kRelu) os << "+Relu";
      if (g.act == FusedAct::kSigmoid) os << "+Sigmoid";
      if (g.act == FusedAct::kTanh) os << "+Tanh";
    } else {
      for (int j = 0; j < g.size; ++j) {
        if (j > 0) os << "·";
        os << ag::OpKindName(g.members[j].kind);
      }
    }
    os << " (" << g.size << " ops)\n";
  }
  return os.str();
}

void GraphProgram::PublishMetrics() const {
  const ProgramStats s = stats();
  obs::MetricsRegistry& m = obs::MetricsRegistry::Global();
  m.GetGauge("program.instrs").Set(static_cast<double>(s.instrs));
  m.GetGauge("program.fusion_groups")
      .Set(static_cast<double>(s.fusion_groups));
  m.GetGauge("program.fused_ops").Set(static_cast<double>(s.fused_ops));
  m.GetGauge("program.spmm_plans").Set(static_cast<double>(s.spmm_plans));
  m.GetGauge("program.arena_reserved_bytes")
      .Set(static_cast<double>(s.arena_reserved_bytes));
  m.GetGauge("program.arena_peak_bytes")
      .Set(static_cast<double>(s.arena_peak_bytes));
  m.GetGauge("program.arena_zeroed_bytes")
      .Set(static_cast<double>(s.arena_zeroed_bytes));
  m.GetGauge("program.replay_steps").Set(static_cast<double>(s.replay_steps));
  m.GetGauge("program.fallback_steps")
      .Set(static_cast<double>(s.fallback_steps));
}

}  // namespace prog
}  // namespace nmcdr
