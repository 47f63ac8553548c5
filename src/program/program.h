#ifndef NMCDR_PROGRAM_PROGRAM_H_
#define NMCDR_PROGRAM_PROGRAM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/op_stream.h"
#include "autograd/tensor.h"
#include "tensor/arena.h"
#include "tensor/fused_kernels.h"
#include "util/thread_annotations.h"

namespace nmcdr {

class CsrMatrix;

namespace prog {

/// Whether graph-program fusion is enabled by the environment: NMCDR_FUSION
/// unset or any value other than "0"/"false"/"off" means on. Callers AND
/// this with their own flag (TrainConfig::fusion, --no-fusion).
bool FusionEnvEnabled();

/// Counters describing one compiled program and its replay history.
struct ProgramStats {
  bool compiled = false;        ///< recording produced a usable program
  bool uncompilable = false;    ///< recording saw ops it cannot model
  bool dead = false;            ///< a replay diverged; permanent eager mode
  int instrs = 0;               ///< recorded op count per step
  int fusion_groups = 0;        ///< fused regions found by the compiler
  int fused_ops = 0;            ///< instrs covered by fusion groups
  int spmm_plans = 0;           ///< adjacency ops with static gather plans
  int64_t arena_reserved_bytes = 0;
  int64_t arena_peak_bytes = 0;
  /// Arena bytes zero-filled during the last fully replayed step: the
  /// storage of zero-initialized matrices (accumulation targets), as
  /// opposed to the write-once outputs handed out unfilled.
  int64_t arena_zeroed_bytes = 0;
  /// Arena reserve misses after compile; steady state must stay at 0.
  int64_t arena_growth_events = 0;
  int64_t replay_steps = 0;     ///< steps replayed through the program
  int64_t fallback_steps = 0;   ///< replays that diverged mid-step
};

/// A per-model training-step program: the op stream recorded from one
/// eager step, compiled once into fusion groups + an arena plan + static
/// SpMM gather plans, then replayed every subsequent step.
///
/// Life cycle (single-threaded; one program serves one Trainer run):
///
///   GraphProgram prog;
///   { GraphProgram::RecordScope rec(&prog); model->TrainStep(...); }
///   // rec's destructor compiled the tape; prog.usable() says whether
///   // replay is worthwhile.
///   while (training) {
///     GraphProgram::ReplayScope rep(&prog);   // no-op when !usable()
///     model->TrainStep(...);
///   }
///
/// Replay intercepts only fusion groups and SpMM; every other op runs its
/// normal eager body while the program verifies the op-kind stream
/// positionally. Any divergence from the recorded stream materializes the
/// in-flight group (keeping numerics exact), finishes the step eagerly,
/// and permanently retires the program — fused mode degrades to eager,
/// never to wrong answers.
///
/// Lifetime: backward closures installed on fused nodes point into this
/// program's group table, so the program must outlive every step tape it
/// replayed — which the scope pattern above guarantees (tapes die inside
/// TrainStep, the program after the loop).
class GraphProgram final : public ag::OpStreamHandler {
 public:
  GraphProgram();
  ~GraphProgram() override;
  GraphProgram(const GraphProgram&) = delete;
  GraphProgram& operator=(const GraphProgram&) = delete;

  /// True once recording compiled successfully.
  bool compiled() const { return compiled_; }
  /// True when replaying is still worthwhile (compiled and not retired).
  bool usable() const { return compiled_ && !dead_; }

  ProgramStats stats() const;

  /// Per-op-kind instruction counts of the recorded step (op name ->
  /// count), for the verifier's program-vs-eager shape audit.
  std::map<std::string, int> OpCounts() const;
  /// Sum of output elements over all recorded instructions.
  int64_t TotalOutputElements() const;
  /// Human-readable fusion-group summary, one group per line.
  std::string DescribeGroups() const;

  /// Publishes program gauges ("program.instrs", "program.fusion_groups",
  /// "program.fused_ops", "program.arena_reserved_bytes",
  /// "program.arena_peak_bytes", "program.arena_zeroed_bytes",
  /// "program.replay_steps", "program.fallback_steps") to the global
  /// metrics registry.
  void PublishMetrics() const;

  /// Records the op stream of the step executed inside the scope; the
  /// destructor compiles it. Recording runs fully eager with no arena so
  /// every tensor built during the step owns heap storage.
  class RecordScope {
   public:
    explicit RecordScope(GraphProgram* program);
    ~RecordScope();
    RecordScope(const RecordScope&) = delete;
    RecordScope& operator=(const RecordScope&) = delete;

   private:
    GraphProgram* program_;
    ag::OpStreamScope stream_;
  };

  /// Replays the compiled program for the step executed inside the scope:
  /// installs the bump arena (reset at entry) and the replay handler. A
  /// no-op pass-through when the program is not usable().
  class ReplayScope {
   public:
    explicit ReplayScope(GraphProgram* program);
    ~ReplayScope();
    ReplayScope(const ReplayScope&) = delete;
    ReplayScope& operator=(const ReplayScope&) = delete;

    /// Whether this step replayed the full program without divergence.
    bool replayed() const;

   private:
    GraphProgram* program_;
    bool active_;
    ArenaScope arena_;
    ag::OpStreamScope stream_;
  };

  // OpStreamHandler interface (dispatches on record/replay mode).
  bool OnOpEntry(ag::OpKind kind, const ag::Tensor* const* in, int num_in,
                 const float* scalars, int num_scalars,
                 ag::Tensor* out) override NMCDR_HOT;
  bool OnSpMM(const std::shared_ptr<const CsrMatrix>& a, const ag::Tensor& x,
              ag::Tensor* out) override NMCDR_HOT;
  void OnNodeCreated(const char* op, const ag::Tensor& result,
                     const std::vector<ag::Tensor>& parents) override
      NMCDR_HOT;

 private:
  enum class Mode { kIdle, kRecording, kReplaying };

  /// One recorded op of the step.
  struct Instr {
    ag::OpKind kind = ag::OpKind::kMatMul;
    int rows = 0;
    int cols = 0;
    int num_in = 0;
    bool requires_grad = false;
    bool has_scalar = false;
    float scalar = 0.f;
    /// Record-time identities for consumer analysis (never dereferenced).
    const void* in_nodes[2] = {nullptr, nullptr};
    const void* out_node = nullptr;
    /// Adjacency operand of a kSpMM instr; keys the static gather plan.
    std::shared_ptr<const CsrMatrix> csr;
    /// Compiler output: fusion group covering this instr (-1 = eager) and
    /// this instr's member index within it.
    int group = -1;
    int member = -1;
  };

  /// One instr's role inside an eltwise chain.
  struct ChainMember {
    ag::OpKind kind = ag::OpKind::kAdd;
    /// Which arg carries the chain value (-1 for the leader).
    int chain_arg = -1;
    bool has_side = false;
    bool has_scalar = false;
  };

  struct FusionGroup {
    enum class Kind { kMatMulEpilogue, kEltwiseChain };
    Kind kind = Kind::kEltwiseChain;
    int first_pc = 0;
    int size = 0;
    // MatMul-epilogue shape.
    bool has_bias = false;
    FusedAct act = FusedAct::kNone;
    // Eltwise-chain shape; members[0] is the leader.
    std::vector<ChainMember> members;
  };

  /// Precomputed CSR^T in gather form: backward becomes a per-output-row
  /// gather whose accumulation order matches CsrMatrix::MultiplyTransposed
  /// bit for bit. Held by shared_ptr so backward closures on live tape
  /// nodes capture it without copying (and survive a plan rebuild).
  struct SpMMPlan {
    const void* csr_key = nullptr;
    int cols = 0;
    std::vector<int64_t> t_row_ptr;
    std::vector<int> t_src_row;
    std::vector<float> t_val;
  };

  /// Replay-time state of the fusion group currently in flight.
  struct GroupRun {
    int group = -1;
    int next_member = 0;             ///< members consumed so far
    ag::Tensor placeholder;          ///< last handed-out pending tensor
    std::vector<ag::Tensor> inputs;  ///< external inputs, epilogue order
    std::vector<ag::Tensor> sides;   ///< chain: per-member side (or null)
    std::vector<float> scalars;      ///< chain: per-member scalar

    /// Rewinds for the next group, keeping vector capacity so steady-state
    /// replay never reallocates this bookkeeping.
    void Reset() {
      group = -1;
      next_member = 0;
      placeholder = ag::Tensor();
      inputs.clear();
      sides.clear();
      scalars.clear();
    }
  };

  // Recording (one-time per program; cold by construction).
  bool RecordOpEntry(ag::OpKind kind, const ag::Tensor* const* in, int num_in,
                     const float* scalars, int num_scalars) NMCDR_COLD;
  void RecordNodeCreated(const char* op, const ag::Tensor& result) NMCDR_COLD;
  void MarkUncompilable(const char* why);
  void Compile();
  void CompileGroups();

  // Replay.
  bool ReplayOpEntry(ag::OpKind kind, const ag::Tensor* const* in, int num_in,
                     const float* scalars, int num_scalars, ag::Tensor* out)
      NMCDR_HOT;
  bool ReplaySpMM(const std::shared_ptr<const CsrMatrix>& a,
                  const ag::Tensor& x, ag::Tensor* out) NMCDR_HOT;
  /// Group-leader interception: opens a GroupRun, returns the pending
  /// placeholder tensor.
  void BeginGroup(int group_idx, const ag::Tensor* const* in, int num_in,
                  const float* scalars, int num_scalars, ag::Tensor* out)
      NMCDR_HOT;
  /// Group-member interception. Returns false when the live call does not
  /// match the recorded link (caller falls back to eager for this op).
  bool ContinueGroup(ag::OpKind kind, const ag::Tensor* const* in, int num_in,
                     const float* scalars, int num_scalars, ag::Tensor* out)
      NMCDR_HOT;
  /// Computes the fused value for members [0, upto) of the in-flight
  /// group and turns `target` into a real op node (value + parents +
  /// backward), bitwise-equal to the eager op sequence it replaces.
  void MaterializeGroup(int upto, ag::Tensor* target) NMCDR_HOT;
  /// Divergence: materialize any in-flight group, finish the step eagerly
  /// and retire the program.
  void Die(const char* why);
  void BeginReplay();
  void EndReplay();

  static ag::Tensor MakePlaceholder(int rows, int cols, bool requires_grad);
  /// Fast path: returns the cached plan for the kSpMM instr at `pc` when
  /// the live adjacency matches its key; otherwise (re)builds via
  /// BuildPlan.
  std::shared_ptr<const SpMMPlan> PlanFor(
      int pc, const std::shared_ptr<const CsrMatrix>& a) NMCDR_HOT;
  std::shared_ptr<const SpMMPlan> BuildPlan(
      int idx, const std::shared_ptr<const CsrMatrix>& a) NMCDR_COLD;

  Mode mode_ = Mode::kIdle;
  bool compiled_ = false;
  bool uncompilable_ = false;
  bool dead_ = false;

  std::vector<Instr> instrs_;
  std::vector<FusionGroup> groups_;
  std::vector<std::shared_ptr<SpMMPlan>> spmm_plans_;
  std::map<int, int> spmm_plan_by_pc_;  ///< kSpMM pc -> spmm_plans_ index

  BumpArena arena_;

  // Recording state.
  struct Pending {
    bool valid = false;
    ag::OpKind kind = ag::OpKind::kMatMul;
    int num_in = 0;
    const void* in_nodes[2] = {nullptr, nullptr};
    bool has_scalar = false;
    float scalar = 0.f;
    std::shared_ptr<const CsrMatrix> csr;
  };
  Pending pending_;
  std::vector<ag::Tensor> keepalive_;  ///< pins record-step node addresses
  int64_t recorded_value_bytes_ = 0;

  // Replay state.
  int pc_ = 0;
  bool step_ok_ = false;
  GroupRun run_;
  /// Reusable kernel-step scratch for MaterializeGroup (capacity reserved
  /// at compile time; never grows in steady state).
  std::vector<EltwiseStep> eltwise_scratch_;
  int64_t replay_steps_ = 0;
  int64_t fallback_steps_ = 0;
  int64_t arena_zeroed_bytes_ = 0;
};

}  // namespace prog
}  // namespace nmcdr

#endif  // NMCDR_PROGRAM_PROGRAM_H_
