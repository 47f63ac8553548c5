#include "autograd/tensor.h"

#include <algorithm>
#include <unordered_set>

#include "autograd/debug.h"
#include "autograd/meta.h"
#include "autograd/op_stream.h"
#include "autograd/tape_validator.h"
#include "obs/trace.h"
#include "tensor/matrix_ops.h"
#include "util/check.h"

namespace nmcdr {
namespace ag {
namespace {

bool& GradEnabledFlag() {
  thread_local bool enabled = true;
  return enabled;
}

}  // namespace

void Node::AccumulateGrad(const Matrix& g) {
  if (!requires_grad) return;
  NMCDR_CHECK_EQ(g.rows(), value.rows());
  NMCDR_CHECK_EQ(g.cols(), value.cols());
  if (!grad.empty()) {
    AxpyInto(g, 1.f, &grad);
    return;
  }
  if (backward) {
    grad = Matrix::ForOverwrite(value.rows(), value.cols());
  } else {
    grad = g;  // copy-assignment owns heap storage, even inside an arena
  }
  FirstAccumInto(g, &grad);
}

void Node::AccumulateGrad(Matrix&& g) {
  if (!requires_grad) return;
  if (grad.empty() && (backward || !g.arena_backed())) {
    NMCDR_CHECK_EQ(g.rows(), value.rows());
    NMCDR_CHECK_EQ(g.cols(), value.cols());
    grad = std::move(g);
    FirstAccumInto(grad, &grad);
    return;
  }
  AccumulateGrad(static_cast<const Matrix&>(g));
}

Tensor::Tensor(Matrix value, bool requires_grad)
    : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const Matrix& Tensor::value() const {
  NMCDR_CHECK(defined());
  return node_->value;
}

Matrix& Tensor::mutable_value() {
  NMCDR_CHECK(defined());
  return node_->value;
}

const Matrix& Tensor::grad() const {
  NMCDR_CHECK(defined());
  return node_->grad;
}

bool Tensor::requires_grad() const {
  NMCDR_CHECK(defined());
  return node_->requires_grad;
}

void Tensor::ZeroGrad() {
  NMCDR_CHECK(defined());
  if (!node_->grad.empty()) node_->grad.SetZero();
}

Tensor Tensor::Detach() const {
  NMCDR_CHECK(defined());
  return Tensor(node_->value, /*requires_grad=*/false);
}

bool GradEnabled() { return GradEnabledFlag(); }

NoGradGuard::NoGradGuard() : previous_(GradEnabledFlag()) {
  GradEnabledFlag() = false;
}

NoGradGuard::~NoGradGuard() { GradEnabledFlag() = previous_; }

Tensor MakeOpNode(const char* op, Matrix value,
                  const std::vector<Tensor>& parents,
                  std::function<void(Node*)> backward) {
  const bool record =
      GradEnabled() &&
      std::any_of(parents.begin(), parents.end(),
                  [](const Tensor& t) { return t.requires_grad(); });
  if (MetaEnabled()) {
    // Abstract interpretation: ops with a meta branch never reach this
    // point; one without (a future op) already ran its kernel, so audit the
    // call against its shape rule, keep provenance, and skip the tape
    // machinery — no backward closure is attached because Backward() is a
    // structural no-op in meta mode.
    internal_meta::NoteKernelOpInMetaMode(op, value, parents);
    Tensor out{Matrix(std::move(value)), /*requires_grad=*/record};
    out.node()->op = op;
    out.node()->parents.reserve(parents.size());
    for (const Tensor& p : parents) out.node()->parents.push_back(p.node());
    return out;
  }
  if (TapeValidationEnabled()) ValidateOpParents(op, parents);
  internal_debug::TraceOpOutput(op, value, parents);
  Tensor out{Matrix(std::move(value)), /*requires_grad=*/record};
  out.node()->op = op;
  if (record) {
    out.node()->parents.reserve(parents.size());
    for (const Tensor& p : parents) out.node()->parents.push_back(p.node());
    out.node()->backward = std::move(backward);
  }
  if (OpStreamHandler* h = ActiveOpStream()) h->OnNodeCreated(op, out, parents);
  return out;
}

void Backward(const Tensor& loss) {
  NMCDR_CHECK(loss.defined());
  NMCDR_CHECK_EQ(loss.rows(), 1);
  NMCDR_CHECK_EQ(loss.cols(), 1);
  // Meta mode carries shapes, not values: the graph's dimension contracts
  // were already verified at construction time, and there is nothing to
  // differentiate.
  if (MetaEnabled()) return;
  NMCDR_CHECK(loss.requires_grad());

  if (TapeValidationEnabled()) ValidateTapeForBackward(loss.raw());

  // Iterative post-order DFS producing a reverse-topological order.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({loss.raw(), 0});
  visited.insert(loss.raw());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* parent = f.node->parents[f.next_parent++].get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }

  loss.raw()->AccumulateGrad(Matrix(1, 1, 1.f));
  // Flag sampled once per Backward: per-node wall time only under the obs
  // profiling switch, so the default tape replay stays clock-free.
  const bool profile = obs::ProfilingEnabled();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (!n->backward || n->grad.empty()) continue;
    if (profile) {
      const int64_t t0 = obs::NowNs();
      n->backward(n);
      obs::RecordBackward(n->op, obs::NowNs() - t0);
    } else {
      n->backward(n);
    }
  }
  MarkTapeConsumed(order);
}

}  // namespace ag
}  // namespace nmcdr
