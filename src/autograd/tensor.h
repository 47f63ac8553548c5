#ifndef NMCDR_AUTOGRAD_TENSOR_H_
#define NMCDR_AUTOGRAD_TENSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.h"

namespace nmcdr {
namespace ag {

class Node;
using NodePtr = std::shared_ptr<Node>;

/// One vertex of the dynamically built computation graph. Users interact
/// with Tensor handles; Node is the shared state behind them.
class Node {
 public:
  /// Forward value.
  Matrix value;
  /// Accumulated gradient; empty until first accumulation.
  Matrix grad;
  /// Whether gradients should flow into (and out of) this node.
  bool requires_grad = false;
  /// Inputs of the op that produced this node (empty for leaves).
  std::vector<NodePtr> parents;
  /// Propagates this node's grad into its parents. Null for leaves.
  std::function<void(Node*)> backward;
  /// Optional name (parameters set it) for debugging.
  std::string name;
  /// Static-storage name of the op that produced this node ("leaf" for
  /// leaves); used by the NaN tracer and tape validator diagnostics.
  const char* op = "leaf";
  /// Set once Backward has executed this node's closure; the tape
  /// validator (tape_validator.h) uses it to catch double-backward and
  /// use-after-Backward. Never set on leaves.
  bool consumed = false;

  /// Adds `g` into this node's gradient if it requires grad. The first
  /// accumulation into an empty grad stores FirstAccumInto(g) in one pass:
  /// bitwise what adding `g` to a zero-filled grad would leave.
  void AccumulateGrad(const Matrix& g);

  /// Same, but an empty grad adopts `g`'s storage (normalized in place by
  /// the same FirstAccumInto) instead of copying it. A leaf — a parameter,
  /// whose grad must outlive the step's arena — never adopts arena
  /// storage: its grad is always heap-owned.
  void AccumulateGrad(Matrix&& g);
};

/// Value-semantics handle to a graph node. Copying a Tensor aliases the
/// same node. A default-constructed Tensor is null (defined()==false).
class Tensor {
 public:
  Tensor() = default;

  /// Leaf tensor holding `value`. Pass requires_grad=true for parameters.
  explicit Tensor(Matrix value, bool requires_grad = false);

  /// Wraps an existing node.
  explicit Tensor(NodePtr node) : node_(std::move(node)) {}

  bool defined() const { return node_ != nullptr; }

  const Matrix& value() const;
  Matrix& mutable_value();

  /// Gradient matrix; zero-shaped until backward has touched this node.
  const Matrix& grad() const;

  bool requires_grad() const;

  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }

  /// Clears the accumulated gradient (keeps shape allocation).
  void ZeroGrad();

  /// Returns a leaf view of this tensor's value that does not propagate
  /// gradients (shares no graph history; the value matrix is copied).
  Tensor Detach() const;

  NodePtr node() const { return node_; }
  Node* raw() const { return node_.get(); }

 private:
  NodePtr node_;
};

/// Runs reverse-mode accumulation from `loss`, which must be a defined
/// 1x1 tensor. Gradients accumulate into every reachable node with
/// requires_grad; call ZeroGrad between steps (optimizers do this).
void Backward(const Tensor& loss);

/// True when ops record history. Toggled by NoGradGuard for evaluation.
bool GradEnabled();

/// RAII scope that disables graph recording (evaluation / scoring paths):
/// ops executed inside produce leaf tensors with no parents.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Internal helper for op implementations: creates a node computing
/// `value` from `parents` with the given backward fn. If grad recording is
/// off or no parent requires grad, the result is a plain leaf. `op` must
/// be a static-storage string naming the op (shown by the NaN tracer,
/// tape-validation diagnostics, and the meta-tensor shape verifier — see
/// autograd/meta.h; under a MetaModeGuard, ops short-circuit to their
/// registered shape rule instead of running kernels).
Tensor MakeOpNode(const char* op, Matrix value,
                  const std::vector<Tensor>& parents,
                  std::function<void(Node*)> backward);

}  // namespace ag
}  // namespace nmcdr

#endif  // NMCDR_AUTOGRAD_TENSOR_H_
