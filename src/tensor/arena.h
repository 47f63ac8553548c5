#ifndef NMCDR_TENSOR_ARENA_H_
#define NMCDR_TENSOR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace nmcdr {

/// Bump allocator for per-step tensor storage. The graph-program replay
/// path (src/program) opens an ArenaScope around each training step;
/// every Matrix constructed inside the scope borrows its storage from the
/// arena instead of the heap, and ResetStep() rewinds the whole arena in
/// O(blocks) once the step's tensors are dead. Steady-state training
/// therefore performs zero per-op heap allocations for tensor storage —
/// program_test asserts this through the growth/alloc counters below.
///
/// Lifetime contract: storage handed out by Alloc() is valid until the
/// next ResetStep(). Matrices that must outlive the step (parameter
/// values/gradients, optimizer state, model caches) must be allocated
/// outside any scope or copied — Matrix copy construction/assignment
/// always produces owning heap storage for exactly this reason.
///
/// Not thread-safe: one arena belongs to one training thread. Kernel
/// worker threads never allocate matrices (outputs are constructed on the
/// calling thread before ParallelFor), so a thread-local scope suffices.
class BumpArena {
 public:
  BumpArena() = default;
  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;

  /// Ensures total capacity of at least `bytes` (rounded up to the block
  /// grain). Called once at program-compile time with the planned peak so
  /// steady-state steps never grow.
  void Reserve(size_t bytes);

  /// Returns storage for `elems` floats, valid until ResetStep(). Grows by
  /// appending a new block when the current blocks are exhausted (counted
  /// in growth_events(); steady state must not grow). Returned storage is
  /// NOT filled: it still holds whatever an earlier step left there, which
  /// is what a write-once Matrix (Matrix::ForOverwrite) wants. Under
  /// NMCDR_DEBUG_CHECKS it is filled with NaN instead, so a kernel that
  /// reads an element before writing it poisons its result rather than
  /// silently reusing an old step's value.
  float* Alloc(size_t elems);

  /// Alloc() followed by a zero fill (memset), counted in
  /// step_zeroed_bytes(): the storage of every zero-initialized Matrix
  /// built inside a scope.
  float* AllocZeroed(size_t elems);

  /// Rewinds all blocks. Everything previously returned by Alloc() is
  /// dead. Updates the high-water statistics.
  void ResetStep();

  /// Total allocated block capacity in bytes.
  size_t capacity_bytes() const { return capacity_floats_ * sizeof(float); }

  /// Largest in-use byte count observed at any point (across steps).
  size_t peak_bytes() const { return peak_floats_ * sizeof(float); }

  /// Bytes handed out since the last ResetStep().
  size_t step_bytes() const { return used_floats_ * sizeof(float); }

  /// Bytes AllocZeroed() zero-filled since the last ResetStep().
  size_t step_zeroed_bytes() const { return zeroed_floats_ * sizeof(float); }

  /// Number of times Alloc() had to append a block (reserve misses).
  int64_t growth_events() const { return growth_events_; }

  /// ResetStep() calls so far.
  int64_t steps() const { return steps_; }

 private:
  struct Block {
    std::unique_ptr<float[]> data;
    size_t cap = 0;   // floats
    size_t used = 0;  // floats
  };

  /// Appends a block of at least `min_floats` capacity.
  void AddBlock(size_t min_floats);

  std::vector<Block> blocks_;
  size_t cur_ = 0;  // index of the block currently being bumped
  size_t capacity_floats_ = 0;
  size_t used_floats_ = 0;
  size_t zeroed_floats_ = 0;
  size_t peak_floats_ = 0;
  int64_t growth_events_ = 0;
  int64_t steps_ = 0;
};

/// The arena Matrix constructors draw from on this thread (nullptr when no
/// ArenaScope is active — the default, heap-owning behavior).
BumpArena* ActiveArena();

/// RAII scope binding `arena` as this thread's active arena. Scopes nest;
/// the innermost wins. Passing nullptr is a no-op scope (keeps whatever is
/// active), mirroring BackendGuard.
class ArenaScope {
 public:
  explicit ArenaScope(BumpArena* arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  BumpArena* saved_;
  bool active_;
};

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_ARENA_H_
