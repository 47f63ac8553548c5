#ifndef NMCDR_TENSOR_MATRIX_H_
#define NMCDR_TENSOR_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/rng.h"
#include "util/check.h"

namespace nmcdr {

/// Dense row-major float matrix: the single value type flowing through the
/// autograd engine. A row vector is a 1xN matrix; scalars are 1x1.
///
/// Copyable and movable; copies are deep.
///
/// Storage: normally an owning heap buffer. Inside an ArenaScope
/// (tensor/arena.h) the sized constructors borrow step-lifetime storage
/// from the active BumpArena instead — the graph-program replay path uses
/// this to run steady-state training with zero per-op heap allocations.
/// Copy construction/assignment ALWAYS produces owning heap storage (and
/// copy-assignment reuses existing capacity), so copying an op result into
/// a long-lived member remains safe under an arena and allocation-free
/// once capacity is warm. Moves preserve whatever storage the source had.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(int rows, int cols);

  /// rows x cols matrix filled with `fill`.
  Matrix(int rows, int cols, float fill);

  /// rows x cols matrix for a kernel that writes every element before
  /// anything reads it (a write-once output). Inside an ArenaScope the
  /// storage is handed out unfilled — NaN-poisoned under
  /// NMCDR_DEBUG_CHECKS, so a missed write shows up in the result — which
  /// saves the zero fill the replayed training step would otherwise pay
  /// for every kernel output. Heap storage is still zero-filled, so eager
  /// code sees the same contents as Matrix(rows, cols).
  static Matrix ForOverwrite(int rows, int cols);

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other) noexcept;
  ~Matrix() = default;

  /// A matrix that carries shape but NO storage: data() is null and any
  /// element access faults loudly. The program replay path hands these out
  /// for fused-away intermediates whose values are never materialized;
  /// only rows()/cols() may be read.
  static Matrix ShapeOnly(int rows, int cols);

  /// True when elements are actually backed by storage (empty matrices
  /// count as backed). False only for ShapeOnly results.
  bool has_storage() const { return ptr_ != nullptr || size() == 0; }

  /// True when the storage is borrowed from a BumpArena (valid only until
  /// the arena's next ResetStep).
  bool arena_backed() const { return borrowed_; }

  /// Process-wide count of heap buffer allocations made by matrices on
  /// this thread (owning constructions plus capacity growth on
  /// copy-assign). The zero-alloc training tests assert this stays flat
  /// across steady-state replay steps.
  static int64_t HeapAllocCount();

  /// Builds a matrix from nested initializer data (row-major), used by
  /// tests for literal fixtures. All rows must have equal length.
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  /// All-zeros / all-ones factories.
  static Matrix Zeros(int rows, int cols) { return Matrix(rows, cols); }
  static Matrix Ones(int rows, int cols) { return Matrix(rows, cols, 1.f); }

  /// Identity matrix of size n.
  static Matrix Identity(int n);

  /// I.i.d. N(mean, stddev^2) entries.
  static Matrix Gaussian(int rows, int cols, Rng* rng, float mean = 0.f,
                         float stddev = 1.f);

  /// Xavier/Glorot uniform init: U(-a, a) with a = sqrt(6/(fan_in+fan_out)).
  /// The default init for all trainable weight matrices in this repo.
  static Matrix Xavier(int rows, int cols, Rng* rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Total element count.
  int size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  /// Bounds-checked element access.
  float& At(int r, int c) {
    NMCDR_CHECK_GE(r, 0);
    NMCDR_CHECK_LT(r, rows_);
    NMCDR_CHECK_GE(c, 0);
    NMCDR_CHECK_LT(c, cols_);
    return ptr_[static_cast<size_t>(r) * cols_ + c];
  }
  float At(int r, int c) const {
    NMCDR_CHECK_GE(r, 0);
    NMCDR_CHECK_LT(r, rows_);
    NMCDR_CHECK_GE(c, 0);
    NMCDR_CHECK_LT(c, cols_);
    return ptr_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Flat access for kernels: unchecked in Release, row-bounds-checked in
  /// NMCDR_DEBUG_CHECKS builds (the DCHECK compiles out otherwise).
  float* data() { return ptr_; }
  const float* data() const { return ptr_; }
  float* row(int r) {
    NMCDR_DCHECK_GE(r, 0);
    NMCDR_DCHECK_LT(r, rows_);
    return ptr_ + static_cast<size_t>(r) * cols_;
  }
  const float* row(int r) const {
    NMCDR_DCHECK_GE(r, 0);
    NMCDR_DCHECK_LT(r, rows_);
    return ptr_ + static_cast<size_t>(r) * cols_;
  }

  /// True if shapes match.
  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Sets every entry to `value`.
  void Fill(float value);

  /// Sets every entry to +0.0 (keeps shape).
  void SetZero();

  /// Sum / mean / min / max over all entries.
  float Sum() const;
  float Mean() const;
  float Min() const;
  float Max() const;

  /// Frobenius norm.
  float FrobeniusNorm() const;

  /// Largest singular value estimated by power iteration (`iters` steps);
  /// used by the Eq. 31 stability-bound computation.
  float SpectralNorm(int iters = 30) const;

  /// Human-readable dump (small matrices only; rows truncated past 8).
  std::string DebugString() const;

 private:
  /// How AllocStorage initializes a fresh buffer.
  enum class Init { kZero, kFill, kWriteOnce };

  /// Points ptr_ at a fresh buffer of `n` floats initialized per `init`
  /// (`fill` is read for kFill only): borrowed from the active arena when
  /// one is in scope, else owning heap storage (reusing owned_ capacity
  /// where possible). Heap storage is zero-filled for kWriteOnce too.
  void AllocStorage(size_t n, Init init, float fill);

  int rows_ = 0;
  int cols_ = 0;
  /// Element storage: owned_.data() when owning, an arena pointer when
  /// borrowed_, nullptr when empty or shape-only.
  float* ptr_ = nullptr;
  bool borrowed_ = false;
  std::vector<float> owned_;
};

/// True if a and b have the same shape and all entries differ by <= atol.
bool AllClose(const Matrix& a, const Matrix& b, float atol = 1e-5f);

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_MATRIX_H_
