#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "tensor/arena.h"

namespace nmcdr {
namespace {

thread_local int64_t tl_heap_alloc_count = 0;

}  // namespace

int64_t Matrix::HeapAllocCount() { return tl_heap_alloc_count; }

void Matrix::AllocStorage(size_t n, Init init, float fill) {
  if (n == 0) {
    ptr_ = nullptr;
    return;
  }
  BumpArena* arena = ActiveArena();
  if (arena != nullptr) {
    borrowed_ = true;
    switch (init) {
      case Init::kZero:
        ptr_ = arena->AllocZeroed(n);
        break;
      case Init::kFill:
        ptr_ = arena->Alloc(n);
        std::fill(ptr_, ptr_ + n, fill);
        break;
      case Init::kWriteOnce:
        ptr_ = arena->Alloc(n);
        break;
    }
    return;
  }
  const bool grows = owned_.capacity() < n;
  owned_.assign(n, init == Init::kFill ? fill : 0.f);
  if (grows) ++tl_heap_alloc_count;
  ptr_ = owned_.data();
}

Matrix::Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
  NMCDR_CHECK_GE(rows, 0);
  NMCDR_CHECK_GE(cols, 0);
  AllocStorage(static_cast<size_t>(rows) * cols, Init::kZero, 0.f);
}

Matrix::Matrix(int rows, int cols, float fill) : rows_(rows), cols_(cols) {
  NMCDR_CHECK_GE(rows, 0);
  NMCDR_CHECK_GE(cols, 0);
  AllocStorage(static_cast<size_t>(rows) * cols, Init::kFill, fill);
}

Matrix Matrix::ForOverwrite(int rows, int cols) {
  NMCDR_DCHECK_GE(rows, 0);
  NMCDR_DCHECK_GE(cols, 0);
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.AllocStorage(static_cast<size_t>(rows) * cols, Init::kWriteOnce, 0.f);
  return m;
}

Matrix::Matrix(const Matrix& other) : rows_(other.rows_), cols_(other.cols_) {
  // Copies always own their storage (never borrow the source's arena).
  const size_t n = static_cast<size_t>(rows_) * cols_;
  if (n == 0) return;
  NMCDR_DCHECK(other.has_storage());
  ++tl_heap_alloc_count;
  owned_.assign(other.ptr_, other.ptr_ + n);
  ptr_ = owned_.data();
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  borrowed_ = false;
  const size_t n = static_cast<size_t>(rows_) * cols_;
  if (n == 0) {
    owned_.clear();
    ptr_ = nullptr;
    return *this;
  }
  NMCDR_DCHECK(other.has_storage());
  // Reuses existing capacity: steady-state member copies are alloc-free.
  const bool grows = owned_.capacity() < n;
  owned_.assign(other.ptr_, other.ptr_ + n);
  if (grows) ++tl_heap_alloc_count;
  ptr_ = owned_.data();
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      ptr_(other.ptr_),
      borrowed_(other.borrowed_),
      owned_(std::move(other.owned_)) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.ptr_ = nullptr;
  other.borrowed_ = false;
  other.owned_.clear();
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  ptr_ = other.ptr_;
  borrowed_ = other.borrowed_;
  owned_ = std::move(other.owned_);
  other.rows_ = 0;
  other.cols_ = 0;
  other.ptr_ = nullptr;
  other.borrowed_ = false;
  other.owned_.clear();
  return *this;
}

Matrix Matrix::ShapeOnly(int rows, int cols) {
  NMCDR_DCHECK_GE(rows, 0);
  NMCDR_DCHECK_GE(cols, 0);
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  NMCDR_CHECK(!rows.empty());
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (int r = 0; r < m.rows(); ++r) {
    NMCDR_CHECK_EQ(rows[r].size(), rows[0].size());
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.At(i, i) = 1.f;
  return m;
}

Matrix Matrix::Gaussian(int rows, int cols, Rng* rng, float mean,
                        float stddev) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng->Gaussian(mean, stddev);
  return m;
}

Matrix Matrix::Xavier(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  const float a = std::sqrt(6.f / static_cast<float>(rows + cols));
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(-a, a);
  return m;
}

void Matrix::Fill(float value) {
  std::fill(ptr_, ptr_ + size(), value);
}

void Matrix::SetZero() {
  if (size() > 0) std::memset(ptr_, 0, sizeof(float) * size());
}

float Matrix::Sum() const {
  double acc = 0.0;
  for (int i = 0; i < size(); ++i) acc += ptr_[i];
  return static_cast<float>(acc);
}

float Matrix::Mean() const {
  NMCDR_CHECK_GT(size(), 0);
  return Sum() / static_cast<float>(size());
}

float Matrix::Min() const {
  NMCDR_CHECK_GT(size(), 0);
  return *std::min_element(ptr_, ptr_ + size());
}

float Matrix::Max() const {
  NMCDR_CHECK_GT(size(), 0);
  return *std::max_element(ptr_, ptr_ + size());
}

float Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (int i = 0; i < size(); ++i) acc += static_cast<double>(ptr_[i]) * ptr_[i];
  return static_cast<float>(std::sqrt(acc));
}

float Matrix::SpectralNorm(int iters) const {
  if (empty()) return 0.f;
  // Power iteration on A^T A.
  Rng rng(12345);
  std::vector<double> v(cols_);
  for (double& x : v) x = rng.Gaussian();
  std::vector<double> av(rows_), atav(cols_);
  double sigma = 0.0;
  for (int it = 0; it < iters; ++it) {
    // av = A v
    for (int r = 0; r < rows_; ++r) {
      double acc = 0.0;
      const float* rp = row(r);
      for (int c = 0; c < cols_; ++c) acc += static_cast<double>(rp[c]) * v[c];
      av[r] = acc;
    }
    // atav = A^T av
    std::fill(atav.begin(), atav.end(), 0.0);
    for (int r = 0; r < rows_; ++r) {
      const float* rp = row(r);
      for (int c = 0; c < cols_; ++c) atav[c] += static_cast<double>(rp[c]) * av[r];
    }
    double norm = 0.0;
    for (double x : atav) norm += x * x;
    norm = std::sqrt(norm);
    if (norm < 1e-30) return 0.f;
    for (int c = 0; c < cols_; ++c) v[c] = atav[c] / norm;
    double av_norm = 0.0;
    for (double x : av) av_norm += x * x;
    sigma = std::sqrt(av_norm);
  }
  return static_cast<float>(sigma);
}

std::string Matrix::DebugString() const {
  std::ostringstream oss;
  oss << "Matrix(" << rows_ << "x" << cols_ << ")";
  const int max_rows = std::min(rows_, 8);
  const int max_cols = std::min(cols_, 8);
  for (int r = 0; r < max_rows; ++r) {
    oss << "\n  [";
    for (int c = 0; c < max_cols; ++c) {
      if (c > 0) oss << ", ";
      oss << At(r, c);
    }
    if (max_cols < cols_) oss << ", ...";
    oss << "]";
  }
  if (max_rows < rows_) oss << "\n  ...";
  return oss.str();
}

bool AllClose(const Matrix& a, const Matrix& b, float atol) {
  if (!a.SameShape(b)) return false;
  for (int i = 0; i < a.size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > atol) return false;
  }
  return true;
}

}  // namespace nmcdr
