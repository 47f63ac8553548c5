#ifndef NMCDR_TENSOR_SIMD_H_
#define NMCDR_TENSOR_SIMD_H_

#include <cstring>

// Portable fixed-width lane abstraction for the explicitly vectorized
// kernel cores (tensor/vector_kernels.cc). Two interchangeable
// implementations sit behind the same tiny API:
//
//   - GNU vector extensions (__attribute__((vector_size))) on GCC/Clang:
//     the compiler lowers lane-wise + and * directly to SSE/AVX/NEON
//     without any per-ISA intrinsics in this repo.
//   - A plain fixed-trip struct fallback everywhere else; -O2/-O3
//     auto-vectorize the unrolled loops, and even un-vectorized the code
//     is correct.
//
// Bit-exactness contract: every operation here is LANE-WISE — lane j of
// the result is exactly the scalar IEEE op applied to lane j of the
// inputs, in the one obvious order. There is no horizontal reduction, no
// shuffle, no FMA (MulAdd is an explicit multiply THEN add; the TU using
// it compiles with -ffp-contract=off so the compiler may not contract the
// pair either). Splats, loads, stores and selects are plain copies of
// the bits: no arithmetic, so −0.0 and NaN payloads pass through. A
// kernel built from these lanes therefore computes each output element
// with the same float/double operation sequence as a scalar loop over the
// same element — which is the whole backend equivalence contract
// (tensor/backend.h).

#if defined(__GNUC__) && !defined(NMCDR_SIMD_FORCE_SCALAR)
#define NMCDR_SIMD_VECTOR_EXT 1
#else
#define NMCDR_SIMD_VECTOR_EXT 0
#endif

namespace nmcdr {
namespace simd {

/// Lane counts of the two register types. 8 floats / 4 doubles = 256-bit
/// registers (one AVX ymm, two SSE/NEON registers) — wide enough to feed
/// the FP units, narrow enough that a handful of accumulator tiles still
/// fit in the register file on 128-bit targets.
inline constexpr int kFloatLanes = 8;
inline constexpr int kDoubleLanes = 4;

#if NMCDR_SIMD_VECTOR_EXT

struct F32x8 {
  typedef float Native __attribute__((vector_size(kFloatLanes * sizeof(float))));
  Native v;
};

struct F64x4 {
  typedef double Native
      __attribute__((vector_size(kDoubleLanes * sizeof(double))));
  Native v;
};

inline F32x8 ZeroF32() { return F32x8{F32x8::Native{}}; }

/// Copies x into every lane. A copy, not `Native{} + x`: that broadcast is
/// an add, which turns −0.0 into +0.0.
inline F32x8 SplatF32(float x) {
  static_assert(kFloatLanes == 8, "one initializer per lane");
  return F32x8{F32x8::Native{x, x, x, x, x, x, x, x}};
}

inline F32x8 LoadF32(const float* p) {
  F32x8 r;
  std::memcpy(&r.v, p, sizeof(r.v));  // unaligned-safe
  return r;
}

inline void StoreF32(float* p, F32x8 a) { std::memcpy(p, &a.v, sizeof(a.v)); }

inline F32x8 Add(F32x8 a, F32x8 b) { return F32x8{a.v + b.v}; }
inline F32x8 Mul(F32x8 a, F32x8 b) { return F32x8{a.v * b.v}; }

/// Lane j = key[j] != 0 ? if_nonzero[j] : if_zero[j] (−0.0 counts as
/// zero, NaN as nonzero — the scalar `key != 0.f` test).
inline F32x8 SelectNonZero(F32x8 key, F32x8 if_nonzero, F32x8 if_zero) {
  return F32x8{key.v != 0.f ? if_nonzero.v : if_zero.v};
}

/// Lane-wise ReluScalar: x > 0 ? x : +0.0 (−0.0 and NaN map to +0.0).
inline F32x8 Relu(F32x8 x) {
  return F32x8{x.v > 0.f ? x.v : F32x8::Native{}};
}

inline F64x4 ZeroF64() { return F64x4{F64x4::Native{}}; }

inline F64x4 SplatF64(double x) {
  static_assert(kDoubleLanes == 4, "one initializer per lane");
  return F64x4{F64x4::Native{x, x, x, x}};
}

inline F64x4 LoadF64(const double* p) {
  F64x4 r;
  std::memcpy(&r.v, p, sizeof(r.v));
  return r;
}

inline void StoreF64(double* p, F64x4 a) { std::memcpy(p, &a.v, sizeof(a.v)); }

inline F64x4 Add(F64x4 a, F64x4 b) { return F64x4{a.v + b.v}; }
inline F64x4 Mul(F64x4 a, F64x4 b) { return F64x4{a.v * b.v}; }

/// Rounds each double lane to float (one rounding step, matching the
/// scalar static_cast<float>(acc)).
inline void NarrowStoreF32(float* p, F64x4 a) {
  typedef float Half __attribute__((vector_size(kDoubleLanes * sizeof(float))));
  const Half h = __builtin_convertvector(a.v, Half);
  std::memcpy(p, &h, sizeof(h));
}

#else  // !NMCDR_SIMD_VECTOR_EXT — fixed-trip scalar fallback

struct F32x8 {
  float v[kFloatLanes];
};

struct F64x4 {
  double v[kDoubleLanes];
};

inline F32x8 ZeroF32() {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = 0.f;
  return r;
}

inline F32x8 SplatF32(float x) {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = x;
  return r;
}

inline F32x8 LoadF32(const float* p) {
  F32x8 r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
}

inline void StoreF32(float* p, F32x8 a) { std::memcpy(p, a.v, sizeof(a.v)); }

inline F32x8 Add(F32x8 a, F32x8 b) {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = a.v[j] + b.v[j];
  return r;
}

inline F32x8 Mul(F32x8 a, F32x8 b) {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = a.v[j] * b.v[j];
  return r;
}

inline F32x8 SelectNonZero(F32x8 key, F32x8 if_nonzero, F32x8 if_zero) {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) {
    r.v[j] = key.v[j] != 0.f ? if_nonzero.v[j] : if_zero.v[j];
  }
  return r;
}

inline F32x8 Relu(F32x8 x) {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = x.v[j] > 0.f ? x.v[j] : 0.f;
  return r;
}

inline F64x4 ZeroF64() {
  F64x4 r;
  for (int j = 0; j < kDoubleLanes; ++j) r.v[j] = 0.0;
  return r;
}

inline F64x4 SplatF64(double x) {
  F64x4 r;
  for (int j = 0; j < kDoubleLanes; ++j) r.v[j] = x;
  return r;
}

inline F64x4 LoadF64(const double* p) {
  F64x4 r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
}

inline void StoreF64(double* p, F64x4 a) { std::memcpy(p, a.v, sizeof(a.v)); }

inline F64x4 Add(F64x4 a, F64x4 b) {
  F64x4 r;
  for (int j = 0; j < kDoubleLanes; ++j) r.v[j] = a.v[j] + b.v[j];
  return r;
}

inline F64x4 Mul(F64x4 a, F64x4 b) {
  F64x4 r;
  for (int j = 0; j < kDoubleLanes; ++j) r.v[j] = a.v[j] * b.v[j];
  return r;
}

inline void NarrowStoreF32(float* p, F64x4 a) {
  for (int j = 0; j < kDoubleLanes; ++j) p[j] = static_cast<float>(a.v[j]);
}

#endif  // NMCDR_SIMD_VECTOR_EXT

/// acc + a * b as two distinct IEEE operations. NOT an FMA: the using TU
/// compiles with -ffp-contract=off, so the product rounds before the add
/// exactly like the scalar reference kernels.
inline F32x8 MulAdd(F32x8 a, F32x8 b, F32x8 acc) { return Add(acc, Mul(a, b)); }
inline F64x4 MulAdd(F64x4 a, F64x4 b, F64x4 acc) { return Add(acc, Mul(a, b)); }

}  // namespace simd
}  // namespace nmcdr

#endif  // NMCDR_TENSOR_SIMD_H_
