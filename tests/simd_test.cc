// Lane exactness of the tensor/simd.h primitives that move bits rather
// than compute them. A splat, select or ReLU must hand every lane the
// exact bits the scalar expression gives, −0.0 and NaN payloads included;
// an arithmetic broadcast (`Native{} + x`) turns −0.0 into +0.0. This file
// is built twice (tests/CMakeLists.txt): over the GNU vector-extension
// lanes and, with NMCDR_SIMD_FORCE_SCALAR, over the fixed-trip fallback,
// so both implementations answer to the same contract.
#include "tensor/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace nmcdr {
namespace simd {
namespace {

uint32_t Bits(float x) {
  uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

float F32(uint32_t bits) {
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

double F64(uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

// −0.0, a quiet NaN with a payload, a negative NaN, and a plain value.
const uint32_t kSpecialF32[] = {0x80000000u, 0x7fc12345u, 0xffc00001u,
                                0x3f800000u};
const uint64_t kSpecialF64[] = {0x8000000000000000ull, 0x7ff8000000012345ull,
                                0xfff8000000000001ull, 0x3ff0000000000000ull};

TEST(SimdTest, SplatF32CopiesBits) {
  for (const uint32_t bits : kSpecialF32) {
    float lanes[kFloatLanes];
    StoreF32(lanes, SplatF32(F32(bits)));
    for (const float lane : lanes) EXPECT_EQ(Bits(lane), bits);
  }
}

TEST(SimdTest, SplatF64CopiesBits) {
  for (const uint64_t bits : kSpecialF64) {
    double lanes[kDoubleLanes];
    StoreF64(lanes, SplatF64(F64(bits)));
    for (const double lane : lanes) EXPECT_EQ(Bits(lane), bits);
  }
}

// SelectNonZero is the GEMM cores' `av == 0` skip: −0.0 selects the
// zero side, NaN the nonzero side, and the chosen lane keeps its bits.
TEST(SimdTest, SelectNonZeroMatchesScalarTest) {
  for (const uint32_t key : kSpecialF32) {
    const float k = F32(key);
    float lanes[kFloatLanes];
    StoreF32(lanes, SelectNonZero(SplatF32(k), SplatF32(F32(0x7fc00abcu)),
                                  SplatF32(F32(0x80000000u))));
    const uint32_t want = k != 0.f ? 0x7fc00abcu : 0x80000000u;
    for (const float lane : lanes) EXPECT_EQ(Bits(lane), want);
  }
}

// Relu is the lane form of ReluScalar (x > 0 ? x : 0): −0.0 and NaN map
// to +0.0, a positive value passes through.
TEST(SimdTest, ReluMatchesScalarRelu) {
  for (const uint32_t bits : kSpecialF32) {
    const float x = F32(bits);
    float lanes[kFloatLanes];
    StoreF32(lanes, Relu(SplatF32(x)));
    const float want = x > 0.f ? x : 0.f;
    for (const float lane : lanes) EXPECT_EQ(Bits(lane), Bits(want));
  }
}

}  // namespace
}  // namespace simd
}  // namespace nmcdr
