#include "tensor/arena.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/check.h"

namespace nmcdr {
namespace {

/// Alignment grain in floats (64 bytes = one cache line) so consecutive
/// arena matrices never share a line.
constexpr size_t kAlignFloats = 16;

/// Smallest block the arena ever allocates (1 MiB of floats): keeps the
/// block list short even when Reserve() was never called.
constexpr size_t kMinBlockFloats = size_t{1} << 18;

size_t AlignUp(size_t n) {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

thread_local BumpArena* tl_active_arena = nullptr;

}  // namespace

void BumpArena::AddBlock(size_t min_floats) {
  Block block;
  // Geometric growth over the current capacity bounds the block count.
  block.cap = std::max({AlignUp(min_floats), kMinBlockFloats, capacity_floats_});
  block.data = std::make_unique<float[]>(block.cap);
  capacity_floats_ += block.cap;
  blocks_.push_back(std::move(block));
}

void BumpArena::Reserve(size_t bytes) {
  const size_t floats = (bytes + sizeof(float) - 1) / sizeof(float);
  if (floats <= capacity_floats_) return;
  AddBlock(floats - capacity_floats_);
}

float* BumpArena::Alloc(size_t elems) {
  NMCDR_DCHECK_GT(elems, 0u);
  const size_t need = AlignUp(elems);
  while (cur_ < blocks_.size() &&
         blocks_[cur_].cap - blocks_[cur_].used < need) {
    ++cur_;
  }
  if (cur_ >= blocks_.size()) {
    // Reserve miss: steady-state replay must not reach here (asserted by
    // program_test via growth_events()).
    ++growth_events_;
    AddBlock(need);
    cur_ = blocks_.size() - 1;
  }
  Block& b = blocks_[cur_];
  float* p = b.data.get() + b.used;
  b.used += need;
  used_floats_ += need;
  peak_floats_ = std::max(peak_floats_, used_floats_);
  if (NmcdrDebugChecksEnabled()) {
    std::fill(p, p + elems, std::numeric_limits<float>::quiet_NaN());
  }
  return p;
}

float* BumpArena::AllocZeroed(size_t elems) {
  float* p = Alloc(elems);
  std::memset(p, 0, elems * sizeof(float));
  zeroed_floats_ += elems;
  return p;
}

void BumpArena::ResetStep() {
  for (Block& b : blocks_) b.used = 0;
  cur_ = 0;
  used_floats_ = 0;
  zeroed_floats_ = 0;
  ++steps_;
}

BumpArena* ActiveArena() { return tl_active_arena; }

ArenaScope::ArenaScope(BumpArena* arena)
    : saved_(tl_active_arena), active_(arena != nullptr) {
  if (active_) tl_active_arena = arena;
}

ArenaScope::~ArenaScope() {
  if (active_) tl_active_arena = saved_;
}

}  // namespace nmcdr
