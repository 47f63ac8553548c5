#ifndef NMCDR_SERVING_SCORE_ENGINE_H_
#define NMCDR_SERVING_SCORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "serving/model_snapshot.h"
#include "serving/quantized_snapshot.h"
#include "util/thread_annotations.h"

namespace nmcdr {

/// A top-K retrieval request: recommend `k` items of `target_domain` for
/// the user known as local id `user` in `user_domain`. When the user has
/// no identity link into the target domain, the engine serves the
/// cross-domain cold-start path: the user's home-domain representation is
/// scored through the target domain's head and item table — the paper's
/// core promise, usable because inter-domain node matching aligns the
/// representation spaces.
struct RecRequest {
  int target_domain = 0;
  int user_domain = 0;
  int user = 0;
  int k = 10;
  /// Target-domain items to exclude (already seen or impressed).
  std::vector<int> exclude;
};

/// Ranked retrieval result, best first.
struct Recommendation {
  std::vector<int> items;
  std::vector<float> scores;
  /// True when served via the cross-domain cold-start path.
  bool cold_start = false;
};

/// Caller-owned reusable buffers for the allocation-free retrieval core
/// (ScoreEngine::TopKWithScratch). Prepare() is the only growth point
/// (NMCDR_COLD: amortized capacity, a no-op once the buffers reached the
/// engine's geometry). Invariant between calls: `excluded` is all-zero —
/// the core sets and then clears only the request's own exclusion bits,
/// so per-request reset costs O(|exclude|), not O(catalog).
struct ScoreScratch {
  std::vector<uint8_t> excluded;
  std::vector<int> candidates;
  std::vector<float> scores;
  std::vector<float> u_first;
  std::vector<float> h;
  std::vector<float> next;
  std::vector<std::pair<float, int>> heap;
  /// kQuantized only: the per-request user-side gmf operand (floats, then
  /// its int8 codes — scoring::QuantizeUserGmf).
  std::vector<float> uw;
  std::vector<int8_t> qu;

  /// Grows every buffer to the given geometry (catalog size, scoring
  /// block, widest head layer — scoring::MaxHeadWidth — and, for the
  /// quantized mode, the representation dim).
  void Prepare(int num_items, int item_block, int head_width,
               int dim = 0) NMCDR_COLD;
};

/// The ranking order shared by the engine's heap and any brute-force
/// reference: higher score first, smaller item id on ties. A total order,
/// so top-K selection agrees exactly with a full sort.
inline bool RanksBefore(float score_a, int item_a, float score_b,
                        int item_b) {
  if (score_a != score_b) return score_a > score_b;
  return item_a < item_b;
}

/// Autograd-free batched scorer over a frozen ModelSnapshot: dense GEMMs
/// over candidate blocks plus heap-based top-K retrieval. All methods are
/// const and safe to call concurrently (counters are atomic); the
/// snapshot must outlive the engine.
class ScoreEngine {
 public:
  /// kExact replays the trainer's kernel sequence bit-for-bit, so scores
  /// equal RecModel::Score to the last ulp. kFast additionally
  /// precomputes the item-side first-layer partial sums per domain at
  /// construction; per pair only the tiny head tail remains, at the cost
  /// of scores differing from the trainer path by first-layer summation
  /// rounding (rankings agree except on sub-ulp near-ties). kQuantized
  /// stores both per-candidate item tables as per-row affine int8
  /// (serving/quantized_snapshot.h) — 4x less item-table memory traffic —
  /// at the cost of bounded quantization error in the scores; the
  /// measured ranking agreement vs kExact (top-K overlap, HR/NDCG delta)
  /// is reported by bench_quant and gated in CI.
  enum class Mode { kExact, kFast, kQuantized };

  struct Options {
    Mode mode = Mode::kFast;
    /// Items scored per dense block during full-catalog retrieval.
    int item_block = 256;
  };

  /// Under Mode::kQuantized the constructor quantizes the item tables at
  /// construction (quantize-at-freeze); use the three-argument overload
  /// to serve a prebuilt artifact instead.
  ScoreEngine(const ModelSnapshot* snapshot, Options options);
  explicit ScoreEngine(const ModelSnapshot* snapshot)
      : ScoreEngine(snapshot, Options()) {}

  /// Serves a prebuilt quantized artifact (typically
  /// QuantizedSnapshot::Load of a file written at freeze time) against
  /// the fp snapshot it was built from. Requires options.mode ==
  /// Mode::kQuantized and quantized.Matches(*snapshot) (checked).
  ScoreEngine(const ModelSnapshot* snapshot, Options options,
              QuantizedSnapshot quantized);

  const ModelSnapshot& snapshot() const { return *snapshot_; }
  Mode mode() const { return options_.mode; }

  /// kQuantized only: the quantized item tables this engine serves from
  /// (empty otherwise).
  const QuantizedSnapshot& quantized() const { return quant_; }

  /// Scores an explicit candidate list of `target_domain` for the user
  /// known in `user_domain`; `cold_start` (optional) reports whether the
  /// cross-domain path served the request.
  std::vector<float> ScoreCandidates(int target_domain, int user_domain,
                                     int user,
                                     const std::vector<int>& candidates,
                                     bool* cold_start = nullptr) const;

  /// Same-domain convenience overload.
  std::vector<float> ScoreCandidates(int domain, int user,
                                     const std::vector<int>& candidates) const;

  /// Full-catalog top-K retrieval with the request's exclusion set.
  /// Convenience wrapper: validates the request (aborts on malformed
  /// input) and runs the scratch core over a local ScoreScratch.
  Recommendation TopK(const RecRequest& request) const;

  /// The allocation-free retrieval core: identical results to TopK, but
  /// every buffer lives in `scratch` (reused across requests) and inputs
  /// are only NMCDR_DCHECK'd — validate at the edge (ValidateRequest /
  /// the TopK wrapper) first.
  Recommendation TopKWithScratch(const RecRequest& request,
                                 ScoreScratch* scratch) const NMCDR_HOT;

  /// TopK over each request in turn, positionally aligned with
  /// `requests`: the unsharded reference that sharded serving is checked
  /// against. Validates every request, then runs the scratch core over
  /// one local ScoreScratch on the calling thread.
  std::vector<Recommendation> TopKBatch(
      const std::vector<RecRequest>& requests) const;

  /// Aborts (NMCDR_CHECK) unless `request` is well-formed against this
  /// engine's snapshot: domains in range, user in range for its domain,
  /// k positive, every excluded item in the target catalog. The TopK and
  /// TopKBatch wrappers call this so the hot core can run on
  /// NMCDR_DCHECKs alone.
  void ValidateRequest(const RecRequest& request) const;

  /// Monotonic usage counters (atomics snapshot).
  struct Counters {
    int64_t requests = 0;
    int64_t pairs_scored = 0;
    int64_t cold_start_requests = 0;
  };
  Counters counters() const;

 private:
  struct ResolvedUser {
    const float* row = nullptr;  // user representation, dim() floats
    bool cold_start = false;
  };

  ResolvedUser Resolve(int target_domain, int user_domain, int user) const
      NMCDR_HOT;

  /// Scores items `ids[0..n)` of `target_domain` for the user row `u`
  /// into `out[0..n)`: blocked GEMMs of options_.item_block in kExact,
  /// the fused allocation-free path in kFast (whose per-call buffers live
  /// in `scratch`). Both paths delegate to the row-independent kernels in
  /// serving/scoring_kernels.h (shared with the sharded cluster
  /// snapshot).
  void ScoreIds(int target_domain, const float* u, const int* ids, int n,
                ScoreScratch* scratch, float* out) const NMCDR_HOT;

  const ModelSnapshot* snapshot_;
  Options options_;
  /// kFast only: per domain, item-side first-layer partials
  /// item_reps * w0_item, [num_items, H].
  std::vector<Matrix> item_first_;
  /// kQuantized only: per domain, both item tables as per-row int8.
  QuantizedSnapshot quant_;

  mutable std::atomic<int64_t> requests_{0};
  mutable std::atomic<int64_t> pairs_scored_{0};
  mutable std::atomic<int64_t> cold_start_requests_{0};
};

}  // namespace nmcdr

#endif  // NMCDR_SERVING_SCORE_ENGINE_H_
