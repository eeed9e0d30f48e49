// The precomputed completion-time distributions C(p, a) (Section 4.1).
//
// "For each SLO job, we estimate C(p, a) — a random variable denoting the remaining
// time to complete the job when the job has made progress p and is allocated a
// tokens. ... From each simulation, say at allocation a that finishes in time T, we
// compute for all discrete t in [0, T] the progress of the job p_t at time t and the
// remaining time to completion t_c = T - t. ... Iterating over all t in a run and
// simulating the job many times with different values of a provides many more
// samples, allowing us to estimate the distribution well."
//
// The table discretizes progress into buckets and stores a remaining-time sample set
// per (bucket, allocation) cell. Queries interpolate linearly between allocation grid
// points and fall back to the nearest populated bucket when a cell is empty (late
// progress values may never be observed at tiny allocations within a run's samples).
//
// Lifecycle: the table is *mutable* while the offline builder is adding samples, then
// Freeze() compacts it into a dense read-only form: one flat sorted sample buffer
// plus per-cell (offset, count) ranges, with the empty-bucket fallback resolved once
// at freeze time. A frozen Predict() is two array lookups plus interpolation — const,
// allocation-free, and safe to call from many threads concurrently (the runtime
// control loop scans min..max tokens every tick, and the multi-job arbiter queries
// several jobs' tables during one rebalance). Frozen tables serialize to a compact
// binary blob (Save/Load) so recurring workloads can skip re-simulation entirely; see
// table_cache.h for the on-disk cache keyed by (graph, profile, config).

#ifndef SRC_SIM_COMPLETION_TABLE_H_
#define SRC_SIM_COMPLETION_TABLE_H_

#include <iosfwd>
#include <optional>
#include <vector>

#include "src/util/stats.h"

namespace jockey {

class CompletionTable {
 public:
  // `allocations` is the token grid simulated offline (strictly increasing, >= 1
  // each); progress is bucketed into `num_buckets` cells over [0, 1].
  CompletionTable(std::vector<int> allocations, int num_buckets = 50);

  // Records one observation: at progress `p` with grid allocation index `alloc_index`,
  // `remaining_seconds` remained until completion. Requires !frozen().
  void AddSample(double p, int alloc_index, double remaining_seconds);

  // Compacts the per-cell sample sets into the dense read-only representation and
  // releases the mutable cells. Predictions are unchanged bit-for-bit; after this the
  // table accepts no further samples. Idempotent.
  void Freeze();
  bool frozen() const { return frozen_; }

  // Predicted remaining seconds at progress `p` under `allocation` tokens, at the
  // given sample quantile (the paper cares about worst-case-ish completion, so the
  // control loop queries a high quantile). Allocation is clamped to the grid range
  // and interpolated linearly between grid points. Identical before and after
  // Freeze(); only the frozen path is thread-safe.
  double Predict(double p, double allocation, double quantile) const;

  const std::vector<int>& allocations() const { return allocations_; }
  int num_buckets() const { return num_buckets_; }

  // The progress bucket `p` falls into. Predict(p, a, q) depends on p only through
  // this index, which is what makes per-bucket memoization of prediction columns
  // exact (decision_cache.h): two progress values in the same bucket produce
  // bit-identical predictions at every allocation.
  int BucketIndex(double p) const { return BucketOf(p); }

  // Total samples stored (diagnostics).
  size_t TotalSamples() const;

  // Text serialization of the quantile summaries actually used at runtime.
  void SaveSummary(std::ostream& os, const std::vector<double>& quantiles) const;

  // Binary serialization of the frozen representation (requires frozen()). Load
  // returns nullopt on malformed or truncated input, and on a stream it cannot seek:
  // it allocates nothing until the bytes the header promises are known to be there.
  // Save(Load(x)) == x, and a loaded table predicts bit-identically to the one saved.
  void Save(std::ostream& os) const;
  static std::optional<CompletionTable> Load(std::istream& is);

 private:
  // A frozen cell: a range of `frozen_samples_` (already sorted ascending). Empty
  // cells point at their fallback donor's range; a completely empty column has
  // count == 0 and predicts 0.
  struct CellRange {
    size_t offset = 0;
    size_t count = 0;
  };

  int BucketOf(double p) const;
  size_t CellIndex(int bucket, int ai) const {
    return static_cast<size_t>(bucket) * allocations_.size() + static_cast<size_t>(ai);
  }
  // Remaining-time quantile at exactly grid column `ai`, searching nearby buckets if
  // the target bucket holds no samples (mutable path) or using the pre-resolved
  // fallback range (frozen path).
  double CellQuantile(int bucket, int ai, double quantile) const;
  // The bucket whose samples answer queries for (bucket, ai): itself when populated,
  // else the nearest populated bucket in the column, preferring lower (its larger
  // remaining time over-estimates, which is the safe direction). -1 if the whole
  // column is empty. `populated` is indexed like cells_.
  int ResolveFallbackBucket(int bucket, int ai, const std::vector<char>& populated) const;

  std::vector<int> allocations_;
  int num_buckets_;
  // Mutable phase: cells_[bucket * allocations_.size() + alloc_index]. Cleared by
  // Freeze().
  std::vector<EmpiricalDistribution> cells_;
  // Frozen phase.
  bool frozen_ = false;
  std::vector<double> frozen_samples_;  // per-cell sorted runs, concatenated
  std::vector<CellRange> frozen_cells_;  // indexed like cells_
  size_t frozen_total_samples_ = 0;  // distinct stored samples (fallback sharing excluded)
};

}  // namespace jockey

#endif  // SRC_SIM_COMPLETION_TABLE_H_
