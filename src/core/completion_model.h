// Offline estimation of C(p, a) (Section 4.1, "Job simulator and the offline
// estimation").
//
// BuildCompletionTable() repeatedly simulates the job at every allocation on the grid
// with Jockey's offline job simulator. During each simulated run, the progress
// indicator is evaluated on the per-stage completion fractions at a fixed sampling
// period, and each (progress, allocation, remaining-time) observation becomes one
// sample of C(p, a). The resulting table is what the runtime control loop queries —
// the simulator itself is never invoked online (the paper's key engineering choice
// for a fast control loop).
//
// The (allocation, run) pairs are mutually independent, so the builder fans them
// across a thread pool. Determinism contract: every run draws from an Rng seeded by
// Rng::CounterSeed(config.seed, alloc_index, run) — a pure function of the run's
// coordinates — and each run's samples land in a private buffer merged in (alloc,
// run) order afterwards. Parallel and serial builds therefore produce bit-identical
// tables for any thread count and any interleaving; a regression test asserts the
// serialized bytes match. The returned table is already frozen (see
// completion_table.h), so Predict is O(1) and thread-safe.
//
// With `cache_dir` set, the builder first consults the persistent cache under a key
// derived from (graph, profile, indicator, config) — recurring workloads re-training
// the same job skip the ~140 simulations entirely on a warm start.

#ifndef SRC_CORE_COMPLETION_MODEL_H_
#define SRC_CORE_COMPLETION_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/progress.h"
#include "src/obs/observer.h"
#include "src/dag/job_graph.h"
#include "src/dag/profile.h"
#include "src/sim/completion_table.h"
#include "src/sim/job_simulator.h"

namespace jockey {

struct CompletionModelConfig {
  // Token grid simulated offline; runtime queries interpolate between grid points.
  std::vector<int> allocation_grid = {2, 5, 10, 15, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100};
  // Monte Carlo runs per grid allocation.
  int runs_per_allocation = 10;
  int num_progress_buckets = 60;
  JobSimulatorConfig simulator;
  uint64_t seed = 7;
  // Worker threads for the precompute fan-out. 0 = hardware concurrency; 1 = the
  // legacy serial path. Any value yields bit-identical tables (see above), so this
  // knob never needs to appear in cache keys or experiment configs.
  int threads = 0;
  // Directory of the persistent frozen-table cache; empty disables caching.
  std::string cache_dir;
  // Total .cpa bytes the cache directory may hold; 0 = unbounded. When exceeded,
  // least-recently-used entries are evicted after each store (see table_cache.h).
  uint64_t cache_max_bytes = 0;
  // Extra entropy folded into the cache key by callers whose indicator depends on
  // inputs the key cannot see directly (e.g. the minstage indicators bake in the
  // training trace); 0 when unused.
  uint64_t cache_extra_tag = 0;
  // Receives cache-traffic trace events and build counters. Never part of the cache
  // key. Emission happens only outside the threaded fan-out, so traces stay
  // bit-identical at any thread count.
  Observer observer;
};

// Diagnostics of one build, reported to callers that care (CLI, benches).
struct CompletionModelBuildStats {
  bool cache_hit = false;
  // Why the cache did (not) serve this build: kHit, kMiss, kCorrupt, kIoError, or
  // kDisabled when no cache directory was configured.
  CacheCode cache_code = CacheCode::kDisabled;
  int threads_used = 1;
  int simulated_runs = 0;  // 0 on a cache hit: no simulation happened
};

// The cache key for a build with these exact inputs. Pure: identical inputs hash
// identically across processes, which is what makes the on-disk cache useful for
// recurring jobs. Structural ("jockey-cpa-key-v2"): a Hasher (table_cache.h) folds,
// in order, the graph's name, stage names, task counts and input edges with their
// patterns; every JobProfile field including the raw task-runtime and queue-time
// samples; the indicator kind; and the grid, runs, buckets, seed, the simulator's
// failure/init-latency/sample-period knobs, and `cache_extra_tag`. Excluded by
// design, since builds are bit-identical across them: `threads` and the non-model
// fields `cache_dir`, `cache_max_bytes` and `observer`.
uint64_t CompletionTableCacheKey(const JobGraph& graph, const JobProfile& profile,
                                 const ProgressIndicator& indicator,
                                 const CompletionModelConfig& config);

CompletionTable BuildCompletionTable(const JobGraph& graph, const JobProfile& profile,
                                     const ProgressIndicator& indicator,
                                     const CompletionModelConfig& config = CompletionModelConfig(),
                                     CompletionModelBuildStats* stats = nullptr);

}  // namespace jockey

#endif  // SRC_CORE_COMPLETION_MODEL_H_
