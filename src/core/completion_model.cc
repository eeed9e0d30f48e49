#include "src/core/completion_model.h"

#include <algorithm>
#include <utility>

#include "src/obs/prof/profiler.h"
#include "src/sim/table_cache.h"
#include "src/util/thread_pool.h"

namespace jockey {

uint64_t CompletionTableCacheKey(const JobGraph& graph, const JobProfile& profile,
                                 const ProgressIndicator& indicator,
                                 const CompletionModelConfig& config) {
  Hasher h;
  h.Add("jockey-cpa-key-v2");
  // The graph: everything ToDot() renders except the derived node width.
  h.Add(graph.name()).Add(static_cast<uint64_t>(graph.stages().size()));
  for (const StageSpec& stage : graph.stages()) {
    h.Add(stage.name).Add(stage.num_tasks).Add(static_cast<uint64_t>(stage.inputs.size()));
    for (const StageEdge& edge : stage.inputs) {
      h.Add(edge.from).Add(edge.pattern);
    }
  }
  // The profile: every field JobProfile::Save writes, raw samples included.
  h.Add(static_cast<uint64_t>(profile.stages().size()));
  for (const StageProfile& stage : profile.stages()) {
    h.Add(stage.num_tasks)
        .Add(stage.total_exec_seconds)
        .Add(stage.total_queue_seconds)
        .Add(stage.max_task_seconds)
        .Add(stage.failure_prob)
        .Add(stage.task_runtimes.samples())
        .Add(stage.queue_times.samples());
  }
  h.Add(indicator.kind());
  h.Add(config.allocation_grid)
      .Add(config.runs_per_allocation)
      .Add(config.num_progress_buckets)
      .Add(config.seed)
      .Add(config.simulator.inject_failures)
      .Add(config.simulator.init_latency_cap_seconds)
      .Add(config.simulator.sample_period_seconds)
      .Add(config.cache_extra_tag);
  return h.value();
}

CompletionTable BuildCompletionTable(const JobGraph& graph, const JobProfile& profile,
                                     const ProgressIndicator& indicator,
                                     const CompletionModelConfig& config,
                                     CompletionModelBuildStats* stats) {
  // Profiled on the calling thread only (table_build/{simulate,merge_freeze}):
  // scoping inside the worker lambda would split the key by which pool thread ran
  // an iteration, making per-path counts depend on scheduling.
  prof::Scope build_scope("table_build");
  CompletionModelBuildStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }
  *stats = CompletionModelBuildStats{};

  TableCacheOptions cache_options;
  cache_options.max_bytes = config.cache_max_bytes;
  cache_options.observer = config.observer;
  TableCache cache(config.cache_dir, cache_options);
  uint64_t key = 0;
  if (cache.enabled()) {
    key = CompletionTableCacheKey(graph, profile, indicator, config);
    TableCache::LoadResult loaded = cache.Load(key);
    stats->cache_code = loaded.status.code;
    if (loaded.table.has_value()) {
      // Defensive shape check: a stale entry from an older grid config (or an FNV
      // collision) must not masquerade as this build.
      if (loaded.table->allocations() == config.allocation_grid &&
          loaded.table->num_buckets() == config.num_progress_buckets) {
        stats->cache_hit = true;
        return std::move(*loaded.table);
      }
      stats->cache_code = CacheCode::kCorrupt;  // well-formed blob, wrong shape
      config.observer.Count("table_cache.shape_mismatches");
    }
  }

  CompletionTable table(config.allocation_grid, config.num_progress_buckets);
  JobSimulator sim(graph, profile, config.simulator);

  // One task per (allocation, run) pair; each simulates into a private buffer. The
  // shared `sim`, profile, and indicator are strictly read-only during the fan-out.
  struct RunSamples {
    std::vector<std::pair<double, double>> observations;  // (progress, sim time)
    double completion_seconds = 0.0;
  };
  const size_t runs = static_cast<size_t>(std::max(0, config.runs_per_allocation));
  const size_t total = config.allocation_grid.size() * runs;
  std::vector<RunSamples> results(total);
  int threads = config.threads <= 0 ? ThreadPool::DefaultThreadCount() : config.threads;
  prof::Scope simulate_scope("simulate");
  ParallelFor(threads, total, [&](size_t idx) {
    size_t ai = idx / runs;
    size_t run = idx % runs;
    // Counter-based seed: a pure function of (seed, allocation, run), so the stream
    // is identical whether runs execute in order, interleaved, or on one thread.
    Rng run_rng(Rng::CounterSeed(config.seed, ai, run));
    RunSamples& out = results[idx];
    SimRunResult result =
        sim.Run(config.allocation_grid[ai], run_rng,
                [&](SimTime now, const std::vector<double>& frac_complete) {
                  out.observations.emplace_back(indicator.Evaluate(frac_complete), now);
                });
    out.completion_seconds = result.completion_seconds;
  });
  simulate_scope.Close();

  // Merge in (allocation, run) order — deterministic regardless of which worker ran
  // what. Remaining time is only known once a run completes, hence the two passes.
  prof::Scope merge_scope("merge_freeze");
  for (size_t idx = 0; idx < total; ++idx) {
    int ai = static_cast<int>(idx / runs);
    const RunSamples& out = results[idx];
    for (const auto& [progress, t] : out.observations) {
      if (t <= out.completion_seconds) {
        table.AddSample(progress, ai, out.completion_seconds - t);
      }
    }
    // Completion itself: zero remaining time at full progress.
    table.AddSample(1.0, ai, 0.0);
  }
  table.Freeze();
  merge_scope.Close();

  stats->threads_used = threads;
  stats->simulated_runs = static_cast<int>(total);
  config.observer.Count("completion_model.builds");
  config.observer.Count("completion_model.simulated_runs", static_cast<int64_t>(total));
  if (cache.enabled()) {
    cache.Store(key, table);
  }
  return table;
}

}  // namespace jockey
