// Properties of the offline C(p, a) estimation (builder + table together).

#include "src/core/completion_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/jockey.h"
#include "src/obs/metrics.h"
#include "src/sim/table_cache.h"
#include "src/workload/job_generator.h"
#include "tests/test_temp_dir.h"

namespace jockey {
namespace {

struct Built {
  JobTemplate tmpl;
  JobProfile profile;
  CompletionTable table;
};

Built Build(uint64_t seed, CompletionModelConfig config = CompletionModelConfig(),
            CompletionModelBuildStats* stats = nullptr) {
  JobShapeSpec spec;
  spec.name = "cm";
  spec.num_stages = 7;
  spec.num_barriers = 2;
  spec.num_vertices = 250;
  spec.seed = seed;
  JobTemplate tmpl = GenerateJob(spec);
  Rng gen(seed + 1);
  RunTrace trace;
  for (int s = 0; s < tmpl.graph.num_stages(); ++s) {
    for (int i = 0; i < tmpl.graph.stage(s).num_tasks; ++i) {
      double d = tmpl.runtime[static_cast<size_t>(s)].SampleSeconds(gen);
      trace.tasks.push_back({{s, i}, 0.0, 1.0, 1.0 + d, 0, 0.0});
    }
  }
  trace.finish_time = 1.0;
  JobProfile profile = JobProfile::FromTrace(tmpl.graph, trace);
  auto indicator = MakeIndicator(IndicatorKind::kTotalWorkWithQ, tmpl.graph, profile);
  config.seed = seed + 2;
  CompletionTable table = BuildCompletionTable(tmpl.graph, profile, *indicator, config, stats);
  return Built{std::move(tmpl), std::move(profile), std::move(table)};
}

TEST(CompletionModelTest, TableIsWellPopulated) {
  Built built = Build(11);
  // Every allocation column contributed runs_per_allocation completion samples plus
  // progress samples throughout each run.
  EXPECT_GT(built.table.TotalSamples(),
            built.table.allocations().size() * 10u /* runs */ * 2u);
}

TEST(CompletionModelTest, MedianRemainingDecreasesWithProgress) {
  Built built = Build(13);
  for (double a : {10.0, 40.0, 100.0}) {
    double early = built.table.Predict(0.05, a, 0.5);
    double mid = built.table.Predict(0.5, a, 0.5);
    double late = built.table.Predict(0.9, a, 0.5);
    EXPECT_GT(early, mid) << "allocation " << a;
    EXPECT_GT(mid, late) << "allocation " << a;
  }
}

TEST(CompletionModelTest, FreshJobPredictionDecreasesWithAllocation) {
  Built built = Build(17);
  double prev = 1e18;
  for (double a : {2.0, 10.0, 25.0, 60.0, 100.0}) {
    double pred = built.table.Predict(0.0, a, 0.5);
    EXPECT_LT(pred, prev * 1.05) << "allocation " << a;  // small MC noise allowed
    prev = pred;
  }
  EXPECT_LT(built.table.Predict(0.0, 100.0, 0.5),
            0.5 * built.table.Predict(0.0, 2.0, 0.5));
}

TEST(CompletionModelTest, HighQuantileDominatesMedian) {
  Built built = Build(19);
  for (double p : {0.0, 0.3, 0.7}) {
    for (double a : {5.0, 30.0, 90.0}) {
      EXPECT_GE(built.table.Predict(p, a, 1.0) + 1e-9, built.table.Predict(p, a, 0.5));
    }
  }
}

TEST(CompletionModelTest, DeterministicForSeed) {
  Built a = Build(23);
  Built b = Build(23);
  for (double p : {0.0, 0.4, 0.8}) {
    for (double alloc : {5.0, 50.0}) {
      EXPECT_DOUBLE_EQ(a.table.Predict(p, alloc, 1.0), b.table.Predict(p, alloc, 1.0));
    }
  }
}

TEST(CompletionModelTest, MoreRunsRefineNotShift) {
  CompletionModelConfig few;
  few.runs_per_allocation = 4;
  CompletionModelConfig many;
  many.runs_per_allocation = 16;
  Built coarse = Build(29, few);
  Built fine = Build(29, many);
  // The medians from a coarse and a fine table agree within Monte Carlo tolerance.
  for (double a : {10.0, 50.0}) {
    double c = coarse.table.Predict(0.0, a, 0.5);
    double f = fine.table.Predict(0.0, a, 0.5);
    EXPECT_NEAR(c / f, 1.0, 0.25) << "allocation " << a;
  }
}

std::string Serialized(const CompletionTable& table) {
  std::ostringstream os(std::ios::binary);
  table.Save(os);
  return os.str();
}

// The regression test for the old order-dependent rng.Fork() chain: every build —
// serial or parallel, any thread count — must produce byte-identical frozen tables,
// because each (allocation, run) pair now draws from a counter-based seed.
TEST(CompletionModelTest, ParallelBuildIsBitIdenticalToSerial) {
  Built serial = Build(31, [] {
    CompletionModelConfig config;
    config.threads = 1;
    return config;
  }());
  for (int threads : {2, 3, 8}) {
    CompletionModelConfig config;
    config.threads = threads;
    Built parallel = Build(31, config);
    EXPECT_EQ(Serialized(serial.table), Serialized(parallel.table)) << threads << " threads";
  }
}

TEST(CompletionModelTest, BuilderReturnsFrozenTable) {
  Built built = Build(37);
  EXPECT_TRUE(built.table.frozen());
  EXPECT_GT(built.table.TotalSamples(), 0u);
}

TEST(CompletionModelTest, BuildStatsReportThreadsAndRuns) {
  CompletionModelConfig config;
  config.threads = 2;
  config.runs_per_allocation = 3;
  CompletionModelBuildStats stats;
  Built built = Build(41, config, &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_EQ(stats.threads_used, 2);
  EXPECT_EQ(stats.simulated_runs,
            static_cast<int>(config.allocation_grid.size()) * config.runs_per_allocation);
}

TEST(CompletionModelTest, PersistentCacheHitSkipsSimulationAndMatchesBytes) {
  std::string dir = UniqueTempDir("jockey_table_cache_test");

  CompletionModelConfig config;
  config.cache_dir = dir;
  CompletionModelBuildStats cold_stats;
  Built cold = Build(43, config, &cold_stats);
  EXPECT_FALSE(cold_stats.cache_hit);
  EXPECT_GT(cold_stats.simulated_runs, 0);

  CompletionModelBuildStats warm_stats;
  Built warm = Build(43, config, &warm_stats);
  EXPECT_TRUE(warm_stats.cache_hit);
  EXPECT_EQ(warm_stats.simulated_runs, 0);
  EXPECT_EQ(Serialized(cold.table), Serialized(warm.table));

  // A different seed is a different key: back to a miss.
  CompletionModelBuildStats other_stats;
  Built other = Build(44, config, &other_stats);
  EXPECT_FALSE(other_stats.cache_hit);
  EXPECT_NE(Serialized(other.table), Serialized(cold.table));

  std::filesystem::remove_all(dir);
}

TEST(CompletionModelTest, CorruptCacheEntryIsAMissNotACrash) {
  std::string dir = UniqueTempDir("jockey_table_cache_corrupt");
  CompletionModelConfig config;
  config.cache_dir = dir;
  Built cold = Build(47, config);

  // Truncate every entry in the cache dir.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::FILE* f = std::fopen(entry.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("corrupt", f);
    std::fclose(f);
  }
  CompletionModelBuildStats stats;
  Built rebuilt = Build(47, config, &stats);
  EXPECT_FALSE(stats.cache_hit);  // corrupt entry rebuilt from scratch
  EXPECT_EQ(Serialized(cold.table), Serialized(rebuilt.table));
  std::filesystem::remove_all(dir);
}

// --- The structural v2 cache key --------------------------------------------

// A tiny fixed job: three map tasks feeding two reduce tasks through one edge.
JobGraph TinyGraph(int map_tasks = 3, CommPattern pattern = CommPattern::kAllToAll) {
  return JobGraph("tiny", {StageSpec{"map", map_tasks, {}},
                           StageSpec{"reduce", 2, {StageEdge{0, pattern}}}});
}

RunTrace TinyTrace() {
  RunTrace trace;
  trace.job_name = "tiny";
  for (int i = 0; i < 3; ++i) {
    trace.tasks.push_back({{0, i}, 0.0, 0.5 * i, 0.5 * i + 2.25 + 0.125 * i, 0, 0.0});
  }
  for (int i = 0; i < 2; ++i) {
    trace.tasks.push_back({{1, i}, 3.5, 4.0 + i, 9.0 + 0.75 * i, i, 0.5 * i});
  }
  trace.finish_time = 9.75;
  return trace;
}

uint64_t TinyKey(const JobGraph& graph, const JobProfile& profile, IndicatorKind kind,
                 const CompletionModelConfig& config) {
  auto indicator = MakeIndicator(kind, graph, profile);
  return CompletionTableCacheKey(graph, profile, *indicator, config);
}

// Pins the key of one fixed input, so drift from padding, pointers, iteration
// order or a changed field list fails loudly. Cached .cpa entries written under
// the old key would silently stop being hit; change this value only on purpose,
// with the key's version tag or with CompletionModelConfig's defaults.
TEST(CompletionTableCacheKeyTest, GoldenValueForTinyJob) {
  const JobGraph graph = TinyGraph();
  const JobProfile profile = JobProfile::FromTrace(graph, TinyTrace());
  EXPECT_EQ(TinyKey(graph, profile, IndicatorKind::kTotalWorkWithQ, CompletionModelConfig()),
            0x24f70489c3852d09ULL);
}

TEST(CompletionTableCacheKeyTest, EveryModelInputChangesTheKey) {
  const JobGraph graph = TinyGraph();
  const JobProfile profile = JobProfile::FromTrace(graph, TinyTrace());
  const CompletionModelConfig base_config;
  const uint64_t base = TinyKey(graph, profile, IndicatorKind::kTotalWorkWithQ, base_config);

  EXPECT_NE(TinyKey(TinyGraph(4), profile, IndicatorKind::kTotalWorkWithQ, base_config), base)
      << "stage task count";
  EXPECT_NE(TinyKey(TinyGraph(3, CommPattern::kOneToOne), profile,
                    IndicatorKind::kTotalWorkWithQ, base_config),
            base)
      << "edge pattern";

  // One runtime sample, moved by its last ULP; every aggregate stays as it was.
  std::vector<StageProfile> stages = profile.stages();
  std::vector<double> runtimes = stages[1].task_runtimes.samples();
  runtimes.back() = std::nextafter(runtimes.back(), 1e9);
  stages[1].task_runtimes = EmpiricalDistribution(runtimes);
  const JobProfile nudged = JobProfile::FromStages(stages);
  EXPECT_NE(TinyKey(graph, nudged, IndicatorKind::kTotalWorkWithQ, base_config), base)
      << "last ULP of one runtime sample";

  EXPECT_NE(TinyKey(graph, profile, IndicatorKind::kVertexFrac, base_config), base)
      << "indicator kind";

  const std::vector<std::pair<const char*, std::function<void(CompletionModelConfig&)>>>
      changes = {
          {"allocation grid", [](CompletionModelConfig& c) { c.allocation_grid.back() += 1; }},
          {"runs per allocation", [](CompletionModelConfig& c) { ++c.runs_per_allocation; }},
          {"progress buckets", [](CompletionModelConfig& c) { ++c.num_progress_buckets; }},
          {"seed", [](CompletionModelConfig& c) { ++c.seed; }},
          {"inject_failures",
           [](CompletionModelConfig& c) { c.simulator.inject_failures = false; }},
          {"init_latency_cap_seconds",
           [](CompletionModelConfig& c) { c.simulator.init_latency_cap_seconds += 1.0; }},
          {"sample_period_seconds",
           [](CompletionModelConfig& c) { c.simulator.sample_period_seconds += 1.0; }},
          {"cache_extra_tag", [](CompletionModelConfig& c) { c.cache_extra_tag = 1; }},
      };
  for (const auto& [what, change] : changes) {
    CompletionModelConfig config = base_config;
    change(config);
    EXPECT_NE(TinyKey(graph, profile, IndicatorKind::kTotalWorkWithQ, config), base) << what;
  }
}

TEST(CompletionTableCacheKeyTest, NonModelKnobsLeaveTheKeyUnchanged) {
  const JobGraph graph = TinyGraph();
  const JobProfile profile = JobProfile::FromTrace(graph, TinyTrace());
  const CompletionModelConfig base_config;
  const uint64_t base = TinyKey(graph, profile, IndicatorKind::kTotalWorkWithQ, base_config);

  NullSink sink;
  MetricsRegistry metrics;
  const std::vector<std::pair<const char*, std::function<void(CompletionModelConfig&)>>>
      changes = {
          {"threads", [](CompletionModelConfig& c) { c.threads = 3; }},
          {"cache_dir", [](CompletionModelConfig& c) { c.cache_dir = "/elsewhere"; }},
          {"cache_max_bytes", [](CompletionModelConfig& c) { c.cache_max_bytes = 4096; }},
          {"observer", [&](CompletionModelConfig& c) { c.observer = Observer(&sink, &metrics); }},
          {"event_engine",
           [](CompletionModelConfig& c) { c.simulator.event_engine = EventEngine::kLegacyHeap; }},
      };
  for (const auto& [what, change] : changes) {
    CompletionModelConfig config = base_config;
    change(config);
    EXPECT_EQ(TinyKey(graph, profile, IndicatorKind::kTotalWorkWithQ, config), base) << what;
  }
}

// What a tool holding only a Jockey and its training trace does to find the
// table a build stored: recompute the trace tag as HashString of the saved
// trace text, then key the Jockey's own graph, profile and indicator.
TEST(CompletionTableCacheKeyTest, SavedTraceTextAndJockeyInputsFindTheStoredTable) {
  std::string dir = UniqueTempDir("jockey_table_cache_probe");
  JobShapeSpec spec;
  spec.name = "probe";
  spec.num_stages = 5;
  spec.num_barriers = 1;
  spec.num_vertices = 120;
  spec.seed = 5;
  JobTemplate tmpl = GenerateJob(spec);
  Rng gen(6);
  RunTrace trace;
  trace.job_name = "probe";
  for (int s = 0; s < tmpl.graph.num_stages(); ++s) {
    for (int i = 0; i < tmpl.graph.stage(s).num_tasks; ++i) {
      const double start = 0.1 * s;
      trace.tasks.push_back(
          {{s, i}, 0.0, start, start + tmpl.runtime[static_cast<size_t>(s)].SampleSeconds(gen),
           0, 0.0});
    }
  }
  trace.finish_time = 100.0;

  JockeyConfig config;
  config.indicator = IndicatorKind::kMinStage;  // reads the training trace itself
  config.model.cache_dir = dir;
  config.model.runs_per_allocation = 2;
  Jockey jockey(tmpl.graph, trace, config);
  ASSERT_FALSE(jockey.table_build_stats().cache_hit);

  std::ostringstream trace_bytes;
  trace.Save(trace_bytes);
  CompletionModelConfig model = jockey.config().model;
  model.cache_extra_tag = HashString(trace_bytes.str());
  const uint64_t key =
      CompletionTableCacheKey(jockey.graph(), jockey.profile(), jockey.indicator(), model);
  TableCache::LoadResult loaded = TableCache(dir).Load(key);
  ASSERT_TRUE(loaded.table.has_value());
  EXPECT_EQ(Serialized(*loaded.table), Serialized(jockey.table()));

  Jockey rerun(tmpl.graph, trace, config);
  EXPECT_TRUE(rerun.table_build_stats().cache_hit);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace jockey
