// Micro-benchmarks (google-benchmark): throughput of the building blocks.
//
// These measure the engineering claims behind Jockey's design: the offline C(p, a)
// precomputation is cheap enough to run per job per day, and the online control-loop
// step is microseconds — the reason the paper moved all simulation offline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
#include <optional>
#include <sstream>
#include <vector>

#include "src/cluster/cluster_simulator.h"
#include "src/core/completion_model.h"
#include "src/core/control_loop.h"
#include "src/core/utility.h"
#include "src/dag/profile.h"
#include "src/fault/fault_injector.h"
#include "src/obs/analysis/postmortem.h"
#include "src/obs/async_jsonl.h"
#include "src/obs/jsonl.h"
#include "src/obs/metrics.h"
#include "src/obs/observer.h"
#include "src/obs/prof/profiler.h"
#include "src/sim/job_simulator.h"
#include "src/util/calendar_queue.h"
#include "src/util/thread_pool.h"
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

// Shared fixture data built once.
struct SimFixture {
  JobTemplate tmpl = GenerateJob(JobSpecC());
  JobProfile profile;
  SimFixture() {
    Rng rng(3);
    RunTrace trace;
    for (int s = 0; s < tmpl.graph.num_stages(); ++s) {
      for (int i = 0; i < tmpl.graph.stage(s).num_tasks; ++i) {
        double d = tmpl.runtime[static_cast<size_t>(s)].SampleSeconds(rng);
        trace.tasks.push_back({{s, i}, 0.0, 1.0, 1.0 + d, 0, 0.0});
      }
    }
    trace.finish_time = 1.0;
    profile = JobProfile::FromTrace(tmpl.graph, trace);
  }
};

SimFixture& Fixture() {
  static SimFixture fixture;
  return fixture;
}

void BM_JobSimulatorRun(benchmark::State& state) {
  SimFixture& f = Fixture();
  JobSimulator sim(f.tmpl.graph, f.profile);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Run(static_cast<int>(state.range(0)), rng).completion_seconds);
  }
  state.SetItemsProcessed(state.iterations() * f.tmpl.graph.num_tasks());
}
BENCHMARK(BM_JobSimulatorRun)->Arg(10)->Arg(40)->Arg(100);

void BM_BuildCompletionTable(benchmark::State& state) {
  SimFixture& f = Fixture();
  auto indicator = MakeIndicator(IndicatorKind::kTotalWorkWithQ, f.tmpl.graph, f.profile);
  CompletionModelConfig config;
  config.runs_per_allocation = static_cast<int>(state.range(0));
  config.threads = 1;
  for (auto _ : state) {
    CompletionTable table = BuildCompletionTable(f.tmpl.graph, f.profile, *indicator, config);
    benchmark::DoNotOptimize(table.TotalSamples());
  }
}
BENCHMARK(BM_BuildCompletionTable)->Arg(2)->Arg(10)->Unit(benchmark::kMillisecond);

// The parallel precompute at 1/2/4/8 workers (bit-identical output at any count; see
// completion_model.h). Speedup is bounded by the machine's core count.
void BM_BuildCompletionTableThreads(benchmark::State& state) {
  SimFixture& f = Fixture();
  auto indicator = MakeIndicator(IndicatorKind::kTotalWorkWithQ, f.tmpl.graph, f.profile);
  CompletionModelConfig config;
  config.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    CompletionTable table = BuildCompletionTable(f.tmpl.graph, f.profile, *indicator, config);
    benchmark::DoNotOptimize(table.TotalSamples());
  }
}
BENCHMARK(BM_BuildCompletionTableThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The runtime query the control loop issues ~100x per tick, on the frozen table:
// two array lookups plus interpolation, no sorting, no allocation.
void BM_CompletionTablePredictFrozen(benchmark::State& state) {
  SimFixture& f = Fixture();
  auto indicator = MakeIndicator(IndicatorKind::kTotalWorkWithQ, f.tmpl.graph, f.profile);
  CompletionTable table =
      BuildCompletionTable(f.tmpl.graph, f.profile, *indicator, CompletionModelConfig());
  double p = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Predict(p, 37.0, 1.0));
    p += 0.001;
    if (p > 1.0) {
      p = 0.0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompletionTablePredictFrozen);

// range(0) selects the observability attachment: 0 = detached (the default-null
// Observer; the baseline), 1 = NullSink + registry (full emission path, discarded
// output — the ≤2% overhead contract of src/obs/), 2 = JSONL sink into a discarded
// stream (what --trace-out costs).
void BM_ControlLoopTick(benchmark::State& state) {
  SimFixture& f = Fixture();
  auto indicator = std::shared_ptr<const ProgressIndicator>(
      MakeIndicator(IndicatorKind::kTotalWorkWithQ, f.tmpl.graph, f.profile));
  auto table = std::make_shared<CompletionTable>(BuildCompletionTable(
      f.tmpl.graph, f.profile, *indicator, CompletionModelConfig()));
  JockeyController controller(indicator, table, DeadlineUtility(3600.0), ControlLoopConfig());
  NullSink null_sink;
  MetricsRegistry metrics;
  std::ostringstream jsonl_buffer;
  JsonlSink jsonl_sink(jsonl_buffer);
  switch (state.range(0)) {
    case 1:
      controller.set_observer(Observer(&null_sink, &metrics));
      break;
    case 2:
      controller.set_observer(Observer(&jsonl_sink, &metrics));
      break;
    default:
      break;
  }
  JobRuntimeStatus status;
  status.elapsed_seconds = 600.0;
  status.frac_complete.assign(static_cast<size_t>(f.tmpl.graph.num_stages()), 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.OnTick(status).guaranteed_tokens);
    jsonl_buffer.str("");
  }
}
BENCHMARK(BM_ControlLoopTick)->Arg(0)->Arg(1)->Arg(2);

void BM_IndicatorEvaluate(benchmark::State& state) {
  SimFixture& f = Fixture();
  auto indicator = MakeIndicator(IndicatorKind::kTotalWorkWithQ, f.tmpl.graph, f.profile);
  std::vector<double> frac(static_cast<size_t>(f.tmpl.graph.num_stages()), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(indicator->Evaluate(frac));
  }
}
BENCHMARK(BM_IndicatorEvaluate);

// range(0): 0 = detached observer (baseline), 1 = NullSink + registry (the ≤2%
// overhead contract on scheduler-event emission sites).
void BM_ClusterSimulatorRun(benchmark::State& state) {
  SimFixture& f = Fixture();
  NullSink null_sink;
  MetricsRegistry metrics;
  for (auto _ : state) {
    ClusterConfig config;
    config.num_machines = 50;
    config.seed = 11;
    ClusterSimulator cluster(config);
    if (state.range(0) == 1) {
      cluster.set_observer(Observer(&null_sink, &metrics));
    }
    JobSubmission submission;
    submission.guaranteed_tokens = 40;
    int id = cluster.SubmitJob(f.tmpl, submission);
    cluster.Run();
    benchmark::DoNotOptimize(cluster.result(id).CompletionSeconds());
  }
  state.SetItemsProcessed(state.iterations() * f.tmpl.graph.num_tasks());
}
BENCHMARK(BM_ClusterSimulatorRun)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Wall-clock report for the precompute pipeline: table-build time at 1 vs N threads
// plus per-Predict latency, as machine-readable JSON (BENCH_precompute.json). The
// acceptance bar for the parallel build — >= 3x at 8 threads — is only observable on
// hardware with >= 8 cores; the report records hardware_concurrency alongside so a
// 1-core container's ~1x does not read as a regression.
void WritePrecomputeReport(const char* path) {
  SimFixture& f = Fixture();
  auto indicator = MakeIndicator(IndicatorKind::kTotalWorkWithQ, f.tmpl.graph, f.profile);
  auto build_seconds = [&](int threads) {
    CompletionModelConfig config;
    config.threads = threads;
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      auto start = std::chrono::steady_clock::now();
      CompletionTable table = BuildCompletionTable(f.tmpl.graph, f.profile, *indicator, config);
      benchmark::DoNotOptimize(table.TotalSamples());
      best = std::min(best, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    }
    return best;
  };
  double t1 = build_seconds(1);
  double t2 = build_seconds(2);
  double t4 = build_seconds(4);
  double t8 = build_seconds(8);

  CompletionTable table =
      BuildCompletionTable(f.tmpl.graph, f.profile, *indicator, CompletionModelConfig());
  constexpr int kPredicts = 2000000;
  auto start = std::chrono::steady_clock::now();
  double p = 0.0;
  for (int i = 0; i < kPredicts; ++i) {
    benchmark::DoNotOptimize(table.Predict(p, 37.0, 1.0));
    p += 0.001;
    if (p > 1.0) {
      p = 0.0;
    }
  }
  double predict_ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      kPredicts;

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"hardware_concurrency\": %d,\n"
               "  \"build_seconds\": {\"1\": %.6f, \"2\": %.6f, \"4\": %.6f, \"8\": %.6f},\n"
               "  \"speedup_8_vs_1\": %.3f,\n"
               "  \"predict_ns\": %.1f\n"
               "}\n",
               ThreadPool::DefaultThreadCount(), t1, t2, t4, t8, t1 / t8, predict_ns);
  std::fclose(out);
  std::printf("BENCH_precompute.json: build 1t=%.3fs 8t=%.3fs (speedup %.2fx, %d cores), "
              "predict %.0f ns\n",
              t1, t8, t1 / t8, ThreadPool::DefaultThreadCount(), predict_ns);
}

// Wall-clock report for the observability overhead contract (BENCH_obs.json): the
// control-loop tick and the cluster-sim run, detached vs NullSink+registry vs JSONL
// into a discarded stream. The src/obs/ bar: the null-sink overhead on both hot
// paths stays within 2% of the detached baseline (negative percentages are timer
// noise and read as 0).
void WriteObsReport(const char* path) {
  SimFixture& f = Fixture();
  auto indicator = std::shared_ptr<const ProgressIndicator>(
      MakeIndicator(IndicatorKind::kTotalWorkWithQ, f.tmpl.graph, f.profile));
  auto table = std::make_shared<CompletionTable>(BuildCompletionTable(
      f.tmpl.graph, f.profile, *indicator, CompletionModelConfig()));

  NullSink null_sink;
  MetricsRegistry metrics;
  std::ostringstream jsonl_buffer;
  JsonlSink jsonl_sink(jsonl_buffer);

  auto tick_rep_ns = [&](Observer observer) {
    JockeyController controller(indicator, table, DeadlineUtility(3600.0), ControlLoopConfig());
    controller.set_observer(observer);
    JobRuntimeStatus status;
    status.elapsed_seconds = 600.0;
    status.frac_complete.assign(static_cast<size_t>(f.tmpl.graph.num_stages()), 0.4);
    constexpr int kTicks = 20000;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kTicks; ++i) {
      benchmark::DoNotOptimize(controller.OnTick(status).guaranteed_tokens);
    }
    double ns = std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
                    .count() /
                kTicks;
    jsonl_buffer.str("");
    return ns;
  };

  auto cluster_rep_ms = [&](bool attach) {
    // Several sequential jobs per rep: a longer rep averages out millisecond-scale
    // scheduler preemption that would otherwise dominate a single ~4ms run.
    auto start = std::chrono::steady_clock::now();
    for (int job = 0; job < 3; ++job) {
      ClusterConfig config;
      config.num_machines = 50;
      config.seed = 11 + static_cast<uint64_t>(job);
      ClusterSimulator cluster(config);
      if (attach) {
        cluster.set_observer(Observer(&null_sink, &metrics));
      }
      JobSubmission submission;
      submission.guaranteed_tokens = 40;
      int id = cluster.SubmitJob(f.tmpl, submission);
      cluster.Run();
      benchmark::DoNotOptimize(cluster.result(id).CompletionSeconds());
    }
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
  };

  // Run each alternative back to back with its baseline and take the median of the
  // per-pair ratios: background load drifting on any timescale longer than one pair
  // cancels in the ratio, and the median discards reps hit by a spike mid-pair.
  // (Min-of-independent-reps is not robust here — a loaded machine may never offer a
  // quiet window, biasing whichever alternative ran during the calm moments.)
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  constexpr int kTickReps = 15;
  constexpr int kClusterReps = 41;  // a pair is ~10ms; many cheap pairs tame load spikes
  double tick_detached = 1e300;
  double tick_null = 1e300;
  double tick_jsonl = 1e300;
  double cluster_detached = 1e300;
  double cluster_null = 1e300;
  std::vector<double> tick_ratios;
  std::vector<double> cluster_ratios;
  // Alternate which variant runs first in each pair: under a load ramp the second
  // measurement of a pair is systematically slower, and alternation cancels that.
  for (int rep = 0; rep < kTickReps; ++rep) {
    double td;
    double tn;
    if (rep % 2 == 0) {
      td = tick_rep_ns(Observer());
      tn = tick_rep_ns(Observer(&null_sink, &metrics));
    } else {
      tn = tick_rep_ns(Observer(&null_sink, &metrics));
      td = tick_rep_ns(Observer());
    }
    double tj = tick_rep_ns(Observer(&jsonl_sink, &metrics));
    tick_ratios.push_back(tn / td);
    tick_detached = std::min(tick_detached, td);
    tick_null = std::min(tick_null, tn);
    tick_jsonl = std::min(tick_jsonl, tj);
  }
  for (int rep = 0; rep < kClusterReps; ++rep) {
    double cd;
    double cn;
    if (rep % 2 == 0) {
      cd = cluster_rep_ms(false);
      cn = cluster_rep_ms(true);
    } else {
      cn = cluster_rep_ms(true);
      cd = cluster_rep_ms(false);
    }
    cluster_ratios.push_back(cn / cd);
    cluster_detached = std::min(cluster_detached, cd);
    cluster_null = std::min(cluster_null, cn);
  }

  double tick_overhead_pct = (median(tick_ratios) - 1.0) * 100.0;
  double cluster_overhead_pct = (median(cluster_ratios) - 1.0) * 100.0;
  cluster_detached /= 3.0;  // report per-job milliseconds
  cluster_null /= 3.0;

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"control_tick_ns\": {\"detached\": %.1f, \"null_sink\": %.1f, "
               "\"jsonl_sink\": %.1f},\n"
               "  \"control_tick_null_sink_overhead_pct\": %.2f,\n"
               "  \"cluster_run_ms\": {\"detached\": %.3f, \"null_sink\": %.3f},\n"
               "  \"cluster_run_null_sink_overhead_pct\": %.2f,\n"
               "  \"overhead_budget_pct\": 2.0\n"
               "}\n",
               tick_detached, tick_null, tick_jsonl, tick_overhead_pct, cluster_detached,
               cluster_null, cluster_overhead_pct);
  std::fclose(out);
  std::printf("BENCH_obs.json: tick %.0f ns detached / %.0f ns null-sink (%+.2f%%), "
              "cluster run %.2f ms / %.2f ms (%+.2f%%)\n",
              tick_detached, tick_null, tick_overhead_pct, cluster_detached, cluster_null,
              cluster_overhead_pct);
}

// Wall-clock report for the profiler overhead contract (BENCH_profile.json). The
// prof::Scope regions are compiled into the control loop unconditionally, so the
// budget is on the DISABLED path: with profiling off, the scopes a control tick
// passes through (control_tick, policy_eval, predict, realloc) must cost <= 2% of
// the tick. The report measures the raw per-scope disabled cost in isolation and
// charges scopes_per_tick of them against the measured tick time — a direct
// disabled-vs-removed A/B is impossible without recompiling, and the analytic
// charge is strictly pessimistic (it ignores overlap with the tick's own work).
// Enabled-path numbers (per-scope and per-tick) are reported as context,
// unbudgeted. "within_budget" is the machine-checkable verdict CI greps.
void WriteProfileReport(const char* path) {
  SimFixture& f = Fixture();
  auto indicator = std::shared_ptr<const ProgressIndicator>(
      MakeIndicator(IndicatorKind::kTotalWorkWithQ, f.tmpl.graph, f.profile));
  auto table = std::make_shared<CompletionTable>(BuildCompletionTable(
      f.tmpl.graph, f.profile, *indicator, CompletionModelConfig()));

  // Raw scope cost: construct+destruct in a tight loop. The ctor's disabled path
  // is one relaxed atomic load; enabled pays the clock reads and tree walk.
  auto scope_ns = [](int iters) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      prof::Scope s("bench_scope");
    }
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
               .count() /
           iters;
  };
  auto tick_ns = [&]() {
    JockeyController controller(indicator, table, DeadlineUtility(3600.0), ControlLoopConfig());
    JobRuntimeStatus status;
    status.elapsed_seconds = 600.0;
    status.frac_complete.assign(static_cast<size_t>(f.tmpl.graph.num_stages()), 0.4);
    constexpr int kTicks = 20000;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kTicks; ++i) {
      benchmark::DoNotOptimize(controller.OnTick(status).guaranteed_tokens);
    }
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
               .count() /
           kTicks;
  };

  constexpr int kReps = 9;
  constexpr int kScopeIters = 1000000;
  prof::SetEnabled(false);
  double disabled_scope_ns = 1e300;
  double disabled_tick_ns = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    disabled_scope_ns = std::min(disabled_scope_ns, scope_ns(kScopeIters));
    disabled_tick_ns = std::min(disabled_tick_ns, tick_ns());
  }
  prof::Reset();
  prof::SetEnabled(true);
  double enabled_scope_ns = 1e300;
  double enabled_tick_ns = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    enabled_scope_ns = std::min(enabled_scope_ns, scope_ns(kScopeIters));
    enabled_tick_ns = std::min(enabled_tick_ns, tick_ns());
  }
  prof::SetEnabled(false);
  prof::Reset();

  // The control tick passes through four scopes (control_tick, policy_eval,
  // predict, realloc). Charge each at the isolated disabled cost.
  constexpr double kScopesPerTick = 4.0;
  double disabled_overhead_pct = kScopesPerTick * disabled_scope_ns / disabled_tick_ns * 100.0;
  bool within_budget = disabled_overhead_pct <= 2.0;

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"scope_ns\": {\"disabled\": %.2f, \"enabled\": %.2f},\n"
               "  \"control_tick_ns\": {\"disabled\": %.1f, \"enabled\": %.1f},\n"
               "  \"scopes_per_tick\": %.0f,\n"
               "  \"disabled_overhead_pct\": %.3f,\n"
               "  \"overhead_budget_pct\": 2.0,\n"
               "  \"within_budget\": %s\n"
               "}\n",
               disabled_scope_ns, enabled_scope_ns, disabled_tick_ns, enabled_tick_ns,
               kScopesPerTick, disabled_overhead_pct, within_budget ? "true" : "false");
  std::fclose(out);
  std::printf("BENCH_profile.json: scope %.2f ns disabled / %.2f ns enabled, "
              "tick %.0f ns -> %.3f%% disabled-path overhead (budget 2%%, %s)\n",
              disabled_scope_ns, enabled_scope_ns, disabled_tick_ns, disabled_overhead_pct,
              within_budget ? "within" : "OVER");
}

// Wall-clock report for the fault-injection overhead contract (BENCH_fault.json):
// the control-loop tick and the cluster-sim run with no injector attached vs an
// attached injector whose only window never overlaps the run. The src/fault/ bar
// mirrors the obs one: an idle injector stays within 2% of the detached baseline on
// both hot paths (the detached case itself is one nullptr branch per site, which the
// baseline arm already includes). Negative percentages are timer noise and read as 0.
void WriteFaultReport(const char* path) {
  SimFixture& f = Fixture();
  auto indicator = std::shared_ptr<const ProgressIndicator>(
      MakeIndicator(IndicatorKind::kTotalWorkWithQ, f.tmpl.graph, f.profile));
  auto table = std::make_shared<CompletionTable>(BuildCompletionTable(
      f.tmpl.graph, f.profile, *indicator, CompletionModelConfig()));

  // One window of every per-tick-consulted kind, parked far past any run's end: the
  // injected arm pays the full lookup scans without ever changing a result.
  FaultPlan idle_plan(7);
  idle_plan.Add(FaultPlan::ControlBlackout(1e8, 1e9))
      .Add(FaultPlan::GrantShortfall(1e8, 1e9, 0.5))
      .Add(FaultPlan::TableFault(1e8, 1e9, 0.5))
      .Add(FaultPlan::ReportDropout(1e8, 1e9))
      .Add(FaultPlan::MachineSlowdown(1e8, 1e9, 2.0, 0, 10))
      .Add(FaultPlan::ProfileSkew(1e8, 1e9, 0.5))
      .Add(FaultPlan::AdversarialSpike(1e8, 1e9, 0.5, 60.0));
  FaultInjector idle_injector(idle_plan);

  auto tick_rep_ns = [&](const FaultInjector* injector) {
    JockeyController controller(indicator, table, DeadlineUtility(3600.0), ControlLoopConfig());
    if (injector != nullptr) {
      controller.set_fault_injector(injector);
    }
    JobRuntimeStatus status;
    status.elapsed_seconds = 600.0;
    status.frac_complete.assign(static_cast<size_t>(f.tmpl.graph.num_stages()), 0.4);
    constexpr int kTicks = 20000;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kTicks; ++i) {
      benchmark::DoNotOptimize(controller.OnTick(status).guaranteed_tokens);
    }
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
               .count() /
           kTicks;
  };

  auto cluster_rep_ms = [&](FaultInjector* injector) {
    auto start = std::chrono::steady_clock::now();
    for (int job = 0; job < 3; ++job) {
      ClusterConfig config;
      config.num_machines = 50;
      config.seed = 11 + static_cast<uint64_t>(job);
      ClusterSimulator cluster(config);
      if (injector != nullptr) {
        cluster.set_fault_injector(injector);
      }
      JobSubmission submission;
      submission.guaranteed_tokens = 40;
      int id = cluster.SubmitJob(f.tmpl, submission);
      cluster.Run();
      benchmark::DoNotOptimize(cluster.result(id).CompletionSeconds());
    }
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
  };

  // Same paired-median methodology as WriteObsReport: alternate which arm runs first
  // within each pair, take the median of per-pair ratios.
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  constexpr int kTickReps = 15;
  constexpr int kClusterReps = 41;
  double tick_detached = 1e300;
  double tick_idle = 1e300;
  double cluster_detached = 1e300;
  double cluster_idle = 1e300;
  std::vector<double> tick_ratios;
  std::vector<double> cluster_ratios;
  for (int rep = 0; rep < kTickReps; ++rep) {
    double td;
    double ti;
    if (rep % 2 == 0) {
      td = tick_rep_ns(nullptr);
      ti = tick_rep_ns(&idle_injector);
    } else {
      ti = tick_rep_ns(&idle_injector);
      td = tick_rep_ns(nullptr);
    }
    tick_ratios.push_back(ti / td);
    tick_detached = std::min(tick_detached, td);
    tick_idle = std::min(tick_idle, ti);
  }
  for (int rep = 0; rep < kClusterReps; ++rep) {
    double cd;
    double ci;
    if (rep % 2 == 0) {
      cd = cluster_rep_ms(nullptr);
      ci = cluster_rep_ms(&idle_injector);
    } else {
      ci = cluster_rep_ms(&idle_injector);
      cd = cluster_rep_ms(nullptr);
    }
    cluster_ratios.push_back(ci / cd);
    cluster_detached = std::min(cluster_detached, cd);
    cluster_idle = std::min(cluster_idle, ci);
  }

  double tick_overhead_pct = (median(tick_ratios) - 1.0) * 100.0;
  double cluster_overhead_pct = (median(cluster_ratios) - 1.0) * 100.0;
  cluster_detached /= 3.0;  // report per-job milliseconds
  cluster_idle /= 3.0;

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"control_tick_ns\": {\"no_injector\": %.1f, \"idle_injector\": %.1f},\n"
               "  \"control_tick_idle_injector_overhead_pct\": %.2f,\n"
               "  \"cluster_run_ms\": {\"no_injector\": %.3f, \"idle_injector\": %.3f},\n"
               "  \"cluster_run_idle_injector_overhead_pct\": %.2f,\n"
               "  \"overhead_budget_pct\": 2.0\n"
               "}\n",
               tick_detached, tick_idle, tick_overhead_pct, cluster_detached, cluster_idle,
               cluster_overhead_pct);
  std::fclose(out);
  std::printf("BENCH_fault.json: tick %.0f ns detached / %.0f ns idle-injector (%+.2f%%), "
              "cluster run %.2f ms / %.2f ms (%+.2f%%)\n",
              tick_detached, tick_idle, tick_overhead_pct, cluster_detached, cluster_idle,
              cluster_overhead_pct);
}

// Throughput report for the trace-analysis pipeline (BENCH_postmortem.json): a
// seeded ~10k-task cluster run is captured into a VectorSink once, then
// BuildPostmortem is timed over the in-memory stream. Postmortems run offline, so
// the figure of merit is plain analyzer events/sec — high enough that piping a
// whole chaos sweep's trace through `jockey_cli postmortem` stays sub-second.
void WritePostmortemReport(const char* path) {
  JobShapeSpec spec = JobSpecC();
  spec.name = "bench-postmortem";
  spec.num_vertices = 10000;
  spec.seed = 17;
  JobTemplate tmpl = GenerateJob(spec);

  VectorSink sink;
  ClusterConfig config;
  config.num_machines = 200;
  config.seed = 29;
  ClusterSimulator cluster(config);
  cluster.set_observer(Observer(&sink, nullptr));
  JobSubmission submission;
  submission.guaranteed_tokens = 150;
  int id = cluster.SubmitJob(tmpl, submission);
  cluster.Run();
  benchmark::DoNotOptimize(cluster.result(id).CompletionSeconds());
  const std::vector<TraceEvent>& events = sink.events();

  // Min over reps: the analysis is a pure CPU pass over one in-memory vector, so
  // the fastest rep is the least-perturbed one (no paired baseline to ratio out).
  constexpr int kReps = 9;
  double best_ms = 1e300;
  size_t attempts = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    PostmortemReport report = BuildPostmortem(events);
    double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    benchmark::DoNotOptimize(report.total_budget.Total());
    attempts = report.jobs.empty() ? 0 : report.jobs.front().spans.size();
    best_ms = std::min(best_ms, ms);
  }
  double events_per_sec = static_cast<double>(events.size()) / (best_ms / 1000.0);

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"trace_events\": %zu,\n"
               "  \"task_attempts\": %zu,\n"
               "  \"analyze_ms\": %.3f,\n"
               "  \"events_per_sec\": %.0f\n"
               "}\n",
               events.size(), attempts, best_ms, events_per_sec);
  std::fclose(out);
  std::printf("BENCH_postmortem.json: %zu events / %zu attempts analyzed in %.2f ms "
              "(%.2fM events/s)\n",
              events.size(), attempts, best_ms, events_per_sec / 1e6);
}

// Event-engine throughput report (BENCH_sim.json), three sections:
//
//  1. queue — the hold model (pop one event, schedule its successor) on a fixed
//     seeded workload, run through a legacy closure queue (std::function
//     payloads: one heap allocation + type-erased dispatch per event, 48-byte heap
//     nodes) and through the typed engines in calendar_queue.h. The acceptance bar
//     lives here: the calendar engine must clear >= 3x the legacy queue's events/s.
//  2. cluster — full ClusterSimulator runs, reporting events/s (via
//     events_processed()) and tasks/s. Reported for the trajectory, not gated.
//  3. async_sink — the hot-loop cost AsyncJsonlSink adds to the simulation thread
//     vs a detached observer, same paired-median methodology as BENCH_obs.json,
//     <= 2% budget on the control-tick hot path, measured in producer-thread CPU
//     time so the writer thread's formatting is charged to the writer on any core
//     count (details at the section below). End-to-end traced-run wall times
//     (async at the default batch vs the synchronous JsonlSink) are reported
//     unbudgeted as context.
void WriteSimReport(const char* path) {
  SimFixture& f = Fixture();

  // --- Section 1: raw queue hold model -------------------------------------
  // ~128k resident events — a fleet-scale cluster's worth of in-flight task
  // completions and timers (tens of thousands of machines x slots) — with the
  // simulators' delay mix: second-scale exponential
  // gaps (task completions, ticks), a 2% minutes-scale tail (recovery timers,
  // speculation waits), and a 0.1% hour-scale tail (the Poisson machine-failure
  // chain) — the far tails exercise the calendar's overflow heap. The delay
  // stream is drawn once up front and indexed by both arms: identical workload,
  // and no RNG cost inside the timed loop diluting the queue-cost ratio.
  constexpr int kHoldPending = 131072;
  constexpr int kHoldEvents = 300000;
  constexpr uint64_t kHoldSeed = 4242;
  std::vector<double> delays(static_cast<size_t>(kHoldPending) + kHoldEvents);
  {
    Rng rng(kHoldSeed);
    for (double& d : delays) {
      d = rng.Exponential(5.0);
      double tail = rng.Uniform();
      if (tail < 0.001) {
        d += 3600.0;
      } else if (tail < 0.02) {
        d += 120.0;
      }
    }
  }

  // Payload mirroring ClusterSimulator::SimEvent's job/task/attempt fields.
  struct HoldEvent {
    int32_t a = 0;
    int32_t b = 0;
    uint64_t handle = 0;
  };

  // Takes an empty queue of either typed engine.
  auto typed_hold_ns = [&](auto q) {
    size_t di = 0;
    for (int i = 0; i < kHoldPending; ++i) {
      q.ScheduleAt(delays[di++], HoldEvent{i, 2 * i, static_cast<uint64_t>(i)});
    }
    uint64_t checksum = 0;
    HoldEvent ev;
    auto start = std::chrono::steady_clock::now();
    for (int fired = 0; fired < kHoldEvents; ++fired) {
      q.PopNext(ev);
      checksum += ev.handle;
      ++ev.handle;
      q.ScheduleAt(q.now() + delays[di++], ev);
    }
    double ns = std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
                    .count() /
                kHoldEvents;
    benchmark::DoNotOptimize(checksum);
    return ns;
  };

  // The closure arm replicates the queue the simulators used to run on: a vector
  // heap of std::function callbacks in the same (when, insertion-seq) order. Each
  // callback is a lambda over this + job/task ids + an attempt handle (24 bytes of
  // captures — past std::function's SBO, so every event heap-allocates exactly like
  // the old ClusterSimulator task-end closures did).
  struct ClosureEvent {
    SimTime when;
    uint64_t seq;
    std::function<void()> cb;
  };
  struct ClosureHold {
    std::vector<ClosureEvent> heap;
    SimTime now = 0.0;
    uint64_t next_seq = 0;
    const std::vector<double>& delays;
    size_t di = 0;
    uint64_t checksum = 0;
    explicit ClosureHold(const std::vector<double>& d) : delays(d) {}
    static bool Later(const ClosureEvent& a, const ClosureEvent& b) {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
    void Schedule(int32_t a, int32_t b, uint64_t handle) {
      heap.push_back(ClosureEvent{now + delays[di++], next_seq++, [this, a, b, handle]() {
                                    checksum += handle;
                                    Schedule(a, b, handle + 1);
                                  }});
      std::push_heap(heap.begin(), heap.end(), Later);
    }
    void Step() {
      std::pop_heap(heap.begin(), heap.end(), Later);
      ClosureEvent ev = std::move(heap.back());
      heap.pop_back();
      now = ev.when;
      ev.cb();
    }
  };
  auto closure_hold_ns = [&]() {
    ClosureHold hold(delays);
    for (int i = 0; i < kHoldPending; ++i) {
      hold.Schedule(i, 2 * i, static_cast<uint64_t>(i));
    }
    auto start = std::chrono::steady_clock::now();
    for (int fired = 0; fired < kHoldEvents; ++fired) {
      hold.Step();
    }
    double ns = std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
                    .count() /
                kHoldEvents;
    benchmark::DoNotOptimize(hold.checksum);
    return ns;
  };

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };

  // Paired reps, alternating which arm runs first; the speedup is the median of
  // per-pair ratios (same drift-cancelling rationale as WriteObsReport).
  constexpr int kQueueReps = 9;
  double closure_ns = 1e300;
  double calendar_ns = 1e300;
  double heap_ns = 1e300;
  std::vector<double> queue_ratios;
  for (int rep = 0; rep < kQueueReps; ++rep) {
    double lc;
    double cal;
    if (rep % 2 == 0) {
      lc = closure_hold_ns();
      cal = typed_hold_ns(CalendarQueue<HoldEvent>());
    } else {
      cal = typed_hold_ns(CalendarQueue<HoldEvent>());
      lc = closure_hold_ns();
    }
    heap_ns = std::min(heap_ns, typed_hold_ns(HeapEventQueue<HoldEvent>()));
    queue_ratios.push_back(lc / cal);
    closure_ns = std::min(closure_ns, lc);
    calendar_ns = std::min(calendar_ns, cal);
  }
  double queue_speedup = median(queue_ratios);

  // --- Section 2: full cluster-sim runs ------------------------------------
  uint64_t cluster_events = 0;
  uint64_t cluster_tasks = 0;
  auto cluster_rep_ms = [&]() {
    cluster_events = 0;
    cluster_tasks = 0;
    auto start = std::chrono::steady_clock::now();
    for (int job = 0; job < 3; ++job) {
      ClusterConfig config;
      config.num_machines = 50;
      config.seed = 11 + static_cast<uint64_t>(job);
      ClusterSimulator cluster(config);
      JobSubmission submission;
      submission.guaranteed_tokens = 40;
      int id = cluster.SubmitJob(f.tmpl, submission);
      cluster.Run();
      benchmark::DoNotOptimize(cluster.result(id).CompletionSeconds());
      cluster_events += cluster.events_processed();
      cluster_tasks += static_cast<uint64_t>(f.tmpl.graph.num_tasks());
    }
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
  };

  constexpr int kClusterReps = 21;
  double cluster_cal_ms = 1e300;
  for (int rep = 0; rep < kClusterReps; ++rep) {
    cluster_cal_ms = std::min(cluster_cal_ms, cluster_rep_ms());
  }
  double cluster_cal_eps = static_cast<double>(cluster_events) / (cluster_cal_ms / 1000.0);
  double cluster_cal_tps = static_cast<double>(cluster_tasks) / (cluster_cal_ms / 1000.0);

  // --- Section 3: async sink hot-loop overhead -----------------------------
  // The contract bounds what the SIMULATION THREAD pays per event: an append into
  // a recycled batch buffer plus one mutex hop per batch; formatting and I/O
  // belong to the writer thread. Wall clock cannot see that split on a shared
  // core — the writer formats ~1 us/event, and on this container
  // (hardware_concurrency recorded above) it serializes with the producer — so
  // this section measures producer-thread CPU time (CLOCK_THREAD_CPUTIME_ID),
  // which charges the writer's work to the writer on any core count. The sink
  // runs in its real configuration (default batch, ostringstream output). Same
  // paired-median structure as BENCH_obs.json. The budgeted figure is the
  // control-loop tick (BENCH_obs.json's budgeted hot path); the cluster run's
  // producer overhead is reported for the trajectory — at ~9 trace events per
  // task on a post-overhaul ~170 ns/event simulation loop, tracing costs more
  // than 2% of that loop no matter the sink, exactly like the jsonl_sink column
  // BENCH_obs.json reports unbudgeted.
  auto thread_cpu_ns = []() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
  };

  auto indicator = std::shared_ptr<const ProgressIndicator>(
      MakeIndicator(IndicatorKind::kTotalWorkWithQ, f.tmpl.graph, f.profile));
  auto table = std::make_shared<CompletionTable>(BuildCompletionTable(
      f.tmpl.graph, f.profile, *indicator, CompletionModelConfig()));

  auto tick_cpu_ns = [&](AsyncJsonlSink* sink) {
    JockeyController controller(indicator, table, DeadlineUtility(3600.0), ControlLoopConfig());
    if (sink != nullptr) {
      controller.set_observer(Observer(sink, nullptr));
    }
    JobRuntimeStatus status;
    status.elapsed_seconds = 600.0;
    status.frac_complete.assign(static_cast<size_t>(f.tmpl.graph.num_stages()), 0.4);
    constexpr int kTicks = 40000;
    double start = thread_cpu_ns();
    for (int i = 0; i < kTicks; ++i) {
      benchmark::DoNotOptimize(controller.OnTick(status).guaranteed_tokens);
    }
    return (thread_cpu_ns() - start) / kTicks;
  };

  auto run_jobs = [&](ObserverSink* sink) {
    for (int job = 0; job < 3; ++job) {
      ClusterConfig config;
      config.num_machines = 50;
      config.seed = 11 + static_cast<uint64_t>(job);
      ClusterSimulator cluster(config);
      if (sink != nullptr) {
        cluster.set_observer(Observer(sink, nullptr));
      }
      JobSubmission submission;
      submission.guaranteed_tokens = 40;
      int id = cluster.SubmitJob(f.tmpl, submission);
      cluster.Run();
      benchmark::DoNotOptimize(cluster.result(id).CompletionSeconds());
    }
  };

  auto cluster_cpu_ms = [&](AsyncJsonlSink* sink) {
    double start = thread_cpu_ns();
    run_jobs(sink);
    return (thread_cpu_ns() - start) / 1e6;
  };

  // One sink shared by all reps, warmed before timing: the contract is the
  // STEADY-STATE hot-loop cost, and a cold sink's first pass through each batch
  // buffer pays page faults on first touch (kernel time the producer clock
  // charges to the producer). Flush() + str("") between reps drains the writer
  // and bounds the stream's memory without discarding the warmed spare buffers.
  constexpr int kAsyncTickReps = 31;
  double tick_detached_ns = 1e300;
  double tick_async_ns = 1e300;
  std::vector<double> tick_async_ratios;
  {
    std::ostringstream os;
    AsyncJsonlSink sink(os);
    tick_cpu_ns(&sink);  // warmup: touch every batch buffer once
    sink.Flush();
    os.str("");
    for (int rep = 0; rep < kAsyncTickReps; ++rep) {
      double td;
      double ta;
      if (rep % 2 == 0) {
        td = tick_cpu_ns(nullptr);
        ta = tick_cpu_ns(&sink);
      } else {
        ta = tick_cpu_ns(&sink);
        td = tick_cpu_ns(nullptr);
      }
      sink.Flush();
      os.str("");
      tick_async_ratios.push_back(ta / td);
      tick_detached_ns = std::min(tick_detached_ns, td);
      tick_async_ns = std::min(tick_async_ns, ta);
    }
  }
  double async_tick_overhead_pct = (median(tick_async_ratios) - 1.0) * 100.0;

  constexpr int kAsyncClusterReps = 21;
  double cluster_detached_cpu_ms = 1e300;
  double cluster_async_cpu_ms = 1e300;
  std::vector<double> cluster_async_ratios;
  {
    std::ostringstream os;
    AsyncJsonlSink sink(os);
    cluster_cpu_ms(&sink);  // warmup (see tick loop above)
    sink.Flush();
    os.str("");
    for (int rep = 0; rep < kAsyncClusterReps; ++rep) {
      double cd;
      double ca;
      if (rep % 2 == 0) {
        cd = cluster_cpu_ms(nullptr);
        ca = cluster_cpu_ms(&sink);
      } else {
        ca = cluster_cpu_ms(&sink);
        cd = cluster_cpu_ms(nullptr);
      }
      sink.Flush();
      os.str("");
      cluster_async_ratios.push_back(ca / cd);
      cluster_detached_cpu_ms = std::min(cluster_detached_cpu_ms, cd);
      cluster_async_cpu_ms = std::min(cluster_async_cpu_ms, ca);
    }
  }
  double async_cluster_overhead_pct = (median(cluster_async_ratios) - 1.0) * 100.0;

  // End-to-end traced run: synchronous JsonlSink vs AsyncJsonlSink at its default
  // batch, writer running concurrently. Min over reps; context only.
  auto traced_run_ms = [&](bool async) {
    std::ostringstream os;
    std::optional<JsonlSink> sync_sink;
    std::optional<AsyncJsonlSink> async_sink;
    ObserverSink* sink;
    if (async) {
      async_sink.emplace(os);
      sink = &*async_sink;
    } else {
      sync_sink.emplace(os);
      sink = &*sync_sink;
    }
    auto start = std::chrono::steady_clock::now();
    run_jobs(sink);
    async_sink.reset();  // drain inside the timed region: end-to-end includes the write
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
  };
  double traced_sync_ms = 1e300;
  double traced_async_ms = 1e300;
  for (int rep = 0; rep < 9; ++rep) {
    traced_sync_ms = std::min(traced_sync_ms, traced_run_ms(false));
    traced_async_ms = std::min(traced_async_ms, traced_run_ms(true));
  }

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"hardware_concurrency\": %d,\n"
      "  \"queue\": {\n"
      "    \"hold_pending\": %d,\n"
      "    \"ns_per_event\": {\"legacy_closure\": %.1f, \"typed_heap\": %.1f, "
      "\"calendar\": %.1f},\n"
      "    \"events_per_sec\": {\"legacy_closure\": %.0f, \"typed_heap\": %.0f, "
      "\"calendar\": %.0f},\n"
      "    \"calendar_speedup_vs_legacy\": %.2f,\n"
      "    \"speedup_floor\": 3.0\n"
      "  },\n"
      "  \"cluster\": {\n"
      "    \"run_ms\": {\"calendar\": %.3f},\n"
      "    \"events_per_sec\": {\"calendar\": %.0f},\n"
      "    \"tasks_per_sec\": {\"calendar\": %.0f}\n"
      "  },\n"
      "  \"async_sink\": {\n"
      "    \"methodology\": \"producer-thread CPU time, warmed sink at default batch, "
      "paired-median vs detached\",\n"
      "    \"control_tick_cpu_ns\": {\"detached\": %.1f, \"async_sink\": %.1f},\n"
      "    \"hot_loop_overhead_pct\": %.2f,\n"
      "    \"overhead_budget_pct\": 2.0,\n"
      "    \"cluster_run_cpu_ms\": {\"detached\": %.3f, \"async_sink\": %.3f},\n"
      "    \"cluster_producer_overhead_pct\": %.2f,\n"
      "    \"end_to_end_traced_ms\": {\"jsonl_sync\": %.3f, \"async_default_batch\": %.3f}\n"
      "  }\n"
      "}\n",
      ThreadPool::DefaultThreadCount(), kHoldPending, closure_ns, heap_ns, calendar_ns,
      1e9 / closure_ns, 1e9 / heap_ns, 1e9 / calendar_ns, queue_speedup, cluster_cal_ms / 3.0,
      cluster_cal_eps, cluster_cal_tps, tick_detached_ns, tick_async_ns, async_tick_overhead_pct,
      cluster_detached_cpu_ms / 3.0, cluster_async_cpu_ms / 3.0, async_cluster_overhead_pct,
      traced_sync_ms / 3.0, traced_async_ms / 3.0);
  std::fclose(out);
  std::printf("BENCH_sim.json: queue %.0f ns/event legacy / %.0f ns calendar (%.2fx), "
              "cluster %.2fM events/s, "
              "async sink %+.2f%% tick hot-loop (%+.2f%% cluster producer CPU)\n",
              closure_ns, calendar_ns, queue_speedup, cluster_cal_eps / 1e6,
              async_tick_overhead_pct, async_cluster_overhead_pct);
}

// Wall-clock report for the control-plane decision cache (BENCH_control.json): a
// fleet of controllers ticked through a full run, cached vs uncached. Two bars from
// the decision-cache contract (decision_cache.h): every cached decision must equal
// the uncached controller's (the cache may only skip work, never change a decision
// — "decisions_identical" below), and the cached median tick must not be slower.
// Hit rates are reported so a plateau regression (cache keyed but never serving)
// is visible even while correctness holds.
void WriteControlReport(const char* path) {
  SimFixture& f = Fixture();
  auto indicator = std::shared_ptr<const ProgressIndicator>(
      MakeIndicator(IndicatorKind::kTotalWorkWithQ, f.tmpl.graph, f.profile));
  auto table = std::make_shared<CompletionTable>(BuildCompletionTable(
      f.tmpl.graph, f.profile, *indicator, CompletionModelConfig()));
  constexpr int kControllers = 64;
  constexpr int kTicks = 200;
  const size_t stages = static_cast<size_t>(f.tmpl.graph.num_stages());

  // Every controller sees the same deterministic tick schedule in both variants;
  // deadlines and progress ramps are staggered across the fleet so the run covers
  // many progress buckets and utility shapes, not one hot key.
  auto run_fleet = [&](bool cached, std::vector<double>* tick_ns,
                       std::vector<int>* decisions, DecisionCacheStats* stats) {
    for (int c = 0; c < kControllers; ++c) {
      ControlLoopConfig config;
      config.enable_decision_cache = cached;
      JockeyController controller(indicator, table,
                                  DeadlineUtility(3600.0 + 120.0 * (c % 8)), config);
      JobRuntimeStatus status;
      const double ramp_ticks = static_cast<double>(kTicks + 20 * (c % 5));
      for (int t = 0; t < kTicks; ++t) {
        status.elapsed_seconds = 60.0 * (t + 1);
        status.frac_complete.assign(stages,
                                    std::min(1.0, static_cast<double>(t + 1) / ramp_ticks));
        auto start = std::chrono::steady_clock::now();
        int granted = controller.OnTick(status).guaranteed_tokens;
        tick_ns->push_back(std::chrono::duration<double, std::nano>(
                               std::chrono::steady_clock::now() - start)
                               .count());
        decisions->push_back(granted);
      }
      if (stats != nullptr) {
        const DecisionCacheStats& s = controller.cache_stats();
        stats->column_hits += s.column_hits;
        stats->column_misses += s.column_misses;
        stats->decision_hits += s.decision_hits;
        stats->decision_misses += s.decision_misses;
        stats->invalidations += s.invalidations;
        stats->bypasses += s.bypasses;
      }
    }
  };

  auto median = [](std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return samples.empty() ? 0.0 : samples[samples.size() / 2];
  };

  std::vector<double> uncached_ns, cached_ns;
  std::vector<int> uncached_decisions, cached_decisions;
  DecisionCacheStats stats;
  run_fleet(false, &uncached_ns, &uncached_decisions, nullptr);
  run_fleet(true, &cached_ns, &cached_decisions, &stats);

  bool identical = uncached_decisions == cached_decisions;
  double uncached_median = median(uncached_ns);
  double cached_median = median(cached_ns);
  int64_t decision_lookups = stats.decision_hits + stats.decision_misses;
  int64_t column_lookups = stats.column_hits + stats.column_misses;
  double decision_hit_rate =
      decision_lookups == 0 ? 0.0
                            : static_cast<double>(stats.decision_hits) /
                                  static_cast<double>(decision_lookups);
  double column_hit_rate = column_lookups == 0
                               ? 0.0
                               : static_cast<double>(stats.column_hits) /
                                     static_cast<double>(column_lookups);

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"controllers\": %d,\n"
               "  \"ticks_per_controller\": %d,\n"
               "  \"cache_correct\": %s,\n"
               "  \"tick_median_ns\": {\"uncached\": %.1f, \"cached\": %.1f},\n"
               "  \"cached_speedup\": %.3f,\n"
               "  \"decision_hit_rate\": %.4f,\n"
               "  \"column_hit_rate\": %.4f,\n"
               "  \"stats\": {\"column_hits\": %lld, \"column_misses\": %lld, "
               "\"decision_hits\": %lld, \"decision_misses\": %lld, "
               "\"invalidations\": %lld, \"bypasses\": %lld}\n"
               "}\n",
               kControllers, kTicks, identical ? "true" : "false", uncached_median,
               cached_median, cached_median > 0.0 ? uncached_median / cached_median : 0.0,
               decision_hit_rate, column_hit_rate,
               static_cast<long long>(stats.column_hits),
               static_cast<long long>(stats.column_misses),
               static_cast<long long>(stats.decision_hits),
               static_cast<long long>(stats.decision_misses),
               static_cast<long long>(stats.invalidations),
               static_cast<long long>(stats.bypasses));
  std::fclose(out);
  std::printf("BENCH_control.json: %s, tick median %.0f ns uncached -> %.0f ns cached "
              "(%.2fx), decision hit rate %.1f%%, column hit rate %.1f%%\n",
              identical ? "decisions identical" : "DECISIONS DIVERGED", uncached_median,
              cached_median, cached_median > 0.0 ? uncached_median / cached_median : 0.0,
              100.0 * decision_hit_rate, 100.0 * column_hit_rate);
}

}  // namespace
}  // namespace jockey

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  jockey::WritePrecomputeReport("BENCH_precompute.json");
  jockey::WriteObsReport("BENCH_obs.json");
  jockey::WriteProfileReport("BENCH_profile.json");
  jockey::WriteFaultReport("BENCH_fault.json");
  jockey::WritePostmortemReport("BENCH_postmortem.json");
  jockey::WriteSimReport("BENCH_sim.json");
  jockey::WriteControlReport("BENCH_control.json");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
