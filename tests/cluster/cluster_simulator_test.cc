#include "src/cluster/cluster_simulator.h"

#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <variant>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/obs/jsonl.h"
#include "src/sim/table_cache.h"
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

JobTemplate SmallJob(uint64_t seed = 50) {
  JobShapeSpec spec;
  spec.name = "small";
  spec.num_stages = 6;
  spec.num_barriers = 1;
  spec.num_vertices = 120;
  spec.job_median_seconds = 4.0;
  spec.job_p90_seconds = 12.0;
  spec.fastest_stage_p90 = 2.0;
  spec.slowest_stage_p90 = 30.0;
  spec.seed = seed;
  return GenerateJob(spec);
}

ClusterConfig QuietCluster(uint64_t seed = 1) {
  ClusterConfig config;
  config.num_machines = 20;
  config.slots_per_machine = 4;
  config.seed = seed;
  config.machine_failure_rate_per_hour = 0.0;
  config.background.mean_utilization = 0.5;
  config.background.volatility = 0.0;
  return config;
}

TEST(ClusterSimulatorTest, JobRunsToCompletion) {
  JobTemplate job = SmallJob();
  ClusterSimulator cluster(QuietCluster());
  JobSubmission submission;
  submission.guaranteed_tokens = 10;
  int id = cluster.SubmitJob(job, submission);
  cluster.Run();
  const ClusterRunResult& r = cluster.result(id);
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.CompletionSeconds(), 0.0);
}

TEST(ClusterSimulatorTest, TraceCoversEveryTaskExactlyOnce) {
  JobTemplate job = SmallJob();
  ClusterSimulator cluster(QuietCluster());
  JobSubmission submission;
  submission.guaranteed_tokens = 8;
  int id = cluster.SubmitJob(job, submission);
  cluster.Run();
  const RunTrace& trace = cluster.result(id).trace;
  EXPECT_EQ(static_cast<int>(trace.tasks.size()), job.graph.num_tasks());
  std::set<std::pair<int, int>> seen;
  for (const auto& t : trace.tasks) {
    EXPECT_TRUE(seen.insert({t.id.stage, t.id.index}).second);
    EXPECT_GE(t.start_time, t.ready_time);
    EXPECT_GT(t.end_time, t.start_time);
  }
}

TEST(ClusterSimulatorTest, DeterministicForSeeds) {
  JobTemplate job = SmallJob();
  double completions[2];
  for (int round = 0; round < 2; ++round) {
    ClusterSimulator cluster(QuietCluster(9));
    JobSubmission submission;
    submission.guaranteed_tokens = 10;
    submission.seed = 77;
    int id = cluster.SubmitJob(job, submission);
    cluster.Run();
    completions[round] = cluster.result(id).CompletionSeconds();
  }
  EXPECT_DOUBLE_EQ(completions[0], completions[1]);
}

TEST(ClusterSimulatorTest, MoreGuaranteedTokensFinishFasterWithoutSpare) {
  JobTemplate job = SmallJob();
  double slow = 0.0;
  double fast = 0.0;
  {
    ClusterSimulator cluster(QuietCluster(3));
    JobSubmission submission;
    submission.guaranteed_tokens = 2;
    submission.use_spare_tokens = false;
    submission.seed = 5;
    int id = cluster.SubmitJob(job, submission);
    cluster.Run();
    slow = cluster.result(id).CompletionSeconds();
  }
  {
    ClusterSimulator cluster(QuietCluster(3));
    JobSubmission submission;
    submission.guaranteed_tokens = 30;
    submission.use_spare_tokens = false;
    submission.seed = 5;
    int id = cluster.SubmitJob(job, submission);
    cluster.Run();
    fast = cluster.result(id).CompletionSeconds();
  }
  EXPECT_LT(fast, slow * 0.5);
}

TEST(ClusterSimulatorTest, GuaranteedOnlyJobUsesNoSpare) {
  JobTemplate job = SmallJob();
  ClusterSimulator cluster(QuietCluster(4));
  JobSubmission submission;
  submission.guaranteed_tokens = 6;
  submission.use_spare_tokens = false;
  int id = cluster.SubmitJob(job, submission);
  cluster.Run();
  EXPECT_DOUBLE_EQ(cluster.result(id).spare_task_fraction, 0.0);
}

TEST(ClusterSimulatorTest, SpareTokensAccelerateOnIdleCluster) {
  JobTemplate job = SmallJob();
  double with_spare = 0.0;
  double without_spare = 0.0;
  for (bool spare : {true, false}) {
    ClusterSimulator cluster(QuietCluster(5));
    JobSubmission submission;
    submission.guaranteed_tokens = 3;
    submission.use_spare_tokens = spare;
    submission.seed = 6;
    int id = cluster.SubmitJob(job, submission);
    cluster.Run();
    (spare ? with_spare : without_spare) = cluster.result(id).CompletionSeconds();
  }
  EXPECT_LT(with_spare, without_spare);
}

TEST(ClusterSimulatorTest, OverloadEvictsSpareTasks) {
  JobTemplate job = SmallJob();
  ClusterSimulator cluster(QuietCluster(6));
  // Force a mid-run overload; spare tasks must be evicted.
  cluster.background().AddEpisode(30.0, 600.0, 1.3);
  JobSubmission submission;
  submission.guaranteed_tokens = 2;
  submission.use_spare_tokens = true;
  int id = cluster.SubmitJob(job, submission);
  cluster.Run();
  EXPECT_GT(cluster.result(id).evictions, 0);
}

TEST(ClusterSimulatorTest, InputScaleStretchesCompletion) {
  JobTemplate job = SmallJob();
  double base = 0.0;
  double scaled = 0.0;
  for (double scale : {1.0, 2.0}) {
    ClusterSimulator cluster(QuietCluster(7));
    JobSubmission submission;
    submission.guaranteed_tokens = 10;
    submission.use_spare_tokens = false;
    submission.input_scale = scale;
    submission.seed = 8;
    int id = cluster.SubmitJob(job, submission);
    cluster.Run();
    (scale == 1.0 ? base : scaled) = cluster.result(id).CompletionSeconds();
  }
  EXPECT_GT(scaled, 1.4 * base);
}

// A controller that records its ticks and follows a fixed schedule.
class ProbeController : public JobController {
 public:
  explicit ProbeController(int tokens) : tokens_(tokens) {}
  ControlDecision OnTick(const JobRuntimeStatus& status) override {
    ticks_.push_back(status);
    return {tokens_, static_cast<double>(tokens_)};
  }
  const std::vector<JobRuntimeStatus>& ticks() const { return ticks_; }

 private:
  int tokens_;
  std::vector<JobRuntimeStatus> ticks_;
};

TEST(ClusterSimulatorTest, ControllerTickedEveryPeriod) {
  JobTemplate job = SmallJob();
  ClusterSimulator cluster(QuietCluster(8));
  ProbeController controller(10);
  JobSubmission submission;
  submission.controller = &controller;
  submission.control_period_seconds = 30.0;
  int id = cluster.SubmitJob(job, submission);
  cluster.Run();
  const auto& ticks = controller.ticks();
  ASSERT_GE(ticks.size(), 2u);
  EXPECT_DOUBLE_EQ(ticks[0].elapsed_seconds, 0.0);
  for (size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_NEAR(ticks[i].elapsed_seconds - ticks[i - 1].elapsed_seconds, 30.0, 1e-6);
    // Observed fractions are monotone between ticks.
    for (size_t s = 0; s < ticks[i].frac_complete.size(); ++s) {
      EXPECT_GE(ticks[i].frac_complete[s], ticks[i - 1].frac_complete[s]);
    }
  }
  EXPECT_TRUE(cluster.result(id).finished);
  // The timeline mirrors the ticks.
  EXPECT_GE(cluster.result(id).timeline.size(), ticks.size());
}

TEST(ClusterSimulatorTest, GuaranteedTokenSecondsIntegratesRequest) {
  JobTemplate job = SmallJob();
  ClusterSimulator cluster(QuietCluster(10));
  ProbeController controller(12);
  JobSubmission submission;
  submission.controller = &controller;
  int id = cluster.SubmitJob(job, submission);
  cluster.Run();
  const ClusterRunResult& r = cluster.result(id);
  EXPECT_NEAR(r.guaranteed_token_seconds, 12.0 * r.CompletionSeconds(),
              12.0 * 120.0 /* one control period of slop */);
}

TEST(ClusterSimulatorTest, MachineFailuresKillAndRecover) {
  JobTemplate job = SmallJob();
  ClusterConfig config = QuietCluster(11);
  config.machine_failure_rate_per_hour = 30.0;  // exaggerated for the test
  config.machine_recovery_seconds = 120.0;
  ClusterSimulator cluster(config);
  JobSubmission submission;
  submission.guaranteed_tokens = 40;
  int id = cluster.SubmitJob(job, submission);
  cluster.Run();
  const ClusterRunResult& r = cluster.result(id);
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.machine_failure_kills, 0);
}

TEST(ClusterSimulatorTest, MultipleJobsShareTheCluster) {
  JobTemplate job_a = SmallJob(60);
  JobTemplate job_b = SmallJob(61);
  ClusterSimulator cluster(QuietCluster(12));
  JobSubmission submission;
  submission.guaranteed_tokens = 10;
  submission.seed = 1;
  int a = cluster.SubmitJob(job_a, submission);
  submission.seed = 2;
  submission.submit_time = 60.0;
  int b = cluster.SubmitJob(job_b, submission);
  cluster.Run();
  EXPECT_TRUE(cluster.result(a).finished);
  EXPECT_TRUE(cluster.result(b).finished);
  EXPECT_GE(cluster.result(b).trace.submit_time, 60.0);
}

TEST(ClusterSimulatorTest, SuperHighGuaranteesServeFirstUnderScarcity) {
  // A cluster with fewer slots than the two jobs' combined guarantees: the SuperHigh
  // job's guarantee is honored in full; the normal job gets the leftovers.
  JobTemplate job_a = SmallJob(70);
  JobTemplate job_b = SmallJob(71);
  ClusterConfig config = QuietCluster(14);
  config.num_machines = 12;
  config.slots_per_machine = 1;  // 12 slots: far below the 10 + 10 combined demand
  config.background.mean_utilization = 0.0;
  config.background.min_utilization = 0.0;
  ClusterSimulator cluster(config);
  JobSubmission high;
  high.guaranteed_tokens = 10;
  high.priority = PriorityClass::kSuperHigh;
  high.use_spare_tokens = false;
  high.seed = 1;
  int id_high = cluster.SubmitJob(job_a, high);
  JobSubmission normal;
  normal.guaranteed_tokens = 10;
  normal.use_spare_tokens = false;
  normal.seed = 2;
  int id_normal = cluster.SubmitJob(job_b, normal);
  cluster.Run();
  EXPECT_TRUE(cluster.result(id_high).finished);
  EXPECT_TRUE(cluster.result(id_normal).finished);
  // The SuperHigh job reaches its full guarantee immediately; the normal job runs on
  // leftovers until the SuperHigh job finishes (40 slots cannot cover 30 + 30), so it
  // finishes substantially later despite identical shape and guarantee.
  EXPECT_GE(cluster.result(id_high).max_parallelism, 9);
  EXPECT_LT(cluster.result(id_high).CompletionSeconds(),
            0.8 * cluster.result(id_normal).CompletionSeconds());
}

TEST(ClusterSimulatorTest, SuperHighNeighborSlowsCoLocatedWork) {
  // The Section 3.1 contention downside: the same victim job runs slower next to a
  // SuperHigh neighbor than next to an identical normal-priority neighbor.
  JobTemplate victim = SmallJob(72);
  JobTemplate neighbor = SmallJob(73);
  double with_normal = 0.0;
  double with_superhigh = 0.0;
  for (bool superhigh : {false, true}) {
    ClusterConfig config = QuietCluster(15);
    config.background.mean_utilization = 0.7;  // busy enough for contention to bite
    ClusterSimulator cluster(config);
    JobSubmission n;
    n.guaranteed_tokens = 30;
    n.priority = superhigh ? PriorityClass::kSuperHigh : PriorityClass::kNormal;
    n.use_spare_tokens = false;
    n.seed = 3;
    cluster.SubmitJob(neighbor, n);
    JobSubmission v;
    v.guaranteed_tokens = 10;
    v.use_spare_tokens = false;
    v.seed = 4;
    int id_victim = cluster.SubmitJob(victim, v);
    cluster.Run();
    (superhigh ? with_superhigh : with_normal) =
        cluster.result(id_victim).CompletionSeconds();
  }
  EXPECT_GT(with_superhigh, with_normal);
}

// Alternates the guarantee between a high and a low value every tick, so the
// demotion and promotion scans in Reschedule run on a live attempt list.
class SeesawController : public JobController {
 public:
  ControlDecision OnTick(const JobRuntimeStatus& /*status*/) override {
    const int tokens = (ticks_++ % 2 == 0) ? 40 : 6;
    return {tokens, static_cast<double>(tokens)};
  }

 private:
  int ticks_ = 0;
};

// One seeded run through every per-event bookkeeping path of the simulator:
// speculative duplicates (some win, the losing copies are killed), Poisson machine
// failures plus a machine_burst window, spare evictions under an overload episode,
// task failures, and a SuperHigh job beside a controlled normal job. The digest
// folds every emitted trace event (its JSONL line, which round-trips doubles
// exactly) and every ClusterRunResult field; any moved scheduler decision or RNG
// draw changes it.
TEST(ClusterSimulatorTest, GoldenEventStreamDigest) {
  JobTemplate normal_job = SmallJob(80);
  JobTemplate superhigh_job = SmallJob(81);
  for (JobTemplate* job : {&normal_job, &superhigh_job}) {
    for (auto& model : job->runtime) {
      model.outlier_prob = 0.12;  // stragglers, so speculation launches copies
      model.outlier_alpha = 1.4;
      model.outlier_cap = 20.0;
      model.task_cap_seconds = 1e9;
      model.failure_prob = 0.04;
    }
  }
  ClusterConfig config = QuietCluster(31);
  config.num_machines = 30;
  config.machine_failure_rate_per_hour = 1.0;
  config.machine_recovery_seconds = 120.0;
  config.background.volatility = 0.05;
  config.enable_speculation = true;
  config.speculation_check_period_seconds = 10.0;
  FaultPlan plan(3);
  plan.Add(FaultPlan::MachineBurst(100.0, 220.0, 5, 6));
  FaultInjector injector(plan);

  VectorSink sink;
  ClusterSimulator cluster(config);
  cluster.set_observer(Observer(&sink, nullptr));
  cluster.set_fault_injector(&injector);
  cluster.background().AddEpisode(150.0, 200.0, 1.2);
  SeesawController controller;
  JobSubmission normal;
  normal.guaranteed_tokens = 20;
  normal.controller = &controller;
  normal.control_period_seconds = 30.0;
  normal.seed = 41;
  JobSubmission superhigh;
  superhigh.guaranteed_tokens = 15;
  superhigh.priority = PriorityClass::kSuperHigh;
  superhigh.submit_time = 20.0;
  superhigh.seed = 42;
  const std::vector<int> ids = {cluster.SubmitJob(normal_job, normal),
                                cluster.SubmitJob(superhigh_job, superhigh)};
  cluster.Run();

  Hasher h;
  h.Add(cluster.events_processed());
  int bursts = 0;
  int poisson_failures = 0;
  for (const TraceEvent& event : sink.events()) {
    h.Add(ToJsonLine(event));
    if (std::holds_alternative<FaultInjectedEvent>(event.payload)) {
      ++bursts;
    } else if (std::holds_alternative<MachineFailureEvent>(event.payload) &&
               event.time_seconds != 100.0) {
      ++poisson_failures;  // the burst downs its machines at t = 100 exactly
    }
  }
  int copy_kills = 0;
  int evictions = 0;
  int task_failures = 0;
  int speculative_wins = 0;
  for (int id : ids) {
    const ClusterRunResult& r = cluster.result(id);
    ASSERT_TRUE(r.finished);
    h.Add(std::string_view(r.trace.job_name)).Add(r.trace.submit_time).Add(r.trace.finish_time);
    h.Add(static_cast<uint64_t>(r.trace.tasks.size()));
    for (const TaskRecord& t : r.trace.tasks) {
      h.Add(t.id.stage).Add(t.id.index).Add(t.ready_time).Add(t.start_time).Add(t.end_time);
      h.Add(t.failed_attempts).Add(t.wasted_seconds);
      if (t.failed_attempts == 0 && t.wasted_seconds > 0.0) {
        ++copy_kills;  // a cancelled duplicate is the only waste without a failure
      }
    }
    h.Add(static_cast<uint64_t>(r.timeline.size()));
    for (const AllocationSample& s : r.timeline) {
      h.Add(s.time).Add(s.guaranteed).Add(s.raw).Add(s.running).Add(s.running_spare);
    }
    h.Add(r.guaranteed_token_seconds).Add(r.evictions).Add(r.task_failures);
    h.Add(r.machine_failure_kills).Add(r.speculative_launched).Add(r.speculative_wins);
    h.Add(r.max_parallelism).Add(r.spare_task_fraction).Add(r.finished);
    evictions += r.evictions;
    task_failures += r.task_failures;
    speculative_wins += r.speculative_wins;
  }

  // Every path the digest is meant to pin actually ran.
  EXPECT_GT(evictions, 0);
  EXPECT_GT(task_failures, 0);
  EXPECT_GT(speculative_wins, 0);
  EXPECT_GT(copy_kills, 0);
  EXPECT_GT(bursts, 0);
  EXPECT_GT(poisson_failures, 0);
  EXPECT_EQ(h.value(), 0x48d86d5ef861de76ull) << std::hex << "0x" << h.value();
}

TEST(ClusterSimulatorTest, MaxParallelismTracksPeak) {
  JobTemplate job = SmallJob(74);
  ClusterSimulator cluster(QuietCluster(16));
  JobSubmission submission;
  submission.guaranteed_tokens = 12;
  submission.use_spare_tokens = false;
  int id = cluster.SubmitJob(job, submission);
  cluster.Run();
  EXPECT_GE(cluster.result(id).max_parallelism, 1);
  EXPECT_LE(cluster.result(id).max_parallelism, 12);
}

}  // namespace
}  // namespace jockey
