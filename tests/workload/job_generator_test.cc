#include "src/workload/job_generator.h"

#include <gtest/gtest.h>

#include <ostream>

#include "src/util/stats.h"

namespace jockey {

// gtest prints a parameter it cannot format as its raw bytes, whose first word is
// the heap address of `name`'s buffer, so the ctest names found at build time moved
// with ASLR and the build path. Print the job name in gtest's "N-byte object <...>"
// form instead (the same printer as evaluation_sweep_test.cc).
static void PrintTo(const JobShapeSpec& spec, std::ostream* os) {
  *os << sizeof(spec) << "-byte object <" << spec.name << ">";
}

namespace {

// Table 2 structural counts must be reproduced exactly.
class EvaluationJobShapeTest : public ::testing::TestWithParam<JobShapeSpec> {};

TEST_P(EvaluationJobShapeTest, StructuralCountsMatchTable2) {
  const JobShapeSpec& spec = GetParam();
  JobTemplate tmpl = GenerateJob(spec);
  EXPECT_EQ(tmpl.graph.num_stages(), spec.num_stages);
  EXPECT_EQ(tmpl.graph.num_tasks(), spec.num_vertices);
  EXPECT_EQ(tmpl.graph.num_barrier_stages(), spec.num_barriers);
  EXPECT_DOUBLE_EQ(tmpl.data_read_gb, spec.data_read_gb);
  std::string error;
  EXPECT_TRUE(tmpl.graph.Validate(&error)) << error;
}

TEST_P(EvaluationJobShapeTest, RuntimeQuantilesNearTargets) {
  const JobShapeSpec& spec = GetParam();
  JobTemplate tmpl = GenerateJob(spec);
  // Sample the job-level task-runtime mixture and compare with the Table 2 targets.
  Rng rng(999);
  EmpiricalDistribution dist;
  int total = tmpl.graph.num_tasks();
  for (int s = 0; s < tmpl.graph.num_stages(); ++s) {
    int draws = std::max(1, tmpl.graph.stage(s).num_tasks * 8000 / total);
    for (int d = 0; d < draws; ++d) {
      dist.Add(tmpl.runtime[static_cast<size_t>(s)].SampleSeconds(rng));
    }
  }
  // Generator calibration is statistical; require the right ballpark. The p90 lower
  // bound is loose because straggler truncation (task_cap_seconds) deliberately
  // compresses the extreme tails of the heaviest jobs (B, E) to keep critical paths
  // at the paper's scale.
  EXPECT_GT(dist.Quantile(0.5), spec.job_median_seconds / 1.6);
  EXPECT_LT(dist.Quantile(0.5), spec.job_median_seconds * 1.6);
  EXPECT_GT(dist.Quantile(0.9), spec.job_p90_seconds / 3.2);
  EXPECT_LT(dist.Quantile(0.9), spec.job_p90_seconds * 2.0);
}

TEST_P(EvaluationJobShapeTest, GenerationIsDeterministic) {
  const JobShapeSpec& spec = GetParam();
  JobTemplate a = GenerateJob(spec);
  JobTemplate b = GenerateJob(spec);
  ASSERT_EQ(a.graph.num_stages(), b.graph.num_stages());
  for (int s = 0; s < a.graph.num_stages(); ++s) {
    EXPECT_EQ(a.graph.stage(s).num_tasks, b.graph.stage(s).num_tasks);
    EXPECT_DOUBLE_EQ(a.runtime[static_cast<size_t>(s)].median_seconds,
                     b.runtime[static_cast<size_t>(s)].median_seconds);
  }
}

INSTANTIATE_TEST_SUITE_P(TableTwoJobs, EvaluationJobShapeTest,
                         ::testing::ValuesIn(EvaluationJobSpecs()),
                         [](const ::testing::TestParamInfo<JobShapeSpec>& param_info) {
                           return param_info.param.name;
                         });

TEST(JobGeneratorTest, JobBHasNoBarriers) {
  JobTemplate b = GenerateJob(JobSpecB());
  EXPECT_EQ(b.graph.num_barrier_stages(), 0);
}

TEST(JobGeneratorTest, EveryStageHasAtLeastOneTask) {
  for (const auto& spec : EvaluationJobSpecs()) {
    JobTemplate tmpl = GenerateJob(spec);
    for (const auto& stage : tmpl.graph.stages()) {
      EXPECT_GE(stage.num_tasks, 1);
    }
  }
}

TEST(JobGeneratorTest, ExpectedTotalWorkMatchesSampledWork) {
  JobTemplate tmpl = GenerateJob(JobSpecA());
  double expected = tmpl.ExpectedTotalWorkSeconds();
  Rng rng(5);
  double sampled = 0.0;
  const int kRounds = 30;
  for (int r = 0; r < kRounds; ++r) {
    for (int s = 0; s < tmpl.graph.num_stages(); ++s) {
      for (int i = 0; i < tmpl.graph.stage(s).num_tasks; ++i) {
        sampled += tmpl.runtime[static_cast<size_t>(s)].SampleSeconds(rng);
      }
    }
  }
  sampled /= kRounds;
  EXPECT_NEAR(sampled / expected, 1.0, 0.25);
}

TEST(JobGeneratorTest, RandomJobsAreValidAndWithinBounds) {
  Rng rng(77);
  RandomJobParams params;
  for (int i = 0; i < 20; ++i) {
    JobTemplate tmpl = MakeRandomJob("rand" + std::to_string(i), rng, params);
    std::string error;
    EXPECT_TRUE(tmpl.graph.Validate(&error)) << error;
    EXPECT_GE(tmpl.graph.num_stages(), params.min_stages);
    EXPECT_LE(tmpl.graph.num_stages(), params.max_stages);
    EXPECT_LE(tmpl.graph.num_tasks(), params.max_vertices);
    EXPECT_EQ(static_cast<int>(tmpl.runtime.size()), tmpl.graph.num_stages());
  }
}

TEST(StageRuntimeModelTest, BodyQuantileMatchesSampling) {
  StageRuntimeModel m;
  m.median_seconds = 10.0;
  m.sigma = 0.6;
  m.outlier_prob = 0.0;  // isolate the log-normal body
  m.failure_prob = 0.0;
  Rng rng(8);
  EmpiricalDistribution d;
  for (int i = 0; i < 40000; ++i) {
    d.Add(m.SampleSeconds(rng));
  }
  EXPECT_NEAR(d.Quantile(0.5), m.BodyQuantile(0.5), 0.5);
  EXPECT_NEAR(d.Quantile(0.9), m.BodyQuantile(0.9), 1.2);
}

TEST(StageRuntimeModelTest, OutliersOnlyInflate) {
  StageRuntimeModel base;
  base.median_seconds = 5.0;
  base.sigma = 0.5;
  base.outlier_prob = 0.0;
  StageRuntimeModel outliery = base;
  outliery.outlier_prob = 0.3;
  Rng r1(9);
  Rng r2(9);
  RunningStats s1;
  RunningStats s2;
  for (int i = 0; i < 20000; ++i) {
    s1.Add(base.SampleSeconds(r1));
    s2.Add(outliery.SampleSeconds(r2));
  }
  EXPECT_GT(s2.mean(), s1.mean());
}

TEST(StageRuntimeModelTest, SamplesHaveFloor) {
  StageRuntimeModel m;
  m.median_seconds = 0.01;  // absurdly fast stage
  m.sigma = 0.5;
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(m.SampleSeconds(rng), 0.2);
  }
}

}  // namespace
}  // namespace jockey
