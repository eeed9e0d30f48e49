// Calibration regression guard: the paper's headline result, asserted per job.
//
// For every Table 2 evaluation job, Jockey must meet the suggested long deadline on
// (almost) every seed, and its requested allocation must stay meaningfully below the
// max-allocation policy's. If a change to the generator, cluster, model, or control
// loop breaks the reproduction's shape, this sweep is what catches it.

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/workload/job_generator.h"

namespace jockey {

// gtest prints a parameter it cannot format as its raw bytes, and those bytes start
// with the heap address of `name`'s buffer, so the ctest names found at build time
// changed from one build to the next. Keep gtest's "N-byte object <...>" form, which
// leaves existing test names unchanged up to the bytes, but print the job name.
static void PrintTo(const JobShapeSpec& spec, std::ostream* os) {
  *os << sizeof(spec) << "-byte object <" << spec.name << ">";
}

namespace {

class EvaluationSweepTest : public ::testing::TestWithParam<JobShapeSpec> {
 protected:
  TrainedJob Train() const {
    TrainingOptions options;
    options.seed = GetParam().seed + 500;
    return TrainJob(GenerateJob(GetParam()), options);
  }
};

TEST_P(EvaluationSweepTest, JockeyMeetsLongDeadline) {
  TrainedJob trained = Train();
  double deadline = SuggestDeadlineSeconds(trained, /*tight=*/false);
  int met = 0;
  const int kSeeds = 3;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ExperimentOptions options;
    options.deadline_seconds = deadline;
    options.policy = PolicyKind::kJockey;
    options.seed = seed * 131 + GetParam().seed;
    ExperimentResult r = RunExperiment(trained, options);
    EXPECT_TRUE(r.run.finished);
    met += r.met_deadline ? 1 : 0;
  }
  EXPECT_EQ(met, kSeeds) << GetParam().name << " missed its long deadline";
}

TEST_P(EvaluationSweepTest, JockeyImpactBelowMaxAllocation) {
  // The Fig 4 impact metric: fraction of the requested allocation above the oracle
  // allocation. Jockey must sit clearly below the max-allocation policy.
  TrainedJob trained = Train();
  double deadline = SuggestDeadlineSeconds(trained, /*tight=*/true);
  double jockey_above = 0.0;
  double max_above = 0.0;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    ExperimentOptions options;
    options.deadline_seconds = deadline;
    options.seed = seed * 31 + GetParam().seed;
    options.policy = PolicyKind::kJockey;
    jockey_above += RunExperiment(trained, options).frac_above_oracle;
    options.policy = PolicyKind::kMaxAllocation;
    max_above += RunExperiment(trained, options).frac_above_oracle;
  }
  EXPECT_LT(jockey_above, max_above) << GetParam().name;
}

TEST_P(EvaluationSweepTest, DeadlinesAreFeasibleForMaxAllocation) {
  TrainedJob trained = Train();
  double deadline = SuggestDeadlineSeconds(trained, /*tight=*/true);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ExperimentOptions options;
    options.deadline_seconds = deadline;
    options.policy = PolicyKind::kMaxAllocation;
    options.seed = seed * 53 + GetParam().seed;
    ExperimentResult r = RunExperiment(trained, options);
    EXPECT_TRUE(r.met_deadline)
        << GetParam().name << " short deadline infeasible even at max allocation ("
        << r.latency_ratio << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(TableTwoJobs, EvaluationSweepTest,
                         ::testing::ValuesIn(EvaluationJobSpecs()),
                         [](const ::testing::TestParamInfo<JobShapeSpec>& param_info) {
                           return param_info.param.name;
                         });

}  // namespace
}  // namespace jockey
