#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/cluster_simulator.h"
#include "src/dag/profile.h"
#include "src/dag/trace.h"
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

TEST(TraceIoTest, SaveLoadRoundTrip) {
  RunTrace trace;
  trace.job_name = "roundtrip";
  trace.submit_time = 10.0;
  trace.finish_time = 110.5;
  trace.tasks.push_back({{0, 0}, 10.0, 12.5, 30.0, 1, 4.25});
  trace.tasks.push_back({{1, 3}, 30.0, 31.0, 110.5, 0, 0.0});

  std::stringstream ss;
  trace.Save(ss);
  RunTrace loaded = RunTrace::Load(ss);

  EXPECT_EQ(loaded.job_name, "roundtrip");
  EXPECT_DOUBLE_EQ(loaded.submit_time, 10.0);
  EXPECT_DOUBLE_EQ(loaded.finish_time, 110.5);
  ASSERT_EQ(loaded.tasks.size(), 2u);
  EXPECT_EQ(loaded.tasks[0].id.stage, 0);
  EXPECT_EQ(loaded.tasks[0].id.index, 0);
  EXPECT_DOUBLE_EQ(loaded.tasks[0].start_time, 12.5);
  EXPECT_EQ(loaded.tasks[0].failed_attempts, 1);
  EXPECT_DOUBLE_EQ(loaded.tasks[0].wasted_seconds, 4.25);
  EXPECT_DOUBLE_EQ(loaded.tasks[1].end_time, 110.5);
}

TEST(TraceIoTest, RealClusterTraceSurvivesRoundTrip) {
  JobShapeSpec spec;
  spec.name = "io";
  spec.num_stages = 5;
  spec.num_barriers = 1;
  spec.num_vertices = 100;
  spec.seed = 3;
  JobTemplate job = GenerateJob(spec);
  ClusterConfig config;
  config.seed = 2;
  config.background.volatility = 0.0;
  config.background.mean_utilization = 0.5;
  ClusterSimulator cluster(config);
  JobSubmission submission;
  submission.guaranteed_tokens = 10;
  int id = cluster.SubmitJob(job, submission);
  cluster.Run();
  const RunTrace& original = cluster.result(id).trace;

  std::stringstream ss;
  original.Save(ss);
  RunTrace loaded = RunTrace::Load(ss);
  ASSERT_EQ(loaded.tasks.size(), original.tasks.size());
  EXPECT_DOUBLE_EQ(loaded.CompletionSeconds(), original.CompletionSeconds());
  EXPECT_DOUBLE_EQ(loaded.TotalWorkSeconds(), original.TotalWorkSeconds());
  // A profile built from the reloaded trace is identical.
  JobProfile a = JobProfile::FromTrace(job.graph, original);
  JobProfile b = JobProfile::FromTrace(job.graph, loaded);
  for (int s = 0; s < a.num_stages(); ++s) {
    EXPECT_DOUBLE_EQ(a.stage(s).total_exec_seconds, b.stage(s).total_exec_seconds);
    EXPECT_DOUBLE_EQ(a.stage(s).max_task_seconds, b.stage(s).max_task_seconds);
  }
}

// The byte reference for RunTrace's text: an ostream at precision(17), which is how
// existing trace files were written. The to_chars writer must match it exactly.
std::string ReferenceText(const RunTrace& trace) {
  std::ostringstream os;
  os.precision(17);
  os << "jockey_trace_v1 " << trace.job_name << " " << trace.submit_time << " "
     << trace.finish_time << " " << trace.tasks.size() << "\n";
  for (const auto& t : trace.tasks) {
    os << t.id.stage << " " << t.id.index << " " << t.ready_time << " " << t.start_time << " "
       << t.end_time << " " << t.failed_attempts << " " << t.wasted_seconds << "\n";
  }
  return os.str();
}

// Doubles whose %.17g spelling is easy to get wrong: signed zero, subnormals,
// extreme exponents, integral values (with and without an exponent), and values
// that need all 17 significant digits.
std::vector<double> AwkwardDoubles() {
  return {-0.0,
          0.0,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::nextafter(std::numeric_limits<double>::min(), 0.0),  // largest subnormal
          std::numeric_limits<double>::min(),
          1e300,
          -1e300,
          1e-300,
          -1e-300,
          std::numeric_limits<double>::max(),
          1.0,
          42.0,
          -7.0,
          123456789.0,
          1e16,
          1e17,
          9007199254740993.0,
          0.1,
          0.1 + 0.2,
          1.0 / 3.0,
          2.0 / 3.0,
          std::nextafter(1.0, 2.0),
          3.141592653589793,
          86399.999999999985,
          1e-5,
          123456.78901234567};
}

RunTrace AwkwardTrace(size_t num_tasks) {
  const std::vector<double> values = AwkwardDoubles();
  const std::vector<int> ints = {0, 1, -1, 9, 10, 12345, INT_MAX, INT_MIN};
  auto value = [&](size_t i) { return values[i % values.size()]; };
  RunTrace trace;
  trace.job_name = "awkward_job";
  trace.submit_time = -0.0;
  trace.finish_time = 1e300;
  trace.tasks.resize(num_tasks);
  for (size_t i = 0; i < num_tasks; ++i) {
    TaskRecord& t = trace.tasks[i];
    t.id = {ints[i % ints.size()], static_cast<int>(i)};
    t.ready_time = value(i);
    t.start_time = value(i + 1);
    t.end_time = value(i + 2);
    t.failed_attempts = ints[(i + 3) % ints.size()];
    t.wasted_seconds = value(i + 5);
  }
  return trace;
}

// Byte equality that reports the first difference, not two multi-megabyte strings.
testing::AssertionResult SameText(const std::string& got, const std::string& want) {
  if (got == want) {
    return testing::AssertionSuccess();
  }
  size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) {
    ++at;
  }
  const size_t from = at < 40 ? 0 : at - 40;
  return testing::AssertionFailure()
         << "first difference at byte " << at << " of " << got.size() << " vs " << want.size()
         << ":\n got: " << got.substr(from, 80) << "\nwant: " << want.substr(from, 80);
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(TraceIoTest, ToCharsWriterMatchesPrecision17StreamByteForByte) {
  for (size_t num_tasks : {size_t{0}, size_t{1}, size_t{27}, size_t{100003}}) {
    const RunTrace trace = AwkwardTrace(num_tasks);
    const std::string reference = ReferenceText(trace);
    EXPECT_TRUE(SameText(trace.ToText(), reference)) << num_tasks << " tasks";
    std::ostringstream saved;
    trace.Save(saved);
    EXPECT_TRUE(SameText(saved.str(), reference)) << num_tasks << " tasks";
  }
}

TEST(TraceIoTest, SavedTextRoundTripsEveryBit) {
  const RunTrace trace = AwkwardTrace(1000);
  std::stringstream ss;
  trace.Save(ss);
  const RunTrace loaded = RunTrace::Load(ss);
  EXPECT_EQ(loaded.job_name, trace.job_name);
  EXPECT_TRUE(SameBits(loaded.submit_time, trace.submit_time));
  EXPECT_TRUE(SameBits(loaded.finish_time, trace.finish_time));
  ASSERT_EQ(loaded.tasks.size(), trace.tasks.size());
  for (size_t i = 0; i < trace.tasks.size(); ++i) {
    const TaskRecord& a = trace.tasks[i];
    const TaskRecord& b = loaded.tasks[i];
    EXPECT_EQ(a.id, b.id) << "task " << i;
    EXPECT_EQ(a.failed_attempts, b.failed_attempts) << "task " << i;
    EXPECT_TRUE(SameBits(a.ready_time, b.ready_time)) << "task " << i;
    EXPECT_TRUE(SameBits(a.start_time, b.start_time)) << "task " << i;
    EXPECT_TRUE(SameBits(a.end_time, b.end_time)) << "task " << i;
    EXPECT_TRUE(SameBits(a.wasted_seconds, b.wasted_seconds)) << "task " << i;
  }
  EXPECT_TRUE(SameText(loaded.ToText(), trace.ToText()));
}

}  // namespace
}  // namespace jockey
