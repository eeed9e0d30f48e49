#include "src/dag/dependency_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "src/util/rng.h"
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

JobGraph Pipeline() {
  // 0 (3 tasks) -> 1 (3 tasks, one-to-one) -> 2 (2 tasks, all-to-all barrier)
  std::vector<StageSpec> stages(3);
  stages[0] = {"s0", 3, {}};
  stages[1] = {"s1", 3, {{0, CommPattern::kOneToOne}}};
  stages[2] = {"s2", 2, {{1, CommPattern::kAllToAll}}};
  return JobGraph("pipeline", std::move(stages));
}

TEST(DependencyTrackerTest, FlatIdsRoundTrip) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  EXPECT_EQ(t.total_tasks(), 8);
  for (int s = 0; s < g.num_stages(); ++s) {
    for (int i = 0; i < g.stage(s).num_tasks; ++i) {
      int flat = t.FlatId(s, i);
      EXPECT_EQ(t.StageOf(flat), s);
      EXPECT_EQ(t.IndexOf(flat), i);
    }
  }
}

TEST(DependencyTrackerTest, SourcesAreInitiallyReady) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  DependencyTracker::State state(t);
  auto ready = state.TakeNewlyReady();
  EXPECT_EQ(ready.size(), 3u);  // only stage 0's tasks
  for (int task : ready) {
    EXPECT_EQ(t.StageOf(task), 0);
  }
  // Drained: nothing new until a completion happens.
  EXPECT_TRUE(state.TakeNewlyReady().empty());
}

TEST(DependencyTrackerTest, OneToOneWakesMatchingTask) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  DependencyTracker::State state(t);
  state.TakeNewlyReady();
  state.MarkDone(t.FlatId(0, 1));
  auto ready = state.TakeNewlyReady();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], t.FlatId(1, 1));
}

TEST(DependencyTrackerTest, BarrierWaitsForWholeStage) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  DependencyTracker::State state(t);
  state.TakeNewlyReady();
  // Finish stage 0 entirely and stage 1 partially: stage 2 must stay blocked.
  for (int i = 0; i < 3; ++i) {
    state.MarkDone(t.FlatId(0, i));
  }
  state.TakeNewlyReady();
  state.MarkDone(t.FlatId(1, 0));
  state.MarkDone(t.FlatId(1, 1));
  EXPECT_TRUE(state.TakeNewlyReady().empty());
  // The last stage-1 task completes: both stage-2 tasks release at once.
  state.MarkDone(t.FlatId(1, 2));
  auto ready = state.TakeNewlyReady();
  EXPECT_EQ(ready.size(), 2u);
}

TEST(DependencyTrackerTest, FracCompleteTracksStageProgress) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  DependencyTracker::State state(t);
  state.TakeNewlyReady();
  EXPECT_DOUBLE_EQ(state.FracComplete(0), 0.0);
  state.MarkDone(t.FlatId(0, 0));
  EXPECT_DOUBLE_EQ(state.FracComplete(0), 1.0 / 3.0);
  auto all = state.FracCompleteAll();
  EXPECT_DOUBLE_EQ(all[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(all[1], 0.0);
}

TEST(DependencyTrackerTest, AllDoneAfterEveryTask) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  DependencyTracker::State state(t);
  std::vector<int> todo = state.TakeNewlyReady();
  int done = 0;
  while (!todo.empty()) {
    int task = todo.back();
    todo.pop_back();
    state.MarkDone(task);
    ++done;
    for (int next : state.TakeNewlyReady()) {
      todo.push_back(next);
    }
  }
  EXPECT_EQ(done, t.total_tasks());
  EXPECT_TRUE(state.AllDone());
}

// Property: for any generated job and any execution order consistent with readiness,
// every task eventually becomes ready exactly once and the job drains completely.
class TrackerDrainTest : public ::testing::TestWithParam<int> {};

TEST_P(TrackerDrainTest, RandomOrderDrainsCompletely) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  JobTemplate tmpl = MakeRandomJob("drain", rng);
  DependencyTracker t(tmpl.graph);
  DependencyTracker::State state(t);
  std::vector<int> ready = state.TakeNewlyReady();
  std::set<int> seen(ready.begin(), ready.end());
  int completed = 0;
  while (!ready.empty()) {
    // Complete a random ready task.
    size_t pick = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ready.size()) - 1));
    int task = ready[pick];
    ready.erase(ready.begin() + static_cast<int64_t>(pick));
    state.MarkDone(task);
    ++completed;
    for (int next : state.TakeNewlyReady()) {
      EXPECT_TRUE(seen.insert(next).second) << "task became ready twice";
      ready.push_back(next);
    }
  }
  EXPECT_EQ(completed, t.total_tasks());
  EXPECT_TRUE(state.AllDone());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerDrainTest, ::testing::Range(1, 9));

// The nested-vector wake lists the tracker used to keep, rebuilt from
// JobGraph::InputTasksFor, plus a readiness state over them: the reference the flat
// (CSR) tracker must match consumer for consumer and ready task for ready task.
struct NestedTracker {
  explicit NestedTracker(const DependencyTracker& t) : tracker(t) {
    const JobGraph& g = t.graph();
    one_to_one.resize(static_cast<size_t>(t.total_tasks()));
    barrier.resize(static_cast<size_t>(g.num_stages()));
    wait.assign(static_cast<size_t>(t.total_tasks()), 0);
    stage_done.assign(static_cast<size_t>(g.num_stages()), 0);
    for (int c = 0; c < g.num_stages(); ++c) {
      for (const StageEdge& edge : g.stage(c).inputs) {
        if (edge.pattern == CommPattern::kAllToAll) {
          barrier[static_cast<size_t>(edge.from)].push_back(c);
        }
        for (int i = 0; i < g.stage(c).num_tasks; ++i) {
          if (edge.pattern == CommPattern::kAllToAll) {
            ++wait[static_cast<size_t>(t.FlatId(c, i))];
            continue;
          }
          for (int p : g.InputTasksFor(c, i, edge)) {
            one_to_one[static_cast<size_t>(t.FlatId(edge.from, p))].push_back(t.FlatId(c, i));
            ++wait[static_cast<size_t>(t.FlatId(c, i))];
          }
        }
      }
    }
    for (int task = 0; task < t.total_tasks(); ++task) {
      if (wait[static_cast<size_t>(task)] == 0) {
        ready.push_back(task);
      }
    }
  }

  void Unblock(int task) {
    if (--wait[static_cast<size_t>(task)] == 0) {
      ready.push_back(task);
    }
  }

  void MarkDone(int task) {
    const int s = tracker.StageOf(task);
    if (++stage_done[static_cast<size_t>(s)] == tracker.StageTotal(s)) {
      for (int c : barrier[static_cast<size_t>(s)]) {
        for (int i = 0; i < tracker.StageTotal(c); ++i) {
          Unblock(tracker.FlatId(c, i));
        }
      }
    }
    for (int consumer : one_to_one[static_cast<size_t>(task)]) {
      Unblock(consumer);
    }
  }

  std::vector<int> TakeNewlyReady() {
    std::vector<int> out;
    out.swap(ready);
    return out;
  }

  const DependencyTracker& tracker;
  std::vector<std::vector<int>> one_to_one;  // per flat task
  std::vector<std::vector<int>> barrier;     // per stage
  std::vector<int> wait;
  std::vector<int> stage_done;
  std::vector<int> ready;
};

// Asserts the CSR tracker matches the nested reference on `graph`: every
// producer's consumer list in the same order, and the same ready sequence under a
// seeded random completion order.
void ExpectMatchesNestedReference(const JobGraph& graph, uint64_t seed) {
  DependencyTracker tracker(graph);
  NestedTracker reference(tracker);
  for (int task = 0; task < tracker.total_tasks(); ++task) {
    const std::span<const int> got = tracker.ConsumersOf(task);
    ASSERT_EQ(std::vector<int>(got.begin(), got.end()),
              reference.one_to_one[static_cast<size_t>(task)])
        << graph.name() << ": consumers of task " << task;
  }

  DependencyTracker::State state(tracker);
  Rng rng(seed);
  std::vector<int> ready = state.TakeNewlyReady();
  ASSERT_EQ(ready, reference.TakeNewlyReady()) << graph.name() << ": initial ready set";
  int completed = 0;
  while (!ready.empty()) {
    const size_t pick =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ready.size()) - 1));
    const int task = ready[pick];
    ready.erase(ready.begin() + static_cast<int64_t>(pick));
    state.MarkDone(task);
    reference.MarkDone(task);
    ++completed;
    const std::vector<int> woke = state.TakeNewlyReady();
    ASSERT_EQ(woke, reference.TakeNewlyReady())
        << graph.name() << ": ready order after completing task " << task;
    ready.insert(ready.end(), woke.begin(), woke.end());
  }
  EXPECT_EQ(completed, tracker.total_tasks()) << graph.name();
  EXPECT_TRUE(state.AllDone()) << graph.name();
}

// Which one-to-one shapes a set of graphs contains: narrowing (n_p > n_c),
// widening (n_p < n_c), and one-to-one inputs into a stage behind a barrier.
struct OneToOneShapes {
  bool narrowing = false;
  bool widening = false;
  bool mixed = false;

  void Add(const JobGraph& graph) {
    for (int c = 0; c < graph.num_stages(); ++c) {
      const StageSpec& stage = graph.stage(c);
      for (const StageEdge& edge : stage.inputs) {
        if (edge.pattern != CommPattern::kOneToOne) {
          continue;
        }
        const int n_p = graph.stage(edge.from).num_tasks;
        narrowing |= n_p > stage.num_tasks;
        widening |= n_p < stage.num_tasks;
        mixed |= stage.IsBarrier();
      }
    }
  }
};

TEST(DependencyTrackerCsrTest, MatchesNestedReferenceOnHandBuiltEdges) {
  // One-to-one edges that narrow (7 -> 3), widen (3 -> 8) and stay square, a stage
  // that mixes a one-to-one input with a barrier, and a stage fed one-to-one from
  // two producers.
  std::vector<StageSpec> stages(5);
  stages[0] = {"wide", 7, {}};
  stages[1] = {"narrow", 3, {{0, CommPattern::kOneToOne}}};
  stages[2] = {"widen", 8, {{1, CommPattern::kOneToOne}, {0, CommPattern::kAllToAll}}};
  stages[3] = {"join", 5, {{2, CommPattern::kOneToOne}, {0, CommPattern::kOneToOne}}};
  stages[4] = {"square", 5, {{3, CommPattern::kOneToOne}, {1, CommPattern::kAllToAll}}};
  const JobGraph graph("csr_edges", std::move(stages));
  OneToOneShapes shapes;
  shapes.Add(graph);
  EXPECT_TRUE(shapes.narrowing && shapes.widening && shapes.mixed);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ExpectMatchesNestedReference(graph, seed);
  }
}

TEST(DependencyTrackerCsrTest, MatchesNestedReferenceOnEvaluationAndRandomJobs) {
  OneToOneShapes shapes;
  uint64_t seed = 1;
  for (const JobTemplate& job : MakeEvaluationJobs()) {
    ExpectMatchesNestedReference(job.graph, seed++);
    shapes.Add(job.graph);
  }
  for (uint64_t job_seed = 1; job_seed <= 24; ++job_seed) {
    Rng rng(job_seed);
    JobTemplate job = MakeRandomJob("csr_random", rng);
    ExpectMatchesNestedReference(job.graph, seed++);
    shapes.Add(job.graph);
  }
  // The generators only put all-to-all inputs on barrier stages, so mixed edges
  // come from the hand-built graph alone.
  EXPECT_TRUE(shapes.narrowing);
  EXPECT_TRUE(shapes.widening);
}

}  // namespace
}  // namespace jockey
