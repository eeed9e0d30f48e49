// Tests for the typed event engines (calendar_queue.h): the (when, insertion-seq)
// determinism contract, calendar-specific behavior (overflow, adaptive resize,
// epoch jumps), and lockstep differentials against the reference heap engine on a
// randomized interleaving and on the simulators' fleet-scale hold model.

#include "src/util/calendar_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/util/rng.h"

namespace jockey {
namespace {

TEST(HeapEventQueueTest, PopsInTimeOrderAndAdvancesNow) {
  HeapEventQueue<int> q;
  q.ScheduleAt(5.0, 1);
  q.ScheduleAt(1.0, 2);
  q.ScheduleAt(3.0, 3);
  EXPECT_EQ(q.pending(), 3u);

  int out = -1;
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_EQ(out, 2);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_EQ(out, 3);
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_EQ(out, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_FALSE(q.PopNext(out));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, EqualTimeEventsFireInInsertionOrder) {
  CalendarQueue<int> q;
  q.ScheduleAt(10.0, 1);
  q.ScheduleAt(10.0, 2);
  q.ScheduleAt(5.0, 0);
  q.ScheduleAt(10.0, 3);

  std::vector<int> order;
  int out = -1;
  while (q.PopNext(out)) {
    order.push_back(out);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CalendarQueueTest, ScheduleAfterIsRelativeToCurrentTime) {
  CalendarQueue<int> q;
  q.ScheduleAfter(2.0, 1);
  int out = -1;
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  q.ScheduleAfter(3.0, 2);
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(CalendarQueueTest, FarFutureEventsWaitInOverflowAndStillFireInOrder) {
  // Default geometry: 32 buckets x 1s => events past ~32s go to the overflow heap.
  CalendarQueue<int> q;
  q.ScheduleAt(1.0e9, 1);
  q.ScheduleAt(0.5, 0);
  q.ScheduleAt(5.0e8, 2);
  q.ScheduleAt(1.0e9, 3);  // equal-time tie in the far future

  std::vector<int> order;
  int out = -1;
  while (q.PopNext(out)) {
    order.push_back(out);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 1.0e9);
}

TEST(CalendarQueueTest, EmptyEpochsAreSkippedNotScanned) {
  // One event billions of seconds out: PopNext must jump straight to its epoch.
  CalendarQueue<int> q;
  q.ScheduleAt(7.7e9, 42);
  int out = -1;
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_EQ(out, 42);
  EXPECT_DOUBLE_EQ(q.now(), 7.7e9);
}

TEST(CalendarQueueTest, BucketCountTracksOccupancy) {
  CalendarQueue<int> q(/*bucket_width=*/1.0, /*num_buckets=*/16);
  const size_t initial = q.bucket_count();
  for (int i = 0; i < 500; ++i) {
    q.ScheduleAt(0.5 * i, i);
  }
  EXPECT_GT(q.bucket_count(), initial) << "queue never grew under load";

  int out = -1;
  int expected = 0;
  while (q.PopNext(out)) {
    EXPECT_EQ(out, expected++);  // strictly increasing times => insertion ids in order
  }
  EXPECT_EQ(expected, 500);
  EXPECT_EQ(q.bucket_count(), initial) << "queue never shrank after draining";
}

TEST(CalendarQueueTest, PeriodicRescheduleDuringDrainKeepsExactTimes) {
  // The simulator's tick pattern: pop the event, schedule the next one period out.
  CalendarQueue<int> q;
  const double period = 7.3;
  double expected = period;  // accumulated like the queue accumulates, not i * period
  q.ScheduleAt(period, 0);
  for (int i = 0; i < 200; ++i) {
    int out = -1;
    ASSERT_TRUE(q.PopNext(out));
    EXPECT_EQ(out, i);
    EXPECT_EQ(q.now(), expected);
    if (i + 1 < 200) {
      q.ScheduleAt(q.now() + period, i + 1);
      expected += period;
    }
  }
  EXPECT_TRUE(q.empty());
}

// Pops one event from each engine. They must agree on emptiness, and on the
// (payload, now) pair of every event they fire.
::testing::AssertionResult PopInLockstep(CalendarQueue<int>& cal, HeapEventQueue<int>& heap,
                                         bool& popped) {
  int a = -1;
  int b = -1;
  popped = cal.PopNext(a);
  if (popped != heap.PopNext(b)) {
    return ::testing::AssertionFailure() << "engines disagree on emptiness";
  }
  if (popped && (a != b || cal.now() != heap.now())) {
    return ::testing::AssertionFailure() << "engines diverged: calendar (" << a << ", " << cal.now()
                                         << ") vs heap (" << b << ", " << heap.now() << ")";
  }
  return ::testing::AssertionSuccess();
}

// Drains both engines in lockstep.
void DrainInLockstep(CalendarQueue<int>& cal, HeapEventQueue<int>& heap) {
  for (bool popped = true; popped;) {
    ASSERT_TRUE(PopInLockstep(cal, heap, popped));
  }
  EXPECT_TRUE(cal.empty());
  EXPECT_TRUE(heap.empty());
}

TEST(CalendarQueueTest, LockstepDifferentialAgainstHeapEngine) {
  // Input 1: random interleaving of schedules and pops, mixing second-scale
  // delays, hour-scale far-future tails, and exact-duplicate timestamps.
  {
    SCOPED_TRACE("random interleaving");
    Rng rng(20260808);
    CalendarQueue<int> cal;
    HeapEventQueue<int> heap;
    int next_id = 0;
    double last_dup_when = 0.0;
    for (int step = 0; step < 20000; ++step) {
      double r = rng.Uniform();
      if (r < 0.55) {
        double delay;
        double scale = rng.Uniform();
        if (scale < 0.10) {
          delay = rng.Uniform(0.0, 50000.0);  // far future: overflow path
        } else if (scale < 0.25) {
          delay = 0.0;  // immediate: same-bucket ties
        } else {
          delay = rng.Uniform(0.0, 30.0);
        }
        double when = cal.now() + delay;
        if (scale >= 0.25 && scale < 0.35) {
          when = std::max(cal.now(), last_dup_when);  // exact duplicate timestamp
        }
        last_dup_when = when;
        cal.ScheduleAt(when, next_id);
        heap.ScheduleAt(when, next_id);
        ++next_id;
      } else {
        bool popped = false;
        ASSERT_TRUE(PopInLockstep(cal, heap, popped)) << "at step " << step;
      }
    }
    DrainInLockstep(cal, heap);
  }

  // Input 2: the simulators' traffic, as BENCH_sim.json's hold model drives it.
  // ~128k resident events, each pop schedules one successor after an exponential
  // 5 s gap with a 2% +120 s tail (recovery timers, speculation waits) and a 0.1%
  // +3600 s tail (the machine-failure chain). The fill doubles the bucket count,
  // the tails go through overflow migration, and the drain halves it back.
  {
    SCOPED_TRACE("fleet-scale hold model");
    constexpr int kResident = 131072;
    constexpr int kHoldSteps = 131072;
    Rng rng(4242);
    auto delay = [&rng]() {
      double d = rng.Exponential(5.0);
      double tail = rng.Uniform();
      if (tail < 0.001) {
        d += 3600.0;
      } else if (tail < 0.02) {
        d += 120.0;
      }
      return d;
    };
    CalendarQueue<int> cal;
    HeapEventQueue<int> heap;
    for (int id = 0; id < kResident; ++id) {
      const double when = delay();
      cal.ScheduleAt(when, id);
      heap.ScheduleAt(when, id);
    }
    const size_t filled_buckets = cal.bucket_count();
    EXPECT_GT(filled_buckets, 4096u) << "the fill never doubled the bucket count";
    for (int step = 0; step < kHoldSteps; ++step) {
      bool popped = false;
      ASSERT_TRUE(PopInLockstep(cal, heap, popped)) << "at step " << step;
      ASSERT_TRUE(popped);
      const double when = cal.now() + delay();
      cal.ScheduleAt(when, kResident + step);
      heap.ScheduleAt(when, kResident + step);
    }
    DrainInLockstep(cal, heap);
    EXPECT_LT(cal.bucket_count(), filled_buckets) << "the drain never halved the bucket count";
  }
}

}  // namespace
}  // namespace jockey
