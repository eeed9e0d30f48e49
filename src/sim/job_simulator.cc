#include "src/sim/job_simulator.h"

#include <algorithm>
#include <cassert>

#include "src/util/calendar_queue.h"

namespace jockey {

namespace {
// Event payload for the typed queue: a flat task id, or kSampleEvent for the
// periodic progress sample.
constexpr int32_t kSampleEvent = -1;
}  // namespace

JobSimulator::JobSimulator(const JobGraph& graph, const JobProfile& profile,
                           JobSimulatorConfig config)
    : graph_(&graph), profile_(&profile), config_(config), tracker_(graph) {
  assert(graph.num_stages() == profile.num_stages());
}

SimRunResult JobSimulator::Run(int allocation, Rng& rng,
                               const ProgressCallback& on_progress) const {
  assert(allocation >= 1);
  int s_count = graph_->num_stages();

  CalendarQueue<int32_t> eq;
  DependencyTracker::State state(tracker_);
  int free_slots = allocation;
  double finish_time = 0.0;

  SimRunResult result;
  result.stage_first_start.assign(static_cast<size_t>(s_count), -1.0);
  result.stage_last_end.assign(static_cast<size_t>(s_count), 0.0);

  // FIFO ready queue (head index avoids O(n) pops).
  std::vector<int> ready;
  ready.reserve(static_cast<size_t>(tracker_.total_tasks()));
  size_t ready_head = 0;

  auto start_task = [&](int task) {
    int s = tracker_.StageOf(task);
    const StageProfile& sp = profile_->stage(s);
    double init = 0.0;
    if (sp.queue_times.count() > 0) {
      init = std::min(sp.queue_times.Sample(rng), config_.init_latency_cap_seconds);
    }
    double total = init;
    // Failed attempts lose a uniform fraction of a (re-sampled) execution; the slot
    // stays occupied throughout, matching restart-in-place semantics.
    int failed = 0;
    while (config_.inject_failures && failed < 4 && rng.Bernoulli(sp.failure_prob)) {
      total += sp.task_runtimes.Sample(rng) * rng.Uniform();
      ++failed;
    }
    total += sp.task_runtimes.Sample(rng);
    if (result.stage_first_start[static_cast<size_t>(s)] < 0.0) {
      result.stage_first_start[static_cast<size_t>(s)] = eq.now();
    }
    eq.ScheduleAfter(total, static_cast<int32_t>(task));
  };

  auto drain_ready = [&]() {
    state.TakeNewlyReadyInto(ready);
    while (free_slots > 0 && ready_head < ready.size()) {
      int task = ready[ready_head++];
      --free_slots;
      start_task(task);
    }
  };

  auto on_task_done = [&](int task) {
    int s = tracker_.StageOf(task);
    ++free_slots;
    result.stage_last_end[static_cast<size_t>(s)] = eq.now();
    state.MarkDone(task);
    if (state.AllDone()) {
      finish_time = eq.now();
    }
    drain_ready();
  };

  auto sample = [&]() {
    if (state.AllDone()) {
      return;
    }
    on_progress(eq.now(), state.FracCompleteAll());
    eq.ScheduleAfter(config_.sample_period_seconds, kSampleEvent);
  };
  if (on_progress) {
    sample();
  }

  drain_ready();
  int32_t ev = 0;
  while (eq.PopNext(ev)) {
    if (ev == kSampleEvent) {
      sample();
    } else {
      on_task_done(ev);
    }
  }
  assert(state.AllDone() && "simulation ended with unfinished tasks");
  // eq.now() may sit past completion if a progress sample fired last; use the time the
  // final task finished.
  result.completion_seconds = finish_time;
  return result;
}

}  // namespace jockey
