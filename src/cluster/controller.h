// The attach point between the cluster and a resource-allocation policy.
//
// Section 4.3: the control loop observes the fraction of completed tasks per stage
// and the time the job has spent running, and outputs a guaranteed-token allocation.
// The cluster simulator invokes the registered JobController once per control period
// with exactly those observables — a policy cannot see ground truth (task runtime
// models, background demand), matching what a real job manager can observe.

#ifndef SRC_CLUSTER_CONTROLLER_H_
#define SRC_CLUSTER_CONTROLLER_H_

#include <vector>

#include "src/util/sim_time.h"

namespace jockey {

// What a policy can observe about its job at a control tick.
struct JobRuntimeStatus {
  SimTime now = 0.0;
  double elapsed_seconds = 0.0;       // time since job submission (t_r in the paper)
  std::vector<double> frac_complete;  // f_s per stage
  int guaranteed_tokens = 0;          // current guarantee
  int running_tasks = 0;
  int pending_tasks = 0;
  int completed_tasks = 0;
  int total_tasks = 0;
  // Progress-report health (fault injection, fault_plan.h). When false, the
  // fractions above are a stale snapshot `report_age_seconds` old — a hardened
  // policy can react (hold, then escalate); a naive one can't tell the difference.
  bool report_fresh = true;
  double report_age_seconds = 0.0;
};

// A policy's output for one control tick.
struct ControlDecision {
  // New guaranteed-token count; the cluster clamps to the job's configured maximum.
  int guaranteed_tokens = 0;
  // The raw (pre-hysteresis, pre-dead-zone) desired allocation, recorded in the
  // allocation timeline; Fig 6 plots it alongside the smoothed allocation.
  double raw_allocation = 0.0;
  // Optional model telemetry for the time-series recorder. Negative means "no
  // prediction": baselines without a completion model leave both defaulted, and
  // the recorder then tracks deadline slack from elapsed time alone.
  double progress = -1.0;
  double predicted_remaining_seconds = -1.0;
};

// Interface implemented by every allocation policy (Jockey and the baselines).
class JobController {
 public:
  virtual ~JobController() = default;
  virtual ControlDecision OnTick(const JobRuntimeStatus& status) = 0;
  // Invoked once when the job completes; multi-job policies use it to release the
  // job's tokens immediately rather than waiting for a tick that never comes.
  virtual void OnFinished(SimTime /*now*/) {}
};

// One point of a job's allocation timeline (the curves of Fig 6).
struct AllocationSample {
  SimTime time = 0.0;
  int guaranteed = 0;
  double raw = 0.0;
  int running = 0;
  int running_spare = 0;
};

}  // namespace jockey

#endif  // SRC_CLUSTER_CONTROLLER_H_
