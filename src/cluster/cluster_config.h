// Configuration of the simulated shared cluster.
//
// Defaults approximate the paper's environment scaled down: a token-scheduled cluster
// at ~80% average utilization, commodity multi-core machines, spare capacity
// redistributed to pending work, spare tasks evicted under contention, and occasional
// machine failures. The scale (hundreds of slots rather than tens of thousands) keeps
// per-experiment wall-clock small while leaving the 100-token experiment ceiling well
// inside capacity, as in the paper's "guaranteed cluster slice".

#ifndef SRC_CLUSTER_CLUSTER_CONFIG_H_
#define SRC_CLUSTER_CLUSTER_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/workload/background_load.h"

namespace jockey {

struct ClusterConfig {
  int num_machines = 50;
  int slots_per_machine = 4;
  // Persistent per-machine speed factor: log-normal with this sigma around 1.
  double machine_speed_sigma = 0.08;
  // Tasks started while cluster utilization exceeds the threshold run slower:
  // slowdown = 1 + slope * max(0, utilization - threshold).
  double contention_threshold = 0.75;
  double contention_slope = 0.8;
  // Machine-level failures: Poisson per machine; a failed machine kills its running
  // tasks and returns after the recovery time.
  double machine_failure_rate_per_hour = 0.01;
  double machine_recovery_seconds = 900.0;
  // Dispatch latency once a token is granted (process start, binary/data fetch):
  // sampled as scheduling_delay * (0.5 + Exponential(1)).
  double scheduling_delay_seconds = 3.0;
  // Speculative execution of stragglers (Section 4.4 lists the "aggressiveness of
  // mitigating stragglers" as an additional control knob; Mantri-style duplicates).
  // A running task that exceeds speculation_slowdown times its stage's mean observed
  // execution time gets one duplicate at spare priority; the first copy to finish
  // wins and the other is cancelled.
  bool enable_speculation = false;
  double speculation_slowdown = 2.5;
  int speculation_min_samples = 5;  // completed tasks needed before the stage has a baseline
  double speculation_check_period_seconds = 30.0;
  int speculation_max_per_task = 2;  // lifetime duplicate budget per task
  // Extra contention a running SuperHigh task imposes on everyone else (it wins every
  // local resource conflict, degrading co-located tasks): each SuperHigh slot adds
  // this many slot-equivalents of pressure. Section 3.1's "increases contention for
  // local resources ... negative impact on regular jobs".
  double superhigh_pressure_factor = 2.0;
  // Background (rest-of-cluster) demand process.
  BackgroundLoadParams background;
  uint64_t seed = 1;

  int TotalSlots() const { return num_machines * slots_per_machine; }
};

// Empty string when the config is sane; otherwise the first problem found
// (non-positive machine/slot counts, negative rates or delays, background
// utilization outside [0, 1]). ClusterSimulator's constructor calls this and
// throws std::invalid_argument — a bad config fails fast at construction instead
// of producing a silently nonsensical simulation.
std::string ValidateClusterConfig(const ClusterConfig& config);

}  // namespace jockey

#endif  // SRC_CLUSTER_CLUSTER_CONFIG_H_
