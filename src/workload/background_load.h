// Background cluster demand process.
//
// Section 2 attributes job-latency variance to statistical multiplexing: the
// availability of spare tokens fluctuates with what the rest of the cluster is doing,
// and spare-priority tasks are evicted during contention. Rather than simulating
// thousands of background jobs task-by-task, the cluster simulator drives background
// demand with this mean-reverting stochastic process (average utilization defaults to
// the paper's 80%), plus optional overload episodes — random (Poisson) or injected
// deterministically for experiments like Fig 6(a)'s overloaded-cluster run.

#ifndef SRC_WORKLOAD_BACKGROUND_LOAD_H_
#define SRC_WORKLOAD_BACKGROUND_LOAD_H_

#include <vector>

#include "src/util/sim_time.h"
#include "src/util/rng.h"

namespace jockey {

struct BackgroundLoadParams {
  double mean_utilization = 0.8;
  double volatility = 0.05;    // per-step random shock (fraction of capacity)
  double reversion = 0.12;     // per-step pull toward the mean
  double update_period_seconds = 30.0;
  double min_utilization = 0.25;
  double max_utilization = 1.2;  // >1 means background demand alone can fill the cluster
  // Poisson-arriving overload episodes (0 disables them).
  double overload_rate_per_hour = 0.0;
  double overload_utilization = 1.15;
  double overload_duration_seconds = 600.0;
};

// A piecewise-constant utilization process sampled on a fixed grid.
//
// UtilizationAt(t) advances the internal walk up to t and returns the background
// demand as a fraction of total cluster capacity. Calls must use non-decreasing t.
class BackgroundLoad {
 public:
  BackgroundLoad(const BackgroundLoadParams& params, Rng rng);

  // Background demand at time `now` as a fraction of cluster capacity; can exceed 1.
  double UtilizationAt(SimTime now);

  // Forces utilization to `utilization` during [start, start + duration), overriding
  // the random walk. Used to inject deterministic cluster events.
  void AddEpisode(SimTime start, double duration, double utilization);

 private:
  struct Episode {
    SimTime start;
    SimTime end;
    double utilization;
  };

  void StepTo(SimTime now);

  BackgroundLoadParams params_;
  Rng rng_;
  SimTime stepped_until_ = 0.0;
  double current_;
  SimTime next_random_overload_;
  std::vector<Episode> episodes_;
};

}  // namespace jockey

#endif  // SRC_WORKLOAD_BACKGROUND_LOAD_H_
