// Inter-job dependency graph generator (Section 2.5, Fig 1).
//
// The paper examines three days of production jobs and infers a dependence whenever a
// job's input contains blocks written by an earlier job. That trace is proprietary;
// this generator synthesizes a job population whose dependency structure has the same
// qualitative properties: power-law dependent counts (preferential attachment), short
// start gaps after a producer finishes, long chains, and chains spanning business
// groups. bench_fig1_dependencies prints the four CDFs of Fig 1.

#ifndef SRC_WORKLOAD_DEPENDENCY_GRAPH_H_
#define SRC_WORKLOAD_DEPENDENCY_GRAPH_H_

#include <vector>

#include "src/util/sim_time.h"
#include "src/util/rng.h"

namespace jockey {

struct DependencyGraphParams {
  int num_jobs = 20000;
  double window_hours = 72.0;  // the paper's three-day observation window
  int num_groups = 40;         // business groups sharing the cluster
  // Fraction of jobs that consume the output of at least one earlier job (the paper
  // reports 10.2%).
  double frac_with_inputs = 0.102;
  int max_inputs = 3;
  // Probability an input is chosen by preferential attachment (via a random existing
  // edge) rather than uniformly; higher values produce heavier-tailed dependent
  // counts.
  double pref_attach_prob = 0.9;
  // Probability an input extends a pipeline: the producer is drawn from recent jobs
  // that themselves have inputs, creating the long dependent chains of Fig 1.
  double chain_prob = 0.35;
  // Log-normal gap between a producer finishing and a dependent starting; the paper's
  // median gap is ten minutes.
  double median_gap_minutes = 10.0;
  double gap_sigma = 1.6;
};

// One synthesized job in the window.
struct DependencyJobNode {
  SimTime start = 0.0;
  SimTime finish = 0.0;
  int group = 0;
  std::vector<int> inputs;  // indices of producer jobs
};

// The synthesized population plus the Fig 1 measurements.
class DependencyGraph {
 public:
  static DependencyGraph Generate(const DependencyGraphParams& params, Rng& rng);

  const std::vector<DependencyJobNode>& jobs() const { return jobs_; }

  // Gap in minutes between each producer's finish and its direct dependents' starts
  // (one sample per edge). Fig 1, blue curve.
  std::vector<double> DependentGapsMinutes() const;

  // For each job with at least one dependent: length (in jobs) of the longest chain
  // of dependents starting at it. Fig 1, green curve.
  std::vector<double> ChainLengths() const;

  // For each job with at least one dependent: number of jobs transitively using its
  // output. Fig 1, violet curve.
  std::vector<double> TransitiveDependentCounts() const;

  // For each job with at least one dependent: number of distinct business groups
  // among its transitive dependents. Fig 1, red curve.
  std::vector<double> DependentGroupCounts() const;

 private:
  std::vector<std::vector<int>> DependentLists() const;

  std::vector<DependencyJobNode> jobs_;
};

}  // namespace jockey

#endif  // SRC_WORKLOAD_DEPENDENCY_GRAPH_H_
