// Job algebra: the static structure of a data-parallel job.
//
// A SCOPE/Dryad job compiles to an execution-plan graph whose nodes are *stages* (map,
// reduce, join, aggregate, ...) and whose edges carry data between them (Section 2.1).
// Each stage consists of one or more parallel *tasks* (the paper also calls them
// vertices). Communication between connected stages ranges from one-to-one to
// all-to-all; an all-to-all edge is a *barrier*: no task of the consumer can start
// until every task of the producer has finished.
//
// JobGraph is pure structure — task counts, dependencies, and communication patterns.
// Runtime behaviour (how long tasks take, how often they fail) lives in JobProfile
// (model side) and in the workload generator's ground truth (cluster side).

#ifndef SRC_DAG_JOB_GRAPH_H_
#define SRC_DAG_JOB_GRAPH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace jockey {

// How tasks of a consumer stage depend on tasks of a producer stage.
enum class CommPattern {
  // Task i of the consumer reads the proportional slice of the producer's tasks.
  // With equal task counts this is a 1:1 pipe; with differing counts it models
  // repartitioning without a global barrier.
  kOneToOne,
  // Full shuffle: every consumer task reads from every producer task, so the consumer
  // cannot start until the producer stage completely finishes (a barrier).
  kAllToAll,
};

// An input edge of a stage.
struct StageEdge {
  int from = -1;  // producer stage id
  CommPattern pattern = CommPattern::kOneToOne;
};

// One stage of the execution plan.
struct StageSpec {
  std::string name;
  int num_tasks = 1;
  std::vector<StageEdge> inputs;

  // True if any input is a full shuffle, i.e. the stage starts behind a barrier.
  bool IsBarrier() const;
};

// Identifies one task within a job: stage id plus task index within the stage.
struct TaskId {
  int stage = -1;
  int index = -1;

  bool operator==(const TaskId&) const = default;
};

// The execution-plan graph of one job.
//
// Stage ids are indices into stages(). The graph must be acyclic; Validate() checks
// this along with edge and task-count sanity.
class JobGraph {
 public:
  JobGraph() = default;
  JobGraph(std::string name, std::vector<StageSpec> stages);

  const std::string& name() const { return name_; }
  const std::vector<StageSpec>& stages() const { return stages_; }
  const StageSpec& stage(int id) const { return stages_[static_cast<size_t>(id)]; }
  int num_stages() const { return static_cast<int>(stages_.size()); }

  // Total number of tasks (vertices) across all stages.
  int num_tasks() const;

  // Number of stages with at least one all-to-all input.
  int num_barrier_stages() const;

  // Returns true and clears `error` if the graph is well-formed (non-empty stages,
  // valid edge endpoints, positive task counts, acyclic); otherwise stores a message.
  bool Validate(std::string* error = nullptr) const;

  // Stage ids in a topological order (producers before consumers). Requires a valid
  // acyclic graph.
  std::vector<int> TopologicalOrder() const;

  // Stages with no inputs / no consumers.
  std::vector<int> SourceStages() const;
  std::vector<int> SinkStages() const;

  // Consumers of each stage (inverse of the input edges).
  std::vector<std::vector<int>> ConsumerLists() const;

  // Longest path weight from each stage to the end of the job, where stage s costs
  // per_stage_cost[s]. Ls in the paper's Amdahl-model notation (Section 4.1) uses the
  // longest task execution time as the cost. Returns one value per stage.
  std::vector<double> LongestPathToEnd(const std::vector<double>& per_stage_cost) const;

  // Critical-path length of the whole job under the given per-stage costs: the
  // minimum completion time with infinite resources.
  double CriticalPath(const std::vector<double>& per_stage_cost) const;

  // Producer task indices that consumer task `index` of `stage_id` waits for on input
  // edge `edge`. For kAllToAll this is every producer task; for kOneToOne it is the
  // proportional slice (at least one task).
  std::vector<int> InputTasksFor(int stage_id, int index, const StageEdge& edge) const;
  // The same producer indices as the half-open range [first, second): they are
  // always contiguous, so hot callers need not materialize them.
  std::pair<int, int> InputRange(int stage_id, int index, const StageEdge& edge) const;

  // Graphviz rendering in the style of the paper's Fig 3: triangles for full-shuffle
  // (barrier) stages, node size keyed to task count.
  std::string ToDot() const;

 private:
  std::string name_;
  std::vector<StageSpec> stages_;
};

}  // namespace jockey

#endif  // SRC_DAG_JOB_GRAPH_H_
