// Task-readiness bookkeeping shared by both simulators.
//
// Given a JobGraph, DependencyTracker precomputes, once, the wake-up lists implied by
// the stage edges: one-to-one edges wake specific consumer tasks, full-shuffle
// (barrier) edges wake every task of the consumer stage only when the producer stage
// fully completes. A State instance then tracks one execution's completion progress.
//
// The one-to-one lists are stored flat (CSR): one offsets array over producer tasks
// and one array of consumer tasks, built in two passes over the same loop, so a job
// with thousands of tasks costs two allocations rather than one small vector per
// task, and MarkDone walks contiguous memory.
//
// Used by Jockey's offline job simulator (src/sim/) and by the cluster simulator's
// per-job manager (src/cluster/) so both enforce identical DAG semantics.

#ifndef SRC_DAG_DEPENDENCY_TRACKER_H_
#define SRC_DAG_DEPENDENCY_TRACKER_H_

#include <span>
#include <vector>

#include "src/dag/job_graph.h"

namespace jockey {

class DependencyTracker {
 public:
  explicit DependencyTracker(const JobGraph& graph);

  const JobGraph& graph() const { return *graph_; }
  int total_tasks() const { return total_tasks_; }
  int FlatId(int stage, int index) const {
    return task_base_[static_cast<size_t>(stage)] + index;
  }
  int StageOf(int flat_task) const { return stage_of_[static_cast<size_t>(flat_task)]; }
  int IndexOf(int flat_task) const {
    return flat_task - task_base_[static_cast<size_t>(StageOf(flat_task))];
  }
  int StageTotal(int stage) const { return stage_total_[static_cast<size_t>(stage)]; }
  // Consumer tasks that one-to-one edges wake when `flat_task` completes, in wake
  // order (consumer stage, then input edge, then consumer task).
  std::span<const int> ConsumersOf(int flat_task) const {
    const auto begin = static_cast<size_t>(consumer_begin_[static_cast<size_t>(flat_task)]);
    const auto end = static_cast<size_t>(consumer_begin_[static_cast<size_t>(flat_task) + 1]);
    return std::span<const int>(consumers_).subspan(begin, end - begin);
  }

  // Completion state of one execution.
  class State {
   public:
    explicit State(const DependencyTracker& tracker);

    // Marks a task's successful completion; newly unblocked tasks are appended to the
    // internal ready list. Each task must be marked done exactly once.
    void MarkDone(int flat_task);

    // Drains and returns tasks that became ready since the last call (including the
    // initially ready source tasks on the first call).
    std::vector<int> TakeNewlyReady();

    // Allocation-free variant: appends the drained tasks to `out` (not cleared).
    // The cluster simulator's event loop calls this with a reused scratch vector.
    void TakeNewlyReadyInto(std::vector<int>& out);

    bool AllDone() const { return done_total_ == tracker_->total_tasks(); }
    int done_total() const { return done_total_; }
    int StageDone(int stage) const { return stage_done_[static_cast<size_t>(stage)]; }
    double FracComplete(int stage) const;
    // Per-stage completed fraction for every stage (the f_s vector of Section 4.3).
    std::vector<double> FracCompleteAll() const;

   private:
    void Unblock(int flat_task);

    const DependencyTracker* tracker_;
    std::vector<int> wait_count_;
    std::vector<int> stage_done_;
    std::vector<int> newly_ready_;
    int done_total_ = 0;
  };

 private:
  const JobGraph* graph_;
  int total_tasks_ = 0;
  std::vector<int> task_base_;
  std::vector<int> stage_of_;
  std::vector<int> stage_total_;
  // One-to-one wake lists in CSR form: producer p's consumers are
  // consumers_[consumer_begin_[p], consumer_begin_[p + 1]).
  std::vector<int> consumer_begin_;  // total_tasks_ + 1 offsets
  std::vector<int> consumers_;
  std::vector<std::vector<int>> barrier_consumers_;  // per stage
  std::vector<int> initial_wait_count_;
};

}  // namespace jockey

#endif  // SRC_DAG_DEPENDENCY_TRACKER_H_
