// Execution traces: what actually happened during one run of a job.
//
// The cluster simulator records a TaskRecord per task attempt sequence. Traces are the
// "readily available prior executions" Jockey builds its model from (Section 2.6):
// JobProfile::FromTrace() aggregates a trace into the per-stage statistics the offline
// simulator and the Amdahl model consume.

#ifndef SRC_DAG_TRACE_H_
#define SRC_DAG_TRACE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/dag/job_graph.h"
#include "src/util/sim_time.h"

namespace jockey {

// The recorded lifetime of one task (final successful attempt plus failure count).
struct TaskRecord {
  TaskId id;
  SimTime ready_time = 0.0;    // inputs became available / task entered the queue
  SimTime start_time = 0.0;    // successful attempt began executing
  SimTime end_time = 0.0;      // successful attempt finished
  int failed_attempts = 0;     // attempts that died and were re-executed
  double wasted_seconds = 0.0; // execution time consumed by failed attempts

  double QueueSeconds() const { return start_time - ready_time; }
  double RunSeconds() const { return end_time - start_time; }
};

// Everything recorded about one run of one job.
struct RunTrace {
  std::string job_name;
  std::vector<TaskRecord> tasks;
  SimTime submit_time = 0.0;
  SimTime finish_time = 0.0;

  double CompletionSeconds() const { return finish_time - submit_time; }

  // Sum of successful-attempt execution time across all tasks ("total work").
  double TotalWorkSeconds() const;

  // Sum of queueing time across all tasks.
  double TotalQueueSeconds() const;

  // Records for one stage, in task-index order.
  std::vector<const TaskRecord*> StageRecords(int stage_id) const;

  // Text serialization; traces are the historical artifact operators keep between
  // runs of a recurring job. ToText() is the one writer: doubles print as printf's
  // "%.17g" (what an ostream at precision(17) prints, so the text round-trips
  // exactly), via std::to_chars. Save() writes the same bytes to `os`, and
  // Jockey::Build fingerprints them.
  std::string ToText() const;
  void Save(std::ostream& os) const;
  static RunTrace Load(std::istream& is);
};

}  // namespace jockey

#endif  // SRC_DAG_TRACE_H_
