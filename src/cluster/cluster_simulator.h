// The shared-cluster simulator: this reproduction's stand-in for production Cosmos.
//
// Models the environment of Section 2:
//  * token-based scheduling — each job holds guaranteed tokens; one running task
//    consumes one token, released on completion;
//  * spare capacity — slots left over after guaranteed demand and background demand
//    are handed to jobs with pending tasks at *spare* priority;
//  * eviction — when background demand rises, spare-priority tasks are killed (their
//    progress lost) to make room, the paper's main source of latency variance;
//  * contention — tasks started on a busy cluster run slower;
//  * heterogeneity — persistent per-machine speed factors;
//  * failures — per-task failures (from the job's ground-truth model) and machine
//    failures that kill everything running on the machine.
//
// SLO jobs attach a JobController, which the simulator ticks once per control period;
// the controller's only actuator is the job's guaranteed-token count — exactly
// Jockey's mechanism (Section 2.6).
//
// Engine: the event loop runs on a CalendarQueue (calendar_queue.h) dispatching
// small POD event records — no per-event allocation, no type-erased calls. Attempt
// state lives in a struct-of-arrays arena (attempt_arena.h) keyed by
// generation-checked handles; stale timer events (the attempt completed or was
// killed first) fail the generation check and drop. Equal-time events fire in
// insertion order, so a seeded run is deterministic; the golden event-stream
// digest test pins it.
//
// Per-event bookkeeping does not grow with the cluster or the job: the up-machine
// count is kept by FailMachine / RecoverMachine, each job counts the running copies
// of every task (only speculation makes a second), and the DAG's one-to-one wake
// lists are flat CSR arrays (dependency_tracker.h). What still walks a job's
// attempt list is the newest/oldest selection in Reschedule (demote, promote,
// evict), machine-failure kills, and the speculation straggler pass.

#ifndef SRC_CLUSTER_CLUSTER_SIMULATOR_H_
#define SRC_CLUSTER_CLUSTER_SIMULATOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/cluster/attempt_arena.h"
#include "src/cluster/cluster_config.h"
#include "src/cluster/controller.h"
#include "src/dag/dependency_tracker.h"
#include "src/obs/observer.h"
#include "src/dag/trace.h"
#include "src/util/calendar_queue.h"
#include "src/util/sim_time.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/background_load.h"
#include "src/workload/job_template.h"

namespace jockey {

class FaultInjector;
class TimeSeriesRecorder;

// Token priority class of a job's guarantee (Section 3.1). Normal guaranteed tokens
// serve after SuperHigh ones; SuperHigh tasks also intensify local contention for
// everyone else — the downside that made the paper reject priority classes.
enum class PriorityClass {
  kNormal,
  kSuperHigh,
};

// Per-job options at submission.
struct JobSubmission {
  SimTime submit_time = 0.0;
  // Initial guaranteed tokens (a controller may change them at every tick).
  int guaranteed_tokens = 10;
  // Hard ceiling on the guarantee (the experiments use a 100-token slice).
  int max_guaranteed_tokens = 100;
  // Scales every task's execution time; models input-size variation across runs of a
  // recurring job (Section 2.3 groups runs by input size).
  double input_scale = 1.0;
  // Whether the job may consume spare-priority tokens beyond its guarantee. The
  // Section 2.4 experiment contrasts normal runs with guaranteed-capacity-only runs.
  bool use_spare_tokens = true;
  // Token priority class (Section 3.1's rejected design, implemented for the
  // bench_ext_superhigh evaluation).
  PriorityClass priority = PriorityClass::kNormal;
  // Optional allocation policy, ticked every control_period_seconds.
  JobController* controller = nullptr;
  double control_period_seconds = 60.0;
  // Per-job randomness; task durations for this job are drawn from a stream forked
  // from this seed, so a job's luck is independent of other cluster activity.
  uint64_t seed = 12345;
};

// Everything recorded about one job's execution on the cluster.
struct ClusterRunResult {
  RunTrace trace;
  std::vector<AllocationSample> timeline;
  // Integral of the guaranteed-token request over the job's lifetime, token-seconds.
  // This is the "allocation requested by the policy" that Fig 4 compares against the
  // oracle allocation.
  double guaranteed_token_seconds = 0.0;
  int evictions = 0;
  int task_failures = 0;          // task-level failures (not evictions)
  int machine_failure_kills = 0;  // tasks killed by machine failures
  int speculative_launched = 0;   // duplicate copies started
  int speculative_wins = 0;       // tasks whose duplicate finished first
  int max_parallelism = 0;        // peak concurrently running tasks
  double spare_task_fraction = 0.0;
  bool finished = false;

  double CompletionSeconds() const { return trace.CompletionSeconds(); }
};

class ClusterSimulator {
 public:
  explicit ClusterSimulator(const ClusterConfig& config);
  ~ClusterSimulator();

  ClusterSimulator(const ClusterSimulator&) = delete;
  ClusterSimulator& operator=(const ClusterSimulator&) = delete;

  // Registers a job. Must be called before Run(). Returns the job id. The simulator
  // keeps a pointer to `job`, which must outlive it.
  int SubmitJob(const JobTemplate& job, const JobSubmission& opts);

  // Runs until every submitted job finishes or the wall of simulated time is hit.
  void Run(double max_seconds = 48.0 * 3600.0);

  const ClusterRunResult& result(int job_id) const;
  int num_jobs() const { return static_cast<int>(jobs_.size()); }

  // The background-demand process; experiments inject overload episodes through it.
  BackgroundLoad& background() { return background_; }

  // Attaches the observability layer (observer.h): scheduler events — submit,
  // dispatch, completion, kills with reason, speculation, machine failures,
  // allocation changes — flow to the sink as typed trace events, and counters /
  // histograms accumulate in the registry. Call before Run(); default-detached
  // (each emission site then costs a single branch). Counters are tallied as plain
  // ints on the hot path and flushed to the registry when Run() returns — string
  // lookups per scheduler event would blow the <=2% overhead budget.
  void set_observer(Observer observer);

  // Attaches a fault injector (fault_injector.h). Call before Run(); nullptr (the
  // default) detaches, and the detached path is one branch per injection site — a
  // detached injector changes no simulation result bit-for-bit. The injector must
  // outlive the simulator; non-const because report-noise faults advance the
  // injector's seeded noise stream.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }

  // Attaches a time-series recorder (timeseries.h). Same contract as the fault
  // injector: call before Run(), nullptr (the default) detaches, and the detached
  // path is one branch per sampling site — attaching changes no simulation result.
  // Sampling sites: every control tick (per-job allocation / prediction / slack),
  // every reschedule (cluster utilization and spare pool), and job finish.
  void set_timeseries_recorder(TimeSeriesRecorder* recorder) { timeseries_ = recorder; }

  SimTime now() const { return eq_.now(); }
  // Slots on machines that are up. O(1): only FailMachine / RecoverMachine flip a
  // machine's state, and they keep up_machines_ in step.
  int TotalUpSlots() const { return up_machines_ * config_.slots_per_machine; }

  // How many events the run has fired — the numerator of BENCH_sim.json's events/s.
  uint64_t events_processed() const { return events_processed_; }

 private:
  // One queued occurrence: a 24-byte POD record the event loop switches on.
  // Field use by kind —
  //   kStartJob / kControlTick : a = job id
  //   kTaskEnd                 : a = job id, handle = attempt handle, fails = the
  //                              attempt fails partway instead of completing
  //   kMachineRecover          : a = machine
  //   kBurstStart / kBurstEnd  : a = first machine, b = one past last,
  //                              handle = index into the fault plan's windows()
  //   kFaultMark               : handle = index into the fault plan's windows()
  //                              (gray windows: emits the fault_injected marker)
  //   kMachineFailureTick / kClusterTick / kSpeculationTick : no payload
  struct SimEvent {
    enum class Kind : uint8_t {
      kStartJob,
      kControlTick,
      kTaskEnd,
      kMachineFailureTick,
      kMachineRecover,
      kBurstStart,
      kBurstEnd,
      kClusterTick,
      kSpeculationTick,
      kFaultMark,
    };
    Kind kind = Kind::kClusterTick;
    bool fails = false;
    int32_t a = 0;
    int32_t b = 0;
    uint64_t handle = 0;
  };

  // A truthful progress observation, retained only while report faults are
  // scheduled; dropout/staleness windows serve the controller an old snapshot.
  struct ReportSnapshot {
    SimTime time = 0.0;
    std::vector<double> frac;
    int completed = 0;
  };

  struct JobState {
    int id = 0;  // index in jobs_; labels this job's trace events
    const JobTemplate* tmpl = nullptr;
    JobSubmission opts;
    std::unique_ptr<DependencyTracker> tracker;
    std::unique_ptr<DependencyTracker::State> dag;
    Rng rng{0};
    // Pending = ready but not running. FIFO with head index.
    std::vector<int> pending;
    size_t pending_head = 0;
    // Arena slots of this job's running attempts; a task may have two attempts
    // running at once when speculation launched a duplicate. Unordered — removal
    // is swap-remove; every selection over it uses explicit deterministic keys.
    std::vector<uint32_t> active;
    // Mean observed execution time per stage (speculation baseline).
    std::vector<RunningStats> stage_exec_stats;
    // Speculative launches already spent per task (caps duplicate churn).
    std::vector<uint8_t> speculation_budget_used;
    // Running attempts per task: 1 normally, 2 while a speculative duplicate runs.
    // Incremented at every arena Allocate and decremented at every Release, so
    // "does another copy run?" is a compare instead of a scan over `active`.
    std::vector<uint8_t> running_copies;
    int running_guaranteed = 0;
    int running_spare = 0;
    int guaranteed_tokens = 0;
    // Per-task records, indexed by flat task id.
    std::vector<TaskRecord> records;
    std::vector<bool> ever_ready;
    int spare_completions = 0;
    int completions = 0;
    SimTime last_alloc_change = 0.0;
    // Truthful per-tick observations (only populated when the attached plan has
    // report faults; see ReportSnapshot).
    std::vector<ReportSnapshot> report_history;
    bool started = false;
    bool finished = false;
    ClusterRunResult result;
  };

  struct Machine {
    double speed = 1.0;
    bool up = true;
  };

  static constexpr uint32_t kNoSlot = 0xffffffffu;

  void Dispatch(const SimEvent& ev);
  void StartJob(int job_id);
  void ControlTick(int job_id);
  void Reschedule();
  void StartTask(JobState& job, int job_id, int flat_task, bool spare, bool speculative);
  void OnTaskComplete(int job_id, AttemptArena::Handle handle);
  // Kills a running attempt (spare eviction, task failure, or machine failure);
  // requeues the task unless another copy of it is still running. Invalidates the
  // handle.
  void KillAttempt(JobState& job, AttemptArena::Handle handle, KillReason reason);
  void SpeculationTick();
  void FinishJob(int job_id);
  void AccumulateGuaranteedSeconds(JobState& job);
  // Replaces the truthful progress fields of `status` per the active report-fault
  // window, recording the truthful snapshot first. Emits fault_injected events.
  void InjectReportFaults(JobState& job, JobRuntimeStatus& status);
  // Takes a machine down, killing every attempt running on it. Returns false when
  // the machine was already down; adds the kill count to *killed when given.
  bool FailMachine(int machine, int* killed);
  void RecoverMachine(int machine);
  // Draws the next Poisson arrival and queues a kMachineFailureTick for it.
  void ScheduleMachineFailure();
  void MachineFailureTick();
  // Registers the plan's machine_burst windows with the event queue (rack-style
  // correlated outages layered on the Poisson model above), plus one kFaultMark
  // per gray window (machine_slowdown / adversarial_spike) at its start so the
  // window's onset is visible in the trace.
  void ScheduleFaultWindows();
  void ClusterTick();
  void DrainReady(JobState& job);
  double CurrentUtilization() const;
  // Pushes the accumulated tallies_ into the metrics registry and resets them.
  void FlushTallies();

  // Hot-path counter staging (see set_observer): incremented as plain ints during
  // the event loop, named and flushed once per Run().
  struct ObsTallies {
    int64_t jobs_submitted = 0;
    int64_t jobs_finished = 0;
    int64_t allocation_changes = 0;
    int64_t dispatches = 0;
    int64_t spare_dispatches = 0;
    int64_t completions = 0;
    int64_t evictions = 0;
    int64_t task_failures = 0;
    int64_t machine_failure_kills = 0;
    int64_t reexecutions = 0;
    int64_t speculative_launched = 0;
    int64_t speculative_wins = 0;
    int64_t machine_failures = 0;
    int64_t fault_report_faults = 0;
    int64_t fault_blackouts = 0;
    int64_t fault_grant_shortfalls = 0;
    int64_t fault_machine_bursts = 0;
    int64_t fault_machine_slowdowns = 0;    // task starts whose exec was stretched
    int64_t fault_adversarial_spikes = 0;   // reschedules that saw an on-phase boost
  };

  ClusterConfig config_;
  Observer obs_;
  FaultInjector* fault_injector_ = nullptr;
  TimeSeriesRecorder* timeseries_ = nullptr;
  ObsTallies tallies_;
  // Pre-resolved histogram slots (one name lookup at attach, none per event).
  Histogram* exec_seconds_hist_ = nullptr;
  Histogram* completion_seconds_hist_ = nullptr;
  CalendarQueue<SimEvent> eq_;
  uint64_t events_processed_ = 0;
  Rng rng_;
  BackgroundLoad background_;
  AttemptArena arena_;
  std::vector<Machine> machines_;
  std::vector<JobState> jobs_;
  int up_machines_ = 0;  // machines with up == true
  // Reused scratch; keeps DrainReady / machine kills / straggler scans off the
  // allocator inside the event loop.
  std::vector<int> ready_scratch_;
  std::vector<AttemptArena::Handle> kill_scratch_;
  std::vector<int> straggler_scratch_;
  int unfinished_jobs_ = 0;
  int background_slots_ = 0;   // background demand currently granted
  int background_demand_ = 0;  // background demand requested (may exceed capacity)
};

}  // namespace jockey

#endif  // SRC_CLUSTER_CLUSTER_SIMULATOR_H_
