// Declarative scenario specifications: workloads as data.
//
// A scenario file (YAML subset or JSON, doc.h) names everything an experiment
// campaign needs — the workload mix (Table 2 jobs A..G and generator-randomized
// jobs), deadlines, background-load shape, time-phased load, fault plans, policy and
// controller overrides, seeds — and this layer turns it into a validated
// ScenarioSpec. The compiler (compiler.h) then lowers the spec onto the experiment
// harness; nothing below this layer reads scenario syntax.
//
// Parsing is strict: unknown keys are rejected, every value is type- and
// range-checked, and the first problem is reported as a ScenarioParseIssue carrying
// the 1-based source line and the offending field path ("workload[0].deadline"),
// mirroring how trace reading reports TraceParseIssue. WriteScenarioJson emits the
// canonical JSON form — deterministic bytes, reparseable by ParseScenarioText — so
// spec -> JSON -> spec round-trips are testable as byte identities.

#ifndef SRC_SCENARIO_SPEC_H_
#define SRC_SCENARIO_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/fault/fault_plan.h"
#include "src/workload/job_generator.h"

namespace jockey {

// A generator-randomized job (`random:` in a workload entry): MakeRandomJob with
// this seed and shape envelope.
struct RandomJobSpec {
  std::string name = "random";
  uint64_t seed = 1;
  RandomJobParams params;
};

// What a workload entry runs: a Table 2 catalog letter ("A".."G") or a random job.
struct JobSelector {
  std::string letter;  // non-empty <=> catalog job
  std::optional<RandomJobSpec> random;
};

// `deadline: tight`, `deadline: long`, or `deadline: {minutes: N}`. Tight/long
// resolve against the trained job via SuggestDeadlineSeconds at compile time.
struct DeadlineSpec {
  enum class Kind { kTight, kLong, kMinutes };
  Kind kind = Kind::kTight;
  double minutes = 0.0;  // kMinutes only
};

// Mid-run SLO change: at `at` seconds the deadline becomes base * factor, or an
// absolute number of minutes. Exactly one of factor/minutes is set.
struct DeadlineChangeSpec {
  double at_seconds = 0.0;
  std::optional<double> factor;
  std::optional<double> minutes;
};

// Injected cluster overload window (Fig 6(a)).
struct OverloadSpec {
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  double utilization = 1.0;
};

// A fault schedule, in one of three forms:
//   faults: {class: report_dropout}   — a chaos-matrix class (chaos_matrix.h),
//                                       scaled to the episode's deadline
//   faults: {plan: faults.jsonl}      — a FaultPlan JSONL file, loaded at compile
//   faults: {seed: N, windows: [...]} — windows spelled out inline
struct FaultSpec {
  enum class Kind { kClass, kFile, kInline };
  Kind kind = Kind::kClass;
  std::string class_name;
  std::string plan_path;
  FaultPlan inline_plan;
};

// Controller overrides; unset fields keep the trained defaults. Setting any of the
// ControlLoopConfig fields (or `hardened: true` on the scenario / entry) compiles
// into ExperimentOptions::control_override.
struct ControlSpec {
  std::optional<double> period_seconds;
  std::optional<int> max_tokens;
  std::optional<double> slack;
  std::optional<double> hysteresis_alpha;
  std::optional<double> dead_zone_seconds;
  // Degraded-mode knobs (effective with `hardened: true`); the four dials the
  // `tune` command sweeps. Ranges mirror ValidateControlLoopConfig.
  std::optional<double> stale_hold_seconds;
  std::optional<double> blind_escalation_rate;
  std::optional<double> blackout_gap_factor;
  std::optional<double> grant_ratio_ewma;
  // Memoize the controller's candidate scans (ControlLoopConfig::enable_decision_cache).
  // The cache only skips work — the event stream must match the uncached run
  // byte-for-byte once its marker events are stripped.
  std::optional<bool> decision_cache;
};

// One line of the workload mix. Per-entry fields override the scenario-level
// defaults of the same name.
struct WorkloadEntrySpec {
  JobSelector job;
  DeadlineSpec deadline;
  std::optional<int> repeats;
  std::optional<uint64_t> seed;
  std::optional<double> input_scale;
  std::optional<bool> jitter_input;
  std::optional<PolicyKind> policy;
  std::optional<bool> hardened;
  std::optional<OverloadSpec> overload;
  std::optional<DeadlineChangeSpec> deadline_change;
  std::optional<FaultSpec> faults;
};

// When jobs arrive within a phase: a fixed period or seeded-Poisson gaps.
struct ArrivalSpec {
  enum class Kind { kPeriodic, kPoisson };
  Kind kind = Kind::kPeriodic;
  double value_seconds = 600.0;  // period, or the mean Poisson gap
};

// One segment of a time-phased scenario (ramp / burst / diurnal shapes are lists of
// these). Episodes arriving inside the phase run under its pinned background
// utilization.
struct PhaseSpec {
  std::string name;
  double duration_seconds = 0.0;
  std::optional<double> utilization;
  ArrivalSpec arrivals;
};

// The whole scenario. `workload` must be non-empty; `phases` empty means list
// style (every entry x repeats, back to back), non-empty means phased style (the
// orchestrator schedules arrivals over the phase timeline, cycling the mix).
struct ScenarioSpec {
  std::string name;
  uint64_t seed = 1;
  int repeats = 1;
  PolicyKind policy = PolicyKind::kJockey;
  bool jitter_input = true;
  bool hardened = false;
  bool use_spare_tokens = true;
  std::optional<int> fixed_tokens;  // required iff policy == kFixed
  std::optional<double> input_scale;
  std::optional<OverloadSpec> overload;
  std::optional<DeadlineChangeSpec> deadline_change;
  std::optional<FaultSpec> faults;
  std::optional<ControlSpec> control;
  std::vector<WorkloadEntrySpec> workload;
  std::vector<PhaseSpec> phases;
};

// Where and why parsing failed: the 1-based line in the input, the field path
// ("workload[1].faults.class"), and the problem. The scenario analogue of
// TraceParseIssue.
struct ScenarioParseIssue {
  int line = 0;
  std::string field;
  std::string message;
};

struct ScenarioParseResult {
  std::optional<ScenarioSpec> spec;
  std::optional<ScenarioParseIssue> issue;  // set iff !spec
};

// Parses scenario text (YAML subset or JSON, auto-detected). Strict: the first
// unknown key, type error, or out-of-range value fails the parse.
ScenarioParseResult ParseScenarioText(const std::string& text);

// The canonical JSON form: deterministic bytes (JsonNumber doubles, fixed key
// order, defaults spelled out, optionals only when set) that ParseScenarioText
// accepts back. parse(write(s)) followed by write yields identical bytes.
std::string WriteScenarioJson(const ScenarioSpec& spec);

// "path:12: message at field workload[0].deadline" — the CLI's diagnostic line.
std::string FormatScenarioIssue(const std::string& path, const ScenarioParseIssue& issue);

}  // namespace jockey

#endif  // SRC_SCENARIO_SPEC_H_
