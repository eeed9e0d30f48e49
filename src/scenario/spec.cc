#include "src/scenario/spec.h"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/fault/chaos_matrix.h"
#include "src/obs/json_format.h"
#include "src/scenario/doc.h"

namespace jockey {
namespace {

bool Fail(ScenarioParseIssue* issue, int line, std::string field, std::string message) {
  // Keep the first problem only: callers bubble `false` upward.
  if (issue->line == 0) {
    issue->line = line;
    issue->field = std::move(field);
    issue->message = std::move(message);
  }
  return false;
}

std::string Join(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

// ---------------------------------------------------------------------------
// Typed scalar readers. All of them reject non-scalar nodes and (for numbers and
// booleans) quoted scalars, so "seed": "3" is a type error, not a coercion.

bool ReadString(const DocNode& node, const std::string& path, std::string* out,
                ScenarioParseIssue* issue) {
  if (node.kind != DocNode::Kind::kScalar) {
    return Fail(issue, node.line, path, "expected a string");
  }
  *out = node.scalar;
  return true;
}

bool ReadDouble(const DocNode& node, const std::string& path, double* out,
                ScenarioParseIssue* issue) {
  if (node.kind != DocNode::Kind::kScalar || node.was_quoted) {
    return Fail(issue, node.line, path, "expected a number");
  }
  const char* text = node.scalar.c_str();
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    return Fail(issue, node.line, path, "bad number \"" + node.scalar + "\"");
  }
  *out = value;
  return true;
}

bool ReadInt(const DocNode& node, const std::string& path, int* out,
             ScenarioParseIssue* issue) {
  double value = 0.0;
  if (!ReadDouble(node, path, &value, issue)) {
    return false;
  }
  int truncated = static_cast<int>(value);
  if (static_cast<double>(truncated) != value) {
    return Fail(issue, node.line, path, "expected an integer");
  }
  *out = truncated;
  return true;
}

bool ReadUint64(const DocNode& node, const std::string& path, uint64_t* out,
                ScenarioParseIssue* issue) {
  if (node.kind != DocNode::Kind::kScalar || node.was_quoted) {
    return Fail(issue, node.line, path, "expected a non-negative integer");
  }
  const char* text = node.scalar.c_str();
  if (*text == '-') {
    return Fail(issue, node.line, path, "expected a non-negative integer");
  }
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    return Fail(issue, node.line, path, "bad integer \"" + node.scalar + "\"");
  }
  *out = static_cast<uint64_t>(value);
  return true;
}

bool ReadBool(const DocNode& node, const std::string& path, bool* out,
              ScenarioParseIssue* issue) {
  if (node.kind != DocNode::Kind::kScalar || node.was_quoted) {
    return Fail(issue, node.line, path, "expected true or false");
  }
  if (node.scalar == "true") {
    *out = true;
    return true;
  }
  if (node.scalar == "false") {
    *out = false;
    return true;
  }
  return Fail(issue, node.line, path, "expected true or false");
}

// Strict map access: Get() marks keys consumed, Finish() rejects leftovers with the
// unknown key's own line.
class MapReader {
 public:
  MapReader(const DocNode& node, std::string path, ScenarioParseIssue* issue)
      : node_(node), path_(std::move(path)), issue_(issue) {
    if (node_.kind != DocNode::Kind::kMap) {
      ok_ = false;
      Fail(issue_, node_.line, path_, "expected a map");
    } else {
      consumed_.assign(node_.entries.size(), false);
    }
  }

  bool ok() const { return ok_; }

  const DocNode* Get(const char* key) {
    for (size_t i = 0; i < node_.entries.size(); ++i) {
      if (node_.entries[i].key == key) {
        consumed_[i] = true;
        return &node_.entries[i].node();
      }
    }
    return nullptr;
  }

  bool Finish() {
    for (size_t i = 0; i < node_.entries.size(); ++i) {
      if (!consumed_[i]) {
        return Fail(issue_, node_.entries[i].line, Join(path_, node_.entries[i].key),
                    "unknown key \"" + node_.entries[i].key + "\"");
      }
    }
    return true;
  }

  const std::string& path() const { return path_; }
  std::string Sub(const char* key) const { return Join(path_, key); }
  int line() const { return node_.line; }

 private:
  const DocNode& node_;
  std::string path_;
  ScenarioParseIssue* issue_;
  std::vector<bool> consumed_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Sub-spec parsers.

bool ParseDeadline(const DocNode& node, const std::string& path, DeadlineSpec* out,
                   ScenarioParseIssue* issue) {
  if (node.kind == DocNode::Kind::kScalar) {
    if (node.scalar == "tight") {
      out->kind = DeadlineSpec::Kind::kTight;
      return true;
    }
    if (node.scalar == "long") {
      out->kind = DeadlineSpec::Kind::kLong;
      return true;
    }
    return Fail(issue, node.line, path,
                "bad deadline \"" + node.scalar + "\" (tight, long, or {minutes: N})");
  }
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  const DocNode* minutes = map.Get("minutes");
  if (minutes == nullptr) {
    return Fail(issue, node.line, path, "deadline map requires \"minutes\"");
  }
  out->kind = DeadlineSpec::Kind::kMinutes;
  if (!ReadDouble(*minutes, map.Sub("minutes"), &out->minutes, issue)) {
    return false;
  }
  if (out->minutes <= 0.0) {
    return Fail(issue, minutes->line, map.Sub("minutes"), "deadline must be positive");
  }
  return map.Finish();
}

bool ParseDeadlineChange(const DocNode& node, const std::string& path,
                         DeadlineChangeSpec* out, ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  const DocNode* at = map.Get("at");
  if (at == nullptr) {
    return Fail(issue, node.line, path, "deadline_change requires \"at\" (seconds)");
  }
  if (!ReadDouble(*at, map.Sub("at"), &out->at_seconds, issue)) {
    return false;
  }
  if (out->at_seconds < 0.0) {
    return Fail(issue, at->line, map.Sub("at"), "change time must be >= 0");
  }
  const DocNode* factor = map.Get("factor");
  const DocNode* minutes = map.Get("minutes");
  if ((factor == nullptr) == (minutes == nullptr)) {
    return Fail(issue, node.line, path,
                "deadline_change takes exactly one of \"factor\" or \"minutes\"");
  }
  if (factor != nullptr) {
    double value = 0.0;
    if (!ReadDouble(*factor, map.Sub("factor"), &value, issue)) {
      return false;
    }
    if (value <= 0.0) {
      return Fail(issue, factor->line, map.Sub("factor"), "factor must be positive");
    }
    out->factor = value;
  } else {
    double value = 0.0;
    if (!ReadDouble(*minutes, map.Sub("minutes"), &value, issue)) {
      return false;
    }
    if (value <= 0.0) {
      return Fail(issue, minutes->line, map.Sub("minutes"), "minutes must be positive");
    }
    out->minutes = value;
  }
  return map.Finish();
}

bool ParseOverload(const DocNode& node, const std::string& path, OverloadSpec* out,
                   ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  const DocNode* start = map.Get("start");
  const DocNode* duration = map.Get("duration");
  const DocNode* utilization = map.Get("utilization");
  if (start == nullptr || duration == nullptr || utilization == nullptr) {
    return Fail(issue, node.line, path,
                "overload requires \"start\", \"duration\" and \"utilization\"");
  }
  if (!ReadDouble(*start, map.Sub("start"), &out->start_seconds, issue) ||
      !ReadDouble(*duration, map.Sub("duration"), &out->duration_seconds, issue) ||
      !ReadDouble(*utilization, map.Sub("utilization"), &out->utilization, issue)) {
    return false;
  }
  if (out->start_seconds < 0.0) {
    return Fail(issue, start->line, map.Sub("start"), "start must be >= 0");
  }
  if (out->duration_seconds <= 0.0) {
    return Fail(issue, duration->line, map.Sub("duration"), "duration must be positive");
  }
  if (out->utilization <= 0.0) {
    return Fail(issue, utilization->line, map.Sub("utilization"),
                "utilization must be positive");
  }
  return map.Finish();
}

bool ParseFaultWindow(const DocNode& node, const std::string& path, FaultWindow* out,
                      ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  const DocNode* kind = map.Get("kind");
  const DocNode* start = map.Get("start");
  const DocNode* end = map.Get("end");
  if (kind == nullptr || start == nullptr || end == nullptr) {
    return Fail(issue, node.line, path, "window requires \"kind\", \"start\" and \"end\"");
  }
  std::string kind_name;
  if (!ReadString(*kind, map.Sub("kind"), &kind_name, issue)) {
    return false;
  }
  std::optional<FaultKind> parsed = ParseFaultKind(kind_name);
  if (!parsed.has_value()) {
    return Fail(issue, kind->line, map.Sub("kind"), "unknown fault kind \"" + kind_name + "\"");
  }
  out->kind = *parsed;
  if (!ReadDouble(*start, map.Sub("start"), &out->start_seconds, issue) ||
      !ReadDouble(*end, map.Sub("end"), &out->end_seconds, issue)) {
    return false;
  }
  if (const DocNode* magnitude = map.Get("magnitude")) {
    if (!ReadDouble(*magnitude, map.Sub("magnitude"), &out->magnitude, issue)) {
      return false;
    }
  }
  if (const DocNode* job = map.Get("job")) {
    if (!ReadInt(*job, map.Sub("job"), &out->job, issue)) {
      return false;
    }
  }
  if (const DocNode* first = map.Get("first_machine")) {
    if (!ReadInt(*first, map.Sub("first_machine"), &out->first_machine, issue)) {
      return false;
    }
  }
  if (const DocNode* count = map.Get("machines")) {
    if (!ReadInt(*count, map.Sub("machines"), &out->machine_count, issue)) {
      return false;
    }
  }
  if (const DocNode* period = map.Get("period")) {
    if (!ReadDouble(*period, map.Sub("period"), &out->period_seconds, issue)) {
      return false;
    }
  }
  return map.Finish();
}

bool ParseFaults(const DocNode& node, const std::string& path, FaultSpec* out,
                 ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  const DocNode* class_name = map.Get("class");
  const DocNode* plan = map.Get("plan");
  const DocNode* windows = map.Get("windows");
  int forms = (class_name != nullptr) + (plan != nullptr) + (windows != nullptr);
  if (forms != 1) {
    return Fail(issue, node.line, path,
                "faults takes exactly one of \"class\", \"plan\" or \"windows\"");
  }
  if (class_name != nullptr) {
    out->kind = FaultSpec::Kind::kClass;
    if (!ReadString(*class_name, map.Sub("class"), &out->class_name, issue)) {
      return false;
    }
    bool known = false;
    for (const std::string& name : ChaosClassNames()) {
      known = known || name == out->class_name;
    }
    if (!known) {
      return Fail(issue, class_name->line, map.Sub("class"),
                  "unknown fault class \"" + out->class_name + "\"");
    }
    return map.Finish();
  }
  if (plan != nullptr) {
    out->kind = FaultSpec::Kind::kFile;
    if (!ReadString(*plan, map.Sub("plan"), &out->plan_path, issue)) {
      return false;
    }
    if (out->plan_path.empty()) {
      return Fail(issue, plan->line, map.Sub("plan"), "plan path must be non-empty");
    }
    return map.Finish();
  }
  out->kind = FaultSpec::Kind::kInline;
  uint64_t seed = 1;
  if (const DocNode* seed_node = map.Get("seed")) {
    if (!ReadUint64(*seed_node, map.Sub("seed"), &seed, issue)) {
      return false;
    }
  }
  out->inline_plan = FaultPlan(seed);
  if (windows->kind != DocNode::Kind::kList) {
    return Fail(issue, windows->line, map.Sub("windows"), "expected a list of windows");
  }
  if (windows->items.empty()) {
    return Fail(issue, windows->line, map.Sub("windows"), "windows must be non-empty");
  }
  for (size_t i = 0; i < windows->items.size(); ++i) {
    FaultWindow window;
    std::string window_path = map.Sub("windows") + "[" + std::to_string(i) + "]";
    if (!ParseFaultWindow(windows->items[i], window_path, &window, issue)) {
      return false;
    }
    out->inline_plan.Add(window);
  }
  std::string error = out->inline_plan.Validate();
  if (!error.empty()) {
    return Fail(issue, windows->line, map.Sub("windows"), error);
  }
  return map.Finish();
}

bool ParseControl(const DocNode& node, const std::string& path, ControlSpec* out,
                  ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  if (const DocNode* period = map.Get("period_seconds")) {
    double value = 0.0;
    if (!ReadDouble(*period, map.Sub("period_seconds"), &value, issue)) {
      return false;
    }
    if (value <= 0.0) {
      return Fail(issue, period->line, map.Sub("period_seconds"), "period must be positive");
    }
    out->period_seconds = value;
  }
  if (const DocNode* tokens = map.Get("max_tokens")) {
    int value = 0;
    if (!ReadInt(*tokens, map.Sub("max_tokens"), &value, issue)) {
      return false;
    }
    if (value < 1) {
      return Fail(issue, tokens->line, map.Sub("max_tokens"), "max_tokens must be >= 1");
    }
    out->max_tokens = value;
  }
  if (const DocNode* slack = map.Get("slack")) {
    double value = 0.0;
    if (!ReadDouble(*slack, map.Sub("slack"), &value, issue)) {
      return false;
    }
    if (value <= 0.0) {
      return Fail(issue, slack->line, map.Sub("slack"), "slack must be positive");
    }
    out->slack = value;
  }
  if (const DocNode* alpha = map.Get("hysteresis_alpha")) {
    double value = 0.0;
    if (!ReadDouble(*alpha, map.Sub("hysteresis_alpha"), &value, issue)) {
      return false;
    }
    if (value <= 0.0 || value > 1.0) {
      return Fail(issue, alpha->line, map.Sub("hysteresis_alpha"),
                  "hysteresis_alpha must be in (0, 1]");
    }
    out->hysteresis_alpha = value;
  }
  if (const DocNode* dead_zone = map.Get("dead_zone_seconds")) {
    double value = 0.0;
    if (!ReadDouble(*dead_zone, map.Sub("dead_zone_seconds"), &value, issue)) {
      return false;
    }
    if (value < 0.0) {
      return Fail(issue, dead_zone->line, map.Sub("dead_zone_seconds"),
                  "dead_zone_seconds must be >= 0");
    }
    out->dead_zone_seconds = value;
  }
  if (const DocNode* hold = map.Get("stale_hold_seconds")) {
    double value = 0.0;
    if (!ReadDouble(*hold, map.Sub("stale_hold_seconds"), &value, issue)) {
      return false;
    }
    if (value < 0.0) {
      return Fail(issue, hold->line, map.Sub("stale_hold_seconds"),
                  "stale_hold_seconds must be >= 0");
    }
    out->stale_hold_seconds = value;
  }
  if (const DocNode* rate = map.Get("blind_escalation_rate")) {
    double value = 0.0;
    if (!ReadDouble(*rate, map.Sub("blind_escalation_rate"), &value, issue)) {
      return false;
    }
    if (value <= 0.0 || value > 1.0) {
      return Fail(issue, rate->line, map.Sub("blind_escalation_rate"),
                  "blind_escalation_rate must be in (0, 1]");
    }
    out->blind_escalation_rate = value;
  }
  if (const DocNode* gap = map.Get("blackout_gap_factor")) {
    double value = 0.0;
    if (!ReadDouble(*gap, map.Sub("blackout_gap_factor"), &value, issue)) {
      return false;
    }
    if (value <= 1.0) {
      return Fail(issue, gap->line, map.Sub("blackout_gap_factor"),
                  "blackout_gap_factor must be > 1");
    }
    out->blackout_gap_factor = value;
  }
  if (const DocNode* ewma = map.Get("grant_ratio_ewma")) {
    double value = 0.0;
    if (!ReadDouble(*ewma, map.Sub("grant_ratio_ewma"), &value, issue)) {
      return false;
    }
    if (value <= 0.0 || value > 1.0) {
      return Fail(issue, ewma->line, map.Sub("grant_ratio_ewma"),
                  "grant_ratio_ewma must be in (0, 1]");
    }
    out->grant_ratio_ewma = value;
  }
  if (const DocNode* cache = map.Get("decision_cache")) {
    bool value = false;
    if (!ReadBool(*cache, map.Sub("decision_cache"), &value, issue)) {
      return false;
    }
    out->decision_cache = value;
  }
  return map.Finish();
}

bool ParseRandomJob(const DocNode& node, const std::string& path, RandomJobSpec* out,
                    ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  if (const DocNode* name = map.Get("name")) {
    if (!ReadString(*name, map.Sub("name"), &out->name, issue)) {
      return false;
    }
    if (out->name.empty()) {
      return Fail(issue, name->line, map.Sub("name"), "name must be non-empty");
    }
  }
  if (const DocNode* seed = map.Get("seed")) {
    if (!ReadUint64(*seed, map.Sub("seed"), &out->seed, issue)) {
      return false;
    }
  }
  struct IntField {
    const char* key;
    int* value;
  };
  for (const IntField& field : {IntField{"min_stages", &out->params.min_stages},
                                IntField{"max_stages", &out->params.max_stages},
                                IntField{"min_vertices", &out->params.min_vertices},
                                IntField{"max_vertices", &out->params.max_vertices}}) {
    if (const DocNode* value = map.Get(field.key)) {
      if (!ReadInt(*value, map.Sub(field.key), field.value, issue)) {
        return false;
      }
      if (*field.value < 1) {
        return Fail(issue, value->line, map.Sub(field.key), "must be >= 1");
      }
    }
  }
  struct DoubleField {
    const char* key;
    double* value;
  };
  for (const DoubleField& field :
       {DoubleField{"min_median_seconds", &out->params.min_median_seconds},
        DoubleField{"max_median_seconds", &out->params.max_median_seconds}}) {
    if (const DocNode* value = map.Get(field.key)) {
      if (!ReadDouble(*value, map.Sub(field.key), field.value, issue)) {
        return false;
      }
      if (*field.value <= 0.0) {
        return Fail(issue, value->line, map.Sub(field.key), "must be positive");
      }
    }
  }
  if (out->params.min_stages > out->params.max_stages ||
      out->params.min_vertices > out->params.max_vertices ||
      out->params.min_median_seconds > out->params.max_median_seconds) {
    return Fail(issue, node.line, path, "random job bounds must satisfy min <= max");
  }
  return map.Finish();
}

bool ParsePolicy(const DocNode& node, const std::string& path, PolicyKind* out,
                 ScenarioParseIssue* issue) {
  std::string token;
  if (!ReadString(node, path, &token, issue)) {
    return false;
  }
  std::optional<PolicyKind> policy = ParsePolicyKind(token);
  if (!policy.has_value()) {
    return Fail(issue, node.line, path, "unknown policy \"" + token + "\"");
  }
  *out = *policy;
  return true;
}

bool ParseWorkloadEntry(const DocNode& node, const std::string& path,
                        WorkloadEntrySpec* out, ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  const DocNode* job = map.Get("job");
  const DocNode* random = map.Get("random");
  if ((job == nullptr) == (random == nullptr)) {
    return Fail(issue, node.line, path, "entry takes exactly one of \"job\" or \"random\"");
  }
  if (job != nullptr) {
    if (!ReadString(*job, map.Sub("job"), &out->job.letter, issue)) {
      return false;
    }
    if (out->job.letter.size() != 1 || out->job.letter[0] < 'A' || out->job.letter[0] > 'G') {
      return Fail(issue, job->line, map.Sub("job"),
                  "unknown job \"" + out->job.letter + "\" (A..G)");
    }
  } else {
    RandomJobSpec spec;
    if (!ParseRandomJob(*random, map.Sub("random"), &spec, issue)) {
      return false;
    }
    out->job.random = std::move(spec);
  }
  if (const DocNode* deadline = map.Get("deadline")) {
    if (!ParseDeadline(*deadline, map.Sub("deadline"), &out->deadline, issue)) {
      return false;
    }
  }
  if (const DocNode* repeats = map.Get("repeats")) {
    int value = 0;
    if (!ReadInt(*repeats, map.Sub("repeats"), &value, issue)) {
      return false;
    }
    if (value < 1) {
      return Fail(issue, repeats->line, map.Sub("repeats"), "repeats must be >= 1");
    }
    out->repeats = value;
  }
  if (const DocNode* seed = map.Get("seed")) {
    uint64_t value = 0;
    if (!ReadUint64(*seed, map.Sub("seed"), &value, issue)) {
      return false;
    }
    out->seed = value;
  }
  if (const DocNode* scale = map.Get("input_scale")) {
    double value = 0.0;
    if (!ReadDouble(*scale, map.Sub("input_scale"), &value, issue)) {
      return false;
    }
    if (value <= 0.0) {
      return Fail(issue, scale->line, map.Sub("input_scale"), "input_scale must be positive");
    }
    out->input_scale = value;
  }
  if (const DocNode* jitter = map.Get("jitter_input")) {
    bool value = false;
    if (!ReadBool(*jitter, map.Sub("jitter_input"), &value, issue)) {
      return false;
    }
    out->jitter_input = value;
  }
  if (const DocNode* policy = map.Get("policy")) {
    PolicyKind value = PolicyKind::kJockey;
    if (!ParsePolicy(*policy, map.Sub("policy"), &value, issue)) {
      return false;
    }
    out->policy = value;
  }
  if (const DocNode* hardened = map.Get("hardened")) {
    bool value = false;
    if (!ReadBool(*hardened, map.Sub("hardened"), &value, issue)) {
      return false;
    }
    out->hardened = value;
  }
  if (const DocNode* overload = map.Get("overload")) {
    OverloadSpec value;
    if (!ParseOverload(*overload, map.Sub("overload"), &value, issue)) {
      return false;
    }
    out->overload = value;
  }
  if (const DocNode* change = map.Get("deadline_change")) {
    DeadlineChangeSpec value;
    if (!ParseDeadlineChange(*change, map.Sub("deadline_change"), &value, issue)) {
      return false;
    }
    out->deadline_change = value;
  }
  if (const DocNode* faults = map.Get("faults")) {
    FaultSpec value;
    if (!ParseFaults(*faults, map.Sub("faults"), &value, issue)) {
      return false;
    }
    out->faults = std::move(value);
  }
  return map.Finish();
}

bool ParsePhase(const DocNode& node, const std::string& path, PhaseSpec* out,
                ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  const DocNode* name = map.Get("name");
  const DocNode* duration = map.Get("duration");
  if (name == nullptr || duration == nullptr) {
    return Fail(issue, node.line, path, "phase requires \"name\" and \"duration\"");
  }
  if (!ReadString(*name, map.Sub("name"), &out->name, issue)) {
    return false;
  }
  if (out->name.empty()) {
    return Fail(issue, name->line, map.Sub("name"), "phase name must be non-empty");
  }
  if (!ReadDouble(*duration, map.Sub("duration"), &out->duration_seconds, issue)) {
    return false;
  }
  if (out->duration_seconds <= 0.0) {
    return Fail(issue, duration->line, map.Sub("duration"), "duration must be positive");
  }
  if (const DocNode* utilization = map.Get("utilization")) {
    double value = 0.0;
    if (!ReadDouble(*utilization, map.Sub("utilization"), &value, issue)) {
      return false;
    }
    if (value <= 0.0) {
      return Fail(issue, utilization->line, map.Sub("utilization"),
                  "utilization must be positive");
    }
    out->utilization = value;
  }
  const DocNode* arrivals = map.Get("arrivals");
  if (arrivals == nullptr) {
    return Fail(issue, node.line, path, "phase requires \"arrivals\"");
  }
  MapReader arrival_map(*arrivals, map.Sub("arrivals"), issue);
  if (!arrival_map.ok()) {
    return false;
  }
  const DocNode* period = arrival_map.Get("period");
  const DocNode* poisson = arrival_map.Get("poisson");
  if ((period == nullptr) == (poisson == nullptr)) {
    return Fail(issue, arrivals->line, map.Sub("arrivals"),
                "arrivals takes exactly one of \"period\" or \"poisson\"");
  }
  const DocNode* value_node = period != nullptr ? period : poisson;
  const char* key = period != nullptr ? "period" : "poisson";
  out->arrivals.kind =
      period != nullptr ? ArrivalSpec::Kind::kPeriodic : ArrivalSpec::Kind::kPoisson;
  if (!ReadDouble(*value_node, arrival_map.Sub(key), &out->arrivals.value_seconds, issue)) {
    return false;
  }
  if (out->arrivals.value_seconds <= 0.0) {
    return Fail(issue, value_node->line, arrival_map.Sub(key), "must be positive");
  }
  if (!arrival_map.Finish()) {
    return false;
  }
  return map.Finish();
}

bool ParseScenario(const DocNode& root, ScenarioSpec* out, ScenarioParseIssue* issue) {
  MapReader map(root, "", issue);
  if (!map.ok()) {
    return false;
  }
  const DocNode* name = map.Get("name");
  if (name == nullptr) {
    return Fail(issue, root.line, "name", "scenario requires \"name\"");
  }
  if (!ReadString(*name, "name", &out->name, issue)) {
    return false;
  }
  if (out->name.empty()) {
    return Fail(issue, name->line, "name", "name must be non-empty");
  }
  if (const DocNode* seed = map.Get("seed")) {
    if (!ReadUint64(*seed, "seed", &out->seed, issue)) {
      return false;
    }
  }
  if (const DocNode* repeats = map.Get("repeats")) {
    if (!ReadInt(*repeats, "repeats", &out->repeats, issue)) {
      return false;
    }
    if (out->repeats < 1) {
      return Fail(issue, repeats->line, "repeats", "repeats must be >= 1");
    }
  }
  if (const DocNode* policy = map.Get("policy")) {
    if (!ParsePolicy(*policy, "policy", &out->policy, issue)) {
      return false;
    }
  }
  if (const DocNode* jitter = map.Get("jitter_input")) {
    if (!ReadBool(*jitter, "jitter_input", &out->jitter_input, issue)) {
      return false;
    }
  }
  if (const DocNode* hardened = map.Get("hardened")) {
    if (!ReadBool(*hardened, "hardened", &out->hardened, issue)) {
      return false;
    }
  }
  if (const DocNode* spare = map.Get("use_spare_tokens")) {
    if (!ReadBool(*spare, "use_spare_tokens", &out->use_spare_tokens, issue)) {
      return false;
    }
  }
  if (const DocNode* tokens = map.Get("fixed_tokens")) {
    int value = 0;
    if (!ReadInt(*tokens, "fixed_tokens", &value, issue)) {
      return false;
    }
    if (value < 1) {
      return Fail(issue, tokens->line, "fixed_tokens", "fixed_tokens must be >= 1");
    }
    out->fixed_tokens = value;
  }
  if (const DocNode* scale = map.Get("input_scale")) {
    double value = 0.0;
    if (!ReadDouble(*scale, "input_scale", &value, issue)) {
      return false;
    }
    if (value <= 0.0) {
      return Fail(issue, scale->line, "input_scale", "input_scale must be positive");
    }
    out->input_scale = value;
  }
  if (const DocNode* overload = map.Get("overload")) {
    OverloadSpec value;
    if (!ParseOverload(*overload, "overload", &value, issue)) {
      return false;
    }
    out->overload = value;
  }
  if (const DocNode* change = map.Get("deadline_change")) {
    DeadlineChangeSpec value;
    if (!ParseDeadlineChange(*change, "deadline_change", &value, issue)) {
      return false;
    }
    out->deadline_change = value;
  }
  if (const DocNode* faults = map.Get("faults")) {
    FaultSpec value;
    if (!ParseFaults(*faults, "faults", &value, issue)) {
      return false;
    }
    out->faults = std::move(value);
  }
  if (const DocNode* control = map.Get("control")) {
    ControlSpec value;
    if (!ParseControl(*control, "control", &value, issue)) {
      return false;
    }
    out->control = value;
  }
  const DocNode* workload = map.Get("workload");
  if (workload == nullptr) {
    return Fail(issue, root.line, "workload", "scenario requires a \"workload\" list");
  }
  if (workload->kind != DocNode::Kind::kList || workload->items.empty()) {
    return Fail(issue, workload->line, "workload", "workload must be a non-empty list");
  }
  for (size_t i = 0; i < workload->items.size(); ++i) {
    WorkloadEntrySpec entry;
    std::string path = "workload[" + std::to_string(i) + "]";
    if (!ParseWorkloadEntry(workload->items[i], path, &entry, issue)) {
      return false;
    }
    out->workload.push_back(std::move(entry));
  }
  if (const DocNode* phases = map.Get("phases")) {
    if (phases->kind != DocNode::Kind::kList) {
      return Fail(issue, phases->line, "phases", "phases must be a list");
    }
    for (size_t i = 0; i < phases->items.size(); ++i) {
      PhaseSpec phase;
      std::string path = "phases[" + std::to_string(i) + "]";
      if (!ParsePhase(phases->items[i], path, &phase, issue)) {
        return false;
      }
      out->phases.push_back(std::move(phase));
    }
  }
  if (!map.Finish()) {
    return false;
  }
  // Cross-field check: a fixed policy anywhere needs the token count.
  bool any_fixed = out->policy == PolicyKind::kFixed;
  for (const WorkloadEntrySpec& entry : out->workload) {
    any_fixed = any_fixed || (entry.policy.has_value() && *entry.policy == PolicyKind::kFixed);
  }
  if (any_fixed && !out->fixed_tokens.has_value()) {
    return Fail(issue, root.line, "fixed_tokens",
                "policy \"fixed\" requires \"fixed_tokens\"");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Canonical JSON writer.

void WriteOverload(std::ostringstream& os, const OverloadSpec& overload) {
  os << "{\"start\":" << JsonNumber(overload.start_seconds)
     << ",\"duration\":" << JsonNumber(overload.duration_seconds)
     << ",\"utilization\":" << JsonNumber(overload.utilization) << "}";
}

void WriteDeadlineChange(std::ostringstream& os, const DeadlineChangeSpec& change) {
  os << "{\"at\":" << JsonNumber(change.at_seconds);
  if (change.factor.has_value()) {
    os << ",\"factor\":" << JsonNumber(*change.factor);
  } else {
    os << ",\"minutes\":" << JsonNumber(*change.minutes);
  }
  os << "}";
}

void WriteFaults(std::ostringstream& os, const FaultSpec& faults) {
  switch (faults.kind) {
    case FaultSpec::Kind::kClass:
      os << "{\"class\":" << JsonString(faults.class_name) << "}";
      return;
    case FaultSpec::Kind::kFile:
      os << "{\"plan\":" << JsonString(faults.plan_path) << "}";
      return;
    case FaultSpec::Kind::kInline:
      break;
  }
  os << "{\"seed\":" << faults.inline_plan.seed() << ",\"windows\":[";
  bool first = true;
  for (const FaultWindow& window : faults.inline_plan.windows()) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"kind\":" << JsonString(FaultKindName(window.kind))
       << ",\"start\":" << JsonNumber(window.start_seconds)
       << ",\"end\":" << JsonNumber(window.end_seconds)
       << ",\"magnitude\":" << JsonNumber(window.magnitude) << ",\"job\":" << window.job
       << ",\"first_machine\":" << window.first_machine
       << ",\"machines\":" << window.machine_count
       << ",\"period\":" << JsonNumber(window.period_seconds) << "}";
  }
  os << "]}";
}

void WriteDeadline(std::ostringstream& os, const DeadlineSpec& deadline) {
  switch (deadline.kind) {
    case DeadlineSpec::Kind::kTight:
      os << "\"tight\"";
      return;
    case DeadlineSpec::Kind::kLong:
      os << "\"long\"";
      return;
    case DeadlineSpec::Kind::kMinutes:
      os << "{\"minutes\":" << JsonNumber(deadline.minutes) << "}";
      return;
  }
}

void WriteControl(std::ostringstream& os, const ControlSpec& control) {
  os << "{";
  bool first = true;
  auto field = [&](const char* key, const std::string& value) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\"" << key << "\":" << value;
  };
  if (control.period_seconds.has_value()) {
    field("period_seconds", JsonNumber(*control.period_seconds));
  }
  if (control.max_tokens.has_value()) {
    field("max_tokens", std::to_string(*control.max_tokens));
  }
  if (control.slack.has_value()) {
    field("slack", JsonNumber(*control.slack));
  }
  if (control.hysteresis_alpha.has_value()) {
    field("hysteresis_alpha", JsonNumber(*control.hysteresis_alpha));
  }
  if (control.dead_zone_seconds.has_value()) {
    field("dead_zone_seconds", JsonNumber(*control.dead_zone_seconds));
  }
  if (control.stale_hold_seconds.has_value()) {
    field("stale_hold_seconds", JsonNumber(*control.stale_hold_seconds));
  }
  if (control.blind_escalation_rate.has_value()) {
    field("blind_escalation_rate", JsonNumber(*control.blind_escalation_rate));
  }
  if (control.blackout_gap_factor.has_value()) {
    field("blackout_gap_factor", JsonNumber(*control.blackout_gap_factor));
  }
  if (control.grant_ratio_ewma.has_value()) {
    field("grant_ratio_ewma", JsonNumber(*control.grant_ratio_ewma));
  }
  if (control.decision_cache.has_value()) {
    field("decision_cache", *control.decision_cache ? "true" : "false");
  }
  os << "}";
}

void WriteEntry(std::ostringstream& os, const WorkloadEntrySpec& entry) {
  os << "{";
  if (!entry.job.letter.empty()) {
    os << "\"job\":" << JsonString(entry.job.letter);
  } else {
    const RandomJobSpec& random = *entry.job.random;
    os << "\"random\":{\"name\":" << JsonString(random.name) << ",\"seed\":" << random.seed
       << ",\"min_stages\":" << random.params.min_stages
       << ",\"max_stages\":" << random.params.max_stages
       << ",\"min_vertices\":" << random.params.min_vertices
       << ",\"max_vertices\":" << random.params.max_vertices
       << ",\"min_median_seconds\":" << JsonNumber(random.params.min_median_seconds)
       << ",\"max_median_seconds\":" << JsonNumber(random.params.max_median_seconds) << "}";
  }
  os << ",\"deadline\":";
  WriteDeadline(os, entry.deadline);
  if (entry.repeats.has_value()) {
    os << ",\"repeats\":" << *entry.repeats;
  }
  if (entry.seed.has_value()) {
    os << ",\"seed\":" << *entry.seed;
  }
  if (entry.input_scale.has_value()) {
    os << ",\"input_scale\":" << JsonNumber(*entry.input_scale);
  }
  if (entry.jitter_input.has_value()) {
    os << ",\"jitter_input\":" << (*entry.jitter_input ? "true" : "false");
  }
  if (entry.policy.has_value()) {
    os << ",\"policy\":" << JsonString(PolicyId(*entry.policy));
  }
  if (entry.hardened.has_value()) {
    os << ",\"hardened\":" << (*entry.hardened ? "true" : "false");
  }
  if (entry.overload.has_value()) {
    os << ",\"overload\":";
    WriteOverload(os, *entry.overload);
  }
  if (entry.deadline_change.has_value()) {
    os << ",\"deadline_change\":";
    WriteDeadlineChange(os, *entry.deadline_change);
  }
  if (entry.faults.has_value()) {
    os << ",\"faults\":";
    WriteFaults(os, *entry.faults);
  }
  os << "}";
}

void WritePhase(std::ostringstream& os, const PhaseSpec& phase) {
  os << "{\"name\":" << JsonString(phase.name)
     << ",\"duration\":" << JsonNumber(phase.duration_seconds);
  if (phase.utilization.has_value()) {
    os << ",\"utilization\":" << JsonNumber(*phase.utilization);
  }
  os << ",\"arrivals\":{\""
     << (phase.arrivals.kind == ArrivalSpec::Kind::kPeriodic ? "period" : "poisson")
     << "\":" << JsonNumber(phase.arrivals.value_seconds) << "}}";
}

}  // namespace

ScenarioParseResult ParseScenarioText(const std::string& text) {
  ScenarioParseResult result;
  DocParseIssue doc_issue;
  std::optional<DocNode> root = ParseDoc(text, &doc_issue);
  if (!root.has_value()) {
    result.issue = ScenarioParseIssue{doc_issue.line, "", doc_issue.message};
    return result;
  }
  ScenarioSpec spec;
  ScenarioParseIssue issue;
  if (!ParseScenario(*root, &spec, &issue)) {
    result.issue = std::move(issue);
    return result;
  }
  result.spec = std::move(spec);
  return result;
}

std::string WriteScenarioJson(const ScenarioSpec& spec) {
  std::ostringstream os;
  os << "{\"name\":" << JsonString(spec.name) << ",\"seed\":" << spec.seed
     << ",\"repeats\":" << spec.repeats << ",\"policy\":" << JsonString(PolicyId(spec.policy))
     << ",\"jitter_input\":" << (spec.jitter_input ? "true" : "false")
     << ",\"hardened\":" << (spec.hardened ? "true" : "false")
     << ",\"use_spare_tokens\":" << (spec.use_spare_tokens ? "true" : "false");
  if (spec.fixed_tokens.has_value()) {
    os << ",\"fixed_tokens\":" << *spec.fixed_tokens;
  }
  if (spec.input_scale.has_value()) {
    os << ",\"input_scale\":" << JsonNumber(*spec.input_scale);
  }
  if (spec.overload.has_value()) {
    os << ",\"overload\":";
    WriteOverload(os, *spec.overload);
  }
  if (spec.deadline_change.has_value()) {
    os << ",\"deadline_change\":";
    WriteDeadlineChange(os, *spec.deadline_change);
  }
  if (spec.faults.has_value()) {
    os << ",\"faults\":";
    WriteFaults(os, *spec.faults);
  }
  if (spec.control.has_value()) {
    os << ",\"control\":";
    WriteControl(os, *spec.control);
  }
  os << ",\"workload\":[";
  for (size_t i = 0; i < spec.workload.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    WriteEntry(os, spec.workload[i]);
  }
  os << "]";
  if (!spec.phases.empty()) {
    os << ",\"phases\":[";
    for (size_t i = 0; i < spec.phases.size(); ++i) {
      if (i > 0) {
        os << ",";
      }
      WritePhase(os, spec.phases[i]);
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::string FormatScenarioIssue(const std::string& path, const ScenarioParseIssue& issue) {
  std::string out = path + ":" + std::to_string(issue.line) + ": " + issue.message;
  if (!issue.field.empty()) {
    out += " at field " + issue.field;
  }
  return out;
}

}  // namespace jockey
