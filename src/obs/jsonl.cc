#include "src/obs/jsonl.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <system_error>
#include <utility>

namespace jockey {
namespace {

void AppendKeyName(std::string& out, const char* key) {
  out += ",\"";
  out += key;
  out += "\":";
}

void AppendNum(std::string& out, const char* key, double value) {
  AppendKeyName(out, key);
  AppendJsonNumber(out, value);
}

void AppendInt(std::string& out, const char* key, int64_t value) {
  AppendKeyName(out, key);
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

void AppendBool(std::string& out, const char* key, bool value) {
  AppendKeyName(out, key);
  out += value ? "true" : "false";
}

void AppendStr(std::string& out, const char* key, const char* value) {
  AppendKeyName(out, key);
  AppendJsonString(out, value);
}

// 64-bit cache keys exceed the exactly-representable double range, so they travel
// as fixed-width hex strings.
void AppendKey(std::string& out, const char* key, uint64_t value) {
  static constexpr char kHex[] = "0123456789abcdef";
  AppendKeyName(out, key);
  char buffer[18];
  buffer[0] = '"';
  for (int i = 16; i >= 1; --i, value >>= 4) {
    buffer[i] = kHex[value & 0xf];
  }
  buffer[17] = '"';
  out.append(buffer, sizeof(buffer));
}

struct LineWriter {
  std::string* out;

  void operator()(const ControlTickEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "elapsed", e.elapsed_seconds);
    AppendNum(*out, "progress", e.progress);
    AppendNum(*out, "prediction", e.predicted_remaining_seconds);
    AppendNum(*out, "utility", e.utility);
    AppendNum(*out, "raw", e.raw_allocation);
    AppendNum(*out, "smoothed", e.smoothed_allocation);
    AppendInt(*out, "granted", e.granted_tokens);
    AppendNum(*out, "model_speed", e.model_speed);
  }
  void operator()(const PredictionLookupEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "progress", e.progress);
    AppendNum(*out, "allocation", e.allocation);
    AppendNum(*out, "prediction", e.predicted_remaining_seconds);
  }
  void operator()(const AllocationChangeEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "from", e.from_tokens);
    AppendInt(*out, "to", e.to_tokens);
  }
  void operator()(const UtilityChangeEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "elapsed", e.elapsed_seconds);
  }
  void operator()(const TableCacheLookupEvent& e) const {
    AppendKey(*out, "key", e.key);
    AppendStr(*out, "code", CacheCodeName(e.code));
    AppendInt(*out, "bytes", static_cast<int64_t>(e.bytes));
  }
  void operator()(const TableCacheStoreEvent& e) const {
    AppendKey(*out, "key", e.key);
    AppendStr(*out, "code", CacheCodeName(e.code));
    AppendInt(*out, "bytes", static_cast<int64_t>(e.bytes));
  }
  void operator()(const TableCacheEvictEvent& e) const {
    AppendKey(*out, "key", e.key);
    AppendInt(*out, "bytes", static_cast<int64_t>(e.bytes));
  }
  void operator()(const JobSubmitEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "tokens", e.guaranteed_tokens);
  }
  void operator()(const JobFinishEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "completion", e.completion_seconds);
  }
  void operator()(const TaskDispatchEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "stage", e.stage);
    AppendInt(*out, "task", e.task);
    AppendInt(*out, "machine", e.machine);
    AppendBool(*out, "spare", e.spare);
    AppendBool(*out, "speculative", e.speculative);
  }
  void operator()(const TaskCompleteEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "stage", e.stage);
    AppendInt(*out, "task", e.task);
    AppendBool(*out, "spare", e.spare);
    AppendBool(*out, "speculative", e.speculative);
  }
  void operator()(const TaskKilledEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "stage", e.stage);
    AppendInt(*out, "task", e.task);
    AppendStr(*out, "reason", KillReasonName(e.reason));
    AppendBool(*out, "requeued", e.requeued);
  }
  void operator()(const SpeculativeLaunchEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "stage", e.stage);
    AppendInt(*out, "task", e.task);
  }
  void operator()(const MachineFailureEvent& e) const {
    AppendInt(*out, "machine", e.machine);
    AppendInt(*out, "killed", e.tasks_killed);
  }
  void operator()(const MachineRecoverEvent& e) const {
    AppendInt(*out, "machine", e.machine);
  }
  void operator()(const FaultInjectedEvent& e) const {
    // "fault" rather than "kind": the line's "kind" field names the event.
    AppendStr(*out, "fault", FaultKindName(e.fault));
    AppendInt(*out, "window", e.window);
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "magnitude", e.magnitude);
    AppendNum(*out, "detail", e.detail);
    AppendNum(*out, "detail2", e.detail2);
  }
  void operator()(const DegradedDecisionEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendStr(*out, "mode", DegradeModeName(e.mode));
    AppendNum(*out, "elapsed", e.elapsed_seconds);
    AppendNum(*out, "report_age", e.report_age_seconds);
    AppendInt(*out, "granted", e.granted_tokens);
    AppendNum(*out, "value", e.value);
  }
  void operator()(const TaskReadyEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "stage", e.stage);
    AppendInt(*out, "task", e.task);
    AppendBool(*out, "requeued", e.requeued);
  }
  void operator()(const SloStateChangeEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendStr(*out, "from", SloStateName(e.from));
    AppendStr(*out, "to", SloStateName(e.to));
    AppendNum(*out, "elapsed", e.elapsed_seconds);
    AppendNum(*out, "slack", e.slack_seconds);
  }
  void operator()(const ControlDecisionCachedEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "elapsed", e.elapsed_seconds);
    AppendNum(*out, "progress", e.progress);
    AppendInt(*out, "raw", e.raw_allocation);
    AppendKey(*out, "signature", e.signature);
  }
};

// --- Reader: typed field lookups over FlatJsonFields, the tokenizer below. ---

using FieldMap = FlatJsonFields;

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

void SkipSpace(std::string_view s, size_t& i) {
  while (i < s.size() && IsSpace(s[i])) {
    ++i;
  }
}

// Records the first field a parser clause rejected — what strict mode reports.
// The && chains in ParsePayload short-circuit, so the first Get* to fail is the one
// whose key lands here.
struct FieldFail {
  const char* field = nullptr;

  bool Miss(const char* key) {
    if (field == nullptr) {
      field = key;
    }
    return false;
  }
};

bool GetNum(const FieldMap& m, const char* key, double& out, FieldFail& fail) {
  return m.Number(key, out) || fail.Miss(key);
}

template <typename T>
bool GetInt(const FieldMap& m, const char* key, T& out, FieldFail& fail) {
  return m.Integer(key, out) || fail.Miss(key);
}

bool GetBool(const FieldMap& m, const char* key, bool& out, FieldFail& fail) {
  return m.Bool(key, out) || fail.Miss(key);
}

// Hex cache keys: std::from_chars for plain digits, strtoull's acceptance (sign,
// "0x" prefix, leading whitespace, saturation on overflow) for the rest.
bool GetKey(const FieldMap& m, const char* key, uint64_t& out, FieldFail& fail) {
  const std::string_view* v = m.Find(key);
  if (v == nullptr || v->empty()) {
    return fail.Miss(key);
  }
  const char* last = v->data() + v->size();
  auto [ptr, ec] = std::from_chars(v->data(), last, out, 16);
  if (ec == std::errc() && ptr == last) {
    return true;
  }
  const std::string copy(*v);
  char* end = nullptr;
  out = std::strtoull(copy.c_str(), &end, 16);
  return end == copy.c_str() + copy.size() || fail.Miss(key);
}

// An enum field spelled by its wire name; `last` is the highest enumerator.
template <typename E>
bool GetName(const FieldMap& m, const char* key, E last, const char* (*name)(E), E& out,
             FieldFail& fail) {
  if (const std::string_view* v = m.Find(key)) {
    for (int i = 0; i <= static_cast<int>(last); ++i) {
      if (*v == name(static_cast<E>(i))) {
        out = static_cast<E>(i);
        return true;
      }
    }
  }
  return fail.Miss(key);
}

bool GetCacheCode(const FieldMap& m, const char* key, CacheCode& out, FieldFail& fail) {
  return GetName(m, key, CacheCode::kDisabled, CacheCodeName, out, fail);
}

bool GetKillReason(const FieldMap& m, const char* key, KillReason& out, FieldFail& fail) {
  return GetName(m, key, KillReason::kMachineFailure, KillReasonName, out, fail);
}

bool GetFaultKind(const FieldMap& m, const char* key, FaultKind& out, FieldFail& fail) {
  return GetName(m, key, FaultKind::kAdversarialSpike, FaultKindName, out, fail);
}

bool GetSloState(const FieldMap& m, const char* key, SloState& out, FieldFail& fail) {
  return GetName(m, key, SloState::kMissed, SloStateName, out, fail);
}

bool GetDegradeMode(const FieldMap& m, const char* key, DegradeMode& out, FieldFail& fail) {
  return GetName(m, key, DegradeMode::kStragglerEscalation, DegradeModeName, out, fail);
}

std::optional<TraceEventPayload> ParsePayload(std::string_view kind, const FieldMap& m,
                                              FieldFail& fail) {
  if (kind == "control_tick") {
    ControlTickEvent e;
    if (GetInt(m, "job", e.job, fail) && GetNum(m, "elapsed", e.elapsed_seconds, fail) &&
        GetNum(m, "progress", e.progress, fail) &&
        GetNum(m, "prediction", e.predicted_remaining_seconds, fail) &&
        GetNum(m, "utility", e.utility, fail) && GetNum(m, "raw", e.raw_allocation, fail) &&
        GetNum(m, "smoothed", e.smoothed_allocation, fail) &&
        GetInt(m, "granted", e.granted_tokens, fail) &&
        GetNum(m, "model_speed", e.model_speed, fail)) {
      return e;
    }
  } else if (kind == "prediction_lookup") {
    PredictionLookupEvent e;
    if (GetInt(m, "job", e.job, fail) && GetNum(m, "progress", e.progress, fail) &&
        GetNum(m, "allocation", e.allocation, fail) &&
        GetNum(m, "prediction", e.predicted_remaining_seconds, fail)) {
      return e;
    }
  } else if (kind == "allocation_change") {
    AllocationChangeEvent e;
    if (GetInt(m, "job", e.job, fail) && GetInt(m, "from", e.from_tokens, fail) &&
        GetInt(m, "to", e.to_tokens, fail)) {
      return e;
    }
  } else if (kind == "utility_change") {
    UtilityChangeEvent e;
    if (GetInt(m, "job", e.job, fail) && GetNum(m, "elapsed", e.elapsed_seconds, fail)) {
      return e;
    }
  } else if (kind == "table_cache_lookup") {
    TableCacheLookupEvent e;
    if (GetKey(m, "key", e.key, fail) && GetCacheCode(m, "code", e.code, fail) &&
        GetInt(m, "bytes", e.bytes, fail)) {
      return e;
    }
  } else if (kind == "table_cache_store") {
    TableCacheStoreEvent e;
    if (GetKey(m, "key", e.key, fail) && GetCacheCode(m, "code", e.code, fail) &&
        GetInt(m, "bytes", e.bytes, fail)) {
      return e;
    }
  } else if (kind == "table_cache_evict") {
    TableCacheEvictEvent e;
    if (GetKey(m, "key", e.key, fail) && GetInt(m, "bytes", e.bytes, fail)) {
      return e;
    }
  } else if (kind == "job_submit") {
    JobSubmitEvent e;
    if (GetInt(m, "job", e.job, fail) && GetInt(m, "tokens", e.guaranteed_tokens, fail)) {
      return e;
    }
  } else if (kind == "job_finish") {
    JobFinishEvent e;
    if (GetInt(m, "job", e.job, fail) && GetNum(m, "completion", e.completion_seconds, fail)) {
      return e;
    }
  } else if (kind == "task_dispatch") {
    TaskDispatchEvent e;
    if (GetInt(m, "job", e.job, fail) && GetInt(m, "stage", e.stage, fail) &&
        GetInt(m, "task", e.task, fail) && GetInt(m, "machine", e.machine, fail) &&
        GetBool(m, "spare", e.spare, fail) && GetBool(m, "speculative", e.speculative, fail)) {
      return e;
    }
  } else if (kind == "task_complete") {
    TaskCompleteEvent e;
    if (GetInt(m, "job", e.job, fail) && GetInt(m, "stage", e.stage, fail) &&
        GetInt(m, "task", e.task, fail) && GetBool(m, "spare", e.spare, fail) &&
        GetBool(m, "speculative", e.speculative, fail)) {
      return e;
    }
  } else if (kind == "task_killed") {
    TaskKilledEvent e;
    if (GetInt(m, "job", e.job, fail) && GetInt(m, "stage", e.stage, fail) &&
        GetInt(m, "task", e.task, fail) && GetKillReason(m, "reason", e.reason, fail) &&
        GetBool(m, "requeued", e.requeued, fail)) {
      return e;
    }
  } else if (kind == "task_ready") {
    TaskReadyEvent e;
    if (GetInt(m, "job", e.job, fail) && GetInt(m, "stage", e.stage, fail) &&
        GetInt(m, "task", e.task, fail) && GetBool(m, "requeued", e.requeued, fail)) {
      return e;
    }
  } else if (kind == "slo_state_change") {
    SloStateChangeEvent e;
    if (GetInt(m, "job", e.job, fail) && GetSloState(m, "from", e.from, fail) &&
        GetSloState(m, "to", e.to, fail) && GetNum(m, "elapsed", e.elapsed_seconds, fail) &&
        GetNum(m, "slack", e.slack_seconds, fail)) {
      return e;
    }
  } else if (kind == "control_decision_cached") {
    ControlDecisionCachedEvent e;
    if (GetInt(m, "job", e.job, fail) && GetNum(m, "elapsed", e.elapsed_seconds, fail) &&
        GetNum(m, "progress", e.progress, fail) &&
        GetInt(m, "raw", e.raw_allocation, fail) &&
        GetKey(m, "signature", e.signature, fail)) {
      return e;
    }
  } else if (kind == "speculative_launch") {
    SpeculativeLaunchEvent e;
    if (GetInt(m, "job", e.job, fail) && GetInt(m, "stage", e.stage, fail) &&
        GetInt(m, "task", e.task, fail)) {
      return e;
    }
  } else if (kind == "machine_failure") {
    MachineFailureEvent e;
    if (GetInt(m, "machine", e.machine, fail) && GetInt(m, "killed", e.tasks_killed, fail)) {
      return e;
    }
  } else if (kind == "machine_recover") {
    MachineRecoverEvent e;
    if (GetInt(m, "machine", e.machine, fail)) {
      return e;
    }
  } else if (kind == "fault_injected") {
    FaultInjectedEvent e;
    if (GetFaultKind(m, "fault", e.fault, fail) && GetInt(m, "window", e.window, fail) &&
        GetInt(m, "job", e.job, fail) && GetNum(m, "magnitude", e.magnitude, fail) &&
        GetNum(m, "detail", e.detail, fail) && GetNum(m, "detail2", e.detail2, fail)) {
      return e;
    }
  } else if (kind == "degraded_decision") {
    DegradedDecisionEvent e;
    if (GetInt(m, "job", e.job, fail) && GetDegradeMode(m, "mode", e.mode, fail) &&
        GetNum(m, "elapsed", e.elapsed_seconds, fail) &&
        GetNum(m, "report_age", e.report_age_seconds, fail) &&
        GetInt(m, "granted", e.granted_tokens, fail) && GetNum(m, "value", e.value, fail)) {
      return e;
    }
  } else {
    fail.Miss("kind");
  }
  return std::nullopt;
}

}  // namespace

bool FlatJsonFields::Parse(std::string_view line) {
  fields_.clear();
  unescaped_.clear();
  unescaped_.reserve(line.size());
  size_t i = 0;
  SkipSpace(line, i);
  if (i >= line.size() || line[i] != '{') {
    return false;
  }
  ++i;
  SkipSpace(line, i);
  if (i < line.size() && line[i] == '}') {
    return true;
  }
  while (true) {
    SkipSpace(line, i);
    std::string_view key;
    if (!ParseString(line, i, key)) {
      return false;
    }
    SkipSpace(line, i);
    if (i >= line.size() || line[i] != ':') {
      return false;
    }
    ++i;
    SkipSpace(line, i);
    std::string_view value;
    if (i < line.size() && line[i] == '"') {
      if (!ParseString(line, i, value)) {
        return false;
      }
    } else {
      // A bare value runs to the next ',' or '}', minus trailing whitespace.
      size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') {
        ++i;
      }
      size_t end = i;
      while (end > start && IsSpace(line[end - 1])) {
        --end;
      }
      if (end == start) {
        return false;
      }
      value = line.substr(start, end - start);
    }
    fields_.emplace_back(key, value);
    SkipSpace(line, i);
    if (i >= line.size()) {
      return false;
    }
    if (line[i] == '}') {
      return true;
    }
    if (line[i] != ',') {
      return false;
    }
    ++i;
  }
}

// A quoted string at line[i]. Text without escapes is a view into the line; \n,
// \t and \r decode, and any other escaped character stands for itself.
bool FlatJsonFields::ParseString(std::string_view line, size_t& i, std::string_view& out) {
  if (i >= line.size() || line[i] != '"') {
    return false;
  }
  const size_t start = ++i;
  while (i < line.size() && line[i] != '"' && line[i] != '\\') {
    ++i;
  }
  if (i >= line.size()) {
    return false;
  }
  if (line[i] == '"') {
    out = line.substr(start, i - start);
    ++i;
    return true;
  }
  const size_t from = unescaped_.size();
  unescaped_.append(line, start, i - start);
  while (i < line.size() && line[i] != '"') {
    if (line[i] == '\\' && i + 1 < line.size()) {
      ++i;
      switch (line[i]) {
        case 'n':
          unescaped_.push_back('\n');
          break;
        case 't':
          unescaped_.push_back('\t');
          break;
        case 'r':
          unescaped_.push_back('\r');
          break;
        default:
          unescaped_.push_back(line[i]);  // \" \\ \/ and anything else: literal
      }
    } else {
      unescaped_.push_back(line[i]);
    }
    ++i;
  }
  if (i >= line.size()) {
    return false;
  }
  ++i;  // closing quote
  out = std::string_view(unescaped_).substr(from);
  return true;
}

const std::string_view* FlatJsonFields::Find(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

bool FlatJsonFields::Bool(std::string_view key, bool& out) const {
  const std::string_view* v = Find(key);
  if (v == nullptr || (*v != "true" && *v != "false")) {
    return false;
  }
  out = *v == "true";
  return true;
}

JsonlLineReader::JsonlLineReader(std::istream& is) : is_(&is), buffer_(64 * 1024, '\0') {}

bool JsonlLineReader::Next(std::string_view& line) {
  while (true) {
    const char* data = buffer_.data();
    const void* newline = std::memchr(data + begin_, '\n', end_ - begin_);
    if (newline != nullptr) {
      const size_t at = static_cast<size_t>(static_cast<const char*>(newline) - data);
      line = std::string_view(data + begin_, at - begin_);
      begin_ = at + 1;
      ++line_number_;
      return true;
    }
    if (eof_) {
      if (begin_ == end_) {
        return false;
      }
      line = std::string_view(data + begin_, end_ - begin_);
      begin_ = end_;
      ++line_number_;
      return true;
    }
    // Keep the partial line, then top the buffer up from the stream.
    std::memmove(buffer_.data(), data + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (end_ == buffer_.size()) {
      buffer_.resize(buffer_.size() * 2);
    }
    is_->read(buffer_.data() + end_, static_cast<std::streamsize>(buffer_.size() - end_));
    end_ += static_cast<size_t>(is_->gcount());
    eof_ = !*is_;
  }
}

void AppendJsonLine(std::string& out, const TraceEvent& event) {
  out += "{\"t\":";
  AppendJsonNumber(out, event.time_seconds);
  out += ",\"kind\":\"";
  out += EventKindName(event.kind());
  out += "\"";
  std::visit(LineWriter{&out}, event.payload);
  out += "}";
}

std::string ToJsonLine(const TraceEvent& event) {
  std::string out;
  out.reserve(160);
  AppendJsonLine(out, event);
  return out;
}

namespace {

std::optional<TraceEvent> ParseTraceLineWith(std::string_view line, FlatJsonFields& fields,
                                             TraceParseIssue* issue) {
  if (!fields.Parse(line)) {
    if (issue != nullptr) {
      issue->field.clear();
      issue->message = "malformed JSON object";
    }
    return std::nullopt;
  }
  FieldFail fail;
  double t = 0.0;
  if (!GetNum(fields, "t", t, fail)) {
    if (issue != nullptr) {
      issue->field = "t";
      issue->message = "missing or non-numeric timestamp";
    }
    return std::nullopt;
  }
  const std::string_view* kind = fields.Find("kind");
  if (kind == nullptr) {
    if (issue != nullptr) {
      issue->field = "kind";
      issue->message = "missing kind";
    }
    return std::nullopt;
  }
  std::optional<TraceEventPayload> payload = ParsePayload(*kind, fields, fail);
  if (!payload.has_value()) {
    if (issue != nullptr) {
      if (fail.field != nullptr && std::string_view(fail.field) == "kind") {
        issue->field = "kind";
        issue->message = "unknown kind '" + std::string(*kind) + "'";
      } else {
        issue->field = fail.field != nullptr ? fail.field : "";
        issue->message = "missing or malformed field";
      }
    }
    return std::nullopt;
  }
  TraceEvent event;
  event.time_seconds = t;
  event.payload = std::move(*payload);
  return event;
}

}  // namespace

std::optional<TraceEvent> ParseTraceLine(const std::string& line, TraceParseIssue* issue) {
  FlatJsonFields fields;
  return ParseTraceLineWith(line, fields, issue);
}

TraceReadResult ReadJsonlTrace(std::istream& is, bool strict) {
  TraceReadResult result;
  JsonlLineReader lines(is);
  FlatJsonFields fields;
  std::string_view line;
  while (lines.Next(line)) {
    if (line.empty()) {
      continue;
    }
    TraceParseIssue issue;
    if (std::optional<TraceEvent> event = ParseTraceLineWith(line, fields, &issue)) {
      result.events.push_back(std::move(*event));
    } else {
      ++result.malformed_lines;
      if (!result.first_issue.has_value()) {
        issue.line_number = lines.line_number();
        result.first_issue = std::move(issue);
      }
      if (strict) {
        break;
      }
    }
  }
  return result;
}

void JsonlSink::OnEvent(const TraceEvent& event) {
  line_.clear();
  AppendJsonLine(line_, event);
  line_.push_back('\n');
  os_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

namespace {

// One chrome://tracing record. `ph` "C" renders a counter track, "i" an instant.
void ChromeRecord(std::ostream& os, bool& first, const std::string& name, const char* ph,
                  double time_seconds, int tid, const std::string& args) {
  if (!first) {
    os << ",\n";
  }
  first = false;
  os << "{\"name\":" << JsonString(name) << ",\"ph\":\"" << ph
     << "\",\"ts\":" << JsonNumber(time_seconds * 1e6) << ",\"pid\":0,\"tid\":" << tid;
  if (ph[0] == 'i') {
    os << ",\"s\":\"t\"";
  }
  os << ",\"args\":{" << args << "}}";
}

std::string TaskArgs(int stage, int task) {
  return "\"stage\":" + std::to_string(stage) + ",\"task\":" + std::to_string(task);
}

}  // namespace

void WriteChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& event : events) {
    double t = event.time_seconds;
    std::visit(
        [&](const auto& e) {
          using E = std::decay_t<decltype(e)>;
          if constexpr (std::is_same_v<E, ControlTickEvent>) {
            ChromeRecord(os, first, "allocation job " + std::to_string(e.job), "C", t, e.job,
                         "\"granted\":" + std::to_string(e.granted_tokens) +
                             ",\"raw\":" + JsonNumber(e.raw_allocation));
            ChromeRecord(os, first, "progress job " + std::to_string(e.job), "C", t, e.job,
                         "\"progress\":" + JsonNumber(e.progress));
          } else if constexpr (std::is_same_v<E, AllocationChangeEvent>) {
            ChromeRecord(os, first, "allocation_change", "i", t, e.job,
                         "\"from\":" + std::to_string(e.from_tokens) +
                             ",\"to\":" + std::to_string(e.to_tokens));
          } else if constexpr (std::is_same_v<E, TaskDispatchEvent>) {
            ChromeRecord(os, first, e.speculative ? "speculative_dispatch" : "task_dispatch",
                         "i", t, e.job, TaskArgs(e.stage, e.task));
          } else if constexpr (std::is_same_v<E, TaskCompleteEvent>) {
            ChromeRecord(os, first, "task_complete", "i", t, e.job, TaskArgs(e.stage, e.task));
          } else if constexpr (std::is_same_v<E, TaskKilledEvent>) {
            ChromeRecord(os, first, std::string("killed:") + KillReasonName(e.reason), "i", t,
                         e.job, TaskArgs(e.stage, e.task));
          } else if constexpr (std::is_same_v<E, SpeculativeLaunchEvent>) {
            ChromeRecord(os, first, "speculative_launch", "i", t, e.job,
                         TaskArgs(e.stage, e.task));
          } else if constexpr (std::is_same_v<E, MachineFailureEvent>) {
            ChromeRecord(os, first, "machine_failure", "i", t, 0,
                         "\"machine\":" + std::to_string(e.machine) +
                             ",\"killed\":" + std::to_string(e.tasks_killed));
          } else if constexpr (std::is_same_v<E, JobFinishEvent>) {
            ChromeRecord(os, first, "job_finish", "i", t, e.job,
                         "\"completion\":" + JsonNumber(e.completion_seconds));
          } else if constexpr (std::is_same_v<E, FaultInjectedEvent>) {
            ChromeRecord(os, first, std::string("fault:") + FaultKindName(e.fault), "i", t,
                         e.job < 0 ? 0 : e.job,
                         "\"window\":" + std::to_string(e.window) +
                             ",\"magnitude\":" + JsonNumber(e.magnitude));
          } else if constexpr (std::is_same_v<E, DegradedDecisionEvent>) {
            ChromeRecord(os, first, std::string("degraded:") + DegradeModeName(e.mode), "i", t,
                         e.job, "\"granted\":" + std::to_string(e.granted_tokens) +
                                    ",\"report_age\":" + JsonNumber(e.report_age_seconds));
          }
          // Remaining kinds (cache traffic, submit, utility changes, prediction
          // lookups, machine recovery) carry no timeline value in this view.
        },
        event.payload);
  }
  os << "\n]}\n";
}

}  // namespace jockey
