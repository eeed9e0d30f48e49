// Trace exporters and the trace reader.
//
//  * JsonlSink — writes each TraceEvent as one flat JSON object per line. The
//    format is the layer's interchange format: `jockey_cli run --trace-out` writes
//    it, `jockey_cli report` reads it back. Lines are appended into a reused buffer
//    (AppendJsonLine) and numbers use the shortest round-trip form
//    (json_format.h), so a seeded run re-emits byte-identical files.
//  * ParseTraceLine / ReadJsonlTrace — the inverse mapping. Every writer clause has
//    a parser clause; a round-trip test walks all event kinds. The reader streams
//    fixed-size chunks (JsonlLineReader) and tokenizes each line in place
//    (FlatJsonFields), so it allocates per event, not per field.
//  * WriteChromeTrace — converts a buffered trace to the chrome://tracing JSON
//    array format (load in chrome://tracing or https://ui.perfetto.dev): per-job
//    counter tracks for the granted/raw allocation and progress, instant events for
//    scheduler activity.
//
// Line format: {"t":<seconds>,"kind":"<EventKindName>",<payload fields>} — flat,
// one level, no nesting, which is what keeps the reader small and dependency-free.

#ifndef SRC_OBS_JSONL_H_
#define SRC_OBS_JSONL_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/json_format.h"
#include "src/obs/observer.h"
#include "src/obs/trace_event.h"

namespace jockey {

// A flat one-level JSON object tokenized in place: (key, value) views, where a
// value is the raw text of a number or literal, or the unquoted, unescaped text of
// a string (the reader does not tell the two apart). Views point into the parsed
// line, or into an owned buffer for strings that held escapes, and stay valid
// until the next Parse or until the line goes away. This is the one tokenizer
// under every flat-JSONL reader (traces, fault plans, time series), so they accept
// one dialect.
class FlatJsonFields {
 public:
  // Tokenizes one `{"k":v,...}` object, replacing the previous fields. Returns
  // false on malformed input. Text after the closing brace is ignored.
  bool Parse(std::string_view line);

  // The first field named `key`, or nullptr.
  const std::string_view* Find(std::string_view key) const;

  // Typed lookups; false when the field is missing or malformed. Numbers parse
  // with ParseJsonNumber; integers additionally must fit T (TruncateTo).
  bool Number(std::string_view key, double& out) const {
    const std::string_view* v = Find(key);
    return v != nullptr && ParseJsonNumber(*v, out);
  }
  template <typename T>
  bool Integer(std::string_view key, T& out) const {
    double d = 0.0;
    return Number(key, d) && TruncateTo(d, out);
  }
  bool Bool(std::string_view key, bool& out) const;

 private:
  bool ParseString(std::string_view line, size_t& i, std::string_view& out);

  std::vector<std::pair<std::string_view, std::string_view>> fields_;
  // Unescaped string text. Parse reserves the line's length up front, and the
  // unescaped text of a line never exceeds it, so appends never reallocate and
  // views into the buffer stay valid.
  std::string unescaped_;
};

// Splits a stream into lines the way std::getline does ('\n'-terminated; a final
// unterminated line counts), reading it in fixed-size chunks instead of one string
// per line or one buffer per file. A line longer than the chunk grows the buffer.
class JsonlLineReader {
 public:
  explicit JsonlLineReader(std::istream& is);

  // The next line, without its '\n'; valid until the next call. False at the end.
  bool Next(std::string_view& line);
  // 1-based number of the line Next last returned.
  int line_number() const { return line_number_; }

 private:
  std::istream* is_;
  std::string buffer_;
  size_t begin_ = 0;  // unread bytes are buffer_[begin_, end_)
  size_t end_ = 0;
  bool eof_ = false;
  int line_number_ = 0;
};

// One line, no trailing newline. The append form writes into the caller's buffer.
std::string ToJsonLine(const TraceEvent& event);
void AppendJsonLine(std::string& out, const TraceEvent& event);

// Where and why a line failed to parse: the 1-based line number (0 when parsing a
// bare string outside a stream), the first offending field ("" when the JSON object
// itself is malformed), and a human-readable message.
struct TraceParseIssue {
  int line_number = 0;
  std::string field;
  std::string message;
};

// Inverse of ToJsonLine. Returns nullopt for malformed lines or unknown kinds; when
// `issue` is non-null it is filled with the offending field and message.
std::optional<TraceEvent> ParseTraceLine(const std::string& line,
                                         TraceParseIssue* issue = nullptr);

struct TraceReadResult {
  std::vector<TraceEvent> events;
  int malformed_lines = 0;  // non-empty lines that failed to parse
  // The first malformed line's diagnosis (set whenever malformed_lines > 0).
  std::optional<TraceParseIssue> first_issue;
};

// Reads a JSONL trace. Lenient mode (default) skips malformed lines and counts
// them; strict mode stops at the first malformed line, leaving its line number and
// offending field in `first_issue` — for pipelines that must not silently analyze a
// truncated or hand-edited trace.
TraceReadResult ReadJsonlTrace(std::istream& is, bool strict = false);

class JsonlSink final : public ObserverSink {
 public:
  // The stream must outlive the sink; the sink never seeks, only appends.
  explicit JsonlSink(std::ostream& os) : os_(&os) {}
  // Formats the line into a reused buffer and hands it to the stream in one write.
  void OnEvent(const TraceEvent& event) override;

 private:
  std::ostream* os_;
  std::string line_;
};

void WriteChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events);

}  // namespace jockey

#endif  // SRC_OBS_JSONL_H_
