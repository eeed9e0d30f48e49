#include "src/dag/trace.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <istream>
#include <ostream>
#include <type_traits>

namespace jockey {

double RunTrace::TotalWorkSeconds() const {
  double total = 0.0;
  for (const auto& t : tasks) {
    total += t.RunSeconds();
  }
  return total;
}

double RunTrace::TotalQueueSeconds() const {
  double total = 0.0;
  for (const auto& t : tasks) {
    total += t.QueueSeconds();
  }
  return total;
}

namespace {

// Appends one number as an ostream at precision(17) prints it: "%.17g" for
// doubles, plain decimal for integers.
template <typename T>
void AppendNumber(std::string& out, T value) {
  char buf[32];
  std::to_chars_result r;
  if constexpr (std::is_floating_point_v<T>) {
    r = std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), value);
  }
  out.append(buf, r.ptr);
}

}  // namespace

std::string RunTrace::ToText() const {
  std::string out;
  out.reserve(64 + job_name.size() + tasks.size() * 96);
  out += "jockey_trace_v1 ";
  out += job_name;
  out += ' ';
  AppendNumber(out, submit_time);
  out += ' ';
  AppendNumber(out, finish_time);
  out += ' ';
  AppendNumber(out, tasks.size());
  out += '\n';
  for (const auto& t : tasks) {
    AppendNumber(out, t.id.stage);
    out += ' ';
    AppendNumber(out, t.id.index);
    out += ' ';
    AppendNumber(out, t.ready_time);
    out += ' ';
    AppendNumber(out, t.start_time);
    out += ' ';
    AppendNumber(out, t.end_time);
    out += ' ';
    AppendNumber(out, t.failed_attempts);
    out += ' ';
    AppendNumber(out, t.wasted_seconds);
    out += '\n';
  }
  return out;
}

void RunTrace::Save(std::ostream& os) const {
  const std::string text = ToText();
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

RunTrace RunTrace::Load(std::istream& is) {
  RunTrace trace;
  std::string magic;
  size_t n = 0;
  is >> magic >> trace.job_name >> trace.submit_time >> trace.finish_time >> n;
  assert(magic == "jockey_trace_v1");
  trace.tasks.resize(n);
  for (auto& t : trace.tasks) {
    is >> t.id.stage >> t.id.index >> t.ready_time >> t.start_time >> t.end_time >>
        t.failed_attempts >> t.wasted_seconds;
  }
  return trace;
}

std::vector<const TaskRecord*> RunTrace::StageRecords(int stage_id) const {
  std::vector<const TaskRecord*> out;
  for (const auto& t : tasks) {
    if (t.id.stage == stage_id) {
      out.push_back(&t);
    }
  }
  std::sort(out.begin(), out.end(), [](const TaskRecord* a, const TaskRecord* b) {
    return a->id.index < b->id.index;
  });
  return out;
}

}  // namespace jockey
