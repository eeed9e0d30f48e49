// Shared deterministic JSON number / string formatting and number parsing for the
// observability exporters and readers (metrics JSON, JSONL traces, fault plans,
// time series). One writer and one reader everywhere is what makes "same run, same
// bytes" and "same line, same verdict" hold across the whole layer.

#ifndef SRC_OBS_JSON_FORMAT_H_
#define SRC_OBS_JSON_FORMAT_H_

#include <cmath>
#include <limits>
#include <string>
#include <string_view>

namespace jockey {

// Shortest decimal form that round-trips: tries increasing precision (the bytes of
// printf's %.15g, %.16g, %.17g, produced by std::to_chars) and keeps the first that
// parses back exactly. Pure function of the bits, so identical values always format
// identically. Non-finite values (never produced by the simulators, but
// defensively) render as null. The append form writes into the caller's buffer.
std::string JsonNumber(double value);
void AppendJsonNumber(std::string& out, double value);

// Escapes the characters JSON requires ('"', '\\', control bytes); the event model
// emits no strings today, but the metrics registry exports user-chosen names.
std::string JsonString(const std::string& s);
void AppendJsonString(std::string& out, std::string_view s);

// Parses all of `text` as a double and returns false (leaving `out` untouched)
// unless the whole text is consumed. std::from_chars decides the common spellings;
// what it rejects but strtod accepts (a leading '+' or whitespace, hex floats,
// out-of-range exponents) is decided by strtod on a NUL-terminated copy, so the
// accepted set is strtod's.
bool ParseJsonNumber(std::string_view text, double& out);

// Converts a parsed JSON number to an integer field the way a C cast would
// (truncation toward zero), but only when the truncated value fits T: NaN, the
// infinities and out-of-range values return false instead of invoking undefined
// behaviour, so readers report the field as malformed.
template <typename T>
bool TruncateTo(double value, T& out) {
  const double t = std::trunc(value);
  if (!(t >= static_cast<double>(std::numeric_limits<T>::min()) &&
        t < std::ldexp(1.0, std::numeric_limits<T>::digits))) {
    return false;
  }
  out = static_cast<T>(t);
  return true;
}

}  // namespace jockey

#endif  // SRC_OBS_JSON_FORMAT_H_
