#include "src/obs/json_format.h"

#include <charconv>
#include <cstdlib>
#include <system_error>

namespace jockey {

void AppendJsonNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  char* end = buffer;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buffer, buffer + sizeof(buffer), value, std::chars_format::general,
                        precision)
              .ptr;
    double parsed = 0.0;
    if (std::from_chars(buffer, end, parsed).ec == std::errc() && parsed == value) {
      break;
    }
  }
  out.append(buffer, end);
}

std::string JsonNumber(double value) {
  std::string out;
  AppendJsonNumber(out, value);
  return out;
}

void AppendJsonString(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xf]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string JsonString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonString(out, s);
  return out;
}

bool ParseJsonNumber(std::string_view text, double& out) {
  if (text.empty()) {
    return false;
  }
  double value = 0.0;
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last) {
    const std::string copy(text);
    char* end = nullptr;
    value = std::strtod(copy.c_str(), &end);
    // strtod stops at the first NUL, so a NUL byte inside the text ends the number.
    if (end == copy.c_str() || *end != '\0') {
      return false;
    }
  }
  out = value;
  return true;
}

}  // namespace jockey
