// The one JSON string escaper shared by every hand-written JSON emitter
// (perf dumps, health, critical-path exemplars, JSON log lines, BENCH files).
#ifndef MALACOLOGY_COMMON_JSON_H_
#define MALACOLOGY_COMMON_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace mal {

// Returns `s` escaped for use between the quotes of a JSON string literal:
// `"`, `\` and newline get their short escapes, every other control
// character becomes \u00XX.
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace mal

#endif  // MALACOLOGY_COMMON_JSON_H_
