// Strict parsing of command-line flag values for the CLI tools. A value
// must parse completely and lie in range, or the tool prints a message
// naming the flag and exits 2 before any run starts: a typo must never run
// (and, on a golden's command line, pin) a different configuration.

#ifndef SRC_COMMON_FLAG_VALUES_H_
#define SRC_COMMON_FLAG_VALUES_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace xenic {

// Reports that `flag` wants `wants` (a type or a list of names), not
// `value`, and exits 2.
[[noreturn]] inline void RejectFlagValue(const char* flag, const char* value,
                                         const std::string& wants) {
  std::fprintf(stderr, "%s wants %s, got '%s'\n", flag, wants.c_str(), value);
  std::exit(2);
}

// An unsigned decimal integer in [min, max] (max is the field's range).
inline uint64_t FlagUint(const char* flag, const char* value, uint64_t min = 0,
                         uint64_t max = std::numeric_limits<uint64_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (value[0] < '0' || value[0] > '9' || *end != '\0' || errno == ERANGE || v > max) {
    RejectFlagValue(flag, value, "an unsigned integer");
  }
  if (v < min) {
    RejectFlagValue(flag, value, "an integer of at least " + std::to_string(min));
  }
  return v;
}

// A probability in [0, 1].
inline double FlagProbability(const char* flag, const char* value) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(v >= 0.0 && v <= 1.0)) {
    RejectFlagValue(flag, value, "a probability in [0, 1]");
  }
  return v;
}

}  // namespace xenic

#endif  // SRC_COMMON_FLAG_VALUES_H_
