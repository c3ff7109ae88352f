// Strict command-line flag parsing shared by dosc_cli and dosc_serve.
//
// Every numeric flag goes through parse_real or parse_count: the whole
// token must parse, a real must be finite, and a count must be a decimal
// integer within its target type's range and any stated minimum. A bad
// token throws FlagError naming the flag and the token; both binaries
// print it with their usage text and exit 2.
//
// The decision daemon's flags live in one table, kDaemonFlags, which
// `dosc_serve` and `dosc_cli serve` both parse through parse_daemon_args,
// so the two entry points cannot drift apart.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "serve/daemon.hpp"

namespace dosc::cli {

/// A rejected flag: unknown, missing its value, or an unparsable value.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline FlagError bad_value(const char* flag, const char* token, const std::string& expected) {
  return FlagError(std::string("invalid value for ") + flag + ": '" + token + "' (expected " +
                   expected + ")");
}

/// A finite real number spanning the whole token ("nan", "inf" and "5ms"
/// are rejected).
inline double parse_real(const char* flag, const char* token) {
  char* end = nullptr;
  const double value = std::strtod(token, &end);
  if (end == token || *end != '\0' || !std::isfinite(value)) {
    throw bad_value(flag, token, "a finite number");
  }
  return value;
}

/// A decimal integer in [min, max of T]. Digits only, so "-1", "1.5",
/// "1e3" and "abc" are rejected instead of wrapped, truncated or read as 0.
template <typename T>
T parse_count(const char* flag, const char* token, T min = 0) {
  static_assert(std::is_integral_v<T>);
  const auto lo = static_cast<unsigned long long>(min);
  const auto hi = static_cast<unsigned long long>(std::numeric_limits<T>::max());
  bool digits = *token != '\0';
  for (const char* c = token; *c != '\0'; ++c) digits = digits && *c >= '0' && *c <= '9';
  errno = 0;
  const unsigned long long value = digits ? std::strtoull(token, nullptr, 10) : 0;
  if (!digits || errno == ERANGE || value < lo || value > hi) {
    throw bad_value(flag, token,
                    "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<T>(value);
}

/// One flag of the decision daemon; every one takes a value. `apply`
/// parses `token` into the options.
struct DaemonFlag {
  const char* name;
  const char* help;  ///< usage line
  void (*apply)(serve::DaemonOptions& options, const char* flag, const char* token);
};

inline constexpr DaemonFlag kDaemonFlags[] = {
    {"--port", "--port P           UDP port (default 0 = ephemeral, printed as PORT <n>)",
     [](serve::DaemonOptions& o, const char* f, const char* t) {
       o.server.port = parse_count<std::uint16_t>(f, t);
     }},
    {"--threads", "--threads N        worker threads sharing the socket (default 1)",
     [](serve::DaemonOptions& o, const char* f, const char* t) {
       o.server.threads = parse_count<std::size_t>(f, t);
     }},
    {"--reload-ms",
     "--reload-ms MS     policy file change poll interval, 0 = off (default 1000)",
     [](serve::DaemonOptions& o, const char* f, const char* t) {
       o.reload_ms = parse_count<std::uint64_t>(f, t);
     }},
    {"--duration",
     "--duration S       exit after S seconds, 0 = until signal (default 0)",
     [](serve::DaemonOptions& o, const char* f, const char* t) {
       o.duration_s = parse_real(f, t);
     }},
};

/// Parse `<scenario.json> <policy.json> [daemon flags]` from argv[first..].
/// Throws FlagError on an unknown flag, a missing or bad value, or a
/// positional count other than two. Opens nothing.
inline serve::DaemonOptions parse_daemon_args(int argc, char** argv, int first) {
  serve::DaemonOptions options;
  std::vector<const char*> positional;
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] != '-') {
      positional.push_back(arg);
      continue;
    }
    const DaemonFlag* flag = std::find_if(
        std::begin(kDaemonFlags), std::end(kDaemonFlags),
        [arg](const DaemonFlag& f) { return std::strcmp(f.name, arg) == 0; });
    if (flag == std::end(kDaemonFlags)) throw FlagError(std::string("unknown flag: ") + arg);
    if (i + 1 >= argc) throw FlagError(std::string("missing value for ") + arg);
    flag->apply(options, arg, argv[++i]);
  }
  if (positional.size() != 2) {
    throw FlagError("expected exactly two arguments: <scenario.json> <policy.json>");
  }
  options.scenario_path = positional[0];
  options.policy_path = positional[1];
  return options;
}

}  // namespace dosc::cli
