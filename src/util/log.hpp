// Component-tagged logging for failures an operator must see.  Every line
// carries a monotonic timestamp (milliseconds since the first log call) and
// a component tag, so interleaved lines from the service, runtime and trace
// layers can be ordered and attributed:
//
//   [   12.034ms jobsvc WARN] statusz: cannot write s.json
//
// Logging is thread-safe at line granularity: each line is formatted into a
// local buffer and written to stderr with a single fwrite.
#pragma once

namespace cbe::util {

enum class LogLevel { Warn, Error };

namespace detail {

void vlog(LogLevel level, const char* component, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

}  // namespace detail

/// Component-tagged log line: CBE_LOG_C(Warn, "jobsvc", "fmt", ...).
#define CBE_LOG_C(level, component, ...)                                     \
  ::cbe::util::detail::vlog(::cbe::util::LogLevel::level, component,         \
                            __VA_ARGS__)

}  // namespace cbe::util
