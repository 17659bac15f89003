#include "util/log.hpp"

#include <chrono>
#include <cstdarg>
#include <cstdio>

namespace cbe::util {

namespace {

/// Milliseconds since the first log call (monotonic clock).
double log_uptime_ms() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(now - epoch).count();
}

}  // namespace

namespace detail {

void vlog(LogLevel level, const char* component, const char* fmt, ...) {
  // Format the whole line locally and emit it with one fwrite so lines from
  // concurrent threads interleave at line granularity, not mid-line.
  char line[1024];
  int n = std::snprintf(line, sizeof line, "[%9.3fms %s %s] ",
                        log_uptime_ms(), component,
                        level == LogLevel::Warn ? "WARN" : "ERROR");
  if (n < 0) return;
  if (n > static_cast<int>(sizeof line) - 2) n = sizeof line - 2;
  va_list args;
  va_start(args, fmt);
  int m = std::vsnprintf(line + n, sizeof line - static_cast<std::size_t>(n) - 1,
                         fmt, args);
  va_end(args);
  if (m < 0) m = 0;
  int end = n + m;
  if (end > static_cast<int>(sizeof line) - 2) end = sizeof line - 2;
  line[end] = '\n';
  std::fwrite(line, 1, static_cast<std::size_t>(end) + 1, stderr);
}

}  // namespace detail

}  // namespace cbe::util
