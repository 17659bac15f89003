// Minimal command-line flag parser for bench/example binaries.
// Supports --name=value, --name value, and boolean --name / --no-name.
//
// Malformed values (non-numeric where a number is expected, missing values)
// are recorded rather than silently coerced; a binary calls
// enforce_usage_or_exit() once all flags have been queried, and any recorded
// error or unknown flag prints a diagnostic plus the usage string and exits
// with code 2 (the conventional usage-error status).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cbe::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;
  /// A count flag: `def` when absent, `bare` for a bare `--name`, otherwise
  /// an integer in [1, max]; any other value is a usage error.
  std::int64_t get_count(const std::string& name, std::int64_t def,
                         std::int64_t bare, std::int64_t max) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were provided but never queried, spelled as typed (a bare
  /// `--no-x` reads "no-x"); used to reject typos.
  std::vector<std::string> unused() const;

  /// Validates the parse after every flag has been queried: any recorded
  /// value error or unqueried (unknown) flag prints the diagnostics and
  /// `usage` to stderr and exits the process with code 2.
  void enforce_usage_or_exit(const std::string& usage) const;

 private:
  std::map<std::string, std::string> flags_;
  std::map<std::string, std::string> typed_;  ///< flag -> name as typed
  mutable std::map<std::string, bool> queried_;
  mutable std::vector<std::string> errors_;
  std::vector<std::string> positional_;
  std::string prog_;
};

}  // namespace cbe::util
