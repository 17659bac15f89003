#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

namespace cbe::util {

Cli::Cli(int argc, const char* const* argv) {
  prog_ = argc > 0 ? argv[0] : "prog";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    const auto eq = arg.find('=');
    const std::string typed = arg.substr(2, eq - 2);  // all of it if no '='
    std::string name = typed;
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (typed.rfind("no-", 0) == 0) {
      name = typed.substr(3);
      value = "false";
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      value = argv[++i];
    } else {
      value = "true";
    }
    flags_[name] = std::move(value);
    typed_[name] = typed;
  }
}

bool Cli::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) != 0;
}

std::string Cli::get(const std::string& name, const std::string& def) const {
  queried_[name] = true;
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  const std::string v = get(name, "");
  if (v.empty()) return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') {
    errors_.push_back("--" + name + " expects an integer, got '" + v + "'");
    return def;
  }
  return parsed;
}

double Cli::get_double(const std::string& name, double def) const {
  const std::string v = get(name, "");
  if (v.empty()) return def;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    errors_.push_back("--" + name + " expects a number, got '" + v + "'");
    return def;
  }
  return parsed;
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const std::string v = get(name, "");
  if (v.empty()) return def;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  errors_.push_back("--" + name + " expects a boolean, got '" + v + "'");
  return def;
}

std::int64_t Cli::get_count(const std::string& name, std::int64_t def,
                            std::int64_t bare, std::int64_t max) const {
  const std::string v = get(name, "");
  if (v.empty()) return def;
  if (v == "true") return bare;
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || parsed < 1 || parsed > max) {
    errors_.push_back("--" + name + " expects an integer in [1, " +
                      std::to_string(max) + "], got '" + v + "'");
    return def;
  }
  return parsed;
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, spelled] : typed_) {
    if (!queried_.count(k)) out.push_back(spelled);
  }
  return out;
}

void Cli::enforce_usage_or_exit(const std::string& usage) const {
  bool bad = false;
  for (const std::string& e : errors_) {
    std::fprintf(stderr, "%s: %s\n", prog_.c_str(), e.c_str());
    bad = true;
  }
  for (const std::string& f : unused()) {
    std::fprintf(stderr, "%s: unknown flag --%s\n", prog_.c_str(), f.c_str());
    bad = true;
  }
  if (!bad) return;
  std::fprintf(stderr, "usage: %s\n", usage.c_str());
  std::exit(2);
}

}  // namespace cbe::util
