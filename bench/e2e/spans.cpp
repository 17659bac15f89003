#include <cstdio>

#include "e2e.hpp"

namespace cbe::e2e {

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Spans::open(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0,
                        stack_.empty() ? -1 : stack_.back(), request_});
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

void Spans::add_summed(const char* name, std::int64_t start_ns,
                       std::int64_t total_ns) {
  spans_.push_back(Span{name, start_ns, start_ns + total_ns,
                        stack_.empty() ? -1 : stack_.back(), request_});
}

std::map<std::string, double> Spans::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

double Spans::duration_s(const std::string& name) const {
  for (const Span& s : spans_) {
    if (s.name == name) return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return 0.0;
}

std::string Spans::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char line[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%u}}",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  static_cast<int>(s.name.find('.')), s.name.c_str(),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, s.request);
    out += line;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace cbe::e2e
