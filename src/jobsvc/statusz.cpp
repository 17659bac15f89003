#include "jobsvc/statusz.hpp"

#include <cinttypes>
#include <cstdio>

#include "trace/trace.hpp"
#include "util/table.hpp"

namespace cbe::jobsvc {

namespace {

void kv_u64(std::string& out, const char* k, std::uint64_t v, bool last) {
  out += '"';
  out += k;
  out += "\":";
  out += std::to_string(v);
  if (!last) out += ',';
}

void kv_i(std::string& out, const char* k, std::int64_t v, bool last) {
  out += '"';
  out += k;
  out += "\":";
  out += std::to_string(v);
  if (!last) out += ',';
}

void kv_f(std::string& out, const char* k, double v, bool last) {
  out += '"';
  out += k;
  out += "\":";
  out += util::fmt_f64(v);
  if (!last) out += ',';
}

void kv_b(std::string& out, const char* k, bool v, bool last) {
  out += '"';
  out += k;
  out += "\":";
  out += v ? "true" : "false";
  if (!last) out += ',';
}

}  // namespace

void fill_recorder_status(StatusSnapshot& s) {
  s.recorder_installed = trace::flight_recorder_counts(
      s.recorder_recorded, s.recorder_overwritten);
  s.recorder_dumps = trace::flight_dumps_written();
}

std::string statusz_json(const StatusSnapshot& s) {
  std::string out = "{\"schema\":\"cbe-statusz-v1\",";
  kv_i(out, "t_ns", s.t_ns, false);
  kv_u64(out, "seq", s.seq, false);

  out += "\"counters\":{";
  kv_u64(out, "submitted", s.submitted, false);
  kv_u64(out, "completed", s.completed, false);
  kv_u64(out, "rejected", s.rejected, false);
  kv_u64(out, "shed", s.shed, false);
  kv_u64(out, "failed", s.failed, false);
  kv_u64(out, "corrupt_jobs", s.corrupt_jobs, false);
  kv_u64(out, "deadline_exceeded", s.deadline_exceeded, false);
  kv_u64(out, "retries", s.retries, false);
  kv_u64(out, "migrations", s.migrations, false);
  kv_u64(out, "watchdog_fires", s.watchdog_fires, false);
  kv_u64(out, "breaker_opens", s.breaker_opens, false);
  kv_u64(out, "quarantined_blades", s.quarantined_blades, false);
  kv_u64(out, "corrupt_detected", s.corrupt_detected, false);
  kv_i(out, "queue_depth", s.queue_depth, false);
  kv_i(out, "running", s.running, true);
  out += "},";

  out += "\"latency\":{";
  kv_f(out, "p50_s", s.p50_latency_s, false);
  kv_f(out, "p99_s", s.p99_latency_s, true);
  out += "},";

  out += "\"slo\":{";
  kv_f(out, "miss_ratio", s.slo_miss_ratio, true);
  out += "},";

  out += "\"recorder\":{";
  kv_b(out, "installed", s.recorder_installed, false);
  kv_u64(out, "recorded", s.recorder_recorded, false);
  kv_u64(out, "overwritten", s.recorder_overwritten, false);
  kv_u64(out, "dumps", s.recorder_dumps, true);
  out += "},";

  out += "\"tenants\":[";
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    const TenantStatus& t = s.tenants[i];
    if (i != 0) out += ',';
    out += '{';
    kv_u64(out, "tenant", t.tenant, false);
    kv_i(out, "queued", t.queued, false);
    kv_i(out, "running", t.running, false);
    kv_i(out, "backoff", t.backoff, false);
    kv_u64(out, "completed", t.completed, false);
    kv_u64(out, "failed", t.failed, false);
    kv_u64(out, "rejected", t.rejected, false);
    kv_u64(out, "deadline_missed", t.deadline_missed, false);
    kv_f(out, "slo_miss_ratio", t.slo_miss_ratio, true);
    out += '}';
  }
  out += "],";

  out += "\"blades\":[";
  for (std::size_t i = 0; i < s.blades.size(); ++i) {
    const BladeStatus& b = s.blades[i];
    if (i != 0) out += ',';
    out += '{';
    kv_i(out, "blade", b.blade, false);
    kv_b(out, "alive", b.alive, false);
    kv_b(out, "quarantined", b.quarantined, false);
    out += "\"breaker\":\"" + b.breaker + "\",";
    kv_i(out, "running", b.running, false);
    kv_i(out, "slots", b.slots, false);
    kv_f(out, "degrade", b.degrade, false);
    kv_i(out, "consecutive_failures", b.consecutive_failures, false);
    kv_i(out, "corruption_strikes", b.corruption_strikes, false);
    kv_u64(out, "dispatches", b.dispatches, true);
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string statusz_text(const StatusSnapshot& s) {
  char line[256];
  std::string out = "# cbe-statusz v1\n";
  std::snprintf(line, sizeof line,
                "t=%.6fs seq=%" PRIu64 "  queue=%d running=%d\n",
                static_cast<double>(s.t_ns) * 1e-9, s.seq, s.queue_depth,
                s.running);
  out += line;
  std::snprintf(line, sizeof line,
                "jobs: submitted=%" PRIu64 " completed=%" PRIu64
                " failed=%" PRIu64 " corrupt=%" PRIu64 " rejected=%" PRIu64
                " shed=%" PRIu64 " deadline=%" PRIu64 "\n",
                s.submitted, s.completed, s.failed, s.corrupt_jobs,
                s.rejected, s.shed, s.deadline_exceeded);
  out += line;
  std::snprintf(line, sizeof line,
                "churn: retries=%" PRIu64 " migrations=%" PRIu64
                " watchdogs=%" PRIu64 " breaker_opens=%" PRIu64
                " quarantined=%" PRIu64 "\n",
                s.retries, s.migrations, s.watchdog_fires, s.breaker_opens,
                s.quarantined_blades);
  out += line;
  std::snprintf(line, sizeof line,
                "latency: p50=%.6fs p99=%.6fs  slo_miss=%.4f\n",
                s.p50_latency_s, s.p99_latency_s, s.slo_miss_ratio);
  out += line;
  std::snprintf(line, sizeof line,
                "recorder: %s recorded=%" PRIu64 " overwritten=%" PRIu64
                " dumps=%" PRIu64 "\n",
                s.recorder_installed ? "on" : "off", s.recorder_recorded,
                s.recorder_overwritten, s.recorder_dumps);
  out += line;
  out += "tenant  queued running backoff completed failed rejected "
         "deadline slo_miss\n";
  for (const TenantStatus& t : s.tenants) {
    std::snprintf(line, sizeof line,
                  "%6u  %6d %7d %7d %9" PRIu64 " %6" PRIu64 " %8" PRIu64
                  " %8" PRIu64 " %8.4f\n",
                  t.tenant, t.queued, t.running, t.backoff, t.completed,
                  t.failed, t.rejected, t.deadline_missed, t.slo_miss_ratio);
    out += line;
  }
  out += "blade  state      breaker    run/slots speed strikes dispatches\n";
  for (const BladeStatus& b : s.blades) {
    const char* state =
        b.quarantined ? "quarantine" : (b.alive ? "alive" : "dead");
    std::snprintf(line, sizeof line,
                  "%5d  %-10s %-10s %4d/%-5d %5.2f %7d %10" PRIu64 "\n",
                  b.blade, state, b.breaker.c_str(), b.running, b.slots,
                  b.degrade, b.corruption_strikes, b.dispatches);
    out += line;
  }
  return out;
}

}  // namespace cbe::jobsvc
