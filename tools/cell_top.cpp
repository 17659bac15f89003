// cell_top: operator view over the job service's live status plane.
//
//   cell_top [--json] [--watch[=N]] [--interval=MS] FILE
//
// FILE is a `cbe-statusz-v1` snapshot written by cell_jobsvc --statusz=FILE.
// The default rendering is the same text layout the service writes with
// --statusz-text (cell_top reconstructs it from the JSON, so only the JSON
// file needs to be exported).
//
//   --json          re-emit the parsed snapshot as canonical JSON instead of
//                   text (round-trip check: output diffs clean against the
//                   service's own export)
//   --watch[=N]     re-read and re-render the file N times (bare flag: until
//                   interrupted), sleeping --interval between reads; the
//                   poor man's `top` loop for a live run
//   --interval=MS   watch poll interval in milliseconds (default 500)
//
// Exit codes: 0 = rendered, 1 = snapshot malformed / wrong schema,
// 2 = usage or unreadable file.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "jobsvc/statusz.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using cbe::util::Json;

bool slurp(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

std::uint64_t u64_of(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? static_cast<std::uint64_t>(v->number)
                                          : 0;
}

std::int64_t i64_of(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? static_cast<std::int64_t>(v->number)
                                          : 0;
}

double f64_of(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number : 0.0;
}

bool bool_of(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v != nullptr && v->type == Json::Type::Bool && v->boolean;
}

/// Rebuilds a StatusSnapshot from its cbe-statusz-v1 JSON export.  Unknown
/// keys are ignored (the schema's forward-compat contract); missing keys
/// read as zero.
bool snapshot_from_json(const Json& root, cbe::jobsvc::StatusSnapshot& s,
                        std::string& err) {
  const Json* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->str != "cbe-statusz-v1") {
    err = "not a cbe-statusz-v1 snapshot";
    return false;
  }
  s.t_ns = i64_of(root, "t_ns");
  s.seq = u64_of(root, "seq");
  if (const Json* c = root.find("counters"); c != nullptr && c->is_object()) {
    s.submitted = u64_of(*c, "submitted");
    s.completed = u64_of(*c, "completed");
    s.rejected = u64_of(*c, "rejected");
    s.shed = u64_of(*c, "shed");
    s.failed = u64_of(*c, "failed");
    s.corrupt_jobs = u64_of(*c, "corrupt_jobs");
    s.deadline_exceeded = u64_of(*c, "deadline_exceeded");
    s.retries = u64_of(*c, "retries");
    s.migrations = u64_of(*c, "migrations");
    s.watchdog_fires = u64_of(*c, "watchdog_fires");
    s.breaker_opens = u64_of(*c, "breaker_opens");
    s.quarantined_blades = u64_of(*c, "quarantined_blades");
    s.corrupt_detected = u64_of(*c, "corrupt_detected");
    s.queue_depth = static_cast<int>(i64_of(*c, "queue_depth"));
    s.running = static_cast<int>(i64_of(*c, "running"));
  }
  if (const Json* l = root.find("latency"); l != nullptr && l->is_object()) {
    s.p50_latency_s = f64_of(*l, "p50_s");
    s.p99_latency_s = f64_of(*l, "p99_s");
  }
  if (const Json* o = root.find("slo"); o != nullptr && o->is_object()) {
    s.slo_miss_ratio = f64_of(*o, "miss_ratio");
  }
  if (const Json* r = root.find("recorder"); r != nullptr && r->is_object()) {
    s.recorder_installed = bool_of(*r, "installed");
    s.recorder_recorded = u64_of(*r, "recorded");
    s.recorder_overwritten = u64_of(*r, "overwritten");
    s.recorder_dumps = u64_of(*r, "dumps");
  }
  if (const Json* ts = root.find("tenants"); ts != nullptr && ts->is_array()) {
    for (const Json& t : ts->items) {
      if (!t.is_object()) continue;
      cbe::jobsvc::TenantStatus out;
      out.tenant = static_cast<std::uint32_t>(u64_of(t, "tenant"));
      out.queued = static_cast<int>(i64_of(t, "queued"));
      out.running = static_cast<int>(i64_of(t, "running"));
      out.backoff = static_cast<int>(i64_of(t, "backoff"));
      out.completed = u64_of(t, "completed");
      out.failed = u64_of(t, "failed");
      out.rejected = u64_of(t, "rejected");
      out.deadline_missed = u64_of(t, "deadline_missed");
      out.slo_miss_ratio = f64_of(t, "slo_miss_ratio");
      s.tenants.push_back(out);
    }
  }
  if (const Json* bs = root.find("blades"); bs != nullptr && bs->is_array()) {
    for (const Json& b : bs->items) {
      if (!b.is_object()) continue;
      cbe::jobsvc::BladeStatus out;
      out.blade = static_cast<int>(i64_of(b, "blade"));
      out.alive = bool_of(b, "alive");
      out.quarantined = bool_of(b, "quarantined");
      if (const Json* br = b.find("breaker"); br != nullptr && br->is_string())
        out.breaker = br->str;
      out.running = static_cast<int>(i64_of(b, "running"));
      out.slots = static_cast<int>(i64_of(b, "slots"));
      out.degrade = f64_of(b, "degrade");
      out.consecutive_failures =
          static_cast<int>(i64_of(b, "consecutive_failures"));
      out.corruption_strikes =
          static_cast<int>(i64_of(b, "corruption_strikes"));
      out.dispatches = u64_of(b, "dispatches");
      s.blades.push_back(out);
    }
  }
  return true;
}

int render_once(const std::string& path, bool as_json) {
  std::string text;
  if (!slurp(path, text)) {
    std::fprintf(stderr, "cell_top: cannot read %s\n", path.c_str());
    return 2;
  }
  Json root;
  std::string err;
  if (!cbe::util::parse_json(text, root, &err)) {
    std::fprintf(stderr, "cell_top: %s: %s\n", path.c_str(), err.c_str());
    return 1;
  }
  cbe::jobsvc::StatusSnapshot snap;
  if (!snapshot_from_json(root, snap, err)) {
    std::fprintf(stderr, "cell_top: %s: %s\n", path.c_str(), err.c_str());
    return 1;
  }
  const std::string out = as_json ? cbe::jobsvc::statusz_json(snap)
                                  : cbe::jobsvc::statusz_text(snap);
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
  return 0;
}

constexpr char kUsage[] =
    R"(cell_top [--json] [--watch[=N]] [--interval=MS] FILE

Renders a cbe-statusz-v1 snapshot (from cell_jobsvc --statusz=FILE).
  --json          re-emit canonical JSON instead of the text view
  --watch[=N]     re-render N times (bare flag: forever), --interval apart
  --interval=MS   watch poll interval in milliseconds (default 500)
)";

}  // namespace

int main(int argc, char** argv) {
  cbe::util::Cli cli(argc, argv);
  // Cli binds `--flag value` greedily, so `cell_top --json FILE` parses as
  // --json=FILE: anything that isn't a boolean token is the swallowed path.
  const std::string json_v = cli.get("json", "");
  bool as_json = false;
  std::string path;
  if (json_v == "true" || json_v == "1" || json_v == "yes" || json_v == "on") {
    as_json = true;
  } else if (!json_v.empty() && json_v != "false" && json_v != "0" &&
             json_v != "no" && json_v != "off") {
    as_json = true;
    path = json_v;
  }
  const std::string watch = cli.get("watch", "");
  const std::int64_t interval_ms = cli.get_int("interval", 500);
  cli.enforce_usage_or_exit(kUsage);
  if (path.empty()) {
    if (cli.positional().size() != 1) {
      std::fprintf(stderr, "usage: %s", kUsage);
      return 2;
    }
    path = cli.positional()[0];
  } else if (!cli.positional().empty()) {
    std::fprintf(stderr, "usage: %s", kUsage);
    return 2;
  }
  if (watch.empty()) return render_once(path, as_json);

  // watch="true" (bare flag) loops forever; --watch=N stops after N renders.
  long long remaining =
      watch == "true" ? -1 : std::strtoll(watch.c_str(), nullptr, 10);
  if (remaining == 0) remaining = 1;
  int rc = 0;
  while (remaining != 0) {
    rc = render_once(path, as_json);
    if (rc == 2) return rc;  // unreadable file: stop rather than spin
    if (remaining > 0 && --remaining == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    std::fputs("\n", stdout);
  }
  return rc;
}
