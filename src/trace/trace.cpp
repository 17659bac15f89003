#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "trace/export.hpp"

namespace cbe::trace {

EventKind event_kind_from_name(std::string_view name) noexcept {
  for (int i = 0; i < static_cast<int>(EventKind::kCount); ++i) {
    const auto k = static_cast<EventKind>(i);
    if (name == event_name(k)) return k;
  }
  return EventKind::kCount;
}

TraceSink::TraceSink(std::size_t capacity) {
  if (capacity == 0) return;
  limit_ = std::max(capacity, kMinCapacity);
  events_.reserve(limit_);
}

void TraceSink::record(std::int64_t t_ns, EventKind kind, int spe, int pid,
                       std::int64_t a, std::int64_t b) {
  const Event e{t_ns, a, b, pid, static_cast<std::int16_t>(spe), kind,
                current_span()};
  if (events_.size() < limit_) {
    events_.push_back(e);
    return;
  }
  events_[oldest_] = e;
  if (++oldest_ == limit_) oldest_ = 0;
  ++overwritten_;
}

std::vector<Event> TraceSink::tail() const {
  std::vector<Event> out(events_.size());
  std::rotate_copy(events_.begin(),
                   events_.begin() + static_cast<std::ptrdiff_t>(oldest_),
                   events_.end(), out.begin());
  return out;
}

std::uint64_t TraceSink::count(EventKind kind) const noexcept {
  std::uint64_t n = 0;
  for (const Event& e : events_) n += e.kind == kind ? 1 : 0;
  return n;
}

namespace {
thread_local TraceSink* g_current = nullptr;
thread_local std::uint64_t g_current_span = kNoSpan;
}  // namespace

TraceSink* current() noexcept { return g_current; }

TraceSink* set_current(TraceSink* sink) noexcept {
  TraceSink* prev = g_current;
  g_current = sink;
  return prev;
}

std::uint64_t current_span() noexcept { return g_current_span; }

std::uint64_t set_current_span(std::uint64_t span) noexcept {
  const std::uint64_t prev = g_current_span;
  g_current_span = span;
  return prev;
}

// -- Crash dumps --------------------------------------------------------------

namespace {
std::mutex g_dump_mu;
const TraceSink* g_recorder = nullptr;
std::size_t g_window = 0;
std::string g_dump_path;
int g_dump_budget = 0;
std::atomic<std::uint64_t> g_dumps_written{0};

/// Events a dump of `sink` keeps: its newest `window`.
std::size_t dumped(const TraceSink& sink, std::size_t window) {
  return std::min(sink.size(), window);
}
}  // namespace

TraceSink::~TraceSink() {
  std::lock_guard lock(g_dump_mu);
  if (g_recorder == this) {
    g_recorder = nullptr;
    g_dump_path.clear();
  }
}

void install_flight_recorder(const TraceSink* sink, std::size_t window,
                             std::string dump_path, int max_dumps) {
  std::lock_guard lock(g_dump_mu);
  g_recorder = sink;
  g_window = std::max(window, TraceSink::kMinCapacity);
  g_dump_path = std::move(dump_path);
  g_dump_budget = sink != nullptr ? max_dumps : 0;
}

bool flight_recorder_counts(std::uint64_t& recorded,
                            std::uint64_t& overwritten) noexcept {
  std::lock_guard lock(g_dump_mu);
  if (g_recorder == nullptr) return false;
  recorded = g_recorder->recorded();
  overwritten = recorded - dumped(*g_recorder, g_window);
  return true;
}

std::string flight_dump_text(const TraceSink& sink, std::size_t window,
                             const char* reason) {
  std::vector<Event> events = sink.tail();
  const std::size_t kept = dumped(sink, window);
  events.erase(events.begin(),
               events.end() - static_cast<std::ptrdiff_t>(kept));
  // Header first so the strict parser accepts the file; the annotation rides
  // in a comment line the parser skips.
  std::string out = "# cbe-trace v1\n";
  out += "# flight-recorder reason=" + std::string(reason) +
         " recorded=" + std::to_string(sink.recorded()) +
         " overwritten=" + std::to_string(sink.recorded() - kept) +
         " capacity=" + std::to_string(window) + "\n";
  const std::string body = to_text(events);
  // to_text emits its own header line; keep only the event lines.
  const std::size_t nl = body.find('\n');
  out += nl == std::string::npos ? body : body.substr(nl + 1);
  return out;
}

bool dump_flight_recorder(const char* reason, bool force) noexcept {
  try {
    std::unique_lock lock(g_dump_mu);
    if (g_recorder == nullptr || g_dump_path.empty()) return false;
    if (!force) {
      if (g_dump_budget <= 0) return false;
      --g_dump_budget;
    }
    const TraceSink* sink = g_recorder;
    const std::size_t window = g_window;
    const std::string path = g_dump_path;
    lock.unlock();
    if (!write_file(path, flight_dump_text(*sink, window, reason))) {
      return false;
    }
    g_dumps_written.fetch_add(1, std::memory_order_relaxed);
    return true;
  } catch (...) {
    return false;  // a dump must never turn a crash into a different crash
  }
}

std::uint64_t flight_dumps_written() noexcept {
  return g_dumps_written.load(std::memory_order_relaxed);
}

}  // namespace cbe::trace
