#include "trace/recorder.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <type_traits>

#include "trace/export.hpp"

namespace cbe::trace {

// One single-writer ring.  `head` counts every record by the owning thread;
// event n lives in slot n % slots, and the ring has one slot more than the
// capacity so the slot being written never holds an event tail() may keep.
// Slots are stored as atomic words: a reader copying the oldest slot while
// the writer overwrites it must not race, only lose that event.  The writer
// release-stores every word and then the head; readers acquire both, so
// reading any word of a newer event proves the head has moved past it.
struct FlightRecorder::Ring {
  static constexpr std::size_t kWords = sizeof(Event) / sizeof(std::uint64_t);
  static_assert(sizeof(Event) % sizeof(std::uint64_t) == 0 &&
                std::is_trivially_copyable_v<Event>);
  struct Slot {
    std::atomic<std::uint64_t> w[kWords];
  };

  explicit Ring(std::size_t capacity)
      : n_slots(capacity + 1), slots(new Slot[n_slots]) {}

  void store(std::uint64_t n, const Event& e) {
    std::uint64_t w[kWords];
    std::memcpy(w, &e, sizeof e);
    Slot& s = slots[static_cast<std::size_t>(n % n_slots)];
    for (std::size_t k = 0; k < kWords; ++k) {
      s.w[k].store(w[k], std::memory_order_release);
    }
  }
  Event load(std::uint64_t n) const {
    std::uint64_t w[kWords];
    const Slot& s = slots[static_cast<std::size_t>(n % n_slots)];
    for (std::size_t k = 0; k < kWords; ++k) {
      w[k] = s.w[k].load(std::memory_order_acquire);
    }
    Event e;
    std::memcpy(&e, w, sizeof e);
    return e;
  }

  const std::size_t n_slots;
  const std::unique_ptr<Slot[]> slots;
  std::atomic<std::uint64_t> head{0};
};

struct FlightRecorder::Impl {
  mutable std::mutex mu;  ///< guards `rings` registration only
  std::vector<std::unique_ptr<Ring>> rings;
};

// Thread-local attach cache: one ring per (thread, recorder) pair.  Keyed by
// the recorder's process-unique id, not its address: a recorder built where
// a destroyed one lived must not inherit the dead recorder's ring from a
// thread that outlived it.  Nested inside the class via this struct so it
// can name the private Ring type.
struct FlightRecorder::TlsAttach {
  std::uint64_t owner = 0;  ///< 0 = none; ids start at 1
  Ring* ring = nullptr;
  static TlsAttach& self() {
    thread_local TlsAttach tls;
    return tls;
  }
};

namespace {
std::atomic<std::uint64_t> g_next_recorder_id{1};
}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity < 16 ? 16 : capacity),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      impl_(new Impl) {}

FlightRecorder::~FlightRecorder() {
  if (installed_flight_recorder() == this) {
    install_flight_recorder(nullptr, "");
  }
  delete impl_;
}

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() {
  TlsAttach& tls = TlsAttach::self();
  if (tls.owner == id_) return tls.ring;
  std::lock_guard lock(impl_->mu);
  impl_->rings.push_back(std::make_unique<Ring>(capacity_));
  tls = TlsAttach{id_, impl_->rings.back().get()};
  return tls.ring;
}

void FlightRecorder::record(std::int64_t t_ns, EventKind kind, int spe,
                            int pid, std::int64_t a, std::int64_t b) {
  Ring* r = ring_for_this_thread();
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  r->store(h, Event{t_ns, a, b, pid, static_cast<std::int16_t>(spe), kind,
                    current_span()});
  r->head.store(h + 1, std::memory_order_release);
}

std::vector<Event> FlightRecorder::tail() const {
  std::vector<Event> out;
  {
    std::lock_guard lock(impl_->mu);
    for (const auto& r : impl_->rings) {
      const std::uint64_t h = r->head.load(std::memory_order_acquire);
      const std::uint64_t first = h > capacity_ ? h - capacity_ : 0;
      const std::size_t at = out.size();
      out.reserve(at + (h - first));
      for (std::uint64_t i = first; i < h; ++i) out.push_back(r->load(i));
      // A writer still recording may have overwritten the oldest copied
      // slots; keep only the events the ring holds after the copy.
      const std::uint64_t h2 = r->head.load(std::memory_order_acquire);
      if (h2 > first + capacity_) {
        const std::uint64_t lost = std::min(h2 - capacity_, h) - first;
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(at),
                  out.begin() + static_cast<std::ptrdiff_t>(at + lost));
      }
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Event& x, const Event& y) {
    return x.t_ns < y.t_ns;
  });
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard lock(impl_->mu);
  std::uint64_t n = 0;
  for (const auto& r : impl_->rings) {
    n += r->head.load(std::memory_order_acquire);
  }
  return n;
}

std::uint64_t FlightRecorder::overwritten() const {
  std::lock_guard lock(impl_->mu);
  std::uint64_t lost = 0;
  for (const auto& r : impl_->rings) {
    const std::uint64_t h = r->head.load(std::memory_order_acquire);
    if (h > capacity_) lost += h - capacity_;
  }
  return lost;
}

std::size_t FlightRecorder::threads_attached() const {
  std::lock_guard lock(impl_->mu);
  return impl_->rings.size();
}

// -- Process-wide crash-dump registration ------------------------------------

namespace {
std::mutex g_dump_mu;
FlightRecorder* g_recorder = nullptr;
std::string g_dump_path;
int g_dump_budget = 0;
std::atomic<std::uint64_t> g_dumps_written{0};
}  // namespace

void install_flight_recorder(FlightRecorder* rec, std::string dump_path,
                             int max_dumps) {
  std::lock_guard lock(g_dump_mu);
  g_recorder = rec;
  g_dump_path = std::move(dump_path);
  g_dump_budget = rec != nullptr ? max_dumps : 0;
}

FlightRecorder* installed_flight_recorder() noexcept {
  std::lock_guard lock(g_dump_mu);
  return g_recorder;
}

std::string flight_dump_text(const FlightRecorder& rec,
                             const std::vector<Event>& events,
                             const char* reason) {
  // Header first so the strict parser accepts the file; the annotation rides
  // in a comment line the parser skips.
  std::string out = "# cbe-trace v1\n";
  out += "# flight-recorder reason=" + std::string(reason) +
         " recorded=" + std::to_string(rec.recorded()) +
         " overwritten=" + std::to_string(rec.overwritten()) +
         " capacity=" + std::to_string(rec.capacity()) +
         " threads=" + std::to_string(rec.threads_attached()) + "\n";
  const std::string body = to_text(events);
  // to_text emits its own header line; keep only the event lines.
  const std::size_t nl = body.find('\n');
  out += nl == std::string::npos ? body : body.substr(nl + 1);
  return out;
}

bool dump_flight_recorder(const char* reason, bool force) noexcept {
  FlightRecorder* rec = nullptr;
  std::string path;
  {
    std::lock_guard lock(g_dump_mu);
    if (g_recorder == nullptr || g_dump_path.empty()) return false;
    if (!force) {
      if (g_dump_budget <= 0) return false;
      --g_dump_budget;
    }
    rec = g_recorder;
    path = g_dump_path;
  }
  try {
    const std::string text = flight_dump_text(*rec, rec->tail(), reason);
    if (!write_file(path, text)) return false;
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
