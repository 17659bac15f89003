#include "ckpt/format.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "sim/fault.hpp"
#include "util/crc32.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace cbe::ckpt {

namespace {

// "CBECKPT1" as a little-endian u64.
constexpr std::uint64_t kMagic = 0x3154504b43454243ull;
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8 + 4 + 4;
constexpr std::size_t kTagSize = 4;

std::uint8_t* store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return p + 4;
}

std::uint8_t* store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return p + 8;
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

const char* error_kind_name(ErrorKind k) noexcept {
  switch (k) {
    case ErrorKind::Io: return "io";
    case ErrorKind::BadMagic: return "bad-magic";
    case ErrorKind::BadVersion: return "bad-version";
    case ErrorKind::BadConfigHash: return "bad-config-hash";
    case ErrorKind::Truncated: return "truncated";
    case ErrorKind::CrcMismatch: return "crc-mismatch";
    case ErrorKind::MissingSection: return "missing-section";
    case ErrorKind::Malformed: return "malformed";
  }
  return "unknown";
}

std::uint64_t build_config_hash() noexcept {
  // FNV-1a over the facts that decide whether this build can interpret a
  // checkpoint payload byte-for-byte.
  const std::uint32_t one = 1;
  const bool little_endian =
      *reinterpret_cast<const unsigned char*>(&one) == 1;
  const std::uint64_t facts[] = {
      kFormatVersion,
      sizeof(double),
      little_endian ? 1u : 0u,
  };
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t f : facts) {
    for (int i = 0; i < 8; ++i) {
      h ^= (f >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

void PayloadWriter::u8(std::uint8_t v) { bytes_.push_back(v); }

// One insert per word, so a payload grows at most once per field and a
// reserved one never does.
void PayloadWriter::u32(std::uint32_t v) {
  std::uint8_t b[4];
  bytes_.insert(bytes_.end(), b, store_u32(b, v));
}

void PayloadWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  bytes_.insert(bytes_.end(), b, store_u64(b, v));
}

void PayloadWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

PayloadReader::PayloadReader(const std::vector<std::uint8_t>& bytes,
                             std::string section)
    : p_(bytes.data()), len_(bytes.size()), section_(std::move(section)) {}

void PayloadReader::need(std::size_t n) const {
  if (pos_ + n > len_) {
    throw CkptError(ErrorKind::Truncated,
                    "checkpoint section '" + section_ +
                        "' ends mid-field (payload shorter than its "
                        "contents claim)",
                    section_);
  }
}

std::uint8_t PayloadReader::u8() {
  need(1);
  return p_[pos_++];
}

std::uint32_t PayloadReader::u32() {
  need(4);
  const std::uint32_t v = get_u32(p_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  need(8);
  const std::uint64_t v = get_u64(p_ + pos_);
  pos_ += 8;
  return v;
}

double PayloadReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void PayloadReader::expect_end() const {
  if (pos_ != len_) {
    throw CkptError(ErrorKind::Malformed,
                    "checkpoint section '" + section_ + "' has " +
                        std::to_string(len_ - pos_) + " trailing bytes",
                    section_);
  }
}

void PayloadReader::fail(const std::string& why) const {
  throw CkptError(ErrorKind::Malformed,
                  "checkpoint section '" + section_ + "': " + why, section_);
}

void CheckpointImage::add(const std::string& tag,
                          std::vector<std::uint8_t> payload) {
  if (tag.size() != kTagSize) {
    throw CkptError(ErrorKind::Malformed,
                    "section tag must be 4 characters: '" + tag + "'");
  }
  sections_.push_back(Section{tag, std::move(payload)});
}

const Section& CheckpointImage::require(const std::string& tag) const {
  for (const Section& s : sections_) {
    if (s.tag == tag) return s;
  }
  throw CkptError(ErrorKind::MissingSection,
                  "checkpoint is missing required section '" + tag + "'",
                  tag);
}

std::vector<std::uint8_t> CheckpointImage::serialize() const {
  // One pass into one allocation: the image size is known up front.
  std::size_t size = kHeaderSize;
  for (const Section& s : sections_) {
    size += kTagSize + 8 + s.payload.size() + 4;
  }
  std::vector<std::uint8_t> out(size);
  std::uint8_t* p = store_u64(out.data(), kMagic);
  p = store_u32(p, kFormatVersion);
  p = store_u64(p, build_config_hash());
  p = store_u64(p, seed);
  p = store_u32(p, static_cast<std::uint32_t>(sections_.size()));
  p = store_u32(p, util::crc32(out.data(), kHeaderSize - 4));
  for (const Section& s : sections_) {
    std::uint8_t* const start = p;
    p = std::copy(s.tag.begin(), s.tag.end(), p);  // add() checked: 4 bytes
    p = store_u64(p, s.payload.size());
    p = std::copy(s.payload.begin(), s.payload.end(), p);
    p = store_u32(p, util::crc32(start, static_cast<std::size_t>(p - start)));
  }
  return out;
}

CheckpointImage CheckpointImage::parse(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderSize) {
    throw CkptError(ErrorKind::Truncated,
                    "checkpoint file is shorter than the header (" +
                        std::to_string(bytes.size()) + " bytes)");
  }
  const std::uint8_t* p = bytes.data();
  if (get_u64(p) != kMagic) {
    throw CkptError(ErrorKind::BadMagic,
                    "not a checkpoint file (magic mismatch)");
  }
  const std::uint32_t version = get_u32(p + 8);
  if (version != kFormatVersion) {
    throw CkptError(ErrorKind::BadVersion,
                    "checkpoint format version " + std::to_string(version) +
                        " is not supported (this build reads version " +
                        std::to_string(kFormatVersion) + ")");
  }
  const std::uint64_t cfg_hash = get_u64(p + 12);
  if (cfg_hash != build_config_hash()) {
    throw CkptError(ErrorKind::BadConfigHash,
                    "checkpoint was written by an incompatible build "
                    "configuration; re-run from a cold start");
  }
  const std::uint32_t declared_crc = get_u32(p + kHeaderSize - 4);
  if (util::crc32(p, kHeaderSize - 4) != declared_crc) {
    throw CkptError(ErrorKind::CrcMismatch,
                    "checkpoint header CRC mismatch (corrupted file)",
                    "HEAD");
  }

  CheckpointImage image;
  image.seed = get_u64(p + 20);
  const std::uint32_t count = get_u32(p + 28);
  std::size_t pos = kHeaderSize;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (pos + kTagSize + 8 > bytes.size()) {
      throw CkptError(ErrorKind::Truncated,
                      "checkpoint file ends inside section " +
                          std::to_string(i) + "'s frame");
    }
    std::string tag(reinterpret_cast<const char*>(p + pos), kTagSize);
    const std::uint64_t len = get_u64(p + pos + kTagSize);
    const std::size_t frame = kTagSize + 8 + len + 4;
    if (len > bytes.size() || pos + frame > bytes.size()) {
      throw CkptError(ErrorKind::Truncated,
                      "checkpoint file ends inside section '" + tag + "'",
                      tag);
    }
    const std::uint32_t want = get_u32(p + pos + kTagSize + 8 + len);
    if (util::crc32(p + pos, kTagSize + 8 + len) != want) {
      throw CkptError(ErrorKind::CrcMismatch,
                      "checkpoint section '" + tag +
                          "' CRC mismatch (corrupted file)",
                      tag);
    }
    image.sections_.push_back(Section{
        tag, std::vector<std::uint8_t>(p + pos + kTagSize + 8,
                                       p + pos + kTagSize + 8 + len)});
    pos += frame;
  }
  if (pos != bytes.size()) {
    throw CkptError(ErrorKind::Malformed,
                    "checkpoint file has " +
                        std::to_string(bytes.size() - pos) +
                        " trailing bytes after the last section");
  }
  return image;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CkptError(ErrorKind::Io, "cannot open checkpoint '" + path +
                                       "': " + std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) {
    throw CkptError(ErrorKind::Io, "read error on checkpoint '" + path + "'");
  }
  return bytes;
}

namespace {
std::atomic<int> g_fail_writes{0};
std::atomic<void (*)(double)> g_retry_sleeper{nullptr};
}  // namespace

namespace test_hooks {

void fail_next_atomic_writes(int n) noexcept {
  g_fail_writes.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

void set_retry_sleeper(void (*sleeper)(double)) noexcept {
  g_retry_sleeper.store(sleeper, std::memory_order_relaxed);
}

}  // namespace test_hooks

void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  // Injected transient failure (tests): fail before touching the filesystem
  // so the previous checkpoint stays untouched, like a real full-disk error.
  int budget = g_fail_writes.load(std::memory_order_relaxed);
  while (budget > 0 &&
         !g_fail_writes.compare_exchange_weak(budget, budget - 1,
                                              std::memory_order_relaxed)) {
  }
  if (budget > 0) {
    throw CkptError(ErrorKind::Io,
                    "injected transient write failure for '" + path + "'");
  }

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw CkptError(ErrorKind::Io, "cannot create '" + tmp +
                                       "': " + std::strerror(errno));
  }
  const bool wrote =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  bool synced = std::fflush(f) == 0 && wrote;
#if defined(__unix__) || defined(__APPLE__)
  if (synced) synced = ::fsync(::fileno(f)) == 0;
#endif
  if (std::fclose(f) != 0) synced = false;
  if (!synced) {
    std::remove(tmp.c_str());
    throw CkptError(ErrorKind::Io, "failed to write '" + tmp + "'");
  }

  // The temp file is durable but not yet visible: a crash here must leave
  // the previous checkpoint untouched (kill-and-resume tests aim a
  // die-at-event fault at exactly this tick).
  sim::crash_clock_tick();

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CkptError(ErrorKind::Io, "failed to rename '" + tmp + "' to '" +
                                       path + "': " + std::strerror(errno));
  }
#if defined(__unix__) || defined(__APPLE__)
  // Make the rename itself durable (best-effort: some filesystems refuse
  // directory fsync).
  std::string dir = ".";
  const auto slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
  sim::crash_clock_tick();
}

int write_file_atomic_retry(const std::string& path,
                            const std::vector<std::uint8_t>& bytes) {
  constexpr double kMaxBackoffS = 0.25;
  double backoff = 0.01;
  for (int attempt = 1;; ++attempt) {
    try {
      write_file_atomic(path, bytes);
      return attempt;
    } catch (const CkptError& e) {
      if (e.kind() != ErrorKind::Io || attempt >= kMaxAttempts) throw;
    }
    const double delay = backoff < kMaxBackoffS ? backoff : kMaxBackoffS;
    if (void (*sleeper)(double) =
            g_retry_sleeper.load(std::memory_order_relaxed)) {
      sleeper(delay);
    } else if (delay > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
    backoff *= 2.0;
  }
}

}  // namespace cbe::ckpt
