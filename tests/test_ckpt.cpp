// Checkpoint subsystem: container-format integrity (every corruption mode
// maps to a distinct, actionable error), domain round-trips, crash
// consistency of the atomic writer, and in-process resume equivalence (a
// run continued from a snapshot is bit-identical to an uninterrupted one).
// The subprocess SIGKILL variant lives in tests/kill_and_resume.cmake.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/format.hpp"
#include "ckpt/runner.hpp"
#include "jobsvc/job.hpp"
#include "phylo/bootstrap.hpp"
#include "phylo/support.hpp"
#include "runtime/mgps.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/fault.hpp"
#include "util/crc32.hpp"

namespace cbe::ckpt {
namespace {

constexpr std::size_t kHeaderSize = 36;

std::uint64_t read_u64(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

// Walks the serialized section frames: returns (tag, payload offset,
// payload length) per section.
struct Frame {
  std::string tag;
  std::size_t payload_at;
  std::size_t payload_len;
};
std::vector<Frame> frames(const std::vector<std::uint8_t>& bytes) {
  std::vector<Frame> out;
  std::size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    Frame f;
    f.tag = std::string(reinterpret_cast<const char*>(bytes.data() + pos), 4);
    f.payload_len = static_cast<std::size_t>(read_u64(bytes, pos + 4));
    f.payload_at = pos + 12;
    out.push_back(f);
    pos += 12 + f.payload_len + 4;
  }
  return out;
}

ErrorKind parse_failure(const std::vector<std::uint8_t>& bytes,
                        std::string* section = nullptr) {
  try {
    (void)from_image(CheckpointImage::parse(bytes));
  } catch (const CkptError& e) {
    if (section != nullptr) *section = e.section();
    return e.kind();
  }
  ADD_FAILURE() << "corrupted checkpoint was accepted";
  return ErrorKind::Io;
}

BootstrapJob tiny_job() {
  BootstrapJob job;
  job.taxa = 6;
  job.sites = 60;
  job.bootstraps = 3;
  job.seed = 77;
  return job;
}

// A small but fully populated state (two completed replicates).
RunState sample_state() {
  RunState st = make_fresh(tiny_job());
  st.job.bootstraps = 2;
  run_job(st, {});
  st.job.bootstraps = tiny_job().bootstraps;
  return st;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(CkptFormat, ImageRoundtrip) {
  CheckpointImage image;
  image.seed = 0xdeadbeefcafe1234ull;
  image.add("AAAA", {1, 2, 3});
  image.add("BBBB", {});
  image.add("CCCC", {0xff});
  const CheckpointImage back = CheckpointImage::parse(image.serialize());
  EXPECT_EQ(back.seed, image.seed);
  ASSERT_EQ(back.sections().size(), 3u);
  EXPECT_EQ(back.sections()[0].tag, "AAAA");
  EXPECT_EQ(back.sections()[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(back.sections()[1].payload.size(), 0u);
  EXPECT_EQ(back.require("CCCC").payload,
            (std::vector<std::uint8_t>{0xff}));
}

TEST(CkptFormat, PayloadRoundtripIsBitExact) {
  PayloadWriter w;
  w.u8(200);
  w.u32(0xfeedf00du);
  w.i32(-17);
  w.i64(-(1ll << 40));
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  const std::vector<std::uint8_t> bytes = w.take();
  PayloadReader r(bytes, "TEST");
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u32(), 0xfeedf00du);
  EXPECT_EQ(r.i32(), -17);
  EXPECT_EQ(r.i64(), -(1ll << 40));
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_NO_THROW(r.expect_end());
}

// The encoder's exact output, pinned as (length, CRC-32 of the whole
// image): a job snapshot and a bootstrap-run image.  Any change to the
// encoder must leave both byte-identical.
TEST(CkptFormat, EncodedImagesArePinned) {
  jobsvc::JobSpec spec;
  spec.id = 9;
  spec.tenant = 1;
  spec.priority = 2;
  spec.steps = 24;
  jobsvc::JobState st = jobsvc::make_initial_state(spec, 2026);
  for (int i = 0; i < 10; ++i) jobsvc::run_step(st);
  const std::vector<std::uint8_t> snap = jobsvc::snapshot_job(spec, st);
  EXPECT_EQ(snap.size(), 157u);
  EXPECT_EQ(util::crc32(snap.data(), snap.size()), 0x4d00db3cu);

  const std::vector<std::uint8_t> image = to_image(sample_state()).serialize();
  EXPECT_EQ(image.size(), 1037u);
  EXPECT_EQ(util::crc32(image.data(), image.size()), 0xdebccf0du);
}

TEST(CkptFormat, RejectsTruncation) {
  const RunState st = sample_state();
  const std::vector<std::uint8_t> good = to_image(st).serialize();
  // Shorter than the header.
  EXPECT_EQ(parse_failure({good.begin(), good.begin() + 10}),
            ErrorKind::Truncated);
  // Ends inside a section frame.
  EXPECT_EQ(parse_failure({good.begin(), good.begin() + kHeaderSize + 6}),
            ErrorKind::Truncated);
  // Ends inside a section payload.
  EXPECT_EQ(
      parse_failure({good.begin(), good.begin() + good.size() / 2}),
      ErrorKind::Truncated);
}

TEST(CkptFormat, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = to_image(sample_state()).serialize();
  bytes[0] ^= 0xff;
  EXPECT_EQ(parse_failure(bytes), ErrorKind::BadMagic);
}

TEST(CkptFormat, RejectsVersionBump) {
  std::vector<std::uint8_t> bytes = to_image(sample_state()).serialize();
  bytes[8] += 1;  // version field
  try {
    (void)CheckpointImage::parse(bytes);
    FAIL() << "future-version checkpoint was accepted";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::BadVersion);
    // The message must name both versions so the user knows what to do.
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(kFormatVersion + 1)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(kFormatVersion)), std::string::npos)
        << what;
  }
}

TEST(CkptFormat, RejectsForeignBuildConfig) {
  std::vector<std::uint8_t> bytes = to_image(sample_state()).serialize();
  bytes[12] ^= 0x01;  // config-hash field
  EXPECT_EQ(parse_failure(bytes), ErrorKind::BadConfigHash);
}

TEST(CkptFormat, RejectsHeaderCorruption) {
  std::vector<std::uint8_t> bytes = to_image(sample_state()).serialize();
  bytes[20] ^= 0x40;  // seed field: covered only by the header CRC
  std::string section;
  EXPECT_EQ(parse_failure(bytes, &section), ErrorKind::CrcMismatch);
  EXPECT_EQ(section, "HEAD");
}

TEST(CkptFormat, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> bytes = to_image(sample_state()).serialize();
  bytes.push_back(0x00);
  EXPECT_EQ(parse_failure(bytes), ErrorKind::Malformed);
}

TEST(CkptFormat, BitFlipInEverySectionNamesTheSection) {
  const RunState st = sample_state();
  const std::vector<std::uint8_t> good = to_image(st).serialize();
  const std::vector<Frame> fs = frames(good);
  ASSERT_EQ(fs.size(), 5u);  // JOB, RNG, PROG, SCHD, FALT
  for (const Frame& f : fs) {
    ASSERT_GT(f.payload_len, 0u) << f.tag;
    for (const std::size_t at :
         {f.payload_at, f.payload_at + f.payload_len / 2,
          f.payload_at + f.payload_len - 1}) {
      std::vector<std::uint8_t> bytes = good;
      bytes[at] ^= 0x10;
      std::string section;
      EXPECT_EQ(parse_failure(bytes, &section), ErrorKind::CrcMismatch)
          << f.tag << " flipped at " << at;
      // The diagnostic must name the damaged section, nothing else.
      EXPECT_EQ(section, f.tag) << "flipped at " << at;
    }
  }
}

TEST(CkptFormat, MissingSectionIsDiagnosed) {
  const RunState st = sample_state();
  const CheckpointImage full = to_image(st);
  for (const Section& skip : full.sections()) {
    CheckpointImage partial;
    partial.seed = full.seed;
    for (const Section& s : full.sections()) {
      if (s.tag != skip.tag) partial.add(s.tag, s.payload);
    }
    try {
      (void)from_image(CheckpointImage::parse(partial.serialize()));
      FAIL() << "checkpoint without " << skip.tag << " was accepted";
    } catch (const CkptError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::MissingSection) << skip.tag;
      EXPECT_EQ(e.section(), skip.tag);
    }
  }
}

TEST(CkptFormat, HeaderSeedMustMatchJobSection) {
  CheckpointImage image = to_image(sample_state());
  image.seed ^= 1;
  EXPECT_EQ(parse_failure(image.serialize()), ErrorKind::Malformed);
}

TEST(CkptFormat, MissingFileIsAnIoError) {
  try {
    (void)load(temp_path("no_such_checkpoint.ckpt"));
    FAIL() << "missing file was loaded";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
}

TEST(CkptState, SaveLoadRoundtripIsBitExact) {
  const RunState st = sample_state();
  const std::string path = temp_path("roundtrip.ckpt");
  save(path, st);
  const RunState back = load(path);
  EXPECT_EQ(back.job.seed, st.job.seed);
  EXPECT_EQ(back.job.bootstraps, st.job.bootstraps);
  EXPECT_TRUE(back.master == st.master);
  EXPECT_EQ(back.done.size(), st.done.size());
  EXPECT_TRUE(back.sched == st.sched);
  EXPECT_EQ(back.crash_position, st.crash_position);
  // Strongest check: the round-tripped state re-serializes to the same
  // bytes, so trees and doubles survived exactly.
  EXPECT_EQ(to_image(back).serialize(), to_image(st).serialize());
  std::remove(path.c_str());
}

TEST(CkptState, AtomicWriteLeavesNoTempAndIgnoresStaleTemp) {
  const std::string path = temp_path("atomic.ckpt");
  const std::string tmp = path + ".tmp";
  // A stale temp file from a crashed writer must affect nothing.
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn garbage from a dead process", f);
    std::fclose(f);
  }
  const RunState st = sample_state();
  save(path, st);
  EXPECT_EQ(std::fopen(tmp.c_str(), "rb"), nullptr)
      << "temp file survived a successful atomic write";
  EXPECT_NO_THROW((void)load(path));
  std::remove(path.c_str());
}

TEST(CkptState, OverwriteReplacesPreviousCheckpoint) {
  const std::string path = temp_path("overwrite.ckpt");
  RunState st = make_fresh(tiny_job());
  save(path, st);
  const RunState empty = load(path);
  EXPECT_EQ(empty.done.size(), 0u);
  const RunState progressed = sample_state();
  save(path, progressed);
  EXPECT_EQ(load(path).done.size(), progressed.done.size());
  std::remove(path.c_str());
}

// The tentpole property, in-process: resuming from the saved snapshot and
// finishing yields byte-identical output to the uninterrupted run.  (The
// subprocess SIGKILL variant is tests/kill_and_resume.cmake.)
TEST(CkptResume, ResumedRunIsBitIdentical) {
  const BootstrapJob job = tiny_job();

  RunState uninterrupted = make_fresh(job);
  const std::string report_a = run_job(uninterrupted, {}).to_text();

  // "Crash" after one replicate: run a one-replicate prefix, snapshot it,
  // then resume from the loaded snapshot exactly as the driver would.
  RunState prefix = make_fresh(job);
  prefix.job.bootstraps = 1;
  run_job(prefix, {});
  prefix.job.bootstraps = job.bootstraps;
  const std::string path = temp_path("resume.ckpt");
  save(path, prefix);

  RunState resumed = load(path);
  ASSERT_EQ(resumed.done.size(), 1u);
  const std::string report_b = run_job(resumed, {}).to_text();

  EXPECT_EQ(report_a, report_b);
  EXPECT_NE(report_a.find("replicate 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CkptResume, EveryPrefixLengthResumesIdentically) {
  const BootstrapJob job = tiny_job();
  RunState uninterrupted = make_fresh(job);
  const std::string expect = run_job(uninterrupted, {}).to_text();
  for (int k = 0; k <= job.bootstraps; ++k) {
    RunState prefix = make_fresh(job);
    prefix.job.bootstraps = k;
    if (k > 0) run_job(prefix, {});
    prefix.job.bootstraps = job.bootstraps;
    RunState resumed = from_image(to_image(prefix));  // ser/de in memory
    EXPECT_EQ(run_job(resumed, {}).to_text(), expect) << "prefix " << k;
  }
}

// The writer never starts a job its own reader would refuse: make_fresh and
// the job section's decoder apply one range check.
TEST(CkptState, MakeFreshRefusesWhatLoadRejects) {
  BootstrapJob few_taxa = tiny_job();
  few_taxa.taxa = 2;
  BootstrapJob no_sites = tiny_job();
  no_sites.sites = 0;
  BootstrapJob negative = tiny_job();
  negative.bootstraps = -3;
  for (const BootstrapJob& job : {few_taxa, no_sites, negative}) {
    const std::string why = job_error(job);
    EXPECT_FALSE(why.empty());
    EXPECT_THROW(make_fresh(job), std::invalid_argument);
    RunState st = make_fresh(tiny_job());
    st.job = job;
    try {
      (void)from_image(to_image(st));
      ADD_FAILURE() << why << ": the reader accepted the job";
    } catch (const CkptError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Malformed);
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(job_error(tiny_job()).empty());
}

TEST(CkptRunner, ReportIsDeterministic) {
  RunState a = make_fresh(tiny_job());
  RunState b = make_fresh(tiny_job());
  EXPECT_EQ(run_job(a, {}).to_text(), run_job(b, {}).to_text());
}

TEST(CkptRunner, CheckpointCadenceHonored) {
  const std::string path = temp_path("cadence.ckpt");
  RunState st = make_fresh(tiny_job());
  RunnerOptions opt;
  opt.checkpoint_path = path;
  opt.checkpoint_every = 2;
  run_job(st, opt);
  // The final snapshot always lands, and it holds the complete run.
  const RunState final_state = load(path);
  EXPECT_EQ(final_state.done.size(),
            static_cast<std::size_t>(tiny_job().bootstraps));
  std::remove(path.c_str());
}

// -- transient-I/O hardening of snapshot writes ------------------------------

// Installs a no-op sleeper (tests must not really back off) and guarantees
// the injection budget is cleared again even when an assertion throws.
struct RetryHooksGuard {
  RetryHooksGuard() {
    test_hooks::set_retry_sleeper(+[](double) {});
  }
  ~RetryHooksGuard() {
    test_hooks::fail_next_atomic_writes(0);
    test_hooks::set_retry_sleeper(nullptr);
  }
};

TEST(CkptRetry, TransientWriteFailuresAreRetriedAway) {
  RetryHooksGuard guard;
  const std::string path = temp_path("retry_ok.ckpt");
  const RunState st = sample_state();
  test_hooks::fail_next_atomic_writes(2);
  const int attempts = save(path, st);
  EXPECT_EQ(attempts, 3);  // two injected failures, then success
  const RunState back = load(path);
  EXPECT_EQ(to_image(back).serialize(), to_image(st).serialize());
  std::remove(path.c_str());
}

TEST(CkptRetry, ExhaustedRetriesSurfaceTheIoError) {
  RetryHooksGuard guard;
  const std::string path = temp_path("retry_fail.ckpt");
  const RunState st = sample_state();
  test_hooks::fail_next_atomic_writes(kMaxAttempts);
  try {
    save(path, st);
    FAIL() << "save() should have thrown after exhausting retries";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
  // The budget is exactly kMaxAttempts: the next save writes first time.
  EXPECT_EQ(save(path, st), 1);
  std::remove(path.c_str());
}

// A run whose snapshots keep failing still completes and reports the same
// bytes — the checkpoint trouble is surfaced through the side channel, not
// by corrupting the result or aborting the job.
TEST(CkptRetry, RunnerBestEffortSurvivesPersistentWriteFailure) {
  RetryHooksGuard guard;
  RunState clean = make_fresh(tiny_job());
  const RunReport clean_rep = run_job(clean, {});

  const std::string path = temp_path("retry_besteffort.ckpt");
  RunnerOptions opt;
  opt.checkpoint_path = path;
  opt.checkpoint_every = 1;
  test_hooks::fail_next_atomic_writes(1000000);
  RunState st = make_fresh(tiny_job());
  const RunReport rep = run_job(st, opt);
  test_hooks::fail_next_atomic_writes(0);

  EXPECT_GT(rep.ckpt_failed_snapshots, 0);
  EXPECT_NE(rep.ckpt_error.find("io:"), std::string::npos) << rep.ckpt_error;
  // The report text ignores I/O weather entirely.
  EXPECT_EQ(rep.to_text(), clean_rep.to_text());
}

// -- data integrity x checkpointing (DESIGN.md section 11) -------------------

TEST(CkptIntegrity, KnobsRoundTripBitExact) {
  BootstrapJob job = tiny_job();
  job.dma_bitflip_rate = 0.125;
  job.result_corrupt_rate = 0.0625;
  job.verify_fraction = 0.5;
  const RunState st = make_fresh(job);
  const RunState back = from_image(to_image(st));
  EXPECT_EQ(back.job.dma_bitflip_rate, job.dma_bitflip_rate);
  EXPECT_EQ(back.job.result_corrupt_rate, job.result_corrupt_rate);
  EXPECT_EQ(back.job.verify_fraction, job.verify_fraction);
  EXPECT_EQ(to_image(back).serialize(), to_image(st).serialize());
}

TEST(CkptIntegrity, OutOfRangeRateIsRejected) {
  BootstrapJob job = tiny_job();
  job.dma_bitflip_rate = 1.5;  // not a probability
  EXPECT_THROW(make_fresh(job), std::invalid_argument);
  // Written past make_fresh, the reader still refuses it.
  RunState st = make_fresh(tiny_job());
  st.job = job;
  const std::vector<std::uint8_t> bytes = to_image(st).serialize();
  try {
    (void)from_image(CheckpointImage::parse(bytes));
    FAIL() << "a rate outside [0, 1] should not validate";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Malformed);
  }
}

// Resume under an active corruption plan: the knobs live in the checkpoint,
// so a resumed run replays the same per-replicate corruption weather and
// finishes byte-identical to the uninterrupted corrupting run.
TEST(CkptIntegrity, ResumeUnderCorruptionPlanIsBitIdentical) {
  BootstrapJob job = tiny_job();
  job.dma_bitflip_rate = 0.05;
  job.result_corrupt_rate = 0.05;
  job.verify_fraction = 1.0;
  job.fault_seed = 99;

  RunState uninterrupted = make_fresh(job);
  const std::string expect = run_job(uninterrupted, {}).to_text();

  for (int k = 1; k < job.bootstraps; ++k) {
    RunState prefix = make_fresh(job);
    prefix.job.bootstraps = k;
    run_job(prefix, {});
    prefix.job.bootstraps = job.bootstraps;
    RunState resumed = from_image(to_image(prefix));
    EXPECT_EQ(run_job(resumed, {}).to_text(), expect) << "prefix " << k;
  }
}

// With full verification, corruption may cost recovery time but never
// answers: the phylo results (everything except the sched counters) match
// the fault-free run exactly.
TEST(CkptIntegrity, VerifiedCorruptingRunMatchesFaultFreeResults) {
  auto strip_sched = [](std::string text) {
    std::string out;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size() - 1;
      const std::string line = text.substr(pos, eol - pos + 1);
      if (line.rfind("sched ", 0) != 0) out += line;
      pos = eol + 1;
    }
    return out;
  };

  RunState clean = make_fresh(tiny_job());
  const std::string clean_text = run_job(clean, {}).to_text();

  BootstrapJob job = tiny_job();
  job.dma_bitflip_rate = 0.05;
  job.result_corrupt_rate = 0.05;
  job.verify_fraction = 1.0;
  job.fault_seed = 99;
  RunState chaos = make_fresh(job);
  const std::string chaos_text = run_job(chaos, {}).to_text();

  EXPECT_EQ(strip_sched(clean_text), strip_sched(chaos_text));
}

TEST(CkptRetry, RunnerCountsRetriesThatSucceeded) {
  RetryHooksGuard guard;
  const std::string path = temp_path("retry_counted.ckpt");
  RunnerOptions opt;
  opt.checkpoint_path = path;
  opt.checkpoint_every = 1;
  test_hooks::fail_next_atomic_writes(2);  // first snapshot needs 3 attempts
  RunState st = make_fresh(tiny_job());
  const RunReport rep = run_job(st, opt);
  EXPECT_EQ(rep.ckpt_io_retries, 2);
  EXPECT_EQ(rep.ckpt_failed_snapshots, 0);
  EXPECT_TRUE(rep.ckpt_error.empty());
  // Later snapshots (no injection left) wrote the complete run.
  const RunState final_state = load(path);
  EXPECT_EQ(final_state.done.size(),
            static_cast<std::size_t>(tiny_job().bootstraps));
  std::remove(path.c_str());
}

// -- replicate streams: run_job against its serial composition ---------------

// runner.cpp's stream salts ("REFERENC", "INTEGRIT").
constexpr std::uint64_t kReferenceSalt = 0x5245464552454e43ull;
constexpr std::uint64_t kIntegritySalt = 0x494e544547524954ull;

// run_job composed serially from public calls: one master.split() after
// another, each replicate's bootstrap, trace replay, commit, crash-clock tick
// and snapshot in turn.  run_job's concurrent replicate streams must
// reproduce it byte for byte.
RunReport serial_run_job(RunState& st, const RunnerOptions& opt) {
  const BootstrapJob& job = st.job;
  phylo::SyntheticAlignmentConfig acfg;
  acfg.taxa = job.taxa;
  acfg.sites = job.sites;
  acfg.seed = job.alignment_seed;
  acfg.mean_branch_length = job.mean_branch_length;
  const phylo::PatternAlignment patterns(phylo::make_synthetic_alignment(acfg));
  const phylo::SubstModel model(
      phylo::GtrParams::hky(2.5, patterns.base_frequencies()), 0.8);
  phylo::LikelihoodEngine engine(patterns, model);
  util::Rng ref_rng(job.seed ^ kReferenceSalt);
  const phylo::SearchResult reference =
      phylo::search(engine, ref_rng, job.search);

  util::Rng master(0);
  master.set_state(st.master);
  const int every = opt.checkpoint_every > 0 ? opt.checkpoint_every : 1;
  for (int i = static_cast<int>(st.done.size()); i < job.bootstraps; ++i) {
    util::Rng rng = master.split();
    phylo::TraceGenerator gen;
    phylo::BootstrapResult res =
        phylo::run_bootstrap(patterns, model, rng, job.search, &gen);
    task::Workload wl;
    wl.bootstraps.push_back(gen.take_trace());
    st.sched.kernels += wl.bootstraps.front().segments.size();
    rt::MgpsPolicy mgps;
    rt::RunConfig rcfg;
    if (job.dma_bitflip_rate > 0.0 || job.result_corrupt_rate > 0.0 ||
        job.verify_fraction > 0.0) {
      std::uint64_t stream =
          job.fault_seed ^ (kIntegritySalt + static_cast<std::uint64_t>(i));
      rcfg.fault.seed = util::splitmix64(stream);
      rcfg.fault.dma_bitflip_rate = job.dma_bitflip_rate;
      rcfg.fault.result_corrupt_rate = job.result_corrupt_rate;
      rcfg.integrity.verify_fraction = job.verify_fraction;
      rcfg.integrity.crc_framing = job.verify_fraction > 0.0;
    }
    const rt::RunResult rr = rt::run_workload(wl, mgps, rcfg);
    st.sched.offloads += rr.offloads;
    st.sched.loop_splits += rr.loop_splits;
    st.sched.ppe_fallbacks += rr.ppe_fallbacks;
    st.sched.code_loads += rr.code_loads;
    st.sched.sim_events += rr.events;
    st.sched.dma_bytes += rr.dma_bytes;
    st.sched.sim_seconds += rr.makespan_s;
    st.sched.loop_degree_sum += rr.mean_loop_degree;
    st.done.push_back(Replicate{res.loglik, std::move(res.tree)});
    st.master = master.state();

    sim::crash_clock_tick();
    st.crash_position = sim::crash_clock_position();
    if (!opt.checkpoint_path.empty() &&
        ((i + 1) % every == 0 || i + 1 == job.bootstraps)) {
      save(opt.checkpoint_path, st);
      st.crash_position = sim::crash_clock_position();
    }
  }

  RunReport rep;
  rep.total_bootstraps = job.bootstraps;
  rep.reference_loglik = reference.loglik;
  std::vector<phylo::Tree> trees;
  for (const Replicate& d : st.done) {
    rep.replicate_logliks.push_back(d.loglik);
    trees.push_back(d.tree);
  }
  rep.support = phylo::branch_support(reference.tree, trees);
  rep.sched = st.sched;
  return rep;
}

BootstrapJob stream_job(std::uint64_t seed, int bootstraps) {
  BootstrapJob job = tiny_job();
  job.seed = seed;
  job.bootstraps = bootstraps;
  return job;
}

// A state's crash position counts this process's crash-clock events; both
// runs of a comparison start the clock from the same place.
RunReport run_from_clock(RunState& st, const RunnerOptions& opt,
                         bool serial) {
  sim::arm_crash_clock(0, st.crash_position);
  return serial ? serial_run_job(st, opt) : run_job(st, opt);
}

TEST(CkptStreams, MatchSerialCompositionAtEveryCadence) {
  for (const std::uint64_t seed : {77ull, 1ull, 2026ull}) {
    for (const int bootstraps : {5, 7}) {
      for (const int every : {1, 3}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << ", "
                                        << bootstraps << " replicates, every "
                                        << every);
        RunnerOptions opt;
        opt.checkpoint_every = every;
        opt.checkpoint_path = temp_path("streams_serial.ckpt");
        RunState serial = make_fresh(stream_job(seed, bootstraps));
        const RunReport serial_rep = run_from_clock(serial, opt, true);
        const std::vector<std::uint8_t> serial_file =
            to_image(load(opt.checkpoint_path)).serialize();

        opt.checkpoint_path = temp_path("streams_run_job.ckpt");
        RunState streamed = make_fresh(stream_job(seed, bootstraps));
        const RunReport streamed_rep = run_from_clock(streamed, opt, false);

        EXPECT_EQ(streamed_rep.to_text(), serial_rep.to_text());
        EXPECT_EQ(to_image(streamed).serialize(), to_image(serial).serialize());
        EXPECT_EQ(to_image(load(opt.checkpoint_path)).serialize(),
                  serial_file);
        std::remove(opt.checkpoint_path.c_str());
        std::remove(temp_path("streams_serial.ckpt").c_str());
      }
    }
  }
}

TEST(CkptStreams, ResumeFromEveryPrefixMatchesSerialComposition) {
  for (const std::uint64_t seed : {77ull, 1ull, 2026ull}) {
    for (const int bootstraps : {5, 7}) {
      RunState serial = make_fresh(stream_job(seed, bootstraps));
      const std::string expect_text =
          run_from_clock(serial, {}, true).to_text();
      const std::vector<std::uint8_t> expect_image =
          to_image(serial).serialize();
      for (int k = 0; k <= bootstraps; ++k) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << ", "
                                        << bootstraps << " replicates, prefix "
                                        << k);
        RunState prefix = make_fresh(stream_job(seed, bootstraps));
        prefix.job.bootstraps = k;
        if (k > 0) run_from_clock(prefix, {}, false);
        prefix.job.bootstraps = bootstraps;
        RunState resumed = from_image(to_image(prefix));
        EXPECT_EQ(run_from_clock(resumed, {}, false).to_text(), expect_text);
        EXPECT_EQ(to_image(resumed).serialize(), expect_image);
      }
    }
  }
}

// Under a corruption plan each replicate's replay draws its faults from its
// own stream, salted by kIntegritySalt + its absolute index.  run_job's
// committing thread replays the replicates, and must keep that seed byte
// for byte: its report and checkpoint match the serial composition, from a
// fresh start and from a resumed prefix.
TEST(CkptStreams, CorruptionPlanReplayMatchesSerialComposition) {
  for (const std::uint64_t seed : {77ull, 2026ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    BootstrapJob job = stream_job(seed, 6);
    const std::string clean = [&] {
      RunState st = make_fresh(job);
      return run_from_clock(st, {}, true).to_text();
    }();
    job.fault_seed = 0xF00Dull + seed;
    job.dma_bitflip_rate = 0.02;
    job.result_corrupt_rate = 0.05;
    job.verify_fraction = 0.5;

    RunnerOptions opt;
    opt.checkpoint_every = 2;
    opt.checkpoint_path = temp_path("streams_corrupt_serial.ckpt");
    RunState serial = make_fresh(job);
    const std::string serial_text = run_from_clock(serial, opt, true).to_text();
    const std::vector<std::uint8_t> serial_file =
        to_image(load(opt.checkpoint_path)).serialize();
    EXPECT_NE(serial_text, clean) << "the plan never touched a replay";

    opt.checkpoint_path = temp_path("streams_corrupt_run_job.ckpt");
    RunState streamed = make_fresh(job);
    EXPECT_EQ(run_from_clock(streamed, opt, false).to_text(), serial_text);
    EXPECT_EQ(to_image(streamed).serialize(), to_image(serial).serialize());
    EXPECT_EQ(to_image(load(opt.checkpoint_path)).serialize(), serial_file);

    RunState prefix = make_fresh(job);
    prefix.job.bootstraps = 3;
    run_from_clock(prefix, {}, false);
    prefix.job.bootstraps = job.bootstraps;
    RunState resumed = from_image(to_image(prefix));
    EXPECT_EQ(run_from_clock(resumed, {}, false).to_text(), serial_text);
    std::remove(opt.checkpoint_path.c_str());
    std::remove(temp_path("streams_corrupt_serial.ckpt").c_str());
  }
}

// Clears the replicate-failure hook even when an assertion throws.
struct FailReplicateGuard {
  explicit FailReplicateGuard(int index) {
    test_hooks::fail_replicate(index);
  }
  ~FailReplicateGuard() { test_hooks::fail_replicate(-1); }
};

// A replicate that throws surfaces on the caller, in replicate order: every
// replicate before it is committed and snapshotted, none after it.  The
// snapshot it leaves behind is a mid-run one, and resuming from it must
// finish with the uninterrupted run's report.
TEST(CkptStreams, ThrowingReplicateRethrowsOnTheCaller) {
  const BootstrapJob job = stream_job(77, 7);
  RunState uninterrupted = make_fresh(job);
  const std::string expect = run_job(uninterrupted, {}).to_text();
  const std::string path = temp_path("streams_throw.ckpt");
  RunnerOptions opt;
  opt.checkpoint_path = path;
  for (int fail = 1; fail < job.bootstraps; ++fail) {
    SCOPED_TRACE(testing::Message() << "replicate " << fail << " throws");
    RunState st = make_fresh(job);
    {
      FailReplicateGuard guard(fail);
      try {
        run_job(st, opt);
        ADD_FAILURE() << "run_job should rethrow the replicate's failure";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "replicate " + std::to_string(fail)),
                  std::string::npos)
            << e.what();
      }
    }
    EXPECT_EQ(st.done.size(), static_cast<std::size_t>(fail));
    RunState resumed = load(path);
    EXPECT_EQ(resumed.done.size(), static_cast<std::size_t>(fail));
    EXPECT_EQ(run_job(resumed, {}).to_text(), expect);
  }
  std::remove(path.c_str());
}

// A snapshot given up on at the first boundary, while later replicates are
// still queued or running, costs that snapshot only: the streams carry on,
// the next boundary's snapshot lands, and the report is the clean run's.
TEST(CkptStreams, AbandonedSnapshotLeavesLaterReplicatesRunning) {
  RetryHooksGuard guard;
  const BootstrapJob job = stream_job(77, 7);
  RunState clean = make_fresh(job);
  const std::string expect = run_job(clean, {}).to_text();
  const std::string path = temp_path("streams_abandoned.ckpt");
  std::remove(path.c_str());
  RunnerOptions opt;
  opt.checkpoint_path = path;
  test_hooks::fail_next_atomic_writes(kMaxAttempts);
  RunState st = make_fresh(job);
  const RunReport rep = run_job(st, opt);
  EXPECT_EQ(rep.ckpt_failed_snapshots, 1);
  EXPECT_EQ(rep.ckpt_io_retries, 0);
  EXPECT_EQ(rep.to_text(), expect);
  EXPECT_EQ(load(path).done.size(),
            static_cast<std::size_t>(job.bootstraps));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cbe::ckpt
