#include "ckpt/checkpoint.hpp"

#include <stdexcept>

namespace cbe::ckpt {

namespace {

constexpr char kJobTag[] = "JOB ";
constexpr char kRngTag[] = "RNG ";
constexpr char kProgTag[] = "PROG";
constexpr char kSchedTag[] = "SCHD";
constexpr char kFaultTag[] = "FALT";

// Guards against adversarial counts before any allocation: a section's
// element count can never legitimately exceed its byte length.
constexpr std::uint32_t kMaxReplicates = 1u << 20;
constexpr std::uint32_t kMaxTaxa = 1u << 20;

std::vector<std::uint8_t> encode_job(const BootstrapJob& j) {
  PayloadWriter w;
  w.i32(j.taxa);
  w.i32(j.sites);
  w.u64(j.alignment_seed);
  w.f64(j.mean_branch_length);
  w.u64(j.seed);
  w.i32(j.bootstraps);
  w.f64(j.search.leaf_length);
  w.i32(j.search.branch_opt_rounds);
  w.i32(j.search.max_nni_rounds);
  w.f64(j.search.min_improvement);
  w.u64(j.fault_seed);
  w.f64(j.dma_bitflip_rate);
  w.f64(j.result_corrupt_rate);
  w.f64(j.verify_fraction);
  return w.take();
}

BootstrapJob decode_job(const Section& s) {
  PayloadReader r(s.payload, s.tag);
  BootstrapJob j;
  j.taxa = r.i32();
  j.sites = r.i32();
  j.alignment_seed = r.u64();
  j.mean_branch_length = r.f64();
  j.seed = r.u64();
  j.bootstraps = r.i32();
  j.search.leaf_length = r.f64();
  j.search.branch_opt_rounds = r.i32();
  j.search.max_nni_rounds = r.i32();
  j.search.min_improvement = r.f64();
  j.fault_seed = r.u64();
  j.dma_bitflip_rate = r.f64();
  j.result_corrupt_rate = r.f64();
  j.verify_fraction = r.f64();
  r.expect_end();
  if (const std::string why = job_error(j); !why.empty()) r.fail(why);
  return j;
}

std::vector<std::uint8_t> encode_rng(const util::RngState& st) {
  PayloadWriter w;
  for (std::uint64_t word : st.s) w.u64(word);
  w.u64(st.cached_normal_bits);
  w.u8(st.has_cached_normal ? 1 : 0);
  return w.take();
}

util::RngState decode_rng(const Section& s) {
  PayloadReader r(s.payload, s.tag);
  util::RngState st;
  for (auto& word : st.s) word = r.u64();
  st.cached_normal_bits = r.u64();
  const std::uint8_t cached = r.u8();
  r.expect_end();
  if (cached > 1) r.fail("boolean flag out of range");
  st.has_cached_normal = cached == 1;
  return st;
}

void encode_tree(PayloadWriter& w, const phylo::Tree& tree) {
  const phylo::Tree::Flat flat = tree.to_flat();
  w.i32(flat.n_taxa);
  w.u32(static_cast<std::uint32_t>(flat.edges.size()));
  for (const auto& e : flat.edges) {
    w.i32(e.a);
    w.i32(e.b);
    w.f64(e.length);
  }
  w.u32(static_cast<std::uint32_t>(flat.adj.size()));
  for (const auto& nbs : flat.adj) {
    w.u32(static_cast<std::uint32_t>(nbs.size()));
    for (const auto& nb : nbs) {
      w.i32(nb.node);
      w.i32(nb.edge);
    }
  }
}

phylo::Tree decode_tree(PayloadReader& r) {
  phylo::Tree::Flat flat;
  flat.n_taxa = r.i32();
  const std::uint32_t n_edges = r.u32();
  if (n_edges > 4 * kMaxTaxa) r.fail("edge count out of range");
  flat.edges.reserve(n_edges);
  for (std::uint32_t i = 0; i < n_edges; ++i) {
    phylo::Tree::Flat::FlatEdge e;
    e.a = r.i32();
    e.b = r.i32();
    e.length = r.f64();
    flat.edges.push_back(e);
  }
  const std::uint32_t n_nodes = r.u32();
  if (n_nodes > 4 * kMaxTaxa) r.fail("node count out of range");
  flat.adj.resize(n_nodes);
  for (std::uint32_t n = 0; n < n_nodes; ++n) {
    const std::uint32_t degree = r.u32();
    if (degree > 3) r.fail("node degree out of range");
    for (std::uint32_t k = 0; k < degree; ++k) {
      phylo::Tree::Neighbor nb;
      nb.node = r.i32();
      nb.edge = r.i32();
      flat.adj[n].push_back(nb);
    }
  }
  try {
    return phylo::Tree::from_flat(flat);
  } catch (const std::runtime_error& e) {
    r.fail(e.what());
  }
}

std::vector<std::uint8_t> encode_progress(const std::vector<Replicate>& done) {
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(done.size()));
  for (const Replicate& rep : done) {
    w.f64(rep.loglik);
    encode_tree(w, rep.tree);
  }
  return w.take();
}

std::vector<Replicate> decode_progress(const Section& s,
                                       const BootstrapJob& job) {
  PayloadReader r(s.payload, s.tag);
  const std::uint32_t count = r.u32();
  if (count > kMaxReplicates) r.fail("replicate count out of range");
  if (count > static_cast<std::uint32_t>(job.bootstraps)) {
    r.fail("more completed replicates (" + std::to_string(count) +
           ") than the job's total (" + std::to_string(job.bootstraps) + ")");
  }
  std::vector<Replicate> done;
  done.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const double loglik = r.f64();
    phylo::Tree tree = decode_tree(r);
    if (tree.taxa() != job.taxa) {
      r.fail("replicate tree taxon count disagrees with the job");
    }
    done.push_back(Replicate{loglik, std::move(tree)});
  }
  r.expect_end();
  return done;
}

std::vector<std::uint8_t> encode_sched(const SchedCounters& c) {
  PayloadWriter w;
  w.u64(c.kernels);
  w.u64(c.offloads);
  w.u64(c.loop_splits);
  w.u64(c.ppe_fallbacks);
  w.u64(c.code_loads);
  w.u64(c.sim_events);
  w.f64(c.dma_bytes);
  w.f64(c.sim_seconds);
  w.f64(c.loop_degree_sum);
  return w.take();
}

SchedCounters decode_sched(const Section& s) {
  PayloadReader r(s.payload, s.tag);
  SchedCounters c;
  c.kernels = r.u64();
  c.offloads = r.u64();
  c.loop_splits = r.u64();
  c.ppe_fallbacks = r.u64();
  c.code_loads = r.u64();
  c.sim_events = r.u64();
  c.dma_bytes = r.f64();
  c.sim_seconds = r.f64();
  c.loop_degree_sum = r.f64();
  r.expect_end();
  return c;
}

std::vector<std::uint8_t> encode_fault(const RunState& st) {
  PayloadWriter w;
  w.u64(st.job.fault_seed);
  w.i64(st.crash_position);
  return w.take();
}

std::int64_t decode_fault(const Section& s, const BootstrapJob& job) {
  PayloadReader r(s.payload, s.tag);
  const std::uint64_t fault_seed = r.u64();
  const std::int64_t position = r.i64();
  r.expect_end();
  if (fault_seed != job.fault_seed) {
    r.fail("fault seed disagrees with the job section");
  }
  if (position < 0) r.fail("negative crash-clock position");
  return position;
}

}  // namespace

std::string job_error(const BootstrapJob& job) {
  if (job.taxa < 3 || job.taxa > static_cast<int>(kMaxTaxa)) {
    return "taxon count " + std::to_string(job.taxa) + " out of range";
  }
  if (job.sites <= 0 || job.bootstraps <= 0) {
    return "non-positive site or bootstrap count";
  }
  auto bad01 = [](double v) { return !(v >= 0.0) || !(v <= 1.0); };
  if (bad01(job.dma_bitflip_rate) || bad01(job.result_corrupt_rate) ||
      bad01(job.verify_fraction)) {
    return "integrity rate outside [0, 1]";
  }
  return {};
}

RunState make_fresh(const BootstrapJob& job) {
  if (const std::string why = job_error(job); !why.empty()) {
    throw std::invalid_argument("bootstrap job: " + why);
  }
  RunState st;
  st.job = job;
  st.master = util::Rng(job.seed).state();
  return st;
}

CheckpointImage to_image(const RunState& st) {
  CheckpointImage image;
  image.seed = st.job.seed;
  image.add(kJobTag, encode_job(st.job));
  image.add(kRngTag, encode_rng(st.master));
  image.add(kProgTag, encode_progress(st.done));
  image.add(kSchedTag, encode_sched(st.sched));
  image.add(kFaultTag, encode_fault(st));
  return image;
}

RunState from_image(const CheckpointImage& image) {
  RunState st;
  st.job = decode_job(image.require(kJobTag));
  if (image.seed != st.job.seed) {
    throw CkptError(ErrorKind::Malformed,
                    "header seed disagrees with the job section");
  }
  st.master = decode_rng(image.require(kRngTag));
  st.done = decode_progress(image.require(kProgTag), st.job);
  st.sched = decode_sched(image.require(kSchedTag));
  st.crash_position = decode_fault(image.require(kFaultTag), st.job);
  return st;
}

int save(const std::string& path, const RunState& st) {
  return write_file_atomic_retry(path, to_image(st).serialize());
}

RunState load(const std::string& path) {
  return from_image(CheckpointImage::parse(read_file(path)));
}

}  // namespace cbe::ckpt
