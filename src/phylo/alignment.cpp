#include "phylo/alignment.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

namespace cbe::phylo {

char state_to_char(std::uint8_t s) noexcept {
  switch (s) {
    case kA: return 'A';
    case kC: return 'C';
    case kG: return 'G';
    case kT: return 'T';
    default: return '-';
  }
}

std::uint8_t char_to_state(char c) noexcept {
  switch (c) {
    case 'A': case 'a': return kA;
    case 'C': case 'c': return kC;
    case 'G': case 'g': return kG;
    case 'T': case 't': case 'U': case 'u': return kT;
    default: return kGap;
  }
}

bool valid_sequence_char(char c) noexcept {
  switch (c) {
    case 'A': case 'a': case 'C': case 'c': case 'G': case 'g':
    case 'T': case 't': case 'U': case 'u': case 'N': case 'n':
    case '-': case '?':
      return true;
    default:
      return false;
  }
}

Alignment::Alignment(std::vector<std::string> names,
                     std::vector<std::vector<std::uint8_t>> sequences)
    : names_(std::move(names)), seqs_(std::move(sequences)) {
  if (names_.size() != seqs_.size()) {
    throw AlignmentError(AlignmentError::Kind::SizeMismatch,
                         "Alignment: names/sequences size mismatch");
  }
  if (names_.empty()) {
    throw AlignmentError(AlignmentError::Kind::SizeMismatch,
                         "Alignment: zero taxa");
  }
  for (const auto& s : seqs_) {
    if (s.size() != seqs_.front().size()) {
      throw AlignmentError(AlignmentError::Kind::RaggedRows,
                           "Alignment: ragged sequences");
    }
  }
}

std::array<double, 4> Alignment::base_frequencies() const {
  std::array<double, 4> counts{};
  for (const auto& seq : seqs_) {
    for (std::uint8_t s : seq) {
      if (s < 4) counts[s] += 1.0;
    }
  }
  double total = counts[0] + counts[1] + counts[2] + counts[3];
  if (total == 0.0) return {0.25, 0.25, 0.25, 0.25};
  for (auto& c : counts) c /= total;
  return counts;
}

Alignment Alignment::parse_phylip(const std::string& text) {
  std::istringstream in(text);
  long long ntaxa = 0, nsites = 0;
  if (!(in >> ntaxa >> nsites)) {
    throw AlignmentError(AlignmentError::Kind::BadHeader,
                         "parse_phylip: bad header (expected two integers)");
  }
  if (ntaxa <= 0 || nsites <= 0) {
    throw AlignmentError(AlignmentError::Kind::BadHeader,
                         "parse_phylip: header requires positive taxon and "
                         "site counts, got " + std::to_string(ntaxa) + " x " +
                         std::to_string(nsites));
  }
  // An adversarial header must not drive allocation: the sequences that back
  // it up have to actually be present, so bound both dimensions by the
  // input size itself.
  if (static_cast<unsigned long long>(ntaxa) > text.size() ||
      static_cast<unsigned long long>(nsites) > text.size()) {
    throw AlignmentError(AlignmentError::Kind::Truncated,
                         "parse_phylip: header promises more data than the "
                         "input contains");
  }
  std::vector<std::string> names;
  std::vector<std::vector<std::uint8_t>> seqs;
  for (long long i = 0; i < ntaxa; ++i) {
    std::string name, seq;
    if (!(in >> name >> seq)) {
      throw AlignmentError(AlignmentError::Kind::Truncated,
                           "parse_phylip: truncated input (got " +
                           std::to_string(i) + " of " +
                           std::to_string(ntaxa) + " sequences)");
    }
    if (static_cast<long long>(seq.size()) != nsites) {
      throw AlignmentError(AlignmentError::Kind::RaggedRows,
                           "parse_phylip: sequence length mismatch for " +
                           name + " (got " + std::to_string(seq.size()) +
                           ", header says " + std::to_string(nsites) + ")");
    }
    for (std::size_t p = 0; p < seq.size(); ++p) {
      if (!valid_sequence_char(seq[p])) {
        throw AlignmentError(AlignmentError::Kind::InvalidCharacter,
                             "parse_phylip: invalid character '" +
                             std::string(1, seq[p]) + "' in sequence " +
                             name + " at site " + std::to_string(p));
      }
    }
    std::vector<std::uint8_t> states(seq.size());
    std::transform(seq.begin(), seq.end(), states.begin(), char_to_state);
    names.push_back(std::move(name));
    seqs.push_back(std::move(states));
  }
  return Alignment(std::move(names), std::move(seqs));
}

PatternAlignment::PatternAlignment(const Alignment& a)
    : taxa_(a.taxa()), total_sites_(a.sites()), freqs_(a.base_frequencies()) {
  // Group identical columns; map keeps deterministic (lexicographic) order.
  std::map<std::vector<std::uint8_t>, int> pattern_count;
  std::vector<std::uint8_t> column(static_cast<std::size_t>(taxa_));
  for (int s = 0; s < a.sites(); ++s) {
    for (int t = 0; t < taxa_; ++t) {
      column[static_cast<std::size_t>(t)] = a.state(t, s);
    }
    pattern_count[column] += 1;
  }
  const auto npat = pattern_count.size();
  states_.resize(static_cast<std::size_t>(taxa_) * npat);
  weights_.reserve(npat);
  std::size_t p = 0;
  for (const auto& [pat, count] : pattern_count) {
    for (int t = 0; t < taxa_; ++t) {
      states_[static_cast<std::size_t>(t) * npat + p] =
          pat[static_cast<std::size_t>(t)];
    }
    weights_.push_back(static_cast<double>(count));
    ++p;
  }
}

std::vector<double> PatternAlignment::bootstrap_weights(
    util::Rng& rng) const {
  // Draw total_sites_ samples from the categorical distribution given by
  // the original weights (equivalent to resampling columns uniformly).
  std::vector<double> cdf(weights_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    acc += weights_[i];
    cdf[i] = acc;
  }
  std::vector<double> out(weights_.size(), 0.0);
  for (int s = 0; s < total_sites_; ++s) {
    const double u = rng.uniform() * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    out[static_cast<std::size_t>(it - cdf.begin())] += 1.0;
  }
  return out;
}

namespace {

// Evolves a child state from a parent state with an HKY transition matrix
// row sampled on the fly.
std::uint8_t evolve_state(std::uint8_t parent, double t,
                          const SyntheticAlignmentConfig& cfg,
                          util::Rng& rng) {
  // Simple HKY CTMC approximation via a two-phase scheme: with probability
  // 1 - exp(-rate*t) the site is redrawn; transitions are favoured by
  // kappa.  Adequate for generating realistic pattern diversity.
  const double p_change = 1.0 - std::exp(-t);
  if (!rng.bernoulli(p_change)) return parent;
  // Transition partner (A<->G, C<->T) has weight kappa, transversions 1.
  const std::uint8_t transition_partner =
      parent == kA ? kG : parent == kG ? kA : parent == kC ? kT : kC;
  std::array<double, 4> w{};
  for (int s = 0; s < 4; ++s) {
    w[static_cast<std::size_t>(s)] =
        cfg.base_freqs[static_cast<std::size_t>(s)];
  }
  w[transition_partner] *= cfg.kappa;
  w[parent] = 0.0;
  const double total = w[0] + w[1] + w[2] + w[3];
  double u = rng.uniform() * total;
  for (std::uint8_t s = 0; s < 4; ++s) {
    if (u < w[s]) return s;
    u -= w[s];
  }
  return transition_partner;
}

}  // namespace

Alignment make_synthetic_alignment(const SyntheticAlignmentConfig& cfg) {
  util::Rng rng(cfg.seed);
  const int n = cfg.taxa;

  // Random topology by sequential attachment: node i's parent is a uniform
  // pick among earlier nodes of a growing binary tree, encoded as a parent
  // array over 2n-1 nodes (leaves are 0..n-1).
  const int total_nodes = 2 * n - 1;
  std::vector<int> parent(static_cast<std::size_t>(total_nodes), -1);
  std::vector<double> blen(static_cast<std::size_t>(total_nodes), 0.0);
  // Internal nodes n..2n-2; build a random shape: each leaf hangs off a
  // random internal node chain.
  for (int v = 1; v < total_nodes; ++v) {
    const int lo = std::max(n, v >= n ? v + 1 : n);
    (void)lo;
    // Simpler: chain internals, attach leaves randomly.
    if (v < n) continue;
    parent[static_cast<std::size_t>(v)] = v == n ? -1 : static_cast<int>(
        n + rng.below(static_cast<std::uint64_t>(v - n)));
    blen[static_cast<std::size_t>(v)] =
        rng.exponential(cfg.mean_branch_length);
  }
  for (int leaf = 0; leaf < n; ++leaf) {
    parent[static_cast<std::size_t>(leaf)] = static_cast<int>(
        n + rng.below(static_cast<std::uint64_t>(n - 1)));
    blen[static_cast<std::size_t>(leaf)] =
        rng.exponential(cfg.mean_branch_length);
  }

  // Topological order: internals n..2n-2 are already parent-before-child.
  std::vector<std::vector<std::uint8_t>> seq_at_node(
      static_cast<std::size_t>(total_nodes));
  auto draw_root_state = [&]() -> std::uint8_t {
    double u = rng.uniform();
    for (std::uint8_t s = 0; s < 4; ++s) {
      if (u < cfg.base_freqs[s]) return s;
      u -= cfg.base_freqs[s];
    }
    return kT;
  };
  auto& root_seq = seq_at_node[static_cast<std::size_t>(n)];
  root_seq.resize(static_cast<std::size_t>(cfg.sites));
  for (auto& s : root_seq) s = draw_root_state();
  for (int v = n + 1; v < total_nodes; ++v) {
    const auto& pseq = seq_at_node[static_cast<std::size_t>(
        parent[static_cast<std::size_t>(v)])];
    auto& my = seq_at_node[static_cast<std::size_t>(v)];
    my.resize(pseq.size());
    const double t = blen[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < pseq.size(); ++i) {
      my[i] = evolve_state(pseq[i], t, cfg, rng);
    }
  }

  std::vector<std::string> names;
  std::vector<std::vector<std::uint8_t>> seqs;
  for (int leaf = 0; leaf < n; ++leaf) {
    const auto& pseq = seq_at_node[static_cast<std::size_t>(
        parent[static_cast<std::size_t>(leaf)])];
    std::vector<std::uint8_t> my(pseq.size());
    const double t = blen[static_cast<std::size_t>(leaf)];
    for (std::size_t i = 0; i < pseq.size(); ++i) {
      my[i] = evolve_state(pseq[i], t, cfg, rng);
      if (rng.bernoulli(cfg.gap_fraction)) my[i] = kGap;
    }
    names.push_back("taxon" + std::to_string(leaf));
    seqs.push_back(std::move(my));
  }
  return Alignment(std::move(names), std::move(seqs));
}

}  // namespace cbe::phylo
