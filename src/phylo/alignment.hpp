// Multiple sequence alignments of DNA data: storage, site-pattern
// compression, non-parametric bootstrap resampling, and a synthetic
// generator that evolves sequences down a random tree so the reproduction
// has a 42_SC-like input (42 taxa x 1167 nucleotides) without the original
// data file.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace cbe::phylo {

/// Nucleotide coding: A=0, C=1, G=2, T=3, gap/unknown=4 (treated as
/// missing data: all states equally likely).
enum : std::uint8_t { kA = 0, kC = 1, kG = 2, kT = 3, kGap = 4 };

char state_to_char(std::uint8_t s) noexcept;
std::uint8_t char_to_state(char c) noexcept;

/// True for characters a sequence is allowed to contain: nucleotides
/// (ACGT/U, either case), N for unknown, and '-'/'?' for gaps.  Anything
/// else in an input file is rejected as malformed rather than silently
/// coerced to a gap.
bool valid_sequence_char(char c) noexcept;

/// Typed parse/validation failure for alignment input paths; the kind makes
/// adversarial-input tests (and callers that want to fall back) precise
/// about what was wrong.
class AlignmentError : public std::runtime_error {
 public:
  enum class Kind {
    BadHeader,         ///< missing/zero/negative taxon or site counts
    Truncated,         ///< input ended before the promised data
    RaggedRows,        ///< sequences of unequal length
    InvalidCharacter,  ///< a character outside the nucleotide alphabet
    SizeMismatch,      ///< names/sequences vectors disagree
  };

  AlignmentError(Kind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}
  Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

class Alignment {
 public:
  Alignment() = default;
  Alignment(std::vector<std::string> names,
            std::vector<std::vector<std::uint8_t>> sequences);

  int taxa() const noexcept { return static_cast<int>(names_.size()); }
  int sites() const noexcept {
    return names_.empty() ? 0 : static_cast<int>(seqs_.front().size());
  }
  const std::string& name(int taxon) const { return names_.at(
      static_cast<std::size_t>(taxon)); }
  std::uint8_t state(int taxon, int site) const {
    return seqs_[static_cast<std::size_t>(taxon)]
                [static_cast<std::size_t>(site)];
  }

  /// Empirical base frequencies (gaps excluded), normalized.
  std::array<double, 4> base_frequencies() const;

  /// Parses a minimal PHYLIP-like text (ntaxa nsites header, then
  /// "name sequence" lines).  Throws AlignmentError on malformed input
  /// (bad header, truncation, ragged rows, invalid characters).
  static Alignment parse_phylip(const std::string& text);

  bool operator==(const Alignment&) const = default;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<std::uint8_t>> seqs_;
};

/// Alignment compressed to unique site patterns with multiplicities; the
/// likelihood kernels iterate over patterns (the paper's 228-iteration
/// parallel loops are exactly this pattern loop for 42_SC).
class PatternAlignment {
 public:
  explicit PatternAlignment(const Alignment& a);

  int taxa() const noexcept { return taxa_; }
  int patterns() const noexcept { return static_cast<int>(weights_.size()); }
  /// Pattern-major state access.
  std::uint8_t state(int taxon, int pattern) const {
    return states_[static_cast<std::size_t>(taxon) *
                       static_cast<std::size_t>(patterns()) +
                   static_cast<std::size_t>(pattern)];
  }
  const std::vector<double>& weights() const noexcept { return weights_; }
  const std::array<double, 4>& base_frequencies() const noexcept {
    return freqs_;
  }

  /// Non-parametric bootstrap: resamples total_sites() sites with
  /// replacement, producing a new weight vector over the same patterns
  /// (exactly how RAxML implements bootstrapping).
  std::vector<double> bootstrap_weights(util::Rng& rng) const;

 private:
  int taxa_ = 0;
  int total_sites_ = 0;
  std::vector<std::uint8_t> states_;  // taxa x patterns
  std::vector<double> weights_;
  std::array<double, 4> freqs_{};
};

struct SyntheticAlignmentConfig {
  int taxa = 42;
  int sites = 1167;  ///< the 42_SC dimensions
  /// Short branches keep most columns conserved so the alignment
  /// pattern-compresses like real data (42_SC compresses 1167 sites to
  /// ~228 unique patterns -- the parallel-loop iteration count in the
  /// paper).
  double mean_branch_length = 0.004;
  double gap_fraction = 0.002;
  std::array<double, 4> base_freqs = {0.26, 0.24, 0.25, 0.25};
  double kappa = 2.5;  ///< HKY transition/transversion ratio for simulation
  std::uint64_t seed = 4242;
};

/// Evolves random sequences down a random tree under an HKY model; the
/// result pattern-compresses to a few hundred patterns like real data.
Alignment make_synthetic_alignment(const SyntheticAlignmentConfig& cfg = {});

}  // namespace cbe::phylo
