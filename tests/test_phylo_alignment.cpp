#include "phylo/alignment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cbe::phylo {
namespace {

TEST(States, CharRoundtrip) {
  for (char c : {'A', 'C', 'G', 'T'}) {
    EXPECT_EQ(state_to_char(char_to_state(c)), c);
  }
  EXPECT_EQ(char_to_state('a'), kA);
  EXPECT_EQ(char_to_state('u'), kT);  // RNA
  EXPECT_EQ(char_to_state('N'), kGap);
  EXPECT_EQ(char_to_state('-'), kGap);
  EXPECT_EQ(state_to_char(kGap), '-');
}

// Parses `text`, expecting it to fail, and reports which typed error it
// failed with.
AlignmentError::Kind phylip_failure_kind(const std::string& text) {
  try {
    Alignment::parse_phylip(text);
  } catch (const AlignmentError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "parse_phylip accepted malformed input: " << text;
  return AlignmentError::Kind::BadHeader;
}

TEST(Alignment, ConstructionValidates) {
  EXPECT_THROW(Alignment({"a"}, {{kA}, {kC}}), AlignmentError);
  EXPECT_THROW(Alignment({"a", "b"}, {{kA, kC}, {kG}}), AlignmentError);
  // Typed errors still satisfy callers catching the std hierarchy.
  EXPECT_THROW(Alignment({"a"}, {{kA}, {kC}}), std::runtime_error);
}

TEST(Alignment, ConstructionRejectsZeroTaxa) {
  try {
    Alignment({}, {});
    FAIL() << "zero-taxon alignment was accepted";
  } catch (const AlignmentError& e) {
    EXPECT_EQ(e.kind(), AlignmentError::Kind::SizeMismatch);
    EXPECT_NE(std::string(e.what()).find("zero taxa"), std::string::npos);
  }
}

TEST(Alignment, PhylipTypedErrors) {
  using Kind = AlignmentError::Kind;
  EXPECT_EQ(phylip_failure_kind(""), Kind::BadHeader);
  EXPECT_EQ(phylip_failure_kind("not numbers\n"), Kind::BadHeader);
  EXPECT_EQ(phylip_failure_kind("0 5\n"), Kind::BadHeader);
  EXPECT_EQ(phylip_failure_kind("-2 4\nx ACGT\n"), Kind::BadHeader);
  EXPECT_EQ(phylip_failure_kind("2 4\nonly ACGT\n"), Kind::Truncated);
  EXPECT_EQ(phylip_failure_kind("1 4\nshort ACG\n"), Kind::RaggedRows);
  EXPECT_EQ(phylip_failure_kind("1 4\nt AC!T\n"), Kind::InvalidCharacter);
}

TEST(Alignment, AdversarialHeaderCannotDriveAllocation) {
  // A tiny input whose header promises a multi-gigabyte alignment must be
  // rejected up front (bounded by the input size), not attempted.
  EXPECT_EQ(phylip_failure_kind("1000000000 1000000000\nx ACGT\n"),
            AlignmentError::Kind::Truncated);
  EXPECT_EQ(phylip_failure_kind("3000000000 4\n"),
            AlignmentError::Kind::Truncated);
}

TEST(Alignment, InvalidCharacterNamesTheCulprit) {
  try {
    Alignment::parse_phylip("1 4\nbadtaxon AC*T\n");
    FAIL() << "invalid character was accepted";
  } catch (const AlignmentError& e) {
    EXPECT_EQ(e.kind(), AlignmentError::Kind::InvalidCharacter);
    const std::string what = e.what();
    EXPECT_NE(what.find("badtaxon"), std::string::npos) << what;
    EXPECT_NE(what.find('*'), std::string::npos) << what;
  }
}

TEST(Alignment, PhylipRoundtrip) {
  const std::string text = "2 4\nhuman ACGT\nchimp AC-T\n";
  const Alignment a = Alignment::parse_phylip(text);
  EXPECT_EQ(a.taxa(), 2);
  EXPECT_EQ(a.sites(), 4);
  EXPECT_EQ(a.name(0), "human");
  EXPECT_EQ(a.state(1, 2), kGap);
  const Alignment b({"human", "chimp"},
                    {{kA, kC, kG, kT}, {kA, kC, kGap, kT}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == Alignment::parse_phylip("2 4\nhuman ACGT\nchimp ACGT\n"));
}

TEST(Alignment, PhylipRejectsMalformed) {
  EXPECT_THROW(Alignment::parse_phylip(""), std::runtime_error);
  EXPECT_THROW(Alignment::parse_phylip("0 5\n"), std::runtime_error);
  EXPECT_THROW(Alignment::parse_phylip("2 4\nonly ACGT\n"),
               std::runtime_error);
  EXPECT_THROW(Alignment::parse_phylip("1 4\nshort ACG\n"),
               std::runtime_error);
}

TEST(Alignment, BaseFrequenciesExcludeGaps) {
  const Alignment a = Alignment::parse_phylip("1 8\nt AAAACCG-\n");
  const auto f = a.base_frequencies();
  EXPECT_NEAR(f[kA], 4.0 / 7.0, 1e-12);
  EXPECT_NEAR(f[kC], 2.0 / 7.0, 1e-12);
  EXPECT_NEAR(f[kG], 1.0 / 7.0, 1e-12);
  EXPECT_NEAR(f[kT], 0.0, 1e-12);
}

TEST(Alignment, AllGapsFallsBackToUniform) {
  const Alignment a = Alignment::parse_phylip("1 2\nt --\n");
  const auto f = a.base_frequencies();
  EXPECT_DOUBLE_EQ(f[0], 0.25);
}

TEST(PatternAlignment, CompressesDuplicateColumns) {
  // Columns: ACGT pattern appears 3x, AAAA 2x, CCCC once.
  const Alignment a = Alignment::parse_phylip(
      "2 6\nx AAACAC\ny CCACAC\n");
  const PatternAlignment pa(a);
  EXPECT_LT(pa.patterns(), 6);
  double wsum = 0.0;
  for (double w : pa.weights()) wsum += w;
  EXPECT_DOUBLE_EQ(wsum, 6.0);
}

TEST(PatternAlignment, PreservesColumnContent) {
  const Alignment a = Alignment::parse_phylip("2 3\nx ACG\ny TGC\n");
  const PatternAlignment pa(a);
  EXPECT_EQ(pa.patterns(), 3);
  // Reconstruct multiset of columns from patterns.
  int found = 0;
  for (int p = 0; p < pa.patterns(); ++p) {
    if (pa.state(0, p) == kA && pa.state(1, p) == kT) ++found;
    if (pa.state(0, p) == kC && pa.state(1, p) == kG) ++found;
    if (pa.state(0, p) == kG && pa.state(1, p) == kC) ++found;
  }
  EXPECT_EQ(found, 3);
}

TEST(PatternAlignment, BootstrapWeightsResampleTotal) {
  const Alignment a = make_synthetic_alignment({});
  PatternAlignment pa(a);
  util::Rng rng(5);
  const auto w = pa.bootstrap_weights(rng);
  ASSERT_EQ(w.size(), static_cast<std::size_t>(pa.patterns()));
  double sum = 0.0;
  for (double x : w) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(a.sites()));
}

TEST(PatternAlignment, BootstrapWeightsVary) {
  const Alignment a = make_synthetic_alignment({});
  PatternAlignment pa(a);
  util::Rng rng(6);
  const auto w1 = pa.bootstrap_weights(rng);
  const auto w2 = pa.bootstrap_weights(rng);
  EXPECT_NE(w1, w2);
}

TEST(SyntheticAlignment, HasRequestedDimensions) {
  SyntheticAlignmentConfig cfg;
  cfg.taxa = 10;
  cfg.sites = 200;
  const Alignment a = make_synthetic_alignment(cfg);
  EXPECT_EQ(a.taxa(), 10);
  EXPECT_EQ(a.sites(), 200);
}

TEST(SyntheticAlignment, DefaultCompressesLikeRealData) {
  const Alignment a = make_synthetic_alignment({});
  const PatternAlignment pa(a);
  // 42_SC compresses 1167 sites to ~228 patterns; ours should land in the
  // same order of magnitude (conserved columns dominate).
  EXPECT_GT(pa.patterns(), 100);
  EXPECT_LT(pa.patterns(), 600);
}

TEST(SyntheticAlignment, DeterministicBySeed) {
  const Alignment a = make_synthetic_alignment({});
  const Alignment b = make_synthetic_alignment({});
  EXPECT_TRUE(a == b);
  SyntheticAlignmentConfig other;
  other.seed = 1;
  EXPECT_FALSE(make_synthetic_alignment(other) == a);
}

TEST(SyntheticAlignment, SequencesShareAncestry) {
  // Two taxa should agree on far more sites than the ~25% random baseline.
  const Alignment a = make_synthetic_alignment({});
  int agree = 0;
  for (int s = 0; s < a.sites(); ++s) {
    agree += a.state(0, s) == a.state(1, s) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(agree) / a.sites(), 0.5);
}

}  // namespace
}  // namespace cbe::phylo
