// Genuinely vectorized variants of the likelihood kernels, written against
// the compiler vector extensions exposed through spu/vec.hpp (vdouble4 —
// one AVX ymm per operation in the AVX2 clone that x86-64 CPUs with AVX2
// select at load time, a pair of SSE2 xmm in the baseline clone).  The
// CLV kernels vectorize across the state dimension: each (pattern, rate)
// block of a CLV is exactly kStates == 4 contiguous doubles, so the four
// per-state dot products of the scalar reference become one 4-lane fused
// sweep over pre-transposed P-matrix columns.  Newton vectorizes across
// patterns instead: its per-pattern sums run over all 16 (rate, state)
// terms, so lane l carries pattern 4q+l of a sumtable transposed into
// blocks of four patterns.  Every tip operand (Clv::tip non-empty)
// is read by its codes, never through its `data`, which may be empty: a tip
// has only five distinct blocks, so newview_simd and evaluate_simd's `b`
// read its products from a per-call table built by the same arithmetic, and
// evaluate_simd's `a` and both make_sumtable_simd operands load
// kTipVectors[code] in place of the block.
//
// The contract — enforced by tests/test_kernels_differential.cpp — is that
// every SIMD kernel is BIT-IDENTICAL to its scalar reference in
// phylo/kernels.cpp: lane s performs the same IEEE-754 operations in the
// same order as scalar state s (both translation units are compiled with
// -ffp-contract=off so neither side silently fuses into FMAs).  That is
// what lets LikelihoodEngine call them as its only kernel path:
// determinism tests, golden traces, and checkpoint equivalence cannot tell
// them from the reference.  Newton's reference is the per-pattern scalar
// loop kept as the oracle in that test: each lane repeats one pattern's
// operations in order, and the derivative sums still add the patterns one
// by one.
#pragma once

#include "phylo/kernels.hpp"

namespace cbe::phylo {

void newview_simd(const Clv<double>& left, const BranchP& pl,
                  const Clv<double>& right, const BranchP& pr,
                  Clv<double>& out);

double evaluate_simd(const Clv<double>& a, const Clv<double>& b,
                     const BranchP& pb, const SubstModel& model,
                     const std::vector<double>& weights);

void make_sumtable_simd(const Clv<double>& a, const Clv<double>& b,
                        const SubstModel& model,
                        std::vector<double>& sumtable);

/// makenewz phase 2: safeguarded Newton-Raphson on d lnL / dt over the
/// sumtable of make_sumtable_simd, one pattern per weight.  Returns the
/// optimized branch length; `iterations_out` (optional) receives the number
/// of Newton steps taken.  `scratch` receives the sumtable transposed into
/// blocks of four patterns, once per call; the caller owns it so that a
/// search allocates it once.  The scale counts are t-independent, so they
/// drop from d/dt and the kernel does not read them.
double newton_branch_length(const std::vector<double>& sumtable,
                            const SubstModel& model,
                            const std::vector<double>& weights, double t0,
                            std::vector<double>& scratch, int max_iter = 32,
                            int* iterations_out = nullptr);

}  // namespace cbe::phylo
