// Genuinely vectorized variants of the likelihood kernels, written against
// the compiler vector extensions exposed through spu/vec.hpp (vdouble4 —
// one AVX ymm per operation in the AVX2 clone that x86-64 CPUs with AVX2
// select at load time, a pair of SSE2 xmm in the baseline clone).  They
// vectorize across the state dimension: each (pattern, rate) block of a
// CLV is exactly kStates == 4 contiguous doubles, so the four per-state dot
// products of the scalar reference become one 4-lane fused sweep over
// pre-transposed P-matrix columns.  A tip operand (Clv::tip non-empty) has
// only five distinct blocks, so newview_simd and evaluate_simd's `b` read
// its products from a per-call table built by the same arithmetic.
//
// The contract — enforced by tests/test_kernels_differential.cpp — is that
// every SIMD kernel is BIT-IDENTICAL to its scalar reference in
// phylo/kernels.cpp: lane s performs the same IEEE-754 operations in the
// same order as scalar state s (both translation units are compiled with
// -ffp-contract=off so neither side silently fuses into FMAs).  That is
// what makes the fast path safe to enable everywhere: determinism tests,
// golden traces, and checkpoint equivalence cannot tell the two apart.
//
// Selection is two-level:
//   - compile time: cmake -DCBE_SIMD=OFF (or a non-GNU compiler) removes
//     the vector code entirely; the *_simd entry points forward to the
//     scalar reference so every caller stays correct.
//   - run time: the CBE_SIMD environment variable ("off"/"0"/"scalar"/
//     "false") makes the *_dispatch entry points take the scalar path —
//     the escape hatch documented in the README.
#pragma once

#include "phylo/kernels.hpp"

namespace cbe::phylo {

/// True when the vectorized kernels were compiled in (vector extensions
/// available and the build did not force the scalar fallback).
bool simd_compiled() noexcept;

/// Parses a CBE_SIMD-style value: nullptr/"on"/"1"/anything else -> true;
/// "off", "0", "scalar", "false" (case-insensitive) -> false.  Exposed for
/// unit tests; simd_enabled() applies it to getenv("CBE_SIMD") once.
bool simd_env_enabled(const char* value) noexcept;

/// True when the dispatch entry points below will take the vector path:
/// compiled in AND not disabled via CBE_SIMD.  Cached on first call.
bool simd_enabled() noexcept;

// ---- Vectorized kernels (scalar forwarding when not compiled in) ----

void newview_simd(const Clv<double>& left, const BranchP& pl,
                  const Clv<double>& right, const BranchP& pr,
                  Clv<double>& out);

double evaluate_simd(const Clv<double>& a, const Clv<double>& b,
                     const BranchP& pb, const SubstModel& model,
                     const std::vector<double>& weights);

void make_sumtable_simd(const Clv<double>& a, const Clv<double>& b,
                        const SubstModel& model,
                        std::vector<double>& sumtable);

// ---- Runtime dispatch: SIMD when simd_enabled(), scalar otherwise ----
// The likelihood engine calls these, so real runs get the fast path while
// CBE_SIMD=off pins the reference kernels without a rebuild.

void newview_dispatch(const Clv<double>& left, const BranchP& pl,
                      const Clv<double>& right, const BranchP& pr,
                      Clv<double>& out);

double evaluate_dispatch(const Clv<double>& a, const Clv<double>& b,
                         const BranchP& pb, const SubstModel& model,
                         const std::vector<double>& weights);

void make_sumtable_dispatch(const Clv<double>& a, const Clv<double>& b,
                            const SubstModel& model,
                            std::vector<double>& sumtable);

}  // namespace cbe::phylo
