// The compiler vector-extension type of the vectorized likelihood kernels
// (phylo/kernels_simd.*), the host counterpart of the SPU's SIMD registers:
// `vdouble4` is a GCC/Clang vector type that lowers to native SIMD
// registers, so the kernels read like SPE code and run as real SIMD.
#pragma once

#if !defined(__GNUC__)
#error "spu/vec.hpp needs the GCC/Clang vector extensions"
#endif

// CBE_SIMD_CLONES marks a vector kernel entry point for an AVX2 clone beside
// the baseline x86-64 (SSE2) one; the dynamic loader picks the clone the CPU
// supports, so one binary runs everywhere and uses ymm registers where they
// exist.  Neither clone enables FMA, so with -ffp-contract=off every lane
// rounds exactly as the scalar reference does.  Everything such an entry
// point calls with a vdouble4 argument or result must be always-inline: the
// two clones pass 32-byte vectors differently, so a vdouble4 must never
// cross a real call, not even at -O0.  ThreadSanitizer builds keep only the
// baseline: the loader runs a clone's ifunc resolver before TSan's runtime
// is up, and the binary dies at startup.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define CBE_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CBE_SIMD_CLONES
#endif

namespace cbe::spu {

/// Four IEEE doubles: one AVX ymm register in a CBE_SIMD_CLONES kernel's
/// AVX2 clone, a pair of SSE2 xmm registers in its baseline clone.
/// Lane arithmetic is plain IEEE-754: `a + b` rounds each lane exactly like
/// the corresponding scalar `+`, so kernels built from these stay
/// bit-identical to their scalar references as long as the translation unit
/// is compiled with -ffp-contract=off (no silent FMA fusion on either
/// side).
typedef double vdouble4 __attribute__((vector_size(32)));

/// Unaligned load/store via memcpy — lowers to vmovupd/movupd; CLV data is
/// only guaranteed 8-byte aligned.
[[gnu::always_inline]] inline vdouble4 vload4(const double* p) noexcept {
  vdouble4 r;
  __builtin_memcpy(&r, p, sizeof r);
  return r;
}

[[gnu::always_inline]] inline void vstore4(double* p, vdouble4 x) noexcept {
  __builtin_memcpy(p, &x, sizeof x);
}

[[gnu::always_inline]] inline vdouble4 vsplat4(double x) noexcept {
  return vdouble4{x, x, x, x};
}

}  // namespace cbe::spu
