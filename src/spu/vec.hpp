// Portable stand-ins for the SPU 128-bit SIMD register types.  The Cell SDK
// exposed `vector float` (4 lanes) and `vector double` (2 lanes) with
// select-based branchless conditionals; these types reproduce that API shape
// on the host so the vectorized likelihood kernels read like SPE code.
// Plain-loop implementations let the host compiler auto-vectorize.
#pragma once

#include <cmath>
#include <cstddef>

namespace cbe::spu {

struct float4 {
  float v[4];

  static float4 splat(float x) noexcept { return {{x, x, x, x}}; }
  static float4 zero() noexcept { return splat(0.0f); }

  float& operator[](std::size_t i) noexcept { return v[i]; }
  float operator[](std::size_t i) const noexcept { return v[i]; }

  friend float4 operator+(float4 a, float4 b) noexcept {
    float4 r;
    for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend float4 operator-(float4 a, float4 b) noexcept {
    float4 r;
    for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend float4 operator*(float4 a, float4 b) noexcept {
    float4 r;
    for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  /// Fused multiply-add a*b+c (the SPU's fundamental FP instruction).
  friend float4 madd(float4 a, float4 b, float4 c) noexcept {
    float4 r;
    for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
    return r;
  }
  float hsum() const noexcept { return v[0] + v[1] + v[2] + v[3]; }
};

struct double2 {
  double v[2];

  static double2 splat(double x) noexcept { return {{x, x}}; }
  static double2 zero() noexcept { return splat(0.0); }
  static double2 load(const double* p) noexcept { return {{p[0], p[1]}}; }
  void store(double* p) const noexcept {
    p[0] = v[0];
    p[1] = v[1];
  }

  double& operator[](std::size_t i) noexcept { return v[i]; }
  double operator[](std::size_t i) const noexcept { return v[i]; }

  friend double2 operator+(double2 a, double2 b) noexcept {
    return {{a.v[0] + b.v[0], a.v[1] + b.v[1]}};
  }
  friend double2 operator-(double2 a, double2 b) noexcept {
    return {{a.v[0] - b.v[0], a.v[1] - b.v[1]}};
  }
  friend double2 operator*(double2 a, double2 b) noexcept {
    return {{a.v[0] * b.v[0], a.v[1] * b.v[1]}};
  }
  friend double2 madd(double2 a, double2 b, double2 c) noexcept {
    return {{a.v[0] * b.v[0] + c.v[0], a.v[1] * b.v[1] + c.v[1]}};
  }
  double hsum() const noexcept { return v[0] + v[1]; }
};

// ---- Genuine SIMD: compiler vector extensions -------------------------
//
// The types above are *models* (plain loops the compiler may or may not
// auto-vectorize).  `vdouble4` below is the real thing: a GCC/Clang vector
// type that lowers to native SIMD registers.  The vectorized likelihood
// kernels are written against it.
//
// CBE_SIMD_VECTOR_EXT is 1 when the extension is available and the build
// did not force the scalar fallback (cmake -DCBE_SIMD=OFF defines
// CBE_SIMD_SCALAR_ONLY).  Kernels guarded by it must keep a scalar path so
// every build configuration stays green.
#if defined(__GNUC__) && !defined(CBE_SIMD_SCALAR_ONLY)
#define CBE_SIMD_VECTOR_EXT 1
#else
#define CBE_SIMD_VECTOR_EXT 0
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
#if CBE_SIMD_VECTOR_EXT && defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define CBE_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CBE_SIMD_CLONES
#endif

#if CBE_SIMD_VECTOR_EXT

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

#endif  // CBE_SIMD_VECTOR_EXT

/// Branchless select: lanes where mask >= 0 take `a`, else `b`.  Mirrors the
/// SPU `selb` idiom used to vectorize data-dependent conditionals.
inline double2 select_ge0(double2 mask, double2 a, double2 b) noexcept {
  return {{mask.v[0] >= 0.0 ? a.v[0] : b.v[0],
           mask.v[1] >= 0.0 ? a.v[1] : b.v[1]}};
}

inline float4 select_ge0(float4 mask, float4 a, float4 b) noexcept {
  float4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = mask.v[i] >= 0.0f ? a.v[i] : b.v[i];
  return r;
}

}  // namespace cbe::spu
