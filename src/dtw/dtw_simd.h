// Declarations of the per-tier vector kernels behind the DTW cascade
// dispatch (see dtw.cpp): Keogh envelope construction, the LB_Keogh
// exceedance sum, the early-abandoning reordered LB_Keogh test, and the full
// band DTW recurrence as an anti-diagonal wavefront.
//
// The scheme mirrors src/nn/simd_kernels.h: each tier namespace is one
// translation unit (src/dtw/simd_tier_<isa>.cpp) compiled with that ISA's
// -m flags, with the bodies shared via dtw_simd.inc against the
// `simd::best` wrapper types. Distinct per-tier namespaces keep the scheme
// ODR-safe (an AVX-512-codegen'd helper can never be linker-merged into a
// binary that must run on an AVX2-only host).
//
// Numerics contract (relied on by dtw_simd_test):
//  * EnvelopeD and DtwBandD use only exact operations (subtract, multiply,
//    add of an exact chain, IEEE min/max, compare/blend) applied to the same
//    per-element expressions as the scalar code, so their results are
//    bit-identical to the scalar tier on every input without NaNs.
//  * LbKeoghSumSqD reduces with W partial sums (reassociation), so it may
//    differ from the scalar sum by a few ULP; LbKeogh stays an admissible
//    DTW lower bound to that tolerance.
//  * LbKeoghExceedsD sums the same per-position exceedances, but in the
//    caller's visiting order (descending |query value|, UCR-suite
//    reordering) with W partial sums, and stops at the first W-chunk whose
//    running total exceeds bound2. Every term is non-negative, so the
//    running total only grows and an early stop is the decision the full
//    sum would make; the reordered sum differs from the in-order one by a
//    few ULP, the same tolerance as LbKeoghSumSqD. The caller (dtw.cpp,
//    LbKeoghExceeds) widens bound2 by a relative (2n + 8) ULP so that a pair
//    whose DTW equals the radius is never rejected on rounding.

#pragma once

#include <cstddef>
#include <cstdint>

#if defined(DBAUGUR_SIMD_HAS_SSE2) || defined(DBAUGUR_SIMD_HAS_AVX2) || \
    defined(DBAUGUR_SIMD_HAS_AVX512)

// clang-format off
#define DBAUGUR_DTW_DECLARE_TIER(ns)                                           \
  namespace ns {                                                               \
  /* Keogh envelope: lower/upper[i] = min/max of seq over [i-w, i+w]       */  \
  /* clamped to [0, n). Bit-identical to the scalar loop in dtw.cpp.       */  \
  void EnvelopeD(const double* seq, std::size_t n, std::size_t w,              \
                 double* lower, double* upper);                                \
  /* Sum of squared envelope exceedances of q against [lo, up] (the        */  \
  /* LB_Keogh sum before the sqrt). Requires lo[i] <= up[i]. W partials.   */  \
  double LbKeoghSumSqD(const double* q, const double* lo, const double* up,    \
                       std::size_t n);                                         \
  /* Early-abandoning LB_Keogh "sum > bound2" test in visiting order k.    */  \
  /* Side 1: q[k] against the candidate's interleaved envelope at          */  \
  /* cand_env[pos2[k]] (lower) / cand_env[pos2[k] + 1] (upper). Side 2,    */  \
  /* run only when `symmetric` and side 1 stayed <= bound2: cand[pos[k]]   */  \
  /* against [q_lo[k], q_up[k]]. pos2[k] == 2 * pos[k].                    */  \
  bool LbKeoghExceedsD(const double* q, const double* q_lo,                    \
                       const double* q_up, const std::int32_t* pos,            \
                       const std::int32_t* pos2, const double* cand,           \
                       const double* cand_env, std::size_t n, double bound2,   \
                       bool symmetric);                                        \
  /* Band DTW as an anti-diagonal wavefront. Returns the squared DP value  */  \
  /* at the corner (n, m), or +inf with *abandoned set when two            */  \
  /* consecutive anti-diagonal minima exceeded ub2 (which proves the true  */  \
  /* result > ub2; pass ub2 = +inf to disable). `ws` is caller-owned       */  \
  /* scratch of at least 3 * (n + 3) doubles, prefilled with +inf.         */  \
  double DtwBandD(const double* a, std::size_t n, const double* b,             \
                  std::size_t m, std::size_t w, double ub2, double* ws,        \
                  bool* abandoned);                                            \
  }
// clang-format on

namespace dbaugur::dtw {

#if defined(DBAUGUR_SIMD_HAS_SSE2)
DBAUGUR_DTW_DECLARE_TIER(tier_sse2)
#endif
#if defined(DBAUGUR_SIMD_HAS_AVX2)
DBAUGUR_DTW_DECLARE_TIER(tier_avx2)
#endif
#if defined(DBAUGUR_SIMD_HAS_AVX512)
DBAUGUR_DTW_DECLARE_TIER(tier_avx512)
#endif

}  // namespace dbaugur::dtw

#undef DBAUGUR_DTW_DECLARE_TIER

#endif  // any tier compiled
