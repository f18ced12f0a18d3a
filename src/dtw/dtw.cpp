#include "dtw/dtw.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/contracts.h"
#include "common/simd.h"
#include "dtw/dtw_simd.h"

namespace dbaugur::dtw {

namespace {

#if defined(DBAUGUR_SIMD_HAS_SSE2) || defined(DBAUGUR_SIMD_HAS_AVX2) || \
    defined(DBAUGUR_SIMD_HAS_AVX512)
#define DBAUGUR_DTW_HAS_VECTOR_TIERS 1

// Dispatch table over the per-tier kernels (dtw_simd.h), mirroring
// ActiveKernels in nn/gemm.cpp. Null means "use the scalar code below",
// which is the untouched pre-SIMD implementation — the forced-scalar build
// therefore runs bit-identical to it by construction.
struct DtwKernels {
  void (*envelope)(const double*, size_t, size_t, double*, double*);
  double (*lb_keogh_sumsq)(const double*, const double*, const double*,
                           size_t);
  double (*dtw_band)(const double*, size_t, const double*, size_t, size_t,
                     double, double*, bool*);
  bool (*lb_keogh_exceeds)(const double*, const double*, const double*,
                           const int32_t*, const int32_t*, const double*,
                           const double*, size_t, double, bool);
};

const DtwKernels* ActiveDtwKernels() {
  switch (simd::ActiveTier()) {
#if defined(DBAUGUR_SIMD_HAS_AVX512)
    case simd::Tier::kAvx512: {
      static constexpr DtwKernels k = {&tier_avx512::EnvelopeD,
                                       &tier_avx512::LbKeoghSumSqD,
                                       &tier_avx512::DtwBandD,
                                       &tier_avx512::LbKeoghExceedsD};
      return &k;
    }
#endif
#if defined(DBAUGUR_SIMD_HAS_AVX2)
    case simd::Tier::kAvx2: {
      static constexpr DtwKernels k = {&tier_avx2::EnvelopeD,
                                       &tier_avx2::LbKeoghSumSqD,
                                       &tier_avx2::DtwBandD,
                                       &tier_avx2::LbKeoghExceedsD};
      return &k;
    }
#endif
#if defined(DBAUGUR_SIMD_HAS_SSE2)
    case simd::Tier::kSse2: {
      static constexpr DtwKernels k = {&tier_sse2::EnvelopeD,
                                       &tier_sse2::LbKeoghSumSqD,
                                       &tier_sse2::DtwBandD,
                                       &tier_sse2::LbKeoghExceedsD};
      return &k;
    }
#endif
    default:
      return nullptr;
  }
}

#endif  // any vector tier compiled

}  // namespace

StatusOr<double> DtwDistance(const std::vector<double>& a,
                             const std::vector<double>& b,
                             const DtwOptions& opts, double upper_bound) {
  return DtwDistance(a.data(), a.size(), b.data(), b.size(), opts,
                     upper_bound);
}

StatusOr<double> DtwDistance(const double* a, size_t n, const double* b,
                             size_t m, const DtwOptions& opts,
                             double upper_bound) {
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("DTW: empty trace");
  }
  DBAUGUR_CHECK(upper_bound == kNoBound || upper_bound >= 0.0,
                "DTW: negative early-abandon bound ", upper_bound);
  // Widen the band so the corner (n-1, m-1) is reachable.
  size_t w;
  if (opts.window < 0) {
    w = std::max(n, m);
  } else {
    w = std::max<size_t>(static_cast<size_t>(opts.window),
                         n > m ? n - m : m - n);
  }
  DBAUGUR_DCHECK_GE(w, n > m ? n - m : m - n,
                    "DTW band narrower than the length gap");
  double ub2 = upper_bound == kNoBound ? kNoBound : upper_bound * upper_bound;
  constexpr double kInf = std::numeric_limits<double>::infinity();
#if defined(DBAUGUR_DTW_HAS_VECTOR_TIERS)
  if (const DtwKernels* kern = ActiveDtwKernels(); kern != nullptr) {
    // Anti-diagonal wavefront (dtw_simd.inc): bit-identical corner value,
    // and its two-consecutive-diagonal abandon rule fires only when the
    // result provably exceeds ub2 — so every return below matches the
    // scalar DP's output exactly.
    std::vector<double> ws(3 * (n + 3), kInf);
    bool abandoned = false;
    double sq = kern->dtw_band(a, n, b, m, w, ub2, ws.data(), &abandoned);
    if (abandoned) return kInf;  // early abandon
    if (ub2 != kNoBound && sq > ub2) return kInf;
    return std::sqrt(sq);  // +inf when every alignment costs +inf
  }
#endif
  // Two-row DP over the band.
  std::vector<double> prev(m + 1, kInf), cur(m + 1, kInf);
  prev[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    std::fill(cur.begin(), cur.end(), kInf);
    size_t lo = i > w ? i - w : 1;
    size_t hi = std::min(m, i + w);
    DBAUGUR_DCHECK_LE(lo, hi, "DTW band row ", i, " is empty");
    double row_min = kInf;
    for (size_t j = lo; j <= hi; ++j) {
      double d = a[i - 1] - b[j - 1];
      d *= d;
      double best = std::min({prev[j], cur[j - 1], prev[j - 1]});
      cur[j] = best == kInf ? kInf : d + best;
      row_min = std::min(row_min, cur[j]);
    }
    if (ub2 != kNoBound && row_min > ub2) return kInf;  // early abandon
    std::swap(prev, cur);
  }
  // The band always reaches the corner (w >= |n - m|), so an infinite
  // corner means every alignment costs +inf (an infinite input value); that
  // is the distance, not an error.
  double result = prev[m];
  if (ub2 != kNoBound && result > ub2) return kInf;
  return std::sqrt(result);
}

namespace {

void EnvelopeInto(const double* seq, size_t n, int window, double* lower,
                  double* upper) {
  size_t w = window < 0 ? n : static_cast<size_t>(window);
#if defined(DBAUGUR_DTW_HAS_VECTOR_TIERS)
  if (const DtwKernels* kern = ActiveDtwKernels();
      kern != nullptr && n != 0) {
    // Exact sliding min/max — bit-identical to the loop below on any tier.
    kern->envelope(seq, n, w, lower, upper);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    size_t lo = i > w ? i - w : 0;
    size_t hi = std::min(n - 1, i + w);
    double mn = seq[lo], mx = seq[lo];
    for (size_t j = lo + 1; j <= hi; ++j) {
      mn = std::min(mn, seq[j]);
      mx = std::max(mx, seq[j]);
    }
    lower[i] = mn;
    upper[i] = mx;
  }
}

}  // namespace

Envelope BuildEnvelope(const std::vector<double>& seq, int window) {
  Envelope env;
  env.lower.resize(seq.size());
  env.upper.resize(seq.size());
  EnvelopeInto(seq.data(), seq.size(), window, env.lower.data(),
               env.upper.data());
  return env;
}

void BuildEnvelopeInterleaved(const double* seq, size_t n, int window,
                              double* out) {
  // Lower half of `out` is scratch for the lower envelope until the
  // interleave below, which walks backwards so it never overwrites an
  // unread lower[i] (lower[i] sits at out[i] <= out[2i]).
  std::vector<double> upper(n);
  EnvelopeInto(seq, n, window, out, upper.data());
  for (size_t i = n; i-- > 0;) {
    out[2 * i] = out[i];
    out[2 * i + 1] = upper[i];
  }
}

double LbKeogh(const std::vector<double>& query, const Envelope& cand_env) {
  DBAUGUR_DCHECK_EQ(cand_env.lower.size(), cand_env.upper.size(),
                    "LbKeogh: malformed envelope");
  if (query.size() != cand_env.lower.size()) return 0.0;
#if defined(DBAUGUR_DTW_HAS_VECTOR_TIERS)
  if (const DtwKernels* kern = ActiveDtwKernels(); kern != nullptr) {
    // W-partial-sum reduction: a few ULP from the scalar sum (admissibility
    // is preserved to that tolerance; see dtw_simd.h).
    return std::sqrt(kern->lb_keogh_sumsq(query.data(), cand_env.lower.data(),
                                          cand_env.upper.data(),
                                          query.size()));
  }
#endif
  double s = 0.0;
  for (size_t i = 0; i < query.size(); ++i) {
    double q = query[i];
    if (q > cand_env.upper[i]) {
      double d = q - cand_env.upper[i];
      s += d * d;
    } else if (q < cand_env.lower[i]) {
      double d = cand_env.lower[i] - q;
      s += d * d;
    }
  }
  return std::sqrt(s);
}

double LbKeoghSymmetric(const std::vector<double>& a, const Envelope& env_a,
                        const std::vector<double>& b, const Envelope& env_b) {
  return std::max(LbKeogh(a, env_b), LbKeogh(b, env_a));
}

double LbKim(const std::vector<double>& a, const std::vector<double>& b) {
  return LbKim(a.data(), a.size(), b.data(), b.size());
}

void OrderedQuery::Reset(const double* values, const double* env, size_t n) {
  DBAUGUR_CHECK_LT(n, size_t{1} << 30, "OrderedQuery: trace too long");
  kernel_ = nullptr;
#if defined(DBAUGUR_DTW_HAS_VECTOR_TIERS)
  if (const DtwKernels* kern = ActiveDtwKernels(); kern != nullptr) {
    kernel_ = kern->lb_keogh_exceeds;
  }
#endif
  // Sort (-|v|, position) pairs: descending |v|, ties by position. NaN keys
  // would break the ordering, so they sort as +inf (visited first). Short
  // traces (the common case) take a stable insertion sort, which beats
  // std::sort's mispredicted branches at these sizes.
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = std::fabs(values[i]);
    order_[i] = {std::isnan(a) ? -kNoBound : -a, static_cast<int32_t>(i)};
  }
  if (n <= 64) {
    for (size_t i = 1; i < n; ++i) {
      const std::pair<double, int32_t> x = order_[i];
      size_t j = i;
      for (; j > 0 && x.first < order_[j - 1].first; --j) {
        order_[j] = order_[j - 1];
      }
      order_[j] = x;
    }
  } else {
    std::sort(order_.begin(), order_.end());
  }
  pos_.resize(n);
  for (size_t k = 0; k < n; ++k) pos_[k] = order_[k].second;
  pos2_.resize(n);
  values_.resize(n);
  lower_.resize(n);
  upper_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const int32_t p = pos_[k];
    pos2_[k] = 2 * p;
    values_[k] = values[p];
    lower_[k] = env[2 * p];
    upper_[k] = env[2 * p + 1];
  }
}

bool LbKeoghExceeds(const OrderedQuery& query, const double* cand,
                    const double* cand_env, double radius, bool symmetric) {
  const size_t n = query.values_.size();
  if (!(radius < kNoBound)) return false;
  // Rounding slack: both the reordered sum and the DTW recurrence's sum of
  // the same non-negative squares are within ~n ULP of the exact value.
  const double bound2 =
      radius * radius *
      (1.0 + static_cast<double>(2 * n + 8) *
                 std::numeric_limits<double>::epsilon());
  const double* q = query.values_.data();
  const double* q_lo = query.lower_.data();
  const double* q_up = query.upper_.data();
  const int32_t* pos = query.pos_.data();
  const int32_t* pos2 = query.pos2_.data();
  if (query.kernel_ != nullptr) {
    return query.kernel_(q, q_lo, q_up, pos, pos2, cand, cand_env, n, bound2,
                         symmetric);
  }
  double s = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double lo = cand_env[pos2[k]], up = cand_env[pos2[k] + 1];
    if (q[k] > up) {
      const double d = q[k] - up;
      s += d * d;
    } else if (q[k] < lo) {
      const double d = lo - q[k];
      s += d * d;
    }
    if (s > bound2) return true;
  }
  if (!symmetric) return false;
  s = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double c = cand[pos[k]];
    if (c > q_up[k]) {
      const double d = c - q_up[k];
      s += d * d;
    } else if (c < q_lo[k]) {
      const double d = q_lo[k] - c;
      s += d * d;
    }
    if (s > bound2) return true;
  }
  return false;
}

}  // namespace dbaugur::dtw
