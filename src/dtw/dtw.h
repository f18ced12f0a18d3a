// Dynamic Time Warping (paper §IV-B, Algorithm 1) with a Sakoe–Chiba window,
// early abandoning, and the LB_Kim / LB_Keogh lower-bound cascade
// (Ratanamahatana & Keogh 2004) that reduces the common case to linear time.
//
// DTW aligns two traces by warping the time axis, so similar workloads whose
// patterns are shifted or locally stretched (the paper's planetarium example)
// still measure as close — unlike lock-step Euclidean/cosine distance.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dbaugur::dtw {

/// Sentinel for "no early-abandon threshold".
inline constexpr double kNoBound = std::numeric_limits<double>::infinity();

/// Options for DTW computation.
struct DtwOptions {
  /// Sakoe–Chiba band half-width in steps. Negative => unconstrained.
  /// For traces of different lengths the effective band is widened to at
  /// least |n - m| so an alignment always exists.
  int window = 10;
};

/// Exact windowed DTW distance between two traces (Algorithm 1 generalized to
/// unequal lengths). `upper_bound` enables early abandoning: if the distance
/// provably exceeds it, returns +infinity immediately. An infinite input
/// value makes every alignment cost +infinity, which is then the distance.
/// Returns InvalidArgument for empty inputs.
StatusOr<double> DtwDistance(const std::vector<double>& a,
                             const std::vector<double>& b,
                             const DtwOptions& opts,
                             double upper_bound = kNoBound);
/// The same over raw arrays a[0, n) and b[0, m).
StatusOr<double> DtwDistance(const double* a, size_t n, const double* b,
                             size_t m, const DtwOptions& opts,
                             double upper_bound = kNoBound);

/// Per-position min/max of a trace over a sliding band of half-width
/// `window` — the Keogh envelope used by LB_Keogh.
struct Envelope {
  std::vector<double> lower;
  std::vector<double> upper;
};

/// Builds the Keogh envelope of `seq` for band half-width `window`.
Envelope BuildEnvelope(const std::vector<double>& seq, int window);

/// Writes the Keogh envelope of seq[0, n) interleaved per position:
/// out[2i] = lower[i], out[2i + 1] = upper[i] (2n doubles, not overlapping
/// seq). Bit-identical to BuildEnvelope.
void BuildEnvelopeInterleaved(const double* seq, size_t n, int window,
                              double* out);

/// LB_Keogh lower bound of DTW(query, candidate) given the candidate's
/// envelope (equal lengths required; returns 0 — a trivially valid bound —
/// when lengths differ).
double LbKeogh(const std::vector<double>& query, const Envelope& cand_env);

/// Two-sided LB_Keogh: the max of both directions (a against b's envelope
/// and b against a's). Each direction is an admissible lower bound of the
/// symmetric DTW distance, so their max is a tighter admissible bound.
double LbKeoghSymmetric(const std::vector<double>& a, const Envelope& env_a,
                        const std::vector<double>& b, const Envelope& env_b);

/// LB_Kim-style constant-time lower bound from the first and last points.
double LbKim(const std::vector<double>& a, const std::vector<double>& b);
/// The same over raw arrays a[0, n) and b[0, m). Inline: Descender's sweep
/// calls it once per grid candidate.
inline double LbKim(const double* a, size_t n, const double* b, size_t m) {
  if (n == 0 || m == 0) return 0.0;
  // Any warping path must match first-with-first and last-with-last.
  double df = std::fabs(a[0] - b[0]);
  double dl = std::fabs(a[n - 1] - b[m - 1]);
  if (n == 1 && m == 1) {
    // The path is the single cell (0,0): df and dl are the same cost, so
    // summing them would double-count. (When only one side has length 1 the
    // first and last cells are still distinct path cells — b.front() and
    // b.back() both align against a[0] — so the sqrt form below remains
    // admissible.)
    return std::max(df, dl);
  }
  return std::sqrt(df * df + dl * dl);
}

/// The query side of the early-abandoning LB_Keogh test: one trace's values
/// and envelope permuted into visiting order, descending |value|. On
/// z-normalized traces those positions carry the largest envelope
/// exceedances, so the running sum crosses the radius within a few terms
/// (UCR-suite reordering, Rakthanmanon et al., KDD 2012). Built once per
/// query and reused against every candidate.
class OrderedQuery {
 public:
  /// Re-targets the query at values[0, n) with its interleaved envelope
  /// (BuildEnvelopeInterleaved layout). Ties in |value| visit the lower
  /// position first, so the order is deterministic. Also resolves the SIMD
  /// tier that LbKeoghExceeds runs on for this query.
  void Reset(const double* values, const double* env, size_t n);

 private:
  friend bool LbKeoghExceeds(const OrderedQuery& query, const double* cand,
                             const double* cand_env, double radius,
                             bool symmetric);
  // The active tier's kernel (dtw_simd.h), or null for the scalar loop.
  using Kernel = bool (*)(const double*, const double*, const double*,
                          const int32_t*, const int32_t*, const double*,
                          const double*, size_t, double, bool);
  Kernel kernel_ = nullptr;
  std::vector<std::pair<double, int32_t>> order_;  // sort scratch
  std::vector<int32_t> pos_;   // visiting order -> position
  std::vector<int32_t> pos2_;  // 2 * pos_, the interleaved envelope offset
  std::vector<double> values_, lower_, upper_;  // permuted by pos_
};

/// True iff LB_Keogh proves DTW(query, cand) > radius: the query's values
/// against the candidate's envelope, and when `symmetric` also the
/// candidate's values against the query's envelope (the max of the two
/// directions, as LbKeoghSymmetric). `cand` holds as many values as the
/// query and `cand_env` their interleaved envelope for the same window.
/// Abandons early, in the query's visiting order, as soon as a running sum
/// crosses radius^2; the second direction runs only when the first did not.
/// The bound is widened by a relative (2n + 8) ULP, so a pair whose computed
/// DTW equals the radius is never rejected on rounding (see dtw_simd.h).
bool LbKeoghExceeds(const OrderedQuery& query, const double* cand,
                    const double* cand_env, double radius, bool symmetric);

/// Per-tier telemetry for the neighbor-search cascade: how many candidate
/// pairs a search considered, how many each lower-bound tier rejected and
/// how many paid for a full DTW. Threaded from Descender through
/// core::DBAugur into the efficiency benches.
struct PruningStats {
  int64_t candidates = 0;        ///< Pairs Descender's grid index returned.
  int64_t kim_rejections = 0;    ///< Candidates rejected by LB_Kim.
  int64_t keogh_rejections = 0;  ///< Candidates rejected by LB_Keogh.
  int64_t full_dtw = 0;          ///< Full (possibly early-abandoned) DTW runs.

  PruningStats& operator+=(const PruningStats& o) {
    candidates += o.candidates;
    kim_rejections += o.kim_rejections;
    keogh_rejections += o.keogh_rejections;
    full_dtw += o.full_dtw;
    return *this;
  }
};

}  // namespace dbaugur::dtw
