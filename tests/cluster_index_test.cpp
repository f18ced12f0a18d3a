// Edge cases of Descender's candidate grid (cluster/candidate_grid.h): every
// result must equal a brute-force DBSCAN over an all-pairs dtw::DtwDistance
// adjacency computed here, at 1, 2 and 4 threads and through the sequential
// AddTrace path. Covered: ρ = 0 and ρ = +inf, keys exactly on cell
// boundaries and in negative cells, keys whose cell index would overflow,
// squares that underflow below a tiny ρ, NaN/±inf values (the catch-all
// list), length-1 and constant traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <vector>

#include "cluster/descender.h"
#include "dtw/dtw.h"
#include "ts/series.h"

namespace dbaugur::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Descender's distance values, restated independently.
std::vector<double> DistanceValues(const std::vector<double>& v, bool z) {
  if (!z) return v;
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0.0;
  for (double x : v) var += (x - mean) * (x - mean);
  double sd = std::sqrt(var / static_cast<double>(v.size()));
  if (sd <= 0.0) sd = 1.0;
  std::vector<double> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - mean) / sd;
  return out;
}

struct Reference {
  std::vector<int> labels;
  std::vector<bool> core;
  int64_t kim_survivors = 0;  // pairs i < j that LB_Kim does not reject
};

// DBSCAN over the all-pairs DTW adjacency, expanding clusters in index order
// exactly as Descender documents (first cluster wins a border trace, then
// leftover noise becomes singletons in index order).
Reference BruteForce(const std::vector<ts::Series>& traces,
                     const DescenderOptions& opts) {
  const size_t n = traces.size();
  std::vector<std::vector<double>> dv;
  for (const auto& t : traces) {
    dv.push_back(DistanceValues(t.values(), opts.znormalize));
  }
  Reference ref;
  std::vector<std::vector<size_t>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      auto d = dtw::DtwDistance(dv[i], dv[j], opts.dtw);
      EXPECT_TRUE(d.ok());
      if (d.ok() && *d <= opts.radius) adj[i].push_back(j);
      if (i < j && !(dtw::LbKim(dv[i], dv[j]) > opts.radius)) {
        ++ref.kim_survivors;
      }
    }
  }
  ref.core.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ref.core[i] = adj[i].size() + 1 >= opts.min_size;
  }
  ref.labels.assign(n, -1);
  int next = 0;
  for (size_t seed = 0; seed < n; ++seed) {
    if (!ref.core[seed] || ref.labels[seed] != -1) continue;
    const int cid = next++;
    std::deque<size_t> frontier{seed};
    ref.labels[seed] = cid;
    while (!frontier.empty()) {
      size_t cur = frontier.front();
      frontier.pop_front();
      for (size_t nb : adj[cur]) {
        if (ref.labels[nb] == -1) {
          ref.labels[nb] = cid;
          if (ref.core[nb]) frontier.push_back(nb);
        }
      }
    }
  }
  for (int& l : ref.labels) {
    if (l == -1) l = next++;
  }
  return ref;
}

void ExpectMatchesReference(const Descender& d,
                            const std::vector<ts::Series>& traces,
                            const Reference& ref, const char* path) {
  const size_t n = traces.size();
  ASSERT_EQ(d.trace_count(), n) << path;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(d.label(i), ref.labels[i]) << path << " trace " << i;
    ASSERT_EQ(d.is_core(i), ref.core[i]) << path << " trace " << i;
  }
  // TopK: every cluster's members and volume, ordered by volume.
  const int clusters =
      *std::max_element(ref.labels.begin(), ref.labels.end()) + 1;
  std::vector<ClusterInfo> want(static_cast<size_t>(clusters));
  for (size_t c = 0; c < want.size(); ++c) want[c].id = static_cast<int>(c);
  for (size_t i = 0; i < n; ++i) {
    ClusterInfo& info = want[static_cast<size_t>(ref.labels[i])];
    info.members.push_back(i);
    double volume = 0.0;
    for (double x : traces[i].values()) volume += x;
    info.volume += volume;
  }
  auto got = d.TopKClusters(want.size());
  ASSERT_EQ(got.size(), want.size()) << path;
  for (const ClusterInfo& g : got) {
    ASSERT_LT(static_cast<size_t>(g.id), want.size()) << path;
    const ClusterInfo& w = want[static_cast<size_t>(g.id)];
    EXPECT_EQ(g.members, w.members) << path << " cluster " << g.id;
    EXPECT_TRUE(g.volume == w.volume ||
                (std::isnan(g.volume) && std::isnan(w.volume)))
        << path << " cluster " << g.id;
  }
  // Representatives: the member average of each reference cluster.
  for (const ClusterInfo& w : want) {
    std::vector<ts::Series> members;
    for (size_t i : w.members) members.push_back(traces[i]);
    auto avg = ts::Series::Average(members);
    auto rep = d.ClusterRepresentative(w.id);
    ASSERT_TRUE(avg.ok() && rep.ok()) << path;
    ASSERT_EQ(rep->size(), avg->size()) << path;
    for (size_t k = 0; k < avg->size(); ++k) {
      const double a = (*avg)[k], r = (*rep)[k];
      EXPECT_TRUE(a == r || (std::isnan(a) && std::isnan(r)))
          << path << " cluster " << w.id << " bin " << k;
    }
  }
}

// The grid returns a superset of the pairs LB_Kim keeps and re-checks each
// with LB_Kim, so exactly the brute-force survivors pass the Kim tier (with
// an infinite radius the tiers are skipped and every pair is a candidate).
void ExpectCandidateSuperset(const Descender& d, const Reference& ref,
                             int64_t pairs, double radius, const char* path) {
  const dtw::PruningStats& st = d.pruning_stats();
  EXPECT_LE(st.candidates, pairs) << path;
  if (radius < kInf) {
    EXPECT_EQ(st.candidates - st.kim_rejections, ref.kim_survivors) << path;
  } else {
    EXPECT_EQ(st.candidates, pairs) << path;
  }
}

// Batch AddTraces at 1, 2 and 4 threads plus the sequential AddTrace loop,
// each against the brute-force reference.
void CheckAllPaths(const std::vector<ts::Series>& traces,
                   DescenderOptions opts) {
  const Reference ref = BruteForce(traces, opts);
  const int64_t pairs =
      static_cast<int64_t>(traces.size() * (traces.size() - 1) / 2);
  for (size_t threads : {1, 2, 4}) {
    opts.threads = threads;
    Descender batch(opts);
    ASSERT_TRUE(batch.AddTraces(traces).ok());
    ExpectMatchesReference(batch, traces, ref, "batch");
    ExpectCandidateSuperset(batch, ref, pairs, opts.radius, "batch");
  }
  opts.threads = 1;
  Descender seq(opts);
  for (const auto& t : traces) ASSERT_TRUE(seq.AddTrace(t).ok());
  ExpectMatchesReference(seq, traces, ref, "sequential");
  ExpectCandidateSuperset(seq, ref, pairs, opts.radius, "sequential");
}

DescenderOptions Opts(double radius, bool znormalize, int window = 1) {
  DescenderOptions opts;
  opts.radius = radius;
  opts.min_size = 2;
  opts.dtw.window = window;
  opts.znormalize = znormalize;
  return opts;
}

ts::Series Trace(std::vector<double> v) {
  return ts::Series(0, 60, std::move(v));
}

// [first, 0, ..., 0, last]: DTW between two such traces is exactly
// sqrt(df^2 + dl^2), the LB_Kim value, so pairs sit exactly on the radius.
ts::Series Endpoints(double first, double last, size_t len = 6) {
  std::vector<double> v(len, 0.0);
  v.front() = first;
  v.back() = last;
  return Trace(std::move(v));
}

TEST(CandidateGridTest, ZeroRadiusLinksOnlyExactMatches) {
  std::vector<ts::Series> traces;
  for (int k = -3; k <= 3; ++k) {
    traces.push_back(Endpoints(k, -k));
    traces.push_back(Endpoints(k, -k));  // exact duplicate: DTW 0
    traces.push_back(Endpoints(k, -k + 0.25));
  }
  traces.push_back(Endpoints(0.0, -0.0));  // signed zero keys
  for (bool z : {false, true}) CheckAllPaths(traces, Opts(0.0, z));
}

TEST(CandidateGridTest, InfiniteRadiusLinksEveryFinitePair) {
  std::vector<ts::Series> traces;
  for (int k = 0; k < 12; ++k) traces.push_back(Endpoints(1e6 * k, -3.0 * k));
  traces.push_back(Trace({1, kNaN, 1, 1, 1, 1}));
  traces.push_back(Trace({kInf, 0, 0, 0, 0, 1}));
  for (bool z : {false, true}) CheckAllPaths(traces, Opts(kInf, z));
}

TEST(CandidateGridTest, KeysOnCellBoundariesAndNegativeCells) {
  // Keys at exact multiples k*rho, in negative cells too: neighbours whose
  // first (or last) values differ by exactly rho have DTW exactly rho.
  for (double rho : {0.5, 0.3, 1.0}) {
    std::vector<ts::Series> traces;
    for (int k = -4; k <= 4; ++k) {
      traces.push_back(Endpoints(k * rho, 0.0));
      traces.push_back(Endpoints(0.0, k * rho));
      traces.push_back(Endpoints(k * rho, -k * rho));
    }
    CheckAllPaths(traces, Opts(rho, false));
  }
}

TEST(CandidateGridTest, RoundingAtTheRadiusKeepsNeighbours) {
  // 2 - (1 - 2^-53) = 1 + 2^-53 rounds to 1, so the computed DTW of this
  // pair is exactly rho = 1 although the exact key gap exceeds rho: with a
  // cell side of exactly rho the keys would land two cells apart.
  const double below_one = std::nextafter(1.0, 0.0);
  std::vector<ts::Series> traces;
  traces.push_back(Endpoints(below_one, 0.0));
  traces.push_back(Endpoints(2.0, 0.0));
  traces.push_back(Endpoints(0.0, -below_one));
  traces.push_back(Endpoints(0.0, -2.0));
  traces.push_back(Endpoints(5.0, 5.0));
  CheckAllPaths(traces, Opts(1.0, false));
}

TEST(CandidateGridTest, OverflowingCellIndicesSaturate) {
  const double big = std::numeric_limits<double>::max();
  std::vector<ts::Series> traces;
  for (double x : {1e300, -1e300, big, -big, 1e20, -1e20}) {
    traces.push_back(Endpoints(x, x));
    traces.push_back(Endpoints(x, x));  // identical: DTW 0
    traces.push_back(Endpoints(x, -x));
  }
  traces.push_back(Endpoints(0.0, 0.0));
  traces.push_back(Endpoints(1.0, 1.0 + 1e-15));
  traces.push_back(Endpoints(1.0, 1.0));
  for (double rho : {0.5, 1e-300}) CheckAllPaths(traces, Opts(rho, false));
}

TEST(CandidateGridTest, UnderflowingSquaresBelowTinyRadius) {
  // (1e-170)^2 underflows to 0, so DTW reads 0 <= rho = 1e-300 although the
  // keys differ by 1e130 * rho: the cell side's floor must keep them close.
  std::vector<ts::Series> traces;
  for (double x : {0.0, 1e-170, -1e-170, 1e-160, 3e-154, 1e-150}) {
    traces.push_back(Endpoints(x, 0.0));
    traces.push_back(Endpoints(0.0, x));
  }
  for (double rho : {1e-300, 5e-324, 0.0}) {
    CheckAllPaths(traces, Opts(rho, false));
  }
}

TEST(CandidateGridTest, NonFiniteValuesGoToTheCatchAll) {
  std::vector<ts::Series> traces;
  traces.push_back(Endpoints(kNaN, 0.0));
  traces.push_back(Endpoints(0.0, kNaN));
  traces.push_back(Trace({0, 0, kNaN, 0, 0, 0}));
  traces.push_back(Endpoints(kInf, 0.0));
  traces.push_back(Endpoints(kInf, 0.0));
  traces.push_back(Endpoints(-kInf, kInf));
  traces.push_back(Endpoints(0.0, -kInf));
  for (int k = 0; k < 6; ++k) {
    traces.push_back(Endpoints(0.1 * k, 0.0));
    traces.push_back(Endpoints(0.1 * k, 0.05));
  }
  for (bool z : {false, true}) {
    for (double rho : {0.0, 0.25, kInf}) CheckAllPaths(traces, Opts(rho, z));
  }
}

TEST(CandidateGridTest, LengthOneAndConstantTraces) {
  std::vector<ts::Series> singles;
  for (double x : {0.0, 0.2, 0.4, -0.2, 5.0, 5.1, 0.2}) {
    singles.push_back(Trace({x}));
  }
  for (bool z : {false, true}) {
    for (int window : {0, 1, -1}) {
      for (double rho : {0.0, 0.2, 1.0}) {
        CheckAllPaths(singles, Opts(rho, z, window));
      }
    }
  }
  std::vector<ts::Series> constant;
  for (double x : {0.0, 1.0, 1.0, 2.5, -7.0}) {
    constant.push_back(Trace(std::vector<double>(9, x)));
  }
  constant.push_back(Trace({0, 1, 0, 1, 0, 1, 0, 1, 0}));
  for (bool z : {false, true}) {
    for (double rho : {0.0, 0.5, 2.0}) CheckAllPaths(constant, Opts(rho, z, 2));
  }
}

TEST(CandidateGridTest, GridPrunesPairsOnSpreadKeys) {
  // Keys spread over many cells: far fewer candidates than pairs, and the
  // reference still agrees.
  std::vector<ts::Series> traces;
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 6; ++b) {
      std::vector<double> v{1.0 * a, 0.5, -0.5, 0.25, 1.0 * b};
      traces.push_back(Trace(v));
      v[2] += 0.1;
      traces.push_back(Trace(v));
    }
  }
  DescenderOptions opts = Opts(0.5, false);
  CheckAllPaths(traces, opts);
  Descender d(opts);
  ASSERT_TRUE(d.AddTraces(traces).ok());
  const int64_t pairs =
      static_cast<int64_t>(traces.size() * (traces.size() - 1) / 2);
  EXPECT_LT(d.pruning_stats().candidates * 10, pairs);
  EXPECT_EQ(d.distance_evals(), d.pruning_stats().candidates);
}

}  // namespace
}  // namespace dbaugur::cluster
