// Per-tier tests for the vectorized DTW cascade (dtw/dtw_simd.inc).
//
// Contract under test (dtw/dtw_simd.h): the anti-diagonal wavefront DTW and
// the envelope construction are bit-identical to the scalar tier on every
// input; LB_Keogh may differ by a few ULP (W-partial-sum reduction) but must
// stay an admissible lower bound; the reordered early-abandoning LB_Keogh
// test never rejects a true neighbour and otherwise agrees with the plain
// bound. Descender's whole cascade is checked against brute-force DTW
// clustering in cluster_index_test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "dtw/dtw.h"

namespace dbaugur::dtw {
namespace {

using simd::Tier;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<Tier> HostTiers() {
  Tier out[4];
  int count = simd::SupportedTiers(out);
  return std::vector<Tier>(out, out + count);
}

std::vector<double> RandomTrace(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Uniform(-3.0, 3.0);
  return v;
}

class DtwTierTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ResetForcedTier(); }
};

// Length pairs around every vector width (2/4/8 f64 lanes) plus long traces
// with many full vector chunks per anti-diagonal; both equal and unequal.
const size_t kLengthPairs[][2] = {{1, 1},   {1, 9},    {5, 5},    {13, 7},
                                  {29, 37}, {64, 64},  {97, 103}, {251, 257}};
const int kWindows[] = {-1, 0, 1, 5, 10};

TEST_F(DtwTierTest, DtwDistanceBitIdenticalAcrossTiers) {
  uint64_t seed = 1;
  for (const auto& lens : kLengthPairs) {
    for (int window : kWindows) {
      auto a = RandomTrace(lens[0], ++seed);
      auto b = RandomTrace(lens[1], ++seed);
      DtwOptions opts;
      opts.window = window;
      ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
      auto want = DtwDistance(a, b, opts);
      ASSERT_TRUE(want.ok());
      for (Tier t : HostTiers()) {
        ASSERT_TRUE(simd::ForceTier(t));
        auto got = DtwDistance(a, b, opts);
        ASSERT_TRUE(got.ok()) << simd::TierName(t);
        // Exact per-cell math in the wavefront: bitwise equality, not tol.
        EXPECT_EQ(*got, *want)
            << simd::TierName(t) << " n=" << lens[0] << " m=" << lens[1]
            << " window=" << window;
      }
    }
  }
}

TEST_F(DtwTierTest, EarlyAbandonDecisionsMatchScalarOutput) {
  uint64_t seed = 101;
  for (const auto& lens : kLengthPairs) {
    auto a = RandomTrace(lens[0], ++seed);
    auto b = RandomTrace(lens[1], ++seed);
    DtwOptions opts;  // default window 10
    ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
    double exact = *DtwDistance(a, b, opts);
    // Below, at, and above the true distance. (At the exact bound the
    // rounded sqrt→square round trip makes the reject legitimately go either
    // way, so only cross-tier equality is asserted there.)
    const double bounds[] = {exact * 0.5, exact, exact * 1.5, 1e-6, kNoBound};
    for (double ub : bounds) {
      ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
      auto want = DtwDistance(a, b, opts, ub);
      ASSERT_TRUE(want.ok());
      if (ub > exact * 1.2) {
        EXPECT_EQ(*want, exact);  // must not abandon above the bound
      }
      for (Tier t : HostTiers()) {
        ASSERT_TRUE(simd::ForceTier(t));
        auto got = DtwDistance(a, b, opts, ub);
        ASSERT_TRUE(got.ok()) << simd::TierName(t);
        EXPECT_EQ(*got, *want) << simd::TierName(t) << " ub=" << ub;
      }
    }
  }
}

TEST_F(DtwTierTest, EnvelopeBitIdenticalAcrossTiers) {
  uint64_t seed = 301;
  for (size_t n : {1, 2, 7, 33, 64, 257}) {
    for (int window : kWindows) {
      auto seq = RandomTrace(n, ++seed);
      ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
      Envelope want = BuildEnvelope(seq, window);
      for (Tier t : HostTiers()) {
        ASSERT_TRUE(simd::ForceTier(t));
        Envelope got = BuildEnvelope(seq, window);
        EXPECT_EQ(got.lower, want.lower)
            << simd::TierName(t) << " n=" << n << " window=" << window;
        EXPECT_EQ(got.upper, want.upper)
            << simd::TierName(t) << " n=" << n << " window=" << window;
      }
    }
  }
}

TEST_F(DtwTierTest, LbKeoghStaysAdmissibleAndUlpCloseOnEveryTier) {
  uint64_t seed = 401;
  for (size_t n : {1, 5, 30, 64, 211}) {
    for (int window : {0, 3, 10}) {
      auto q = RandomTrace(n, ++seed);
      auto c = RandomTrace(n, ++seed);
      DtwOptions opts;
      opts.window = window;
      ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
      Envelope env = BuildEnvelope(c, window);
      double want = LbKeogh(q, env);
      double exact = *DtwDistance(q, c, opts);
      for (Tier t : HostTiers()) {
        ASSERT_TRUE(simd::ForceTier(t));
        double got = LbKeogh(q, env);
        // W-partial-sum reduction: a handful of ULP around the scalar sum.
        EXPECT_NEAR(got, want, 64.0 * std::numeric_limits<double>::epsilon() *
                                   (want + 1.0))
            << simd::TierName(t) << " n=" << n << " window=" << window;
        // Admissibility: the bound can never exceed the true DTW distance
        // (allowing the same ULP slack for the vector reduction).
        EXPECT_LE(got, exact + 64.0 * std::numeric_limits<double>::epsilon() *
                                   (exact + 1.0))
            << simd::TierName(t) << " n=" << n << " window=" << window;
      }
    }
  }
}

// The fused early-abandoning LB_Keogh test (LbKeoghExceeds): on every tier
// it must never reject a pair whose DTW is within the radius, with the
// radius set exactly to computed DTW values, and away from ties it must
// agree with the plain bounds (LbKeoghSymmetric / LbKeogh) compared against
// the radius.
TEST_F(DtwTierTest, LbKeoghExceedsIsAdmissibleAndMatchesPlainBound) {
  uint64_t seed = 901;
  int64_t checked = 0;
  for (size_t n : {1, 2, 3, 5, 8, 9, 16, 17, 30, 64, 97}) {
    for (int window : {0, 1, 3, -1}) {
      for (int rep = 0; rep < 6; ++rep) {
        auto q = RandomTrace(n, ++seed);
        auto c = RandomTrace(n, ++seed);
        if (rep % 2 == 1) {
          // Near neighbours: DTW close to the bound, and at window 0 equal
          // to it in exact arithmetic (the tie the rounding slack covers).
          Rng rng(++seed);
          for (size_t i = 0; i < n; ++i) c[i] = q[i] + rng.Uniform(-0.05, 0.05);
        }
        DtwOptions opts;
        opts.window = window;
        std::vector<double> q_env(2 * n), c_env(2 * n);
        for (Tier t : HostTiers()) {
          ASSERT_TRUE(simd::ForceTier(t));
          BuildEnvelopeInterleaved(q.data(), n, window, q_env.data());
          BuildEnvelopeInterleaved(c.data(), n, window, c_env.data());
          OrderedQuery query;
          query.Reset(q.data(), q_env.data(), n);
          const double dtw_qc = *DtwDistance(q, c, opts);
          const double dtw_cq = *DtwDistance(c, q, opts);
          for (double rho : {dtw_qc, dtw_cq}) {
            EXPECT_FALSE(LbKeoghExceeds(query, c.data(), c_env.data(), rho,
                                        /*symmetric=*/true))
                << simd::TierName(t) << " n=" << n << " window=" << window;
            EXPECT_FALSE(LbKeoghExceeds(query, c.data(), c_env.data(), rho,
                                        /*symmetric=*/false))
                << simd::TierName(t) << " n=" << n << " window=" << window;
          }
          const Envelope qe = BuildEnvelope(q, window);
          const Envelope ce = BuildEnvelope(c, window);
          const double sym = LbKeoghSymmetric(q, qe, c, ce);
          const double one = LbKeogh(q, ce);
          for (double lb : {sym, one}) {
            const bool symmetric = lb == sym;
            for (double rho : {0.0, lb * 0.5, lb * 0.999, lb, lb * 1.001,
                               lb * 2.0, kInf}) {
              // Ties (rho within a relative 1e-9 of the bound) may go
              // either way; everywhere else the decision is exact.
              if (std::fabs(rho - lb) <= 1e-9 * lb) continue;
              EXPECT_EQ(LbKeoghExceeds(query, c.data(), c_env.data(), rho,
                                       symmetric),
                        lb > rho)
                  << simd::TierName(t) << " n=" << n << " window=" << window
                  << " rho=" << rho << " lb=" << lb;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

}  // namespace
}  // namespace dbaugur::dtw
