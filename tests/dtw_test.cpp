// Tests for windowed DTW, envelopes, and the lower-bound cascade.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dtw/dtw.h"

namespace dbaugur::dtw {
namespace {

double Euclid(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(s);
}

TEST(DtwTest, IdenticalTracesZeroDistance) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  auto d = DtwDistance(a, a, {2});
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*d, 0.0);
}

TEST(DtwTest, KnownSmallExample) {
  // a = [0,0,1], b = [0,1,1]: alignment (0,0)(1,0)... optimal is 0.
  std::vector<double> a = {0, 0, 1};
  std::vector<double> b = {0, 1, 1};
  auto d = DtwDistance(a, b, {-1});
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*d, 0.0);
  // Euclidean (lock-step) distance is sqrt(1) = 1: DTW absorbs the shift.
  EXPECT_DOUBLE_EQ(Euclid(a, b), 1.0);
}

TEST(DtwTest, NeverExceedsEuclidean) {
  // The identity alignment is one warping path, so DTW <= Euclidean.
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a(40), b(40);
    for (size_t i = 0; i < 40; ++i) {
      a[i] = rng.Gaussian();
      b[i] = rng.Gaussian();
    }
    auto d = DtwDistance(a, b, {40});
    ASSERT_TRUE(d.ok());
    EXPECT_LE(*d, Euclid(a, b) + 1e-9);
  }
}

TEST(DtwTest, ShiftedSineIsCloseUnderDtwNotEuclidean) {
  std::vector<double> a(64), b(64);
  for (size_t i = 0; i < 64; ++i) {
    a[i] = std::sin(2 * M_PI * static_cast<double>(i) / 16.0);
    b[i] = std::sin(2 * M_PI * static_cast<double>(i + 3) / 16.0);  // shift 3
  }
  auto d = DtwDistance(a, b, {8});
  ASSERT_TRUE(d.ok());
  double euclid = Euclid(a, b);
  // DTW absorbs the interior of the shift; only boundary cells (where first
  // must match first) keep residual cost, so a ~3.5x reduction remains.
  EXPECT_LT(*d, euclid * 0.35) << "dtw=" << *d << " euclid=" << euclid;
}

TEST(DtwTest, DifferentLengthsSupported) {
  std::vector<double> a = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<double> b = {0, 2, 4, 6};  // same ramp, half the samples
  auto d = DtwDistance(a, b, {1});
  ASSERT_TRUE(d.ok());  // band widened to |n-m|
  EXPECT_LT(*d, 3.0);
}

TEST(DtwTest, WindowConstraintIncreasesDistance) {
  // A large shift that a narrow band cannot absorb.
  std::vector<double> a(50, 0.0), b(50, 0.0);
  for (size_t i = 0; i < 10; ++i) a[i + 5] = 1.0;
  for (size_t i = 0; i < 10; ++i) b[i + 30] = 1.0;
  auto narrow = DtwDistance(a, b, {2});
  auto wide = DtwDistance(a, b, {-1});
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_GT(*narrow, *wide);
  EXPECT_DOUBLE_EQ(*wide, 0.0);
}

TEST(DtwTest, EmptyTraceRejected) {
  EXPECT_FALSE(DtwDistance({}, {1.0}, {2}).ok());
  EXPECT_FALSE(DtwDistance({1.0}, {}, {2}).ok());
}

TEST(DtwTest, EarlyAbandonReturnsInfinity) {
  std::vector<double> a(20, 0.0), b(20, 100.0);
  auto d = DtwDistance(a, b, {5}, /*upper_bound=*/1.0);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(std::isinf(*d));
}

TEST(DtwTest, EarlyAbandonAgreesWhenWithinBound) {
  Rng rng(7);
  std::vector<double> a(30), b(30);
  for (size_t i = 0; i < 30; ++i) {
    a[i] = rng.Gaussian();
    b[i] = a[i] + rng.Gaussian(0, 0.1);
  }
  auto exact = DtwDistance(a, b, {5});
  auto bounded = DtwDistance(a, b, {5}, 1000.0);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(bounded.ok());
  EXPECT_DOUBLE_EQ(*exact, *bounded);
}

TEST(EnvelopeTest, BoundsContainSequence) {
  Rng rng(9);
  std::vector<double> s(50);
  for (double& x : s) x = rng.Gaussian();
  Envelope env = BuildEnvelope(s, 4);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_LE(env.lower[i], s[i]);
    EXPECT_GE(env.upper[i], s[i]);
  }
}

TEST(EnvelopeTest, WiderWindowLoosensEnvelope) {
  std::vector<double> s = {0, 5, 1, 4, 2, 3};
  Envelope narrow = BuildEnvelope(s, 1);
  Envelope wide = BuildEnvelope(s, 5);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_LE(wide.lower[i], narrow.lower[i]);
    EXPECT_GE(wide.upper[i], narrow.upper[i]);
  }
}

TEST(LowerBoundTest, LbKeoghIsLowerBoundOfDtw) {
  Rng rng(11);
  const int kWindow = 5;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a(32), b(32);
    for (size_t i = 0; i < 32; ++i) {
      a[i] = rng.Gaussian();
      b[i] = rng.Gaussian();
    }
    Envelope env = BuildEnvelope(b, kWindow);
    double lb = LbKeogh(a, env);
    auto d = DtwDistance(a, b, {kWindow});
    ASSERT_TRUE(d.ok());
    EXPECT_LE(lb, *d + 1e-9) << "trial " << trial;
  }
}

TEST(LowerBoundTest, LbKimIsLowerBoundOfDtw) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a(20), b(20);
    for (size_t i = 0; i < 20; ++i) {
      a[i] = rng.Gaussian();
      b[i] = rng.Gaussian();
    }
    double lb = LbKim(a, b);
    auto d = DtwDistance(a, b, {20});
    ASSERT_TRUE(d.ok());
    EXPECT_LE(lb, *d + 1e-9);
  }
}

TEST(LowerBoundTest, LbKimShortSeriesCases) {
  // 1×m: the first and last path cells are distinct (b.front() and b.back()
  // both align against a[0]), so the sqrt(df²+dl²) form applies and is
  // tighter than the old max(df, dl) fallback.
  std::vector<double> one = {2.0};
  std::vector<double> m = {0.0, 1.0, 5.0};
  double lb_1m = LbKim(one, m);
  EXPECT_DOUBLE_EQ(lb_1m, std::sqrt(4.0 + 9.0));
  EXPECT_GT(lb_1m, std::max(std::fabs(2.0 - 0.0), std::fabs(2.0 - 5.0)));
  auto d_1m = DtwDistance(one, m, {-1});
  ASSERT_TRUE(d_1m.ok());
  EXPECT_LE(lb_1m, *d_1m + 1e-12);  // DTW(1×m) = sqrt(4 + 1 + 9)

  // n×1 mirror.
  double lb_m1 = LbKim(m, one);
  EXPECT_DOUBLE_EQ(lb_m1, std::sqrt(4.0 + 9.0));
  auto d_m1 = DtwDistance(m, one, {-1});
  ASSERT_TRUE(d_m1.ok());
  EXPECT_LE(lb_m1, *d_m1 + 1e-12);

  // 1×1: a single path cell — df and dl are the same cost, so the bound
  // must fall back to max(df, dl) = |a0 - b0| = the exact DTW distance.
  std::vector<double> b1 = {5.0};
  double lb_11 = LbKim(one, b1);
  EXPECT_DOUBLE_EQ(lb_11, 3.0);
  auto d_11 = DtwDistance(one, b1, {0});
  ASSERT_TRUE(d_11.ok());
  EXPECT_DOUBLE_EQ(*d_11, 3.0);
  EXPECT_LE(lb_11, *d_11 + 1e-12);
}

TEST(LowerBoundTest, LbKimAdmissibleOnRandomShortSeries) {
  Rng rng(21);
  const std::pair<size_t, size_t> shapes[] = {
      {1, 1}, {1, 2}, {2, 1}, {1, 5}, {5, 1}, {1, 20}, {20, 1}, {2, 2}};
  for (auto [n, m] : shapes) {
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<double> a(n), b(m);
      for (double& x : a) x = rng.Gaussian();
      for (double& x : b) x = rng.Gaussian();
      double lb = LbKim(a, b);
      auto d = DtwDistance(a, b, {-1});
      ASSERT_TRUE(d.ok());
      EXPECT_LE(lb, *d + 1e-9) << n << "x" << m << " trial " << trial;
    }
  }
}

TEST(LowerBoundTest, SymmetricKeoghAdmissibleAndAtLeastOneSided) {
  Rng rng(23);
  const int kWindow = 5;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a(32), b(32);
    for (size_t i = 0; i < 32; ++i) {
      a[i] = rng.Gaussian();
      b[i] = rng.Gaussian();
    }
    Envelope env_a = BuildEnvelope(a, kWindow);
    Envelope env_b = BuildEnvelope(b, kWindow);
    double sym = LbKeoghSymmetric(a, env_a, b, env_b);
    // Dominates both one-sided bounds...
    EXPECT_GE(sym, LbKeogh(a, env_b)) << "trial " << trial;
    EXPECT_GE(sym, LbKeogh(b, env_a)) << "trial " << trial;
    // ...and both directions stay admissible against the symmetric DTW.
    auto d = DtwDistance(a, b, {kWindow});
    ASSERT_TRUE(d.ok());
    EXPECT_LE(sym, *d + 1e-9) << "trial " << trial;
  }
}

TEST(LowerBoundTest, LbKeoghZeroForDifferentLengths) {
  std::vector<double> a = {1, 2, 3};
  Envelope env = BuildEnvelope({1, 2}, 1);
  EXPECT_DOUBLE_EQ(LbKeogh(a, env), 0.0);
}

TEST(CascadeTest, SymmetricBoundRejectsWhereOneSidedCannot) {
  // Flat query vs oscillating candidate: the candidate's envelope is wide,
  // so the flat series sits inside it (one-sided bound 0) — but the flat
  // series' envelope is degenerate, so the reverse direction sees the full
  // oscillation and rejects without any DTW.
  const int kWindow = 2;
  const size_t n = 32;
  std::vector<double> flat(n, 0.0);
  std::vector<double> spiky(n, 0.0);
  for (size_t i = 1; i + 1 < spiky.size(); i += 2) spiky[i] = 3.0;
  Envelope env_flat = BuildEnvelope(flat, kWindow);
  Envelope env_spiky = BuildEnvelope(spiky, kWindow);
  const double radius = 5.0;
  ASSERT_LE(LbKim(flat, spiky), radius);          // Kim can't decide this
  ASSERT_EQ(LbKeogh(flat, env_spiky), 0.0);       // one-sided can't either
  ASSERT_GT(LbKeogh(spiky, env_flat), radius);    // the reverse side can

  std::vector<double> flat_env(2 * n), spiky_env(2 * n);
  BuildEnvelopeInterleaved(flat.data(), n, kWindow, flat_env.data());
  BuildEnvelopeInterleaved(spiky.data(), n, kWindow, spiky_env.data());
  OrderedQuery query;
  query.Reset(flat.data(), flat_env.data(), n);
  EXPECT_FALSE(LbKeoghExceeds(query, spiky.data(), spiky_env.data(), radius,
                              /*symmetric=*/false));
  EXPECT_TRUE(LbKeoghExceeds(query, spiky.data(), spiky_env.data(), radius,
                             /*symmetric=*/true));
  // The symmetric rejection is right: the true distance is over the radius.
  auto exact = DtwDistance(flat, spiky, {kWindow});
  ASSERT_TRUE(exact.ok());
  EXPECT_GT(*exact, radius);
}

}  // namespace
}  // namespace dbaugur::dtw
