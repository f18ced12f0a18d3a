// Fault-tolerance tests for the serving layer: deterministic fault-injection
// schedules, retrain backoff in scheduler cycles, input quarantine +
// winsorization, per-cluster degraded mode with last-good / kernel-baseline
// fallbacks, and crash-safe on-disk checkpoints (torn writes, bit flips,
// truncation → last-good recovery per file; crafted oversized counts →
// clean rejection). The final chaos test reads DBAUGUR_FAULT_SPEC and is
// what the check.sh fault pass drives under ASan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/binio.h"
#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "serve/ingestor.h"
#include "serve/retrain_scheduler.h"
#include "serve/sharded_service.h"
#include "serve/snapshot.h"

namespace dbaugur::serve {
namespace {

constexpr int64_t kInterval = 600;

// Every test starts and ends with a clean fault registry, so a failed test
// cannot leak schedules into its neighbors (or inherit the env spec the
// check.sh chaos pass installs process-wide).
class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

using FaultInjectionTest = ServeFaultTest;
using BackoffTest = ServeFaultTest;
using QuarantineTest = ServeFaultTest;
using DegradedModeTest = ServeFaultTest;
using CheckpointFaultTest = ServeFaultTest;
using ServeFaultChaosTest = ServeFaultTest;

ServeOptions FaultOptions() {
  ServeOptions o;
  // Tight clustering: each of the (deliberately dissimilar) templates forms
  // its own cluster, so per-cluster degradation is observable at every rank.
  o.pipeline.clustering.radius = 1.0;
  o.pipeline.clustering.min_size = 1;
  o.pipeline.clustering.dtw.window = 4;
  o.pipeline.top_k = 3;
  o.pipeline.forecaster.window = 6;
  o.pipeline.forecaster.horizon = 1;
  o.pipeline.forecaster.epochs = 2;
  o.pipeline.forecaster.batch_size = 8;
  o.bin_interval_seconds = kInterval;
  o.queue_capacity = 8192;
  o.retrain_interval_seconds = 0.005;
  o.max_lateness_seconds = 2 * kInterval;
  return o;
}

/// A one-shard service over FaultOptions: every template routes to shard 0.
ShardedServeOptions FaultService() {
  ShardedServeOptions so;
  so.shard = FaultOptions();
  return so;
}

// Offers `bins` bins for `templates` templates with per-template scales far
// enough apart that each template clusters alone (distinct, ordered volumes).
void OfferScaledBins(ShardedForecastService* svc, uint32_t templates,
                     int64_t first_bin, int64_t bins) {
  for (int64_t b = first_bin; b < first_bin + bins; ++b) {
    for (uint32_t t = 0; t < templates; ++t) {
      double scale = 50.0 * static_cast<double>(templates - t);
      TraceEvent e;
      e.template_id = t;
      e.timestamp = b * kInterval + 30;
      e.count = scale + 5.0 * std::sin(static_cast<double>(b) * 0.4 + t);
      ASSERT_TRUE(svc->Offer(e));
    }
  }
}

// --------------------------------------------------------------------------
// Fault-injection framework semantics.

TEST_F(FaultInjectionTest, InactiveByDefaultAndAfterReset) {
  EXPECT_FALSE(fault::Active());
  EXPECT_FALSE(DBAUGUR_FAULT_POINT("test.site"));
  ASSERT_TRUE(fault::Configure("test.site=n:1").ok());
  EXPECT_TRUE(fault::Active());
  fault::Reset();
  EXPECT_FALSE(fault::Active());
  EXPECT_FALSE(DBAUGUR_FAULT_POINT("test.site"));
}

TEST_F(FaultInjectionTest, FirstNScheduleFiresExactlyNTimes) {
  ASSERT_TRUE(fault::Configure("test.site=n:3").ok());
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (DBAUGUR_FAULT_POINT("test.site")) ++fires;
  }
  EXPECT_EQ(fires, 3);
  auto st = fault::Stats("test.site");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->hits, 10u);
  EXPECT_EQ(st->fires, 3u);
}

TEST_F(FaultInjectionTest, AtIndicesScheduleFiresOnExactHits) {
  ASSERT_TRUE(fault::Configure("test.site=at:0,4,5").ok());
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    if (DBAUGUR_FAULT_POINT("test.site")) fired.push_back(i);
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 4, 5}));
}

TEST_F(FaultInjectionTest, ProbabilisticScheduleIsSeedDeterministic) {
  auto run = [] {
    std::vector<bool> verdicts;
    for (int i = 0; i < 64; ++i) {
      verdicts.push_back(DBAUGUR_FAULT_POINT("test.site"));
    }
    return verdicts;
  };
  ASSERT_TRUE(fault::Configure("test.site=p:0.5:99").ok());
  auto first = run();
  ASSERT_TRUE(fault::Configure("test.site=p:0.5:99").ok());
  auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::count(first.begin(), first.end(), true), 0);
  EXPECT_GT(std::count(first.begin(), first.end(), false), 0);
  // A different seed yields a different (still deterministic) sequence.
  ASSERT_TRUE(fault::Configure("test.site=p:0.5:100").ok());
  EXPECT_NE(run(), first);
}

TEST_F(FaultInjectionTest, ParseErrorKeepsPreviousConfiguration) {
  ASSERT_TRUE(fault::Configure("test.site=n:2").ok());
  EXPECT_FALSE(fault::Configure("test.site=bogus:1").ok());
  EXPECT_FALSE(fault::Configure("nonsense").ok());
  EXPECT_FALSE(fault::Configure("test.site=p:2.0").ok());  // p out of range
  // The n:2 schedule survived all three rejected specs.
  EXPECT_TRUE(DBAUGUR_FAULT_POINT("test.site"));
  EXPECT_TRUE(DBAUGUR_FAULT_POINT("test.site"));
  EXPECT_FALSE(DBAUGUR_FAULT_POINT("test.site"));
}

TEST_F(FaultInjectionTest, MultiSiteSpecAndUnknownSiteStats) {
  ASSERT_TRUE(fault::Configure("a.b=n:1;c.d=at:1").ok());
  EXPECT_TRUE(DBAUGUR_FAULT_POINT("a.b"));
  EXPECT_FALSE(DBAUGUR_FAULT_POINT("c.d"));
  EXPECT_TRUE(DBAUGUR_FAULT_POINT("c.d"));
  EXPECT_EQ(fault::Stats("never.hit").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fault::AllStats().size(), 2u);
}

// --------------------------------------------------------------------------
// Retrain failure handling: backoff in scheduler cycles, last_error, Health().

/// Runs scheduler cycles until one schedules something (at most `max_cycles`)
/// and returns that cycle's order; empty if none did.
std::vector<size_t> CycleUntilScheduled(ShardedForecastService* svc,
                                        int max_cycles) {
  for (int i = 0; i < max_cycles; ++i) {
    std::vector<size_t> order = svc->RetrainCycle();
    if (!order.empty()) return order;
  }
  return {};
}

TEST_F(BackoffTest, ScheduleIsExactInSchedulerCycles) {
  ShardedForecastService svc(FaultService());
  OfferScaledBins(&svc, 2, 0, 12);
  ASSERT_TRUE(fault::Configure("serve.retrain.build=n:1000").ok());
  // Failure f leaves the shard ineligible for exactly BackoffCycles(f)
  // cycles, even with no new traffic; Health() counts the remaining cycles
  // down to 0, and the shard is retried on the cycle that starts at 0.
  uint64_t cycle = 0;
  for (uint64_t f = 1; f <= 6; ++f) {
    ASSERT_EQ(svc.RetrainCycle(), (std::vector<size_t>{0})) << "failure " << f;
    ++cycle;
    ServeStats s = svc.stats();
    ASSERT_EQ(s.consecutive_failures, f);
    ASSERT_EQ(s.retrains_failed, f);
    for (uint64_t left = BackoffCycles(f); left > 0; --left) {
      ShardedServiceHealth h = svc.Health();
      EXPECT_EQ(h.state, ServiceHealth::State::kBackoff);
      EXPECT_EQ(h.shards[0].backoff_cycles, left) << "failure " << f;
      EXPECT_TRUE(svc.RetrainCycle().empty()) << "failure " << f;
      ++cycle;
    }
    EXPECT_EQ(svc.Health().shards[0].backoff_cycles, 0u) << "failure " << f;
  }
  // 6 attempts plus 1 + 2 + 4 + 8 + 16 + 32 backed-off cycles.
  EXPECT_EQ(cycle, 69u);
  EXPECT_EQ(svc.cycles(), cycle);
}

TEST_F(BackoffTest, FailuresAreRecordedOnceAndClearedOnSuccess) {
  ShardedForecastService svc(FaultService());
  OfferScaledBins(&svc, 2, 0, 12);
  ASSERT_TRUE(fault::Configure("serve.retrain.build=n:3").ok());

  for (int i = 1; i <= 3; ++i) {
    // Each failure is retried once its cycle backoff elapses.
    ASSERT_EQ(CycleUntilScheduled(&svc, 8), (std::vector<size_t>{0}));
    ServeStats s = svc.stats();
    EXPECT_EQ(s.retrains_failed, static_cast<uint64_t>(i));
    EXPECT_EQ(s.consecutive_failures, static_cast<uint64_t>(i));
    EXPECT_NE(s.last_error.find("injected"), std::string::npos);
    EXPECT_EQ(s.last_error_generation, 0u);  // failed before first publish
    EXPECT_EQ(s.last_error_cycles, 0u);
  }
  ShardedServiceHealth h = svc.Health();
  EXPECT_EQ(h.state, ServiceHealth::State::kBackoff);
  EXPECT_EQ(h.shards[0].state, ServiceHealth::State::kBackoff);
  EXPECT_EQ(h.shards[0].consecutive_failures, 3u);
  EXPECT_EQ(h.shards[0].backoff_cycles, BackoffCycles(3));
  EXPECT_NE(h.shards[0].last_error.find("injected"), std::string::npos);

  // The schedule is exhausted: the next attempt trains, clears the streak,
  // and keeps the failure history (retrains_failed, last_error) for
  // forensics.
  ASSERT_EQ(CycleUntilScheduled(&svc, 8), (std::vector<size_t>{0}));
  ServeStats s = svc.stats();
  EXPECT_EQ(s.retrains_completed, 1u);
  EXPECT_EQ(s.retrains_failed, 3u);
  EXPECT_EQ(s.consecutive_failures, 0u);
  EXPECT_NE(s.last_error.find("injected"), std::string::npos);
  h = svc.Health();
  EXPECT_EQ(h.state, ServiceHealth::State::kHealthy);
  EXPECT_EQ(h.shards[0].generation, 1u);
  EXPECT_EQ(h.shards[0].backoff_cycles, 0u);
  ASSERT_EQ(h.shards[0].clusters.size(), svc.snapshot(0)->cluster_count());
  for (const auto& c : h.shards[0].clusters) EXPECT_FALSE(c.degraded);
}

TEST_F(BackoffTest, UntrainedHealthBeforeAnyData) {
  ShardedForecastService svc(FaultService());
  ShardedServiceHealth h = svc.Health();
  EXPECT_EQ(h.state, ServiceHealth::State::kUntrained);
  ASSERT_EQ(h.shards.size(), 1u);
  EXPECT_EQ(h.shards[0].state, ServiceHealth::State::kUntrained);
  EXPECT_EQ(h.shards[0].generation, 0u);
  EXPECT_TRUE(h.shards[0].last_error.empty());
  EXPECT_TRUE(h.shards[0].clusters.empty());
  EXPECT_EQ(h.shards[0].backoff_cycles, 0u);
}

// --------------------------------------------------------------------------
// Input quarantine + winsorization.

TEST_F(QuarantineTest, GarbageBurstIsQuarantinedAndForecastsUnchanged) {
  ShardedForecastService clean(FaultService());
  ShardedForecastService dirty(FaultService());
  OfferScaledBins(&clean, 2, 0, 14);
  OfferScaledBins(&dirty, 2, 0, 14);

  // Burst of garbage at the dirty service only: NaN / inf / negative counts
  // and a timestamp far staler than max_lateness. Every row must bounce.
  const ts::Timestamp now = 13 * kInterval;
  EXPECT_FALSE(dirty.Offer({0, now, std::nan("")}));
  EXPECT_FALSE(dirty.Offer({0, now, std::numeric_limits<double>::infinity()}));
  EXPECT_FALSE(dirty.Offer({1, now, -std::numeric_limits<double>::infinity()}));
  EXPECT_FALSE(dirty.Offer({1, now, -3.0}));
  EXPECT_FALSE(dirty.Offer({0, now - 10 * kInterval, 5.0}));  // stale
  // Fault-injected corruption: the count rots to NaN inside Offer and must be
  // caught by the same quarantine before reaching the binner.
  ASSERT_TRUE(fault::Configure("serve.ingest.corrupt=n:2").ok());
  EXPECT_FALSE(dirty.Offer({0, now, 7.0}));
  EXPECT_FALSE(dirty.Offer({1, now, 7.0}));
  fault::Reset();

  ServeStats ds = dirty.stats();
  EXPECT_EQ(ds.events_quarantined, 7u);
  EXPECT_EQ(ds.events_dropped, 7u);

  EXPECT_EQ(clean.RetrainCycle(), (std::vector<size_t>{0}));
  EXPECT_EQ(dirty.RetrainCycle(), (std::vector<size_t>{0}));
  auto a = clean.snapshot(0);
  auto b = dirty.snapshot(0);
  ASSERT_TRUE(a->trained());
  ASSERT_EQ(a->cluster_count(), b->cluster_count());
  for (size_t rank = 0; rank < a->cluster_count(); ++rank) {
    auto fa = a->ForecastCluster(rank);
    auto fb = b->ForecastCluster(rank);
    ASSERT_TRUE(fa.ok() && fb.ok());
    EXPECT_EQ(*fa, *fb);  // bit-identical: no garbage reached training
  }
  EXPECT_EQ(dirty.stats().values_winsorized, 0u);
}

TEST_F(QuarantineTest, FiniteOutlierIsWinsorizedBeforeTraining) {
  ShardedForecastService svc(FaultService());
  OfferScaledBins(&svc, 2, 0, 14);
  // A finite positive spike passes the ingest quarantine (it could be a real
  // burst; it is recent enough to clear the lateness bound) but is ~1e10× the
  // series scale; the median/MAD clamp must pull it in before it reaches the
  // ensemble fit.
  ASSERT_TRUE(svc.Offer({0, 13 * kInterval + 60, 1e12}));
  EXPECT_EQ(svc.RetrainCycle(), (std::vector<size_t>{0}));
  ServeStats s = svc.stats();
  EXPECT_EQ(s.events_quarantined, 0u);
  EXPECT_GE(s.values_winsorized, 1u);
  EXPECT_EQ(svc.Health().shards[0].values_winsorized, s.values_winsorized);
  auto snap = svc.snapshot(0);
  ASSERT_TRUE(snap->trained());
  EXPECT_EQ(snap->degraded_count(), 0u);
  for (size_t rank = 0; rank < snap->cluster_count(); ++rank) {
    auto f = snap->ForecastCluster(rank);
    ASSERT_TRUE(f.ok());
    EXPECT_TRUE(std::isfinite(*f));
    EXPECT_LT(std::abs(*f), 1e6);  // nowhere near the 1e12 spike
  }
}

// --------------------------------------------------------------------------
// Per-cluster degraded mode.

TEST_F(DegradedModeTest, DivergedClusterFallsBackToKernelBaselineFirstTrain) {
  ShardedForecastService control(FaultService());
  ShardedForecastService faulted(FaultService());
  OfferScaledBins(&control, 3, 0, 14);
  OfferScaledBins(&faulted, 3, 0, 14);

  EXPECT_EQ(control.RetrainCycle(), (std::vector<size_t>{0}));
  // Diverge exactly the first cluster examined by the snapshot build.
  ASSERT_TRUE(fault::Configure("serve.retrain.diverge=at:0").ok());
  EXPECT_EQ(faulted.RetrainCycle(), (std::vector<size_t>{0}));
  fault::Reset();

  auto c = control.snapshot(0);
  auto f = faulted.snapshot(0);
  ASSERT_TRUE(c->trained() && f->trained());
  ASSERT_EQ(c->cluster_count(), f->cluster_count());
  ASSERT_GE(f->cluster_count(), 2u);
  EXPECT_EQ(f->degraded_count(), 1u);

  // Rank 0: degraded, on the kernel baseline (no last-good on first train),
  // with a finite forecast inside the representative's observed range
  // neighborhood.
  const SnapshotCluster& d = f->clusters[0];
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(d.model_kind, SnapshotCluster::ModelKind::kKernelBaseline);
  EXPECT_NE(d.degraded_reason.find("injected"), std::string::npos);
  EXPECT_NE(d.degraded_reason.find("kernel"), std::string::npos);
  EXPECT_TRUE(std::isfinite(d.next_value));

  // Every other cluster is bit-identical to the control run.
  for (size_t rank = 1; rank < f->cluster_count(); ++rank) {
    EXPECT_FALSE(f->clusters[rank].degraded);
    EXPECT_EQ(f->clusters[rank].model_kind,
              SnapshotCluster::ModelKind::kEnsemble);
    auto fc = c->ForecastCluster(rank);
    auto ff = f->ForecastCluster(rank);
    ASSERT_TRUE(fc.ok() && ff.ok());
    EXPECT_EQ(*fc, *ff);
  }

  ShardedServiceHealth h = faulted.Health();
  EXPECT_EQ(h.state, ServiceHealth::State::kDegraded);
  ASSERT_EQ(h.shards[0].clusters.size(), f->cluster_count());
  EXPECT_TRUE(h.shards[0].clusters[0].degraded);
  EXPECT_EQ(h.shards[0].clusters[0].reason, d.degraded_reason);
  EXPECT_FALSE(h.shards[0].clusters[1].degraded);

  // A degraded snapshot round-trips: the kernel-baseline model kind is
  // persisted and the restored service reproduces every forecast bit-for-bit.
  const std::string base = ::testing::TempDir() + "dbaugur_degraded_ckpt";
  ASSERT_TRUE(faulted.SaveToFiles(base).ok());
  ShardedForecastService restored(FaultService());
  ASSERT_TRUE(restored.LoadFromFiles(base).ok());
  auto r = restored.snapshot(0);
  ASSERT_EQ(r->cluster_count(), f->cluster_count());
  EXPECT_EQ(r->degraded_count(), 1u);
  EXPECT_EQ(r->clusters[0].model_kind,
            SnapshotCluster::ModelKind::kKernelBaseline);
  EXPECT_EQ(r->clusters[0].degraded_reason, d.degraded_reason);
  for (size_t rank = 0; rank < r->cluster_count(); ++rank) {
    auto fr = r->ForecastCluster(rank);
    auto ff = f->ForecastCluster(rank);
    ASSERT_TRUE(fr.ok() && ff.ok());
    EXPECT_EQ(*fr, *ff);
  }
}

TEST_F(DegradedModeTest, DivergedClusterServesLastGoodModelAfterFirstTrain) {
  ShardedForecastService svc(FaultService());
  OfferScaledBins(&svc, 2, 0, 14);
  EXPECT_EQ(svc.RetrainCycle(), (std::vector<size_t>{0}));  // gen 1, healthy
  ASSERT_EQ(svc.snapshot(0)->degraded_count(), 0u);

  OfferScaledBins(&svc, 2, 14, 4);
  ASSERT_TRUE(fault::Configure("serve.retrain.diverge=at:0").ok());
  EXPECT_EQ(svc.RetrainCycle(), (std::vector<size_t>{0}));  // generation 2
  fault::Reset();

  auto snap = svc.snapshot(0);
  EXPECT_EQ(snap->generation, 2u);
  ASSERT_TRUE(snap->trained());
  EXPECT_EQ(snap->degraded_count(), 1u);
  const SnapshotCluster& d = snap->clusters[0];
  EXPECT_TRUE(d.degraded);
  // With a healthy generation 1 on the shelf, the fallback clones that model
  // rather than dropping all the way to the kernel baseline.
  EXPECT_EQ(d.model_kind, SnapshotCluster::ModelKind::kEnsemble);
  EXPECT_NE(d.degraded_reason.find("last-good generation 1"),
            std::string::npos);
  EXPECT_TRUE(std::isfinite(d.next_value));

  // Recovery: the next clean cycle re-fits everything and clears the flag.
  OfferScaledBins(&svc, 2, 18, 2);
  EXPECT_EQ(svc.RetrainCycle(), (std::vector<size_t>{0}));
  EXPECT_EQ(svc.snapshot(0)->degraded_count(), 0u);
  EXPECT_EQ(svc.Health().state, ServiceHealth::State::kHealthy);
}

// --------------------------------------------------------------------------
// Crash-safe on-disk checkpoints.

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST_F(CheckpointFaultTest, CorruptPrimarySweepRecoversLastGood) {
  ShardedForecastService svc(FaultService());
  const std::string base = ::testing::TempDir() + "dbaugur_ckpt_sweep";
  ShardedForecastService::RemoveFiles(base, 1);

  OfferScaledBins(&svc, 2, 0, 14);
  EXPECT_EQ(svc.RetrainCycle(), (std::vector<size_t>{0}));
  ASSERT_TRUE(svc.SaveToFiles(base).ok());  // generation 1 → primaries
  OfferScaledBins(&svc, 2, 14, 4);
  EXPECT_EQ(svc.RetrainCycle(), (std::vector<size_t>{0}));
  ASSERT_TRUE(svc.SaveToFiles(base).ok());  // generation 2 → primaries, 1 → .bak

  // Sanity: the intact primaries restore generation 2 without recovery.
  {
    ShardedForecastService fresh(FaultService());
    ShardedForecastService::LoadReport report;
    report.recovered_from_backup = true;
    ASSERT_TRUE(fresh.LoadFromFiles(base, &report).ok());
    EXPECT_FALSE(report.recovered_from_backup);
    EXPECT_EQ(fresh.snapshot(0)->generation, 2u);
  }

  // Every file recovers on its own: a damaged shard file falls back to its
  // generation-1 `.bak`, a damaged manifest to its `.bak` (same layout), so
  // the shard keeps its generation-2 primary.
  ShardedForecastService target(FaultService());
  uint64_t served_gen = 0;
  for (const std::string& path : {ShardedForecastService::ManifestPath(base),
                                  ShardedForecastService::ShardPath(base, 0)}) {
    const bool is_manifest = path == ShardedForecastService::ManifestPath(base);
    const uint64_t want_gen = is_manifest ? 2u : 1u;
    const std::vector<uint8_t> pristine = ReadFileBytes(path);
    ASSERT_GT(pristine.size(), 32u);
    auto expect_recovers = [&](const std::string& what) {
      ShardedForecastService::LoadReport report;
      Status st = target.LoadFromFiles(base, &report);
      ASSERT_TRUE(st.ok()) << path << " " << what << ": " << st.message();
      EXPECT_TRUE(report.recovered_from_backup) << path << " " << what;
      EXPECT_FALSE(report.migrated) << path << " " << what;
      EXPECT_EQ(target.snapshot(0)->generation, want_gen)
          << path << " " << what;
      served_gen = want_gen;
    };

    // Truncations: empty file, mid-header, mid-payload, missing footer byte.
    for (size_t len : {size_t{0}, size_t{7}, size_t{15}, pristine.size() / 2,
                       pristine.size() - 1}) {
      std::vector<uint8_t> cut(pristine.begin(),
                               pristine.begin() + static_cast<long>(len));
      WriteFileBytes(path, cut);
      expect_recovers("truncate to " + std::to_string(len));
    }

    // Bit flips: every byte of the 16-byte header and 4-byte CRC footer,
    // plus a stride sweep across the CRC-covered payload. Every single flip
    // must be caught by the frame checks and recover to the `.bak` copy.
    std::vector<size_t> positions;
    for (size_t i = 0; i < 16; ++i) positions.push_back(i);
    for (size_t i = pristine.size() - 4; i < pristine.size(); ++i) {
      positions.push_back(i);
    }
    size_t stride = std::max<size_t>(1, (pristine.size() - 20) / 64);
    for (size_t i = 16; i + 4 < pristine.size(); i += stride) {
      positions.push_back(i);
    }
    for (size_t pos : positions) {
      std::vector<uint8_t> bad = pristine;
      bad[pos] ^= 0x40;
      WriteFileBytes(path, bad);
      expect_recovers("flip byte " + std::to_string(pos));
    }
    WriteFileBytes(path, pristine);
  }

  // A shard primary that passes its checksum but fails validation (payload
  // cut by one byte, re-framed with a valid CRC) falls back to `.bak` too:
  // here the generation-2 file the re-framing rotated there.
  const std::string shard_path = ShardedForecastService::ShardPath(base, 0);
  auto payload = ::dbaugur::LoadFromFile(shard_path);
  ASSERT_TRUE(payload.ok());
  payload->blob.pop_back();
  ASSERT_TRUE(::dbaugur::SaveToFile(shard_path, payload->blob).ok());
  ShardedForecastService::LoadReport report;
  ASSERT_TRUE(target.LoadFromFiles(base, &report).ok());
  EXPECT_TRUE(report.recovered_from_backup);
  EXPECT_EQ(target.snapshot(0)->generation, 2u);
  served_gen = 2;

  // Both copies of the shard file destroyed → a descriptive error, and the
  // target keeps serving whatever it had (the last recovered generation).
  WriteFileBytes(shard_path, std::vector<uint8_t>{1, 2, 3});
  WriteFileBytes(shard_path + ".bak", std::vector<uint8_t>{4, 5, 6});
  EXPECT_FALSE(target.LoadFromFiles(base).ok());
  EXPECT_EQ(target.snapshot(0)->generation, served_gen);

  ShardedForecastService::RemoveFiles(base, 1);
}

TEST_F(CheckpointFaultTest, InjectedSaveFaultsNeverDamageThePreviousFile) {
  ShardedForecastService svc(FaultService());
  const std::string base = ::testing::TempDir() + "dbaugur_ckpt_faults";
  const std::string manifest = ShardedForecastService::ManifestPath(base);
  const std::string shard_path = ShardedForecastService::ShardPath(base, 0);
  ShardedForecastService::RemoveFiles(base, 1);

  OfferScaledBins(&svc, 2, 0, 14);
  EXPECT_EQ(svc.RetrainCycle(), (std::vector<size_t>{0}));
  ASSERT_TRUE(svc.SaveToFiles(base).ok());  // good generation-1 checkpoint
  const std::vector<uint8_t> good = ReadFileBytes(shard_path);
  const std::vector<uint8_t> good_manifest = ReadFileBytes(manifest);

  OfferScaledBins(&svc, 2, 14, 4);
  EXPECT_EQ(svc.RetrainCycle(), (std::vector<size_t>{0}));  // gen 2, unsaved

  // Torn write / failed fsync abort before any rename: the installed
  // generation-1 files are untouched, byte for byte.
  for (const char* site : {"binio.save.write", "binio.save.sync"}) {
    ASSERT_TRUE(fault::Configure(std::string(site) + "=n:1").ok());
    EXPECT_FALSE(svc.SaveToFiles(base).ok()) << site;
    fault::Reset();
    EXPECT_EQ(ReadFileBytes(shard_path), good) << site;
    EXPECT_EQ(ReadFileBytes(manifest), good_manifest) << site;
    ShardedForecastService fresh(FaultService());
    ShardedForecastService::LoadReport report;
    report.recovered_from_backup = true;
    ASSERT_TRUE(fresh.LoadFromFiles(base, &report).ok()) << site;
    EXPECT_FALSE(report.recovered_from_backup) << site;
    EXPECT_EQ(fresh.snapshot(0)->generation, 1u) << site;
  }

  // A failed final rename is the crash window between the two renames: the
  // shard primary has already moved to `.bak`, and recovery serves it from
  // there.
  ASSERT_TRUE(fault::Configure("binio.save.rename=n:1").ok());
  EXPECT_FALSE(svc.SaveToFiles(base).ok());
  fault::Reset();
  {
    ShardedForecastService fresh(FaultService());
    ShardedForecastService::LoadReport report;
    ASSERT_TRUE(fresh.LoadFromFiles(base, &report).ok());
    EXPECT_TRUE(report.recovered_from_backup);
    EXPECT_EQ(fresh.snapshot(0)->generation, 1u);
    EXPECT_EQ(ReadFileBytes(shard_path + ".bak"), good);
  }

  // With faults cleared the pending generation lands, atomically.
  ASSERT_TRUE(svc.SaveToFiles(base).ok());
  ShardedForecastService fresh(FaultService());
  ASSERT_TRUE(fresh.LoadFromFiles(base, nullptr).ok());
  EXPECT_EQ(fresh.snapshot(0)->generation, 2u);

  ShardedForecastService::RemoveFiles(base, 1);
}

TEST_F(CheckpointFaultTest, LoadFromMissingFileFails) {
  ShardedForecastService svc(FaultService());
  Status st = svc.LoadFromFiles(::testing::TempDir() + "dbaugur_no_such_ckpt");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(svc.snapshot(0)->generation, 0u);
}

// Crafted checkpoints: files written through the CRC-framed writer, so only
// the service-level parse stands between an absurd element count and a giant
// allocation. Each must come back as a clean InvalidArgument while the
// service keeps serving its current generation.

/// Overwrites the 8 little-endian bytes at `pos` with `v`.
void PatchU64(std::vector<uint8_t>* blob, size_t pos, uint64_t v) {
  ASSERT_LE(pos + 8, blob->size());
  for (int i = 0; i < 8; ++i) {
    (*blob)[pos + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

/// A trained one-shard service with a saved generation-1 checkpoint at
/// `base`; returns the verified manifest and shard payloads.
void TrainAndSave(ShardedForecastService* svc, const std::string& base,
                  std::vector<uint8_t>* manifest, std::vector<uint8_t>* shard) {
  ShardedForecastService::RemoveFiles(base, 1);
  OfferScaledBins(svc, 2, 0, 14);
  EXPECT_EQ(svc->RetrainCycle(), (std::vector<size_t>{0}));
  ASSERT_TRUE(svc->SaveToFiles(base).ok());
  auto m = ::dbaugur::LoadFromFile(ShardedForecastService::ManifestPath(base));
  auto s = ::dbaugur::LoadFromFile(ShardedForecastService::ShardPath(base, 0));
  ASSERT_TRUE(m.ok() && s.ok());
  *manifest = m->blob;
  *shard = s->blob;
  // Crafted files written below must not find a `.bak`.
  ShardedForecastService::RemoveFiles(base, 1);
}

void ExpectRejectedAndStillServing(ShardedForecastService* svc,
                                   const std::string& base) {
  auto before = svc->snapshot(0);
  ASSERT_EQ(before->generation, 1u);
  auto f_before = before->ForecastCluster(0);
  ASSERT_TRUE(f_before.ok());
  Status st = svc->LoadFromFiles(base);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(svc->snapshot(0)->generation, 1u);
  auto f_after = svc->snapshot(0)->ForecastCluster(0);
  ASSERT_TRUE(f_after.ok());
  EXPECT_EQ(*f_after, *f_before);
}

TEST_F(CheckpointFaultTest, OversizedManifestShardCountIsRejected) {
  ShardedForecastService svc(FaultService());
  const std::string base = ::testing::TempDir() + "dbaugur_ckpt_huge_count";
  std::vector<uint8_t> manifest, shard;
  TrainAndSave(&svc, base, &manifest, &shard);
  // Manifest layout: U32 magic, U32 version, U64 shard_count, ...
  PatchU64(&manifest, 8, uint64_t{1} << 40);
  ASSERT_TRUE(::dbaugur::SaveToFile(ShardedForecastService::ManifestPath(base),
                                    manifest)
                  .ok());
  ASSERT_TRUE(
      ::dbaugur::SaveToFile(ShardedForecastService::ShardPath(base, 0), shard)
          .ok());
  ExpectRejectedAndStillServing(&svc, base);
  ShardedForecastService::RemoveFiles(base, 1);
}

TEST_F(CheckpointFaultTest, OversizedSnapshotTraceCountIsRejected) {
  ShardedForecastService svc(FaultService());
  const std::string base = ::testing::TempDir() + "dbaugur_ckpt_huge_traces";
  std::vector<uint8_t> manifest, shard;
  TrainAndSave(&svc, base, &manifest, &shard);
  // Shard file layout: U32 magic, U32 version, U64 shard_count, U64 shard_id,
  // then the state section: U64 generation, Bytes(retrainer state), U8
  // trained, Bytes(snapshot). The snapshot opens with U32 magic, U32
  // version, U64 generation, U64 trace count.
  BufReader r(shard);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::vector<uint8_t> retrainer_state;
  uint8_t trained = 0;
  ASSERT_TRUE(r.U32(&u32) && r.U32(&u32) && r.U64(&u64) && r.U64(&u64) &&
              r.U64(&u64) && r.Bytes(&retrainer_state) && r.U8(&trained) &&
              r.U32(&u32));
  ASSERT_EQ(trained, 1);
  PatchU64(&shard, r.pos() + 16, uint64_t{1} << 58);
  ASSERT_TRUE(::dbaugur::SaveToFile(ShardedForecastService::ManifestPath(base),
                                    manifest)
                  .ok());
  ASSERT_TRUE(
      ::dbaugur::SaveToFile(ShardedForecastService::ShardPath(base, 0), shard)
          .ok());
  ExpectRejectedAndStillServing(&svc, base);
  ShardedForecastService::RemoveFiles(base, 1);
}

TEST_F(CheckpointFaultTest, OversizedBinnerRangeIsRejected) {
  ShardedForecastService svc(FaultService());
  const std::string base = ::testing::TempDir() + "dbaugur_ckpt_huge_range";
  std::vector<uint8_t> manifest, shard;
  TrainAndSave(&svc, base, &manifest, &shard);
  // The state section's retrainer bytes open with U64 cycles, then the
  // binner: I64 interval, U8 any, I64 min_bin, I64 max_bin. Widening the
  // range to [-2^40, 2^40] keeps every saved bin inside it, so only the
  // materialization bound can reject the file.
  BufReader r(shard);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::vector<uint8_t> retrainer_state;
  ASSERT_TRUE(r.U32(&u32) && r.U32(&u32) && r.U64(&u64) && r.U64(&u64) &&
              r.U64(&u64) && r.Bytes(&retrainer_state));
  const size_t binner = r.pos() - retrainer_state.size() + 8;
  PatchU64(&shard, binner + 9, static_cast<uint64_t>(-(int64_t{1} << 40)));
  PatchU64(&shard, binner + 17, uint64_t{1} << 40);
  ASSERT_TRUE(::dbaugur::SaveToFile(ShardedForecastService::ManifestPath(base),
                                    manifest)
                  .ok());
  ASSERT_TRUE(
      ::dbaugur::SaveToFile(ShardedForecastService::ShardPath(base, 0), shard)
          .ok());
  ExpectRejectedAndStillServing(&svc, base);
  ShardedForecastService::RemoveFiles(base, 1);
}

// --------------------------------------------------------------------------
// Checkpoint vs cancellation races: saves issued while retrains hang, crawl,
// or unwind from a watchdog cancellation must always produce complete,
// loadable, all-or-nothing checkpoints.

TEST_F(CheckpointFaultTest, SavesDuringCancelledRetrainCyclesStayLoadable) {
  // Three storms: every retrain hangs until the watchdog fires; every
  // retrain crawls through the slow fault (cancelled at the 20ms deadline
  // long before the ~200ms stall ends); a seeded mix of both.
  const char* kStorms[] = {
      "serve.retrain.hang=n:1000",
      "serve.retrain.slow=n:1000",
      "serve.retrain.hang=p:0.5:11;serve.retrain.slow=p:0.5:12",
  };
  for (const char* storm : kStorms) {
    fault::Reset();
    ShardedServeOptions so;
    so.shard = FaultOptions();
    so.shard_count = 2;
    so.retrain_workers = 2;
    so.retrain_deadline_seconds = 0.02;
    ShardedForecastService svc(so);
    for (int64_t b = 0; b < 14; ++b) {
      for (uint32_t t = 0; t < 4; ++t) {
        TraceEvent e;
        e.template_id = t;
        e.timestamp = b * kInterval + 30;
        e.count = 50.0 * static_cast<double>(t + 1);
        ASSERT_TRUE(svc.Offer(e));
      }
    }
    (void)svc.RetrainCycle();  // clean last-good state before the storm
    ASSERT_TRUE(fault::Configure(storm).ok()) << storm;

    std::atomic<bool> done{false};
    std::thread cycler([&] {
      for (int i = 0; i < 3; ++i) (void)svc.RetrainCycle();
      done.store(true, std::memory_order_release);
    });
    // Saves race the storm: each blocks at most ~one watchdog deadline
    // behind an in-flight cycle, then must write a checkpoint that loads
    // all-or-nothing into a fresh service.
    const std::string base = ::testing::TempDir() + "dbaugur_cancel_ckpt";
    int saves = 0;
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_TRUE(svc.SaveToFiles(base).ok()) << storm;
      ++saves;
      ShardedForecastService restored(so);
      ASSERT_TRUE(restored.LoadFromFiles(base).ok()) << storm;
      for (size_t s = 0; s < so.shard_count; ++s) {
        ASSERT_NE(restored.snapshot(s), nullptr) << storm;
      }
    }
    cycler.join();
    EXPECT_GE(saves, 1) << storm;
  }
}

TEST_F(CheckpointFaultTest, ShardLevelSaveRacesASlowRetrainAndLoads) {
  // Below the scheduler: a direct shard retrain crawling through the slow
  // fault while SaveToFiles runs concurrently. The save serializes behind
  // the shard's retrain lock mid-stall and must still emit a loadable
  // checkpoint whether it lands before or after the publish.
  ShardedServeOptions so;
  so.shard = FaultOptions();
  so.shard_count = 2;
  ShardedForecastService svc(so);
  for (int64_t b = 0; b < 14; ++b) {
    for (uint32_t t = 0; t < 4; ++t) {
      TraceEvent e;
      e.template_id = t;
      e.timestamp = b * kInterval + 30;
      e.count = 50.0 * static_cast<double>(t + 1);
      ASSERT_TRUE(svc.Offer(e));
    }
  }
  ASSERT_TRUE(fault::Configure("serve.retrain.slow=n:1").ok());
  CancelToken token;  // never cancelled: the slow retrain completes
  std::thread retrainer(
      [&] { (void)svc.shard(0).RetrainOnce(nullptr, &token); });
  const std::string base = ::testing::TempDir() + "dbaugur_shard_race_ckpt";
  ASSERT_TRUE(svc.SaveToFiles(base).ok());
  retrainer.join();
  EXPECT_FALSE(token.cancelled());
  ShardedForecastService restored(so);
  ASSERT_TRUE(restored.LoadFromFiles(base).ok());
  for (size_t s = 0; s < so.shard_count; ++s) {
    ASSERT_NE(restored.snapshot(s), nullptr);
  }
}

// --------------------------------------------------------------------------
// Env-driven chaos storm (the check.sh fault pass sets DBAUGUR_FAULT_SPEC).

TEST_F(ServeFaultChaosTest, SurvivesEnvConfiguredFaultStorm) {
  const char* spec = std::getenv("DBAUGUR_FAULT_SPEC");
  if (spec == nullptr || *spec == '\0') {
    GTEST_SKIP() << "set DBAUGUR_FAULT_SPEC to run the chaos storm";
  }
  ASSERT_TRUE(fault::Configure(spec).ok()) << "bad DBAUGUR_FAULT_SPEC";

  ShardedForecastService svc(FaultService());
  // Offers may bounce under an ingest-corruption storm — that is the point —
  // so unlike OfferScaledBins this helper tolerates rejection.
  auto offer_bins = [&svc](int64_t first_bin, int64_t bins) {
    for (int64_t b = first_bin; b < first_bin + bins; ++b) {
      for (uint32_t t = 0; t < 2; ++t) {
        double scale = 50.0 * static_cast<double>(2 - t);
        (void)svc.Offer(
            {t, b * kInterval + 30,
             scale + 5.0 * std::sin(static_cast<double>(b) * 0.4 + t)});
      }
    }
  };
  // The storm retrains the shard directly, one attempt per cycle, so every
  // attempt's status is observed (the scheduler would back failures off).
  ServiceShard& shard = svc.shard(0);
  offer_bins(0, 14);
  // Drive cycles synchronously (1-core friendly) while the storm rages:
  // failures must be recorded, never published, and never fatal.
  int failures = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    offer_bins(14 + 2 * cycle, 2);
    if (!shard.RetrainOnce().ok()) ++failures;
    auto snap = svc.snapshot(0);
    ASSERT_NE(snap, nullptr);
    if (snap->trained()) {
      auto f = snap->ForecastCluster(0);
      ASSERT_TRUE(f.ok());
      EXPECT_TRUE(std::isfinite(*f));
    }
  }
  // Once the storm clears, the service recovers to a healthy publish.
  fault::Reset();
  ASSERT_TRUE(shard.RetrainOnce().ok());
  EXPECT_GE(shard.generation(), 1u);
  ServeStats s = svc.stats();
  EXPECT_EQ(s.retrains_failed, static_cast<uint64_t>(failures));
  EXPECT_EQ(s.consecutive_failures, 0u);
}

}  // namespace
}  // namespace dbaugur::serve
