// Equivalence and determinism tests pinning the Descender batch fast path:
// batch AddTraces must reproduce the sequential AddTrace loop exactly
// (labels, core flags, cluster counts, TopK) across thread counts and batch
// splits, while performing strictly fewer full DTW computations than the
// sequential path.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/descender.h"
#include "common/thread_pool.h"
#include "workloads/generators.h"

namespace dbaugur::cluster {
namespace {

std::vector<ts::Series> SeededWorkload(size_t families, size_t members,
                                       uint64_t seed0) {
  std::vector<ts::Series> traces;
  for (size_t fam = 0; fam < families; ++fam) {
    workloads::WarpedFamilyOptions opts;
    opts.members = members;
    opts.max_shift = 2.0;
    opts.phase = static_cast<double>(fam) * 2.0 * M_PI /
                 static_cast<double>(families);
    opts.seed = seed0 + fam;
    for (auto& s : workloads::GenerateWarpedFamily(opts)) {
      traces.push_back(std::move(s));
    }
  }
  return traces;
}

DescenderOptions BaseOpts(size_t threads = 1) {
  DescenderOptions opts;
  opts.radius = 3.0;
  opts.min_size = 3;
  opts.dtw.window = 4;
  opts.threads = threads;
  return opts;
}

// Strict equality, not co-membership up to permutation: the batch path
// promises the *same* labels because adjacency lists come out identical.
void ExpectIdentical(const Descender& a, const Descender& b) {
  ASSERT_EQ(a.trace_count(), b.trace_count());
  for (size_t i = 0; i < a.trace_count(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i)) << "trace " << i;
    EXPECT_EQ(a.is_core(i), b.is_core(i)) << "trace " << i;
  }
  EXPECT_EQ(a.cluster_count(), b.cluster_count());
  EXPECT_EQ(a.density_cluster_count(), b.density_cluster_count());
  auto top_a = a.TopKClusters(5);
  auto top_b = b.TopKClusters(5);
  ASSERT_EQ(top_a.size(), top_b.size());
  for (size_t k = 0; k < top_a.size(); ++k) {
    EXPECT_EQ(top_a[k].id, top_b[k].id) << "rank " << k;
    EXPECT_EQ(top_a[k].members, top_b[k].members) << "rank " << k;
    EXPECT_DOUBLE_EQ(top_a[k].volume, top_b[k].volume) << "rank " << k;
    EXPECT_EQ(top_a[k].singleton_outlier, top_b[k].singleton_outlier);
  }
}

TEST(ClusterBatchTest, BatchMatchesSequentialExactMode) {
  auto traces = SeededWorkload(4, 8, 500);
  Descender seq(BaseOpts());
  for (const auto& s : traces) ASSERT_TRUE(seq.AddTrace(s).ok());
  Descender batch(BaseOpts());
  ASSERT_TRUE(batch.AddTraces(traces).ok());
  ExpectIdentical(seq, batch);
}

TEST(ClusterBatchTest, ThreadCountDoesNotChangeResults) {
  auto traces = SeededWorkload(5, 8, 600);
  Descender one(BaseOpts(1));
  ASSERT_TRUE(one.AddTraces(traces).ok());
  Descender four(BaseOpts(4));
  ASSERT_TRUE(four.AddTraces(traces).ok());
  ExpectIdentical(one, four);
  // The telemetry is deterministic too: the same pairs get the same bounds
  // regardless of which lane evaluated them.
  EXPECT_EQ(one.pruning_stats().full_dtw, four.pruning_stats().full_dtw);
  EXPECT_EQ(one.pruning_stats().kim_rejections,
            four.pruning_stats().kim_rejections);
  EXPECT_EQ(one.pruning_stats().keogh_rejections,
            four.pruning_stats().keogh_rejections);
  EXPECT_EQ(one.distance_evals(), four.distance_evals());
}

TEST(ClusterBatchTest, BatchDoesStrictlyFewerFullDtw) {
  auto traces = SeededWorkload(4, 10, 700);
  Descender seq(BaseOpts());
  for (const auto& s : traces) ASSERT_TRUE(seq.AddTrace(s).ok());
  Descender batch(BaseOpts());
  ASSERT_TRUE(batch.AddTraces(traces).ok());
  ExpectIdentical(seq, batch);
  // Same candidate pairs considered...
  EXPECT_EQ(batch.distance_evals(), seq.distance_evals());
  // ...but the symmetric two-sided LB_Keogh must reject strictly more of
  // them before the full DTW tier.
  EXPECT_LT(batch.pruning_stats().full_dtw, seq.pruning_stats().full_dtw);
  EXPECT_GT(batch.pruning_stats().keogh_rejections,
            seq.pruning_stats().keogh_rejections);
}

TEST(ClusterBatchTest, SecondBatchOnNonEmptyDescenderMatchesSequential) {
  auto traces = SeededWorkload(4, 6, 800);
  Descender seq(BaseOpts());
  for (const auto& s : traces) ASSERT_TRUE(seq.AddTrace(s).ok());
  // Split across two batches: exercises old-vs-new cross pairs in the sweep.
  std::vector<ts::Series> first(traces.begin(), traces.begin() + 10);
  std::vector<ts::Series> second(traces.begin() + 10, traces.end());
  Descender batch(BaseOpts(2));
  ASSERT_TRUE(batch.AddTraces(first).ok());
  ASSERT_TRUE(batch.AddTraces(second).ok());
  ExpectIdentical(seq, batch);
}

TEST(ClusterBatchTest, EmptyBatchIsNoOp) {
  Descender desc(BaseOpts());
  EXPECT_TRUE(desc.AddTraces({}).ok());
  EXPECT_EQ(desc.trace_count(), 0u);
  EXPECT_TRUE(desc.AddTrace(ts::Series(0, 60, {1, 2, 3})).ok());
  EXPECT_TRUE(desc.AddTraces({}).ok());
  EXPECT_EQ(desc.trace_count(), 1u);
}

TEST(ClusterBatchTest, InvalidBatchIsAtomic) {
  Descender desc(BaseOpts());
  ASSERT_TRUE(desc.AddTrace(ts::Series(0, 60, {1, 2, 3})).ok());
  std::vector<ts::Series> mismatched;
  mismatched.push_back(ts::Series(0, 60, {4, 5, 6}));
  mismatched.push_back(ts::Series(0, 60, {7, 8}));
  EXPECT_FALSE(desc.AddTraces(std::move(mismatched)).ok());
  EXPECT_EQ(desc.trace_count(), 1u);  // nothing from the bad batch landed
  std::vector<ts::Series> with_empty;
  with_empty.push_back(ts::Series(0, 60, {4, 5, 6}));
  with_empty.push_back(ts::Series(0, 60, {}));
  EXPECT_FALSE(desc.AddTraces(std::move(with_empty)).ok());
  EXPECT_EQ(desc.trace_count(), 1u);
  // The descender still works after a rejected batch.
  EXPECT_TRUE(desc.AddTrace(ts::Series(0, 60, {4, 5, 6})).ok());
  EXPECT_EQ(desc.trace_count(), 2u);
}

}  // namespace
}  // namespace dbaugur::cluster
