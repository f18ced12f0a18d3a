// Descender — Density basEd Spatial ClustEriNg with Dynamic timE waRping
// (paper §IV-C): DBSCAN over workload traces with DTW as the similarity
// measure, supporting online insertion of new traces, top-K cluster
// selection, per-cluster representative traces, and per-trace proportions.
//
// The implementation maintains the full ρ-neighborhood adjacency, so after
// every insertion the labeling is exactly what batch DBSCAN would produce on
// the same data (the paper's "merge or split the clusters based on the
// current clustering density"). Non-core traces outside every cluster are
// materialized as singleton clusters, matching the paper's online rule ("we
// will create a new cluster with that trace as its sole member").
//
// Neighbor search is exact and shared by both insertion paths: a grid over
// each trace's (first, last) distance value (cluster/candidate_grid.h)
// returns a superset of the pairs LB_Kim keeps; each candidate then goes
// through the exact LB_Kim test, the early-abandoning reordered LB_Keogh
// test (dtw::LbKeoghExceeds) and finally an early-abandoning DTW. Distance
// values and envelopes live in one packed store, 3 * length doubles per
// trace.

#pragma once

#include <cstdint>
#include <vector>

#include "cluster/candidate_grid.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dtw/dtw.h"
#include "ts/series.h"

namespace dbaugur::cluster {

/// Descender configuration.
struct DescenderOptions {
  double radius = 1.0;          ///< ρ — neighborhood radius (DTW distance).
  size_t min_size = 3;          ///< MinSize — neighbors (incl. self) to be core.
  dtw::DtwOptions dtw;          ///< DTW band window.
  /// Compute distances on z-normalized copies of the traces. Query-count and
  /// utilization-ratio traces live on wildly different scales; normalizing
  /// lets one radius ρ group by *shape*, which is what the paper's pattern
  /// clustering is after. Volumes/representatives still use raw values.
  bool znormalize = true;
  /// Worker lanes for the batch AddTraces pairwise sweep. Results are
  /// deterministic for any value; 1 runs fully inline (no threads spawned).
  size_t threads = DefaultThreadCount();
};

/// Summary of one cluster for top-K selection.
struct ClusterInfo {
  int id = 0;
  std::vector<size_t> members;  ///< Trace indices.
  double volume = 0.0;          ///< Total workload (sum of member values).
  bool singleton_outlier = false;
};

class Descender {
 public:
  /// Aborts (DBAUGUR_CHECK) when opts.radius < 0 or opts.threads == 0.
  explicit Descender(const DescenderOptions& opts);

  /// Inserts one trace and incrementally updates the clustering. All traces
  /// must share one length. Returns the trace's index. Its neighbors come
  /// from the same grid and cascade as AddTraces, with the one-sided
  /// LB_Keogh bound (the query's values against each candidate's envelope).
  StatusOr<size_t> AddTrace(ts::Series trace);

  /// Batch fast path: inserts every trace, then relabels once. Produces the
  /// same labels/core flags/adjacency as an equivalent AddTrace loop but
  /// much cheaper: each new trace's row pairs it with the earlier traces the
  /// grid index returns, decided once with the symmetric two-sided LB_Keogh
  /// bound (adjacency filled both ways); rows are distributed over
  /// opts.threads lanes with a deterministic merge, and relabeling runs once.
  /// Validation is atomic: on error no trace is added.
  Status AddTraces(std::vector<ts::Series> traces);

  size_t trace_count() const { return traces_.size(); }
  const ts::Series& trace(size_t i) const { return traces_[i]; }

  /// Cluster id of trace i (every trace has one; outliers are singletons).
  int label(size_t i) const { return labels_[i]; }
  /// True iff trace i is a core point.
  bool is_core(size_t i) const { return core_[i]; }
  /// Number of clusters including singleton outliers.
  size_t cluster_count() const;
  /// Number of non-singleton (density) clusters.
  size_t density_cluster_count() const;

  /// Clusters ordered by descending volume, truncated to k.
  std::vector<ClusterInfo> TopKClusters(size_t k) const;

  /// Average trace of a cluster's members (the forecasting model's training
  /// data for that cluster).
  StatusOr<ts::Series> ClusterRepresentative(int cluster_id) const;

  /// Every trace's share of its cluster's volume, indexed like the traces —
  /// used to scale a cluster-level forecast back to the individual trace
  /// (paper: "we also track each trace and its proportion in the
  /// corresponding cluster"). A zero-volume cluster splits evenly among its
  /// members. One pass over the labels, O(n).
  std::vector<double> TraceProportions() const;

  /// Candidate pairs evaluated by the cascade (the grid's output), i.e.
  /// pruning_stats().candidates (telemetry for the clustering ablation).
  int64_t distance_evals() const { return stats_.candidates; }

  /// Per-tier pruning telemetry accumulated over every insertion: grid
  /// candidates, LB_Kim / LB_Keogh rejections among them, and full DTW
  /// computations.
  const dtw::PruningStats& pruning_stats() const { return stats_; }

 private:
  /// Shared insertion path of AddTrace and AddTraces: packs the traces,
  /// files them in the grid, decides every (new, earlier) candidate pair
  /// and relabels. Traces must already be validated.
  Status Insert(std::vector<ts::Series> traces, bool symmetric);
  /// Recomputes core flags and labels from the adjacency lists (exact DBSCAN
  /// semantics, then singletons for leftover noise).
  void Relabel();

  /// Trace i's distance values (z-normalized when enabled) and, right after
  /// them, its interleaved Keogh envelope.
  double* values(size_t i) {
    return store_[i >> block_shift_].data() + Offset(i);
  }
  const double* values(size_t i) const {
    return store_[i >> block_shift_].data() + Offset(i);
  }
  const double* envelope(size_t i) const { return values(i) + len_; }
  size_t Offset(size_t i) const {
    return (i & ((size_t{1} << block_shift_) - 1)) * 3 * len_;
  }

  DescenderOptions opts_;
  std::vector<ts::Series> traces_;
  size_t len_ = 0;  // common trace length
  // Packed store: 3 * len_ doubles per trace, the distance values followed
  // by the Keogh envelope as (lower, upper) pairs per position, in blocks of
  // 2^block_shift_ consecutive traces. Blocks stay near 64 KiB, under
  // glibc's default mmap threshold: one multi-megabyte block, once freed,
  // raises the allocator's dynamic mmap threshold for every later
  // allocation, which cost +7% peak RSS on the diverse-waveforms benchmark.
  std::vector<std::vector<double>> store_;
  size_t block_shift_ = 0;
  CandidateGrid grid_;
  std::vector<std::vector<size_t>> adjacency_;  // ρ-neighbors, excl. self
  std::vector<bool> core_;
  std::vector<int> labels_;
  std::vector<double> volumes_;
  dtw::PruningStats stats_;
};

}  // namespace dbaugur::cluster
