#include "cluster/descender.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>

#include "common/contracts.h"

namespace dbaugur::cluster {

Descender::Descender(const DescenderOptions& opts)
    : opts_(opts), grid_(opts.radius) {
  DBAUGUR_CHECK_GE(opts.radius, 0.0,
                   "Descender: neighborhood radius must be non-negative");
  DBAUGUR_CHECK_GE(opts.threads, size_t{1},
                   "Descender: thread count must be at least 1");
}

namespace {

/// Writes the values used for distance computation (z-normalized when
/// enabled) to out[0, trace.size()).
void DistanceValues(const ts::Series& trace, bool znormalize, double* out) {
  const std::vector<double>& v = trace.values();
  if (!znormalize) {
    std::copy(v.begin(), v.end(), out);
    return;
  }
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0.0;
  for (double x : v) var += (x - mean) * (x - mean);
  double sd = std::sqrt(var / static_cast<double>(v.size()));
  if (sd <= 0.0) sd = 1.0;
  for (size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - mean) / sd;
}

// Target size of one packed-store block (see Descender::store_).
constexpr size_t kStoreBlockBytes = size_t{64} << 10;

// Rows per ParallelFor chunk: rows have uneven (triangular) cost, so chunks
// stay small, but each chunk reuses one set of per-row scratch buffers.
constexpr size_t kRowsPerChunk = 8;

}  // namespace

StatusOr<size_t> Descender::AddTrace(ts::Series trace) {
  if (trace.empty()) return Status::InvalidArgument("Descender: empty trace");
  if (!traces_.empty() && trace.size() != len_) {
    return Status::InvalidArgument("Descender: trace length mismatch");
  }
  const size_t idx = traces_.size();
  std::vector<ts::Series> one;
  one.push_back(std::move(trace));
  DBAUGUR_RETURN_IF_ERROR(Insert(std::move(one), /*symmetric=*/false));
  return idx;
}

Status Descender::AddTraces(std::vector<ts::Series> traces) {
  // Atomic validation: reject the whole batch up front so a bad trace in the
  // middle cannot leave the clustering half-updated.
  size_t len = traces_.empty() ? (traces.empty() ? 0 : traces[0].size())
                               : len_;
  for (const auto& t : traces) {
    if (t.empty()) return Status::InvalidArgument("Descender: empty trace");
    if (t.size() != len) {
      return Status::InvalidArgument("Descender: trace length mismatch");
    }
  }
  return Insert(std::move(traces), /*symmetric=*/true);
}

Status Descender::Insert(std::vector<ts::Series> traces, bool symmetric) {
  const size_t old_n = traces_.size();
  const size_t batch = traces.size();
  if (batch == 0) return Status::OK();
  const size_t stride = 3 * traces[0].size();
  if (old_n == 0) {
    len_ = traces[0].size();
    const size_t per_block =
        std::max<size_t>(1, kStoreBlockBytes / (stride * sizeof(double)));
    block_shift_ = static_cast<size_t>(std::bit_width(per_block) - 1);
  }
  const size_t block_traces = size_t{1} << block_shift_;
  const size_t old_blocks = store_.size();
  const size_t blocks = (old_n + batch + block_traces - 1) >> block_shift_;
  for (size_t b = old_blocks; b < blocks; ++b) {
    store_.emplace_back(block_traces * stride);
  }

  // Pack every new trace's distance values and envelope, and file it in the
  // grid; the sweep below then only reads the store and the grid.
  for (size_t bi = 0; bi < batch; ++bi) {
    const size_t gi = old_n + bi;
    double* v = values(gi);
    DistanceValues(traces[bi], opts_.znormalize, v);
    dtw::BuildEnvelopeInterleaved(v, len_, opts_.dtw.window, v + len_);
    grid_.Insert(static_cast<uint32_t>(gi), v[0], v[len_ - 1]);
    double vol = 0.0;
    for (double x : traces[bi].values()) vol += x;
    volumes_.push_back(vol);
    traces_.push_back(std::move(traces[bi]));
    adjacency_.emplace_back();
  }

  // Row bi decides every candidate pair (old_n + bi, j < old_n + bi) once:
  // grid candidates -> exact LB_Kim -> reordered LB_Keogh -> early-abandoning
  // DTW. An infinite radius bounds nothing, so every candidate pays for the
  // full DTW. Rows write disjoint slots, so any schedule yields the same
  // result; the merge below runs in index order regardless.
  const double radius = opts_.radius;
  const bool bounded = radius < dtw::kNoBound;
  std::vector<std::vector<size_t>> row_nbrs(batch);
  std::vector<dtw::PruningStats> row_stats(batch);
  std::vector<Status> row_status(batch);
  auto decide_rows = [&](size_t row_begin, size_t row_end) {
    std::vector<uint32_t> cands;
    dtw::OrderedQuery query;
    for (size_t bi = row_begin; bi < row_end; ++bi) {
      const size_t gi = old_n + bi;
      const double* q = values(gi);
      cands.clear();
      grid_.Candidates(q[0], q[len_ - 1], gi, &cands);
      query.Reset(q, envelope(gi), len_);
      dtw::PruningStats& st = row_stats[bi];
      st.candidates = static_cast<int64_t>(cands.size());
      for (uint32_t j : cands) {
        const double* c = values(j);
        if (bounded) {
          if (dtw::LbKim(q, len_, c, len_) > radius) {
            ++st.kim_rejections;
            continue;
          }
          if (dtw::LbKeoghExceeds(query, c, envelope(j), radius, symmetric)) {
            ++st.keogh_rejections;
            continue;
          }
        }
        ++st.full_dtw;
        auto d = dtw::DtwDistance(q, len_, c, len_, opts_.dtw, radius);
        if (!d.ok()) {
          row_status[bi] = d.status();
          break;
        }
        if (*d <= radius) row_nbrs[bi].push_back(j);
      }
      // Cells arrive in grid order; adjacency lists are kept ascending.
      std::sort(row_nbrs[bi].begin(), row_nbrs[bi].end());
    }
  };
  const size_t lanes = std::min(opts_.threads, batch);
  if (lanes == 1) {
    decide_rows(0, batch);
  } else {
    ThreadPool pool(lanes);
    pool.ParallelFor(batch, kRowsPerChunk, decide_rows);
  }
  for (const Status& st : row_status) {
    if (!st.ok()) {
      // Roll the appended per-trace state back so a failure stays atomic.
      traces_.resize(old_n);
      store_.resize(old_blocks);
      grid_.Truncate(old_n);
      volumes_.resize(old_n);
      adjacency_.resize(old_n);
      return st;
    }
  }

  // Deterministic merge in index order: each new row's list is sorted
  // ascending, and the symmetric back-fill appends strictly increasing
  // indices — exactly the lists a sequential AddTrace loop produces, so
  // Relabel's BFS emits identical labels.
  for (size_t bi = 0; bi < batch; ++bi) {
    const size_t gi = old_n + bi;
    adjacency_[gi] = std::move(row_nbrs[bi]);
    for (size_t j : adjacency_[gi]) adjacency_[j].push_back(gi);
    stats_ += row_stats[bi];
  }
  Relabel();
  return Status::OK();
}

void Descender::Relabel() {
  size_t n = traces_.size();
  core_.assign(n, false);
  for (size_t i = 0; i < n; ++i) {
    core_[i] = adjacency_[i].size() + 1 >= opts_.min_size;
  }
  labels_.assign(n, -1);
  int next = 0;
  // BFS from each unlabeled core: density-reachable expansion.
  for (size_t seed = 0; seed < n; ++seed) {
    if (!core_[seed] || labels_[seed] != -1) continue;
    int cid = next++;
    std::deque<size_t> frontier{seed};
    labels_[seed] = cid;
    while (!frontier.empty()) {
      size_t cur = frontier.front();
      frontier.pop_front();
      for (size_t nb : adjacency_[cur]) {
        if (labels_[nb] == -1) {
          labels_[nb] = cid;  // border or core, first cluster wins
          if (core_[nb]) frontier.push_back(nb);
        }
      }
    }
  }
  // Remaining noise traces become singleton clusters (paper's online rule).
  for (size_t i = 0; i < n; ++i) {
    if (labels_[i] == -1) labels_[i] = next++;
  }
}

size_t Descender::cluster_count() const {
  int mx = -1;
  for (int l : labels_) mx = std::max(mx, l);
  return static_cast<size_t>(mx + 1);
}

size_t Descender::density_cluster_count() const {
  size_t count = 0;
  std::vector<size_t> sizes(cluster_count(), 0);
  for (int l : labels_) ++sizes[static_cast<size_t>(l)];
  std::vector<bool> has_core(sizes.size(), false);
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (core_[i]) has_core[static_cast<size_t>(labels_[i])] = true;
  }
  for (size_t c = 0; c < sizes.size(); ++c) {
    if (has_core[c]) ++count;
  }
  return count;
}

std::vector<ClusterInfo> Descender::TopKClusters(size_t k) const {
  std::vector<ClusterInfo> infos(cluster_count());
  for (size_t c = 0; c < infos.size(); ++c) infos[c].id = static_cast<int>(c);
  for (size_t i = 0; i < labels_.size(); ++i) {
    auto& info = infos[static_cast<size_t>(labels_[i])];
    info.members.push_back(i);
    info.volume += volumes_[i];
  }
  for (auto& info : infos) {
    info.singleton_outlier =
        info.members.size() == 1 && !core_[info.members[0]];
  }
  // NaN volumes (traces with NaN values) sort last: a plain `>` is not a
  // strict weak order once NaN is in the range.
  std::sort(infos.begin(), infos.end(),
            [](const ClusterInfo& a, const ClusterInfo& b) {
              return a.volume > b.volume ||
                     (std::isnan(b.volume) && !std::isnan(a.volume));
            });
  if (infos.size() > k) infos.resize(k);
  return infos;
}

StatusOr<ts::Series> Descender::ClusterRepresentative(int cluster_id) const {
  std::vector<ts::Series> members;
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == cluster_id) members.push_back(traces_[i]);
  }
  if (members.empty()) {
    return Status::NotFound("Descender: no such cluster");
  }
  auto avg = ts::Series::Average(members);
  if (!avg.ok()) return avg.status();
  avg->set_name("cluster_" + std::to_string(cluster_id));
  return avg;
}

std::vector<double> Descender::TraceProportions() const {
  // Each cluster's volume sums its members in ascending trace order.
  const size_t clusters = cluster_count();
  std::vector<double> cluster_volume(clusters, 0.0);
  std::vector<size_t> members(clusters, 0);
  for (size_t i = 0; i < labels_.size(); ++i) {
    const size_t l = static_cast<size_t>(labels_[i]);
    cluster_volume[l] += volumes_[i];
    ++members[l];
  }
  std::vector<double> out(labels_.size());
  for (size_t i = 0; i < labels_.size(); ++i) {
    const size_t l = static_cast<size_t>(labels_[i]);
    out[i] = cluster_volume[l] <= 0.0
                 ? 1.0 / static_cast<double>(members[l])
                 : volumes_[i] / cluster_volume[l];
  }
  return out;
}

}  // namespace dbaugur::cluster
