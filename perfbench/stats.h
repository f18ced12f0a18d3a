// Measurement helpers of the benchmark program: tail-percentile selection, a
// latency histogram, sMAPE, and span self-time arithmetic. Header-only so
// stats_test.cpp can pin them without linking the program.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Percentile ladder for tail reporting, in hundredths of a percent.
inline constexpr uint32_t kTailLadder[] = {9999, 9990, 9900, 9000, 5000};

/// Samples ranked strictly above percentile `p_hundredths` in `n` samples:
/// n - ceil(n * p / 10000), computed exactly in integers.
inline uint64_t SamplesBeyond(uint64_t n, uint32_t p_hundredths) {
  return n - (n * p_hundredths + 9999) / 10000;
}

/// The highest ladder percentile (hundredths of a percent) that still has at
/// least ten samples beyond it; 0 when even the median lacks ten (n < 20).
inline uint32_t TailPercentile(uint64_t n) {
  for (uint32_t p : kTailLadder) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

/// Nanosecond latency histogram with 1 ns buckets up to kBuckets and one
/// overflow bucket. Percentiles interpolate linearly inside a bucket (each
/// integer reading v stands for the interval [v, v+1)), so they keep the
/// run-to-run variation a 1 ns quantization would hide.
class LatencyHistogram {
 public:
  static constexpr uint64_t kBuckets = 1 << 17;

  LatencyHistogram() : counts_(kBuckets + 1, 0) {}

  void Record(uint64_t ns) {
    ++counts_[std::min(ns, kBuckets)];
    ++n_;
    max_ns_ = std::max(max_ns_, ns);
  }

  void Merge(const LatencyHistogram& o) {
    for (size_t b = 0; b < counts_.size(); ++b) counts_[b] += o.counts_[b];
    n_ += o.n_;
    max_ns_ = std::max(max_ns_, o.max_ns_);
  }

  uint64_t count() const { return n_; }

  /// Percentile `p` in [0, 100]; 0 for an empty histogram. Readings in the
  /// overflow bucket report the largest value recorded.
  double Percentile(double p) const {
    if (n_ == 0) return 0.0;
    double rank = p / 100.0 * static_cast<double>(n_);
    uint64_t cum = 0;
    for (uint64_t b = 0; b < kBuckets; ++b) {
      uint64_t c = counts_[b];
      if (c == 0) continue;
      if (static_cast<double>(cum + c) >= rank) {
        double into = (rank - static_cast<double>(cum)) / static_cast<double>(c);
        return static_cast<double>(b) + std::clamp(into, 0.0, 1.0);
      }
      cum += c;
    }
    return static_cast<double>(max_ns_);
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
  uint64_t max_ns_ = 0;
};

/// One sMAPE term, 2|F-A| / (|F|+|A|), in [0, 2]. A zero denominator means
/// forecast and actual are both 0: a perfect forecast, term 0.
inline double SmapeTerm(double forecast, double actual) {
  double denom = std::abs(forecast) + std::abs(actual);
  if (denom == 0.0) return 0.0;
  return 2.0 * std::abs(forecast - actual) / denom;
}

/// Mean of sMAPE terms, in percent (0 for no terms).
inline double SmapePercent(const std::vector<double>& terms) {
  if (terms.empty()) return 0.0;
  double sum = 0.0;
  for (double t : terms) sum += t;
  return 100.0 * sum / static_cast<double>(terms.size());
}

/// One timed call into a layer. `parent` is the index of the enclosing span
/// (-1 for a root). A span with `attributed` set was timed outside its
/// parent, on the parent's inputs, because the layer is only reachable
/// inside the parent's public call; its duration is subtracted from the
/// parent's self time instead of its interval.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;
  uint64_t cycle = 0;
  bool attributed = false;

  double duration() const { return end - start; }
};

/// Self time of spans[id]: its duration, minus the union of its nested
/// children's intervals clipped to it, minus the durations of its attributed
/// children. Not clamped: a negative value means the attributed children
/// took longer when timed alone than inside the parent.
inline double SelfTime(const std::vector<Span>& spans, size_t id) {
  const Span& s = spans[id];
  std::vector<std::pair<double, double>> nested;
  double attributed = 0.0;
  for (const Span& c : spans) {
    if (c.parent != static_cast<int64_t>(id)) continue;
    if (c.attributed) {
      attributed += c.duration();
    } else {
      double lo = std::max(c.start, s.start);
      double hi = std::min(c.end, s.end);
      if (hi > lo) nested.emplace_back(lo, hi);
    }
  }
  std::sort(nested.begin(), nested.end());
  double covered = 0.0;
  double cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : nested) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return s.duration() - covered - attributed;
}

}  // namespace perfbench
