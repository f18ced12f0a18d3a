// Candidate index for Descender's ρ-neighborhood search: a uniform 2-d grid
// over each trace's (first, last) distance value.
//
// LB_Kim is sqrt(df² + dl²) over the first and last values, so every pair
// it keeps has |df| <= ρ and |dl| <= ρ: the pair's cells are at most one
// apart on both axes. A query therefore reads only the 3×3 block of cells
// around its own key, a superset of the pairs LB_Kim keeps, and the caller
// re-checks each with the exact LB_Kim test.
//
// Exactness under rounding: the cell side is ρ(1 + 2^-16), never below
// 2^-510, and cell coordinates saturate at ±2^30. The margin covers the
// rounding of LB_Kim's and DTW's own arithmetic (a pair whose computed DTW is
// <= ρ has exact |df|, |dl| <= ρ(1 + 3 ULP), or both below 2^-511 where
// squares underflow), and a saturated coordinate keeps neighbours adjacent
// because clamping never increases a distance. Keys that are NaN or ±inf go
// to a catch-all list that every query reads, and a query with such a key,
// or any query when ρ = +inf, reads every filed trace.

#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace dbaugur::cluster {

class CandidateGrid {
 public:
  /// `radius` is Descender's ρ (>= 0, possibly +inf).
  explicit CandidateGrid(double radius);

  /// Files trace `id` under the key (first, last). Ids must arrive in
  /// increasing order (each cell list stays sorted).
  void Insert(uint32_t id, double first, double last);

  /// Appends every filed id < `limit` that may lie within ρ of (first, last)
  /// on both axes. Ids come cell by cell, ascending within a cell.
  void Candidates(double first, double last, size_t limit,
                  std::vector<uint32_t>* out) const;

  /// Forgets every id >= n (rolls back a failed batch).
  void Truncate(size_t n);

 private:
  /// Packed cell key; false when (first, last) goes to the catch-all list.
  bool Key(double first, double last, int64_t* cx, int64_t* cy) const;

  double side_;      // cell side; +inf means one cell holds everything
  size_t size_ = 0;  // ids filed so far (0 .. size_-1)
  std::unordered_map<uint64_t, std::vector<uint32_t>> cells_;
  std::vector<uint32_t> catch_all_;
};

}  // namespace dbaugur::cluster
