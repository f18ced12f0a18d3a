#include "cluster/candidate_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.h"

namespace dbaugur::cluster {

namespace {

// Cell coordinates saturate here: |t| <= 2^31 keeps the rounding of x / side
// below 2^-22 cells, and the offset coordinate fits 32 bits of the key.
constexpr double kMaxCell = 1073741824.0;  // 2^30
constexpr int64_t kCellOffset = int64_t{1} << 30;

uint64_t PackKey(int64_t cx, int64_t cy) {
  return (static_cast<uint64_t>(cx + kCellOffset) << 32) |
         static_cast<uint64_t>(cy + kCellOffset);
}

int64_t CellOf(double x, double side) {
  return static_cast<int64_t>(
      std::floor(std::clamp(x / side, -kMaxCell, kMaxCell)));
}

void AppendBelow(const std::vector<uint32_t>& ids, size_t limit,
                 std::vector<uint32_t>* out) {
  for (uint32_t id : ids) {
    if (id >= limit) break;
    out->push_back(id);
  }
}

}  // namespace

CandidateGrid::CandidateGrid(double radius) {
  DBAUGUR_CHECK_GE(radius, 0.0, "CandidateGrid: radius must be non-negative");
  side_ = std::max(radius * (1.0 + 0x1p-16), 0x1p-510);
}

bool CandidateGrid::Key(double first, double last, int64_t* cx,
                        int64_t* cy) const {
  if (!std::isfinite(first) || !std::isfinite(last)) return false;
  *cx = CellOf(first, side_);
  *cy = CellOf(last, side_);
  return true;
}

void CandidateGrid::Insert(uint32_t id, double first, double last) {
  DBAUGUR_DCHECK_EQ(size_t{id}, size_, "CandidateGrid: ids out of order");
  ++size_;
  if (!(side_ < std::numeric_limits<double>::infinity())) return;
  int64_t cx = 0, cy = 0;
  if (Key(first, last, &cx, &cy)) {
    cells_[PackKey(cx, cy)].push_back(id);
  } else {
    catch_all_.push_back(id);
  }
}

void CandidateGrid::Candidates(double first, double last, size_t limit,
                               std::vector<uint32_t>* out) const {
  limit = std::min(limit, size_);
  int64_t cx = 0, cy = 0;
  if (!(side_ < std::numeric_limits<double>::infinity()) ||
      !Key(first, last, &cx, &cy)) {
    for (size_t id = 0; id < limit; ++id) {
      out->push_back(static_cast<uint32_t>(id));
    }
    return;
  }
  for (int64_t x = std::max(cx - 1, -kCellOffset);
       x <= std::min(cx + 1, kCellOffset); ++x) {
    for (int64_t y = std::max(cy - 1, -kCellOffset);
         y <= std::min(cy + 1, kCellOffset); ++y) {
      auto it = cells_.find(PackKey(x, y));
      if (it != cells_.end()) AppendBelow(it->second, limit, out);
    }
  }
  AppendBelow(catch_all_, limit, out);
}

void CandidateGrid::Truncate(size_t n) {
  if (n >= size_) return;
  size_ = n;
  auto trim = [n](std::vector<uint32_t>* ids) {
    while (!ids->empty() && ids->back() >= n) ids->pop_back();
  };
  for (auto it = cells_.begin(); it != cells_.end();) {
    trim(&it->second);
    it = it->second.empty() ? cells_.erase(it) : std::next(it);
  }
  trim(&catch_all_);
}

}  // namespace dbaugur::cluster
