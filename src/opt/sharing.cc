#include "opt/sharing.h"

#include <algorithm>
#include <cassert>

namespace sqp {

int SharedRangeFilter::AddRange(double lo, double hi) {
  int id = static_cast<int>(ranges_.size());
  ranges_.push_back(Range{lo, hi, id});
  root_.reset();
  return id;
}

void SharedRangeFilter::Build() { root_ = BuildNode(ranges_); }

std::unique_ptr<SharedRangeFilter::Node> SharedRangeFilter::BuildNode(
    std::vector<Range> ranges) {
  if (ranges.empty()) return nullptr;
  // Center = median of endpoints.
  std::vector<double> endpoints;
  endpoints.reserve(ranges.size() * 2);
  for (const Range& r : ranges) {
    endpoints.push_back(r.lo);
    endpoints.push_back(r.hi);
  }
  std::nth_element(endpoints.begin(),
                   endpoints.begin() + static_cast<ptrdiff_t>(endpoints.size() / 2),
                   endpoints.end());
  double center = endpoints[endpoints.size() / 2];

  auto node = std::make_unique<Node>();
  node->center = center;
  std::vector<Range> left, right;
  for (const Range& r : ranges) {
    if (r.hi < center) {
      left.push_back(r);
    } else if (r.lo > center) {
      right.push_back(r);
    } else {
      node->by_lo.push_back(r);
    }
  }
  node->by_hi = node->by_lo;
  std::sort(node->by_lo.begin(), node->by_lo.end(),
            [](const Range& a, const Range& b) { return a.lo < b.lo; });
  std::sort(node->by_hi.begin(), node->by_hi.end(),
            [](const Range& a, const Range& b) { return a.hi > b.hi; });
  // Guard against degenerate splits (all ranges stabbing the center).
  if (left.size() < ranges.size()) node->left = BuildNode(std::move(left));
  if (right.size() < ranges.size()) node->right = BuildNode(std::move(right));
  return node;
}

void SharedRangeFilter::MatchNode(const Node* node, double x,
                                  std::vector<int>* out) const {
  if (node == nullptr) return;
  if (x < node->center) {
    for (const Range& r : node->by_lo) {
      if (r.lo > x) break;
      out->push_back(r.id);
    }
    MatchNode(node->left.get(), x, out);
  } else if (x > node->center) {
    for (const Range& r : node->by_hi) {
      if (r.hi < x) break;
      out->push_back(r.id);
    }
    MatchNode(node->right.get(), x, out);
  } else {
    for (const Range& r : node->by_lo) out->push_back(r.id);
  }
}

std::vector<int> SharedRangeFilter::Match(double x) const {
  assert(root_ != nullptr && "call Build() first");
  std::vector<int> out;
  MatchNode(root_.get(), x, &out);
  return out;
}

std::vector<int> SharedRangeFilter::MatchNaive(double x) const {
  std::vector<int> out;
  for (const Range& r : ranges_) {
    if (r.lo <= x && x <= r.hi) out.push_back(r.id);
  }
  return out;
}

SharedWindowJoin::SharedWindowJoin(std::vector<int64_t> windows,
                                   std::vector<int> left_cols,
                                   std::vector<int> right_cols)
    : windows_(std::move(windows)),
      max_window_(windows_.empty()
                      ? 1
                      : *std::max_element(windows_.begin(), windows_.end())),
      buf_{WindowBuffer(WindowSpec::TimeSliding(max_window_), true,
                        std::move(left_cols), /*indexed=*/true),
           WindowBuffer(WindowSpec::TimeSliding(max_window_), true,
                        std::move(right_cols), /*indexed=*/true)},
      results_(windows_.size(), 0) {}

void SharedWindowJoin::Push(int side, const TupleRef& t) {
  // Probe the opposite window's index (shared across all queries).
  buf_[1 - side].ForEachMatch(
      KeyView(*t, buf_[side].key_cols()), &counts_,
      [&](const TupleRef& match) {
        int64_t gap = std::llabs(t->ts() - match->ts());
        // Attribute to each query whose window admits this pair. Window
        // semantics follow WindowBuffer: (now - w, now], i.e. gap < w.
        for (size_t q = 0; q < windows_.size(); ++q) {
          if (gap < windows_[q]) ++results_[q];
        }
      });
  buf_[side].Insert(t);
}

size_t SharedWindowJoin::StateBytes() const {
  return sizeof(*this) + buf_[0].MemoryBytes() + buf_[1].MemoryBytes();
}

}  // namespace sqp
