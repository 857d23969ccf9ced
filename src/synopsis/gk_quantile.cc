#include "synopsis/gk_quantile.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sqp {

GkQuantile::GkQuantile(double eps) : eps_(eps) {
  assert(eps > 0.0 && eps < 1.0);
}

void GkQuantile::Add(double x) {
  // Find insertion point (first entry with v >= x).
  auto it = std::lower_bound(
      summary_.begin(), summary_.end(), x,
      [](const Entry& e, double val) { return e.v < val; });

  uint64_t delta;
  if (it == summary_.begin() || it == summary_.end()) {
    delta = 0;  // New min or max is exact.
  } else {
    delta = static_cast<uint64_t>(std::floor(
        2.0 * eps_ * static_cast<double>(n_)));
  }
  summary_.insert(it, Entry{x, 1, delta});
  ++n_;

  // Compress periodically (every 1/(2 eps) insertions).
  if (n_ % std::max<uint64_t>(
               1, static_cast<uint64_t>(1.0 / (2.0 * eps_))) == 0) {
    Compress();
  }
}

void GkQuantile::Compress() {
  if (summary_.size() < 3) return;
  uint64_t threshold = static_cast<uint64_t>(
      std::floor(2.0 * eps_ * static_cast<double>(n_)));
  std::vector<Entry> out;
  out.reserve(summary_.size());
  out.push_back(summary_.front());
  // Merge adjacent entries when the combined band fits the error budget.
  for (size_t i = 1; i + 1 < summary_.size(); ++i) {
    Entry& e = summary_[i];
    Entry& next = summary_[i + 1];
    if (e.g + next.g + next.delta < threshold) {
      next.g += e.g;  // Absorb e into its successor.
    } else {
      out.push_back(e);
    }
  }
  out.push_back(summary_.back());
  summary_ = std::move(out);
}

void GkQuantile::Merge(const GkQuantile& other) {
  if (other.summary_.empty()) return;
  std::vector<Entry> merged;
  merged.reserve(summary_.size() + other.summary_.size());
  std::merge(summary_.begin(), summary_.end(), other.summary_.begin(),
             other.summary_.end(), std::back_inserter(merged),
             [](const Entry& a, const Entry& b) { return a.v < b.v; });
  summary_ = std::move(merged);
  n_ += other.n_;
  Compress();
}

void GkQuantile::Save(dur::BufWriter& w) const {
  w.F64(eps_);
  w.U64(n_);
  w.U32(static_cast<uint32_t>(summary_.size()));
  for (const Entry& e : summary_) {
    w.F64(e.v);
    w.U64(e.g);
    w.U64(e.delta);
  }
}

Status GkQuantile::Restore(dur::BufReader& r) {
  double eps = 0.0;
  uint64_t n = 0;
  uint32_t count = 0;
  SQP_RETURN_NOT_OK(r.F64(&eps));
  SQP_RETURN_NOT_OK(r.U64(&n));
  SQP_RETURN_NOT_OK(r.U32(&count));
  if (eps != eps_) return Status::Internal("gk: checkpoint eps mismatch");
  std::vector<Entry> summary;
  uint64_t ranks = 0;  // Sum of the gaps so far.
  for (uint32_t i = 0; i < count; ++i) {
    Entry e{};
    SQP_RETURN_NOT_OK(r.F64(&e.v));
    SQP_RETURN_NOT_OK(r.U64(&e.g));
    SQP_RETURN_NOT_OK(r.U64(&e.delta));
    if (!summary.empty() && e.v < summary.back().v) {
      return Status::Internal("gk: checkpoint entries out of order");
    }
    if (e.g > n - ranks) {
      return Status::Internal("gk: checkpoint gaps exceed n");
    }
    ranks += e.g;
    summary.push_back(e);
  }
  if (ranks != n) return Status::Internal("gk: checkpoint gaps short of n");
  n_ = n;
  summary_ = std::move(summary);
  return Status::OK();
}

double GkQuantile::Query(double q) const {
  assert(n_ > 0);
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(n_)));
  uint64_t margin = static_cast<uint64_t>(
      std::ceil(eps_ * static_cast<double>(n_)));

  // Return the entry whose rank interval [rmin, rmax] lies closest to
  // the requested rank. The GK invariant (g + delta <= 2*eps*n)
  // guarantees some entry within eps*n; choosing the nearest interval
  // additionally behaves gracefully at the extreme quantiles, where the
  // textbook "first rmax > rank + eps*n" scan falls off the end and
  // returns the maximum.
  (void)margin;
  uint64_t rmin = 0;
  double best_v = summary_.front().v;
  uint64_t best_dist = UINT64_MAX;
  for (size_t i = 0; i < summary_.size(); ++i) {
    rmin += summary_[i].g;
    uint64_t rmax = rmin + summary_[i].delta;
    uint64_t dist = 0;
    if (rank < rmin) {
      dist = rmin - rank;
    } else if (rank > rmax) {
      dist = rank - rmax;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best_v = summary_[i].v;
    }
  }
  return best_v;
}

}  // namespace sqp
