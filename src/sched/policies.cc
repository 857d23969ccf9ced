#include "sched/policies.h"

#include <cassert>

namespace sqp {

namespace {

class FifoPolicy : public SchedulingPolicy {
 public:
  int Pick(const std::vector<OpView>& ops) override {
    int best = -1;
    uint64_t best_seq = UINT64_MAX;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].queue_len > 0 && ops[i].head_seq < best_seq) {
        best_seq = ops[i].head_seq;
        best = static_cast<int>(i);
      }
    }
    return best;
  }
  bool reads_head_size() const override { return false; }
  std::string name() const override { return "fifo"; }
};

class RoundRobinPolicy : public SchedulingPolicy {
 public:
  int Pick(const std::vector<OpView>& ops) override {
    if (ops.empty()) return -1;
    for (size_t k = 0; k < ops.size(); ++k) {
      size_t i = (next_ + k) % ops.size();
      if (ops[i].queue_len > 0) {
        next_ = i + 1;
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  bool reads_head_size() const override { return false; }
  std::string name() const override { return "round-robin"; }

 private:
  size_t next_ = 0;
};

class GreedyPolicy : public SchedulingPolicy {
 public:
  int Pick(const std::vector<OpView>& ops) override {
    int best = -1;
    double best_rate = -1.0;
    uint64_t best_seq = UINT64_MAX;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].queue_len == 0) continue;
      double rate =
          ops[i].head_size * (1.0 - ops[i].selectivity) / ops[i].cost;
      // Strictly better rate wins; ties go to the older tuple.
      if (rate > best_rate ||
          (rate == best_rate && ops[i].head_seq < best_seq)) {
        best_rate = rate;
        best_seq = ops[i].head_seq;
        best = static_cast<int>(i);
      }
    }
    return best;
  }
  std::string name() const override { return "greedy"; }
};

class ChainPolicy : public SchedulingPolicy {
 public:
  ChainPolicy(const std::vector<double>& costs,
              const std::vector<double>& sels) {
    assert(costs.size() == sels.size());
    // Progress chart points: p_0 = (0, 1); p_i = (sum cost, prod sel).
    size_t n = costs.size();
    std::vector<double> x(n + 1), y(n + 1);
    x[0] = 0.0;
    y[0] = 1.0;
    for (size_t i = 0; i < n; ++i) {
      x[i + 1] = x[i] + costs[i];
      y[i + 1] = y[i] * sels[i];
    }
    // Lower envelope: from each point, jump to the point with the
    // steepest downward slope. Every operator in a segment inherits the
    // segment's slope as its priority.
    priority_.assign(n, 0.0);
    size_t i = 0;
    while (i < n) {
      size_t best_j = i + 1;
      double best_slope = (y[i + 1] - y[i]) / (x[i + 1] - x[i]);
      for (size_t j = i + 2; j <= n; ++j) {
        double slope = (y[j] - y[i]) / (x[j] - x[i]);
        if (slope < best_slope) {
          best_slope = slope;
          best_j = j;
        }
      }
      for (size_t k = i; k < best_j; ++k) priority_[k] = -best_slope;
      i = best_j;
    }
  }

  int Pick(const std::vector<OpView>& ops) override {
    int best = -1;
    double best_pri = -1.0;
    uint64_t best_seq = UINT64_MAX;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].queue_len == 0) continue;
      double pri = i < priority_.size() ? priority_[i] : 0.0;
      // Chain: highest envelope priority; FIFO among equals.
      if (pri > best_pri || (pri == best_pri && ops[i].head_seq < best_seq)) {
        best_pri = pri;
        best_seq = ops[i].head_seq;
        best = static_cast<int>(i);
      }
    }
    return best;
  }
  bool reads_head_size() const override { return false; }
  std::string name() const override { return "chain"; }

 private:
  std::vector<double> priority_;
};

}  // namespace

std::unique_ptr<SchedulingPolicy> MakeFifoPolicy() {
  return std::make_unique<FifoPolicy>();
}

std::unique_ptr<SchedulingPolicy> MakeRoundRobinPolicy() {
  return std::make_unique<RoundRobinPolicy>();
}

std::unique_ptr<SchedulingPolicy> MakeGreedyPolicy() {
  return std::make_unique<GreedyPolicy>();
}

std::unique_ptr<SchedulingPolicy> MakeChainPolicy(
    const std::vector<double>& costs, const std::vector<double>& sels) {
  return std::make_unique<ChainPolicy>(costs, sels);
}

}  // namespace sqp
