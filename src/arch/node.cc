#include "arch/node.h"

namespace sqp {

DsmsNode::DsmsNode(Operator* entry, NodeOptions options)
    : entry_(entry), options_(std::move(options)) {}

bool DsmsNode::Arrive(Element e) {
  if (options_.queue_limit != 0 && queue_.size() >= options_.queue_limit &&
      !e.is_punctuation()) {
    ++dropped_;
    return false;
  }
  queue_.push_back(std::move(e));
  return true;
}

void DsmsNode::Tick() {
  double budget = options_.capacity_per_tick + budget_carry_;
  while (!queue_.empty() && budget >= options_.cost_per_element) {
    budget -= options_.cost_per_element;
    entry_->Process(queue_.front(), 0);
    queue_.pop_front();
    ++processed_;
  }
  // Unused fractional budget carries to the next tick (bounded to one
  // element's worth so idle time doesn't accumulate unbounded capacity).
  budget_carry_ = queue_.empty()
                      ? 0.0
                      : std::min(budget, options_.cost_per_element);
}

void DsmsNode::Drain() {
  while (!queue_.empty()) {
    entry_->Process(queue_.front(), 0);
    queue_.pop_front();
    ++processed_;
  }
  entry_->Flush();
}

}  // namespace sqp
