#include "exec/plan.h"

#include "common/strings.h"

namespace sqp {

size_t Plan::TotalStateBytes() const {
  size_t bytes = 0;
  for (const auto& op : ops_) bytes += op->StateBytes();
  return bytes;
}

std::string Plan::StatsString() const {
  std::string out;
  for (const auto& op : ops_) {
    const obs::OpSnapshot s = op->stats();
    out += StrFormat("%-16s in=%llu out=%llu sel=%.4f state=%zuB\n",
                     op->name().c_str(),
                     static_cast<unsigned long long>(s.tuples_in),
                     static_cast<unsigned long long>(s.tuples_out),
                     s.Selectivity(), op->StateBytes());
  }
  return out;
}

void RunStream(Operator* entry, const std::function<TupleRef()>& next,
               uint64_t n, bool flush) {
  for (uint64_t i = 0; i < n; ++i) {
    entry->Process(Element(next()), 0);
  }
  if (flush) entry->Flush();
}

void RunElements(Operator* entry, const std::function<Element()>& next,
                 uint64_t n, bool flush) {
  for (uint64_t i = 0; i < n; ++i) {
    entry->Process(next(), 0);
  }
  if (flush) entry->Flush();
}

}  // namespace sqp
