#include "agg/agg_set.h"

#include <cassert>

namespace sqp {

AggSet::AggSet(std::vector<AggSpec> specs) : specs_(std::move(specs)) {
  fns_.reserve(specs_.size());
  for (const AggSpec& s : specs_) {
    auto fn = AggregateFunction::Make(s.kind, s.param);
    assert(fn.ok());
    fns_.push_back(std::move(fn.value()));
  }
}

AggSet::Accs AggSet::NewAccs() const {
  Accs accs;
  accs.reserve(fns_.size());
  for (const AggregateFunction& fn : fns_) accs.push_back(fn.NewAccumulator());
  return accs;
}

AggSet::Accs AggSet::NewSlidingAccs() const {
  Accs accs;
  accs.reserve(fns_.size());
  for (const AggregateFunction& fn : fns_) {
    accs.push_back(fn.NewSlidingAccumulator());
  }
  return accs;
}

bool AggSet::Slide(Accs& accs, const std::vector<TupleRef>& expired,
                   const Tuple* added,
                   const FifoLog<TupleRef>& window) const {
  auto columns = [](const Tuple& t) {
    return [&t](size_t c) -> const Value& { return t.at(c); };
  };
  bool replay = false;
  for (size_t i = 0; i < accs.size(); ++i) {
    Accumulator& acc = *accs[i];
    if (acc.invertible()) {
      // Expired tuples are the oldest the accumulator holds, in order.
      for (const TupleRef& x : expired) acc.Remove(Input(i, columns(*x)));
    } else if (!expired.empty()) {
      replay = true;
      continue;  // Rebuilt below; the window already holds `added`.
    }
    if (added != nullptr) acc.Add(Input(i, columns(*added)));
  }
  if (!replay) return false;
  for (size_t i = 0; i < accs.size(); ++i) {
    if (accs[i]->invertible()) continue;
    accs[i] = fns_[i].NewSlidingAccumulator();
    for (const TupleRef& t : window) accs[i]->Add(Input(i, columns(*t)));
  }
  return true;
}

void AggSet::WriteResults(const Accs& accs, Value* out) {
  for (const auto& acc : accs) *out++ = acc->Result();
}

void AggSet::Reset(const Accs& accs) {
  for (const auto& acc : accs) acc->Reset();
}

Status AggSet::AppendFields(const std::vector<AggSpec>& specs,
                            const Schema& input, std::vector<Field>* fields) {
  for (const AggSpec& s : specs) {
    const bool in_range =
        s.input_col >= 0 &&
        static_cast<size_t>(s.input_col) < input.num_fields();
    ValueType type;
    switch (s.kind) {
      case AggKind::kCount:
      case AggKind::kCountDistinct:
      case AggKind::kApproxCountDistinct:
        type = ValueType::kInt;
        break;
      case AggKind::kAvg:
      case AggKind::kStddev:
      case AggKind::kMedian:
      case AggKind::kApproxMedian:
      case AggKind::kBlend:
        type = ValueType::kDouble;
        break;
      default:
        if (!in_range) {
          return Status::InvalidArgument("aggregate input column out of range");
        }
        type = input.field(static_cast<size_t>(s.input_col)).type;
    }
    std::string name = AggKindName(s.kind);
    if (in_range) {
      name += "_" + input.field(static_cast<size_t>(s.input_col)).name;
    }
    fields->push_back(Field{std::move(name), type});
  }
  return Status::OK();
}

}  // namespace sqp
