#include "exec/streamify.h"

namespace sqp {

const char* StreamifyKindName(StreamifyKind kind) {
  switch (kind) {
    case StreamifyKind::kIStream:
      return "istream";
    case StreamifyKind::kDStream:
      return "dstream";
    case StreamifyKind::kRStream:
      return "rstream";
  }
  return "?";
}

StreamifyOp::StreamifyOp(StreamifyKind kind, int64_t window_size,
                         int64_t period, std::string name)
    : Operator(std::move(name)),
      kind_(kind),
      period_(period),
      buf_(WindowSpec::TimeSliding(window_size)) {}

void StreamifyOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    std::vector<TupleRef> expired;
    buf_.AdvanceTo(e.punctuation().ts, &expired);
    if (kind_ == StreamifyKind::kDStream) {
      for (TupleRef& t : expired) Emit(Element(std::move(t)));
    }
    MaybeEmitSnapshots(e.punctuation().ts);
    Emit(e);
    return;
  }

  std::vector<TupleRef> expired;
  int64_t now = e.tuple()->ts();
  buf_.Insert(e.tuple(), &expired);
  switch (kind_) {
    case StreamifyKind::kIStream:
      Emit(e);
      break;
    case StreamifyKind::kDStream:
      for (TupleRef& t : expired) Emit(Element(std::move(t)));
      break;
    case StreamifyKind::kRStream:
      MaybeEmitSnapshots(now);
      break;
  }
}

void StreamifyOp::MaybeEmitSnapshots(int64_t now) {
  if (kind_ != StreamifyKind::kRStream) return;
  if (last_snapshot_ == INT64_MIN) last_snapshot_ = now - period_;
  while (last_snapshot_ + period_ <= now) {
    last_snapshot_ += period_;
    for (const TupleRef& t : buf_.contents()) {
      // Re-stamp with the snapshot time: RStream output is ordered by
      // emission time, not original arrival.
      Emit(Element(MakeTuple(last_snapshot_, t->values())));
    }
  }
}

void StreamifyOp::Flush() {
  if (kind_ == StreamifyKind::kDStream) {
    // Remaining window contents expire at end-of-stream.
    for (const TupleRef& t : buf_.contents()) Emit(Element(t));
  }
  Operator::Flush();
}

size_t StreamifyOp::StateBytes() const {
  return sizeof(*this) + buf_.MemoryBytes();
}

}  // namespace sqp
