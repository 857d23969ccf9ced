#include "agg/aggregate_fn.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <unordered_map>

#include "common/fifo_log.h"
#include "synopsis/distinct.h"
#include "synopsis/gk_quantile.h"

namespace sqp {

AggClass ClassOf(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kFirst:
    case AggKind::kLast:
      return AggClass::kDistributive;
    case AggKind::kAvg:
    case AggKind::kStddev:
    case AggKind::kBlend:
      return AggClass::kAlgebraic;
    case AggKind::kMedian:
    case AggKind::kCountDistinct:
      return AggClass::kHolistic;
    case AggKind::kApproxMedian:
    case AggKind::kApproxCountDistinct:
      return AggClass::kSketched;
  }
  return AggClass::kHolistic;
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kStddev:
      return "stddev";
    case AggKind::kMedian:
      return "median";
    case AggKind::kCountDistinct:
      return "count_distinct";
    case AggKind::kFirst:
      return "first";
    case AggKind::kLast:
      return "last";
    case AggKind::kBlend:
      return "blend";
    case AggKind::kApproxMedian:
      return "approx_median";
    case AggKind::kApproxCountDistinct:
      return "approx_count_distinct";
  }
  return "?";
}

Result<AggKind> ParseAggKind(const std::string& name) {
  static const std::map<std::string, AggKind> kNames = {
      {"count", AggKind::kCount},
      {"sum", AggKind::kSum},
      {"min", AggKind::kMin},
      {"max", AggKind::kMax},
      {"avg", AggKind::kAvg},
      {"stddev", AggKind::kStddev},
      {"median", AggKind::kMedian},
      {"count_distinct", AggKind::kCountDistinct},
      {"first", AggKind::kFirst},
      {"last", AggKind::kLast},
      {"blend", AggKind::kBlend},
      {"approx_median", AggKind::kApproxMedian},
      {"approx_count_distinct", AggKind::kApproxCountDistinct},
  };
  auto it = kNames.find(name);
  if (it == kNames.end()) {
    return Status::ParseError("unknown aggregate function: " + name);
  }
  return it->second;
}

void Accumulator::Remove(const Value& /*v*/) {
  assert(false && "Remove called on non-invertible accumulator");
}

Status Accumulator::LoadState(dur::BufReader& /*r*/) {
  return Status::Unimplemented(std::string("no state serializer for ") +
                               AggKindName(kind()));
}

namespace {

class CountAcc : public Accumulator {
 public:
  AggKind kind() const override { return AggKind::kCount; }
  void Add(const Value& /*v*/) override { ++n_; }
  void Remove(const Value& /*v*/) override { --n_; }
  bool invertible() const override { return true; }
  Value Result() const override { return Value(static_cast<int64_t>(n_)); }
  void Reset() override { n_ = 0; }
  void Merge(const Accumulator& other) override { n_ += other.count(); }
  size_t MemoryBytes() const override { return sizeof(*this); }
  bool SaveState(dur::BufWriter& w) const override {
    w.U64(n_);
    return true;
  }
  Status LoadState(dur::BufReader& r) override { return r.U64(&n_); }
};

class SumAcc : public Accumulator {
 public:
  AggKind kind() const override { return AggKind::kSum; }
  void Add(const Value& v) override {
    ++n_;
    if (v.type() == ValueType::kDouble) saw_double_ = true;
    sum_ += v.ToDouble();
    int_sum_ += v.ToInt();
  }
  void Remove(const Value& v) override {
    --n_;
    sum_ -= v.ToDouble();
    int_sum_ -= v.ToInt();
  }
  bool invertible() const override { return true; }
  Value Result() const override {
    if (n_ == 0) return Value::Null();
    return saw_double_ ? Value(sum_) : Value(int_sum_);
  }
  void Reset() override {
    n_ = 0;
    saw_double_ = false;
    sum_ = 0.0;
    int_sum_ = 0;
  }
  void Merge(const Accumulator& other) override {
    const auto& o = static_cast<const SumAcc&>(other);
    n_ += o.n_;
    saw_double_ = saw_double_ || o.saw_double_;
    sum_ += o.sum_;
    int_sum_ += o.int_sum_;
  }
  size_t MemoryBytes() const override { return sizeof(*this); }
  bool SaveState(dur::BufWriter& w) const override {
    w.U64(n_);
    w.U8(saw_double_ ? 1 : 0);
    w.F64(sum_);
    w.I64(int_sum_);
    return true;
  }
  Status LoadState(dur::BufReader& r) override {
    uint8_t b = 0;
    SQP_RETURN_NOT_OK(r.U64(&n_));
    SQP_RETURN_NOT_OK(r.U8(&b));
    saw_double_ = b != 0;
    SQP_RETURN_NOT_OK(r.F64(&sum_));
    return r.I64(&int_sum_);
  }

 private:
  bool saw_double_ = false;
  double sum_ = 0.0;
  int64_t int_sum_ = 0;
};

// NULL (SQL semantics) and NaN (Value::Compare calls it equal to every
// number) have no place in a min/max order, so both forms ignore them;
// input with nothing else yields NULL.
bool Unordered(const Value& v) {
  return v.is_null() ||
         (v.type() == ValueType::kDouble && std::isnan(v.AsDouble()));
}

class MinMaxAcc : public Accumulator {
 public:
  explicit MinMaxAcc(bool is_min) : is_min_(is_min) {}
  AggKind kind() const override {
    return is_min_ ? AggKind::kMin : AggKind::kMax;
  }
  void Add(const Value& v) override {
    ++n_;
    if (Unordered(v)) return;
    if (best_.is_null() || (is_min_ ? v < best_ : v > best_)) best_ = v;
  }
  Value Result() const override { return best_; }
  void Reset() override {
    n_ = 0;
    best_ = Value::Null();
  }
  void Merge(const Accumulator& other) override {
    const auto& o = static_cast<const MinMaxAcc&>(other);
    n_ += o.n_;
    if (!o.best_.is_null() &&
        (best_.is_null() || (is_min_ ? o.best_ < best_ : o.best_ > best_))) {
      best_ = o.best_;
    }
  }
  size_t MemoryBytes() const override {
    return sizeof(*this) + best_.MemoryBytes();
  }
  bool SaveState(dur::BufWriter& w) const override {
    w.U64(n_);
    w.Val(best_);
    return true;
  }
  Status LoadState(dur::BufReader& r) override {
    SQP_RETURN_NOT_OK(r.U64(&n_));
    return r.Val(&best_);
  }

 private:
  bool is_min_;
  Value best_;
};

class AvgAcc : public Accumulator {
 public:
  AggKind kind() const override { return AggKind::kAvg; }
  void Add(const Value& v) override {
    ++n_;
    sum_ += v.ToDouble();
  }
  void Remove(const Value& v) override {
    --n_;
    sum_ -= v.ToDouble();
  }
  bool invertible() const override { return true; }
  Value Result() const override {
    if (n_ == 0) return Value::Null();
    return Value(sum_ / static_cast<double>(n_));
  }
  void Reset() override {
    n_ = 0;
    sum_ = 0.0;
  }
  void Merge(const Accumulator& other) override {
    const auto& o = static_cast<const AvgAcc&>(other);
    n_ += o.n_;
    sum_ += o.sum_;
  }
  size_t MemoryBytes() const override { return sizeof(*this); }
  bool SaveState(dur::BufWriter& w) const override {
    w.U64(n_);
    w.F64(sum_);
    return true;
  }
  Status LoadState(dur::BufReader& r) override {
    SQP_RETURN_NOT_OK(r.U64(&n_));
    return r.F64(&sum_);
  }

 private:
  double sum_ = 0.0;
};

// Sum-of-squares form so Merge and Remove are exact.
class StddevAcc : public Accumulator {
 public:
  AggKind kind() const override { return AggKind::kStddev; }
  void Add(const Value& v) override {
    ++n_;
    double x = v.ToDouble();
    sum_ += x;
    sum_sq_ += x * x;
  }
  void Remove(const Value& v) override {
    --n_;
    double x = v.ToDouble();
    sum_ -= x;
    sum_sq_ -= x * x;
  }
  bool invertible() const override { return true; }
  Value Result() const override {
    if (n_ < 2) return Value(0.0);
    double nd = static_cast<double>(n_);
    double var = (sum_sq_ - sum_ * sum_ / nd) / (nd - 1.0);
    return Value(std::sqrt(std::max(0.0, var)));
  }
  void Reset() override {
    n_ = 0;
    sum_ = 0.0;
    sum_sq_ = 0.0;
  }
  void Merge(const Accumulator& other) override {
    const auto& o = static_cast<const StddevAcc&>(other);
    n_ += o.n_;
    sum_ += o.sum_;
    sum_sq_ += o.sum_sq_;
  }
  size_t MemoryBytes() const override { return sizeof(*this); }
  bool SaveState(dur::BufWriter& w) const override {
    w.U64(n_);
    w.F64(sum_);
    w.F64(sum_sq_);
    return true;
  }
  Status LoadState(dur::BufReader& r) override {
    SQP_RETURN_NOT_OK(r.U64(&n_));
    SQP_RETURN_NOT_OK(r.F64(&sum_));
    return r.F64(&sum_sq_);
  }

 private:
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

// Holistic: buffers everything. This is exactly why [ABB+02] rules
// holistic aggregates out of bounded-memory plans. The buffer is kept in
// arrival order, so Remove evicts the oldest value (the FIFO contract)
// and a sliding window never replays median.
class MedianAcc : public Accumulator {
 public:
  AggKind kind() const override { return AggKind::kMedian; }
  void Add(const Value& v) override {
    ++n_;
    vals_.push_back(v.ToDouble());
  }
  void Remove(const Value& /*v*/) override {
    --n_;
    vals_.pop_front();
  }
  bool invertible() const override { return true; }
  Value Result() const override {
    if (vals_.empty()) return Value::Null();
    std::vector<double> sorted(vals_.begin(), vals_.end());
    std::sort(sorted.begin(), sorted.end());
    size_t m = sorted.size() / 2;
    if (sorted.size() % 2 == 1) return Value(sorted[m]);
    return Value((sorted[m - 1] + sorted[m]) / 2.0);
  }
  void Reset() override {
    n_ = 0;
    vals_.clear();
  }
  void Merge(const Accumulator& other) override {
    const auto& o = static_cast<const MedianAcc&>(other);
    n_ += o.n_;
    for (double v : o.vals_) vals_.push_back(v);
  }
  size_t MemoryBytes() const override {
    return sizeof(*this) + vals_.capacity_bytes();
  }
  bool SaveState(dur::BufWriter& w) const override {
    w.U64(n_);
    w.U32(static_cast<uint32_t>(vals_.size()));
    for (double v : vals_) w.F64(v);
    return true;
  }
  Status LoadState(dur::BufReader& r) override {
    SQP_RETURN_NOT_OK(r.U64(&n_));
    uint32_t count = 0;
    SQP_RETURN_NOT_OK(r.U32(&count));
    if (count != n_) return Status::Internal("median: count mismatch");
    vals_.clear();
    vals_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      double v = 0;
      SQP_RETURN_NOT_OK(r.F64(&v));
      vals_.push_back(v);
    }
    return Status::OK();
  }

 private:
  FifoLog<double> vals_;
};

class CountDistinctAcc : public Accumulator {
 public:
  AggKind kind() const override { return AggKind::kCountDistinct; }
  void Add(const Value& v) override {
    ++n_;
    seen_.insert(v);
  }
  Value Result() const override {
    return Value(static_cast<int64_t>(seen_.size()));
  }
  // A fresh set, not clear(): a cleared set keeps its bucket count, so
  // SaveState would list the same values in another order.
  void Reset() override {
    n_ = 0;
    seen_ = decltype(seen_)();
  }
  void Merge(const Accumulator& other) override {
    const auto& o = static_cast<const CountDistinctAcc&>(other);
    n_ += o.n_;
    seen_.insert(o.seen_.begin(), o.seen_.end());
  }
  size_t MemoryBytes() const override {
    size_t bytes = sizeof(*this);
    for (const Value& v : seen_) bytes += v.MemoryBytes() + 16;
    return bytes;
  }
  bool SaveState(dur::BufWriter& w) const override {
    w.U64(n_);
    w.U32(static_cast<uint32_t>(seen_.size()));
    for (const Value& v : seen_) w.Val(v);
    return true;
  }
  Status LoadState(dur::BufReader& r) override {
    SQP_RETURN_NOT_OK(r.U64(&n_));
    uint32_t count = 0;
    SQP_RETURN_NOT_OK(r.U32(&count));
    seen_.clear();
    for (uint32_t i = 0; i < count; ++i) {
      Value v;
      SQP_RETURN_NOT_OK(r.Val(&v));
      seen_.insert(std::move(v));
    }
    return Status::OK();
  }

 private:
  std::unordered_set<Value, ValueHash> seen_;
};

// --- Sliding forms (NewSlidingAccumulator): Remove evicts the oldest ---

// Base of the forms that exist only for sliding windows. Window operators
// never merge accumulators, and these have no pane or partial form.
class SlidingAccumulator : public Accumulator {
 public:
  bool invertible() const override { return true; }
  void Merge(const Accumulator& /*other*/) override {
    assert(false && "Merge called on a sliding accumulator");
  }
};

// Sliding min/max as a monotonic deque: each candidate is at least as good
// as every later one, so the front is the answer. Add drops the strictly
// worse tail (a value dominated by a newer one can never be the answer
// again) and keeps ties; Remove pops the front when the evicted value is
// it. O(1) amortized per value. NULL and NaN are ignored, as in MinMaxAcc,
// so the candidates are totally ordered and `front() == v` identifies v.
class SlidingMinMaxAcc : public SlidingAccumulator {
 public:
  explicit SlidingMinMaxAcc(bool is_min) : is_min_(is_min) {}
  AggKind kind() const override {
    return is_min_ ? AggKind::kMin : AggKind::kMax;
  }
  void Add(const Value& v) override {
    ++n_;
    if (Unordered(v)) return;
    while (!cands_.empty() &&
           (is_min_ ? cands_.back() > v : cands_.back() < v)) {
      cands_.pop_back();
    }
    cands_.push_back(v);
  }
  void Remove(const Value& v) override {
    --n_;
    if (!Unordered(v) && !cands_.empty() && cands_.front() == v) {
      cands_.pop_front();
    }
  }
  Value Result() const override {
    return cands_.empty() ? Value::Null() : cands_.front();
  }
  void Reset() override {
    n_ = 0;
    cands_.clear();
  }
  size_t MemoryBytes() const override {
    size_t bytes = sizeof(*this) + cands_.capacity_bytes();
    for (const Value& v : cands_) bytes += v.MemoryBytes() - sizeof(Value);
    return bytes;
  }

 private:
  bool is_min_;
  FifoLog<Value> cands_;
};

// Reference counts per distinct value; a value leaves with its last copy.
class SlidingCountDistinctAcc : public SlidingAccumulator {
 public:
  AggKind kind() const override { return AggKind::kCountDistinct; }
  void Add(const Value& v) override {
    ++n_;
    ++refs_[v];
  }
  void Remove(const Value& v) override {
    --n_;
    auto it = refs_.find(v);
    if (it != refs_.end() && --it->second == 0) refs_.erase(it);
  }
  Value Result() const override {
    return Value(static_cast<int64_t>(refs_.size()));
  }
  void Reset() override {
    n_ = 0;
    refs_.clear();
  }
  size_t MemoryBytes() const override {
    size_t bytes = sizeof(*this);
    for (const auto& [v, refs] : refs_) bytes += v.MemoryBytes() + 24;
    return bytes;
  }

 private:
  std::unordered_map<Value, uint64_t, ValueHash> refs_;
};

class SlidingFirstAcc : public SlidingAccumulator {
 public:
  AggKind kind() const override { return AggKind::kFirst; }
  void Add(const Value& v) override {
    ++n_;
    vals_.push_back(v);
  }
  void Remove(const Value& /*v*/) override {
    --n_;
    vals_.pop_front();
  }
  Value Result() const override {
    return vals_.empty() ? Value::Null() : vals_.front();
  }
  void Reset() override {
    n_ = 0;
    vals_.clear();
  }
  size_t MemoryBytes() const override {
    size_t bytes = sizeof(*this) + vals_.capacity_bytes();
    for (const Value& v : vals_) bytes += v.MemoryBytes() - sizeof(Value);
    return bytes;
  }

 private:
  FifoLog<Value> vals_;
};

class FirstLastAcc : public Accumulator {
 public:
  explicit FirstLastAcc(bool is_first) : is_first_(is_first) {}
  AggKind kind() const override {
    return is_first_ ? AggKind::kFirst : AggKind::kLast;
  }
  void Add(const Value& v) override {
    ++n_;
    if (!is_first_ || n_ == 1) val_ = v;
  }
  Value Result() const override { return val_; }
  void Reset() override {
    n_ = 0;
    val_ = Value::Null();
  }
  void Merge(const Accumulator& other) override {
    const auto& o = static_cast<const FirstLastAcc&>(other);
    if (o.n_ == 0) return;
    if (!is_first_ || n_ == 0) val_ = o.val_;
    n_ += o.n_;
  }
  size_t MemoryBytes() const override {
    return sizeof(*this) + val_.MemoryBytes();
  }
  bool SaveState(dur::BufWriter& w) const override {
    w.U64(n_);
    w.Val(val_);
    return true;
  }
  Status LoadState(dur::BufReader& r) override {
    SQP_RETURN_NOT_OK(r.U64(&n_));
    return r.Val(&val_);
  }

 protected:
  bool is_first_;
  Value val_;
};

// The newest value leaves a FIFO window last, so it only changes when the
// window empties.
class SlidingLastAcc : public FirstLastAcc {
 public:
  SlidingLastAcc() : FirstLastAcc(false) {}
  void Remove(const Value& /*v*/) override {
    if (--n_ == 0) val_ = Value::Null();
  }
  bool invertible() const override { return true; }
};

// Hancock's signature update (slide 8): exponentially weighted blend of
// the new observation into the running signature.
class BlendAcc : public Accumulator {
 public:
  explicit BlendAcc(double alpha) : alpha_(alpha) {}
  AggKind kind() const override { return AggKind::kBlend; }
  void Add(const Value& v) override {
    ++n_;
    sig_ = (n_ == 1) ? v.ToDouble() : alpha_ * v.ToDouble() + (1 - alpha_) * sig_;
  }
  Value Result() const override {
    return n_ == 0 ? Value::Null() : Value(sig_);
  }
  void Reset() override {
    n_ = 0;
    sig_ = 0.0;
  }
  void Merge(const Accumulator& other) override {
    const auto& o = static_cast<const BlendAcc&>(other);
    if (o.n_ == 0) return;
    sig_ = (n_ == 0) ? o.sig_ : alpha_ * o.sig_ + (1 - alpha_) * sig_;
    n_ += o.n_;
  }
  size_t MemoryBytes() const override { return sizeof(*this); }
  bool SaveState(dur::BufWriter& w) const override {
    w.U64(n_);
    w.F64(sig_);
    return true;
  }
  Status LoadState(dur::BufReader& r) override {
    SQP_RETURN_NOT_OK(r.U64(&n_));
    return r.F64(&sig_);
  }

 private:
  double alpha_;
  double sig_ = 0.0;
};

// Slide 38: when exact computation would need unbounded storage, use a
// summary structure. GK quantile summary standing in for median.
class ApproxMedianAcc : public Accumulator {
 public:
  explicit ApproxMedianAcc(double eps) : gk_(eps) {}
  AggKind kind() const override { return AggKind::kApproxMedian; }
  void Add(const Value& v) override {
    ++n_;
    gk_.Add(v.ToDouble());
  }
  Value Result() const override {
    return n_ == 0 ? Value::Null() : Value(gk_.Query(0.5));
  }
  void Reset() override {
    n_ = 0;
    gk_.Clear();
  }
  void Merge(const Accumulator& other) override {
    const auto& o = static_cast<const ApproxMedianAcc&>(other);
    n_ += o.n_;
    gk_.Merge(o.gk_);
  }
  size_t MemoryBytes() const override {
    return sizeof(*this) + gk_.MemoryBytes();
  }
  // Every value added is one the summary counts, so n_ is its n.
  bool SaveState(dur::BufWriter& w) const override {
    gk_.Save(w);
    return true;
  }
  Status LoadState(dur::BufReader& r) override {
    SQP_RETURN_NOT_OK(gk_.Restore(r));
    n_ = gk_.n();
    return Status::OK();
  }

 private:
  GkQuantile gk_;
};

// HyperLogLog standing in for count(distinct). Mergeable, so it also
// works under two-level decomposition (unlike the exact version).
class ApproxCountDistinctAcc : public Accumulator {
 public:
  ApproxCountDistinctAcc() : hll_(10) {}
  AggKind kind() const override { return AggKind::kApproxCountDistinct; }
  void Add(const Value& v) override {
    ++n_;
    hll_.Add(v);
  }
  Value Result() const override {
    return Value(static_cast<int64_t>(hll_.Estimate() + 0.5));
  }
  void Reset() override {
    n_ = 0;
    hll_.Clear();
  }
  void Merge(const Accumulator& other) override {
    const auto& o = static_cast<const ApproxCountDistinctAcc&>(other);
    n_ += o.n_;
    hll_.Merge(o.hll_);
  }
  size_t MemoryBytes() const override {
    return sizeof(*this) + hll_.MemoryBytes();
  }
  bool SaveState(dur::BufWriter& w) const override {
    w.U64(n_);
    hll_.Save(w);
    return true;
  }
  Status LoadState(dur::BufReader& r) override {
    uint64_t n = 0;
    SQP_RETURN_NOT_OK(r.U64(&n));
    SQP_RETURN_NOT_OK(hll_.Restore(r));
    n_ = n;
    return Status::OK();
  }

 private:
  HyperLogLog hll_;
};

}  // namespace

Result<AggregateFunction> AggregateFunction::Make(AggKind kind, double param) {
  if (kind == AggKind::kBlend && (param <= 0.0 || param > 1.0)) {
    return Status::InvalidArgument("blend factor must be in (0, 1]");
  }
  return AggregateFunction(kind, param);
}

std::unique_ptr<Accumulator> AggregateFunction::NewAccumulator() const {
  switch (kind_) {
    case AggKind::kCount:
      return std::make_unique<CountAcc>();
    case AggKind::kSum:
      return std::make_unique<SumAcc>();
    case AggKind::kMin:
      return std::make_unique<MinMaxAcc>(true);
    case AggKind::kMax:
      return std::make_unique<MinMaxAcc>(false);
    case AggKind::kAvg:
      return std::make_unique<AvgAcc>();
    case AggKind::kStddev:
      return std::make_unique<StddevAcc>();
    case AggKind::kMedian:
      return std::make_unique<MedianAcc>();
    case AggKind::kCountDistinct:
      return std::make_unique<CountDistinctAcc>();
    case AggKind::kFirst:
      return std::make_unique<FirstLastAcc>(true);
    case AggKind::kLast:
      return std::make_unique<FirstLastAcc>(false);
    case AggKind::kBlend:
      return std::make_unique<BlendAcc>(param_);
    case AggKind::kApproxMedian:
      // `param` doubles as the GK epsilon; the 0.5 factory default maps
      // to a sensible 0.01.
      return std::make_unique<ApproxMedianAcc>(
          param_ > 0.0 && param_ < 0.5 ? param_ : 0.01);
    case AggKind::kApproxCountDistinct:
      return std::make_unique<ApproxCountDistinctAcc>();
  }
  return nullptr;
}

std::unique_ptr<Accumulator> AggregateFunction::NewSlidingAccumulator() const {
  switch (kind_) {
    case AggKind::kMin:
      return std::make_unique<SlidingMinMaxAcc>(true);
    case AggKind::kMax:
      return std::make_unique<SlidingMinMaxAcc>(false);
    case AggKind::kCountDistinct:
      return std::make_unique<SlidingCountDistinctAcc>();
    case AggKind::kFirst:
      return std::make_unique<SlidingFirstAcc>();
    case AggKind::kLast:
      return std::make_unique<SlidingLastAcc>();
    default:
      // count/sum/avg/stddev/median are invertible as they are; blend
      // and the sketches cannot evict and are rebuilt by the window
      // operator.
      return NewAccumulator();
  }
}

}  // namespace sqp
