#include "arch/system.h"

#include "exec/select.h"

namespace sqp {

PartialAggOp::PartialAggOp(size_t slots, std::vector<int> key_cols,
                           std::vector<AggSpec> low_specs, int64_t window_size,
                           std::string name)
    : Operator(std::move(name)),
      window_size_(window_size),
      agg_(std::make_unique<PartialAggregator>(slots, std::move(key_cols),
                                               std::move(low_specs))) {}

const PartialAggStats& PartialAggOp::agg_stats() const {
  return agg_->stats();
}

void PartialAggOp::EmitPartials(std::vector<PartialGroup>* groups) {
  int64_t bucket_start =
      current_bucket_ == INT64_MIN ? 0 : current_bucket_ * window_size_;
  for (PartialGroup& g : *groups) {
    const size_t arity = 1 + g.key.parts.size() + g.accs.size();
    Emit(Element(MakeTuple(bucket_start, arity, [&](std::span<Value> row) {
      row[0] = Value(bucket_start);
      std::ranges::copy(g.key.parts, row.begin() + 1);
      AggSet::WriteResults(g.accs, row.data() + 1 + g.key.parts.size());
    })));
  }
  groups->clear();
}

void PartialAggOp::CloseBucket() {
  std::vector<PartialGroup> flushed;
  agg_->Flush(&flushed);
  EmitPartials(&flushed);
}

void PartialAggOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    if (!e.punctuation().has_key &&
        e.punctuation().ts / window_size_ > current_bucket_) {
      CloseBucket();
    }
    Emit(e);
    return;
  }
  const Tuple& t = *e.tuple();
  int64_t bucket = t.ts() / window_size_;
  if (bucket != current_bucket_) {
    CloseBucket();
    current_bucket_ = bucket;
  }
  std::vector<PartialGroup> evicted;
  agg_->Add(t, &evicted);
  EmitPartials(&evicted);
}

void PartialAggOp::Flush() {
  CloseBucket();
  Operator::Flush();
}

size_t PartialAggOp::StateBytes() const {
  return sizeof(*this) + agg_->MemoryBytes();
}

Result<std::unique_ptr<ThreeLevelSystem>> ThreeLevelSystem::Make(
    SchemaRef input_schema, ThreeLevelConfig config) {
  auto decomposed =
      DecomposeAggregates(config.aggs, static_cast<int>(config.key_cols.size()));
  if (!decomposed.ok()) return decomposed.status();

  auto sys = std::unique_ptr<ThreeLevelSystem>(new ThreeLevelSystem());
  sys->config_ = config;
  size_t nk = config.key_cols.size();

  // --- Low level: optional pushed-down selection, then fixed-slot
  // partial aggregation. ---
  sys->partial_ = sys->plan_.Make<PartialAggOp>(
      config.low_slots, config.key_cols, decomposed->low_specs,
      config.window_size);
  Operator* low_entry = sys->partial_;
  if (config.prefilter != nullptr) {
    low_entry = sys->plan_.Make<SelectOp>(config.prefilter, "low-select");
  }

  // --- High level: exact merge of partials. ---
  GroupByOptions high_opt;
  for (size_t k = 0; k < nk; ++k) {
    high_opt.key_cols.push_back(static_cast<int>(1 + k));
  }
  high_opt.aggs = decomposed->high_specs;
  high_opt.window = WindowSpec::TimeTumbling(config.window_size);
  sys->final_agg_ = sys->plan_.Make<GroupByAggregateOp>(high_opt, "final-agg");

  // Finalizer projection: [ts, keys..., finalized values...].
  std::vector<ExprRef> proj;
  proj.push_back(Col(0));
  for (size_t k = 0; k < nk; ++k) proj.push_back(Col(static_cast<int>(1 + k)));
  for (const ExprRef& f : decomposed->finalizers) proj.push_back(f);
  auto* finalize = sys->plan_.Make<ProjectOp>(proj, "finalize");

  // --- DBMS: stored relation of final per-bucket aggregates. ---
  std::vector<Field> db_fields = {{"ts", ValueType::kInt}};
  for (size_t k = 0; k < nk; ++k) {
    db_fields.push_back(
        input_schema->field(static_cast<size_t>(config.key_cols[k])));
  }
  for (size_t i = 0; i < config.aggs.size(); ++i) {
    db_fields.push_back(
        {std::string(AggKindName(config.aggs[i].kind)) + std::to_string(i),
         ValueType::kDouble});
  }
  auto db_schema = std::make_shared<const Schema>(Schema(std::move(db_fields)));
  sys->db_ = sys->plan_.Make<DbSink>(db_schema);
  finalize->SetOutput(sys->db_);

  // --- Levels with their resource profiles; the bridge forwards the
  // low level's partial tuples into the high level's bounded queue. ---
  auto level = [](Operator* entry, Operator* out, const NodeOptions& opt) {
    return std::make_unique<QueuedExecutor>(
        std::vector<QueuedExecutor::Stage>{
            {.op = entry, .queue_limit = opt.queue_limit}},
        out, MakeFifoPolicy());
  };
  sys->high_ = level(sys->final_agg_, finalize, config.high_node);
  sys->low_to_high_ = std::make_unique<CallbackSink>(
      [high = sys->high_.get()](const Element& e) { high->Arrive(e); });
  sys->partial_->SetOutput(sys->low_to_high_.get());
  // The low level's stage is the partial aggregate, or a pushed-down
  // selection in front of it.
  sys->low_ = level(low_entry,
                    low_entry == sys->partial_ ? sys->low_to_high_.get()
                                               : sys->partial_,
                    config.low_node);

  return sys;
}

bool ThreeLevelSystem::Arrive(const TupleRef& t) {
  return low_->Arrive(Element(t));
}

void ThreeLevelSystem::Tick() {
  low_->Tick(config_.low_node.capacity_per_tick);
  high_->Tick(config_.high_node.capacity_per_tick);
}

void ThreeLevelSystem::Drain() {
  low_->Drain();
  high_->Drain();
}

}  // namespace sqp
