#ifndef SQP_CQL_PLANNER_H_
#define SQP_CQL_PLANNER_H_

#include <memory>
#include <string>
#include <utility>

#include "cql/analyzer.h"
#include "exec/plan.h"

namespace sqp {
namespace cql {

/// A compiled, runnable continuous query.
///
/// Feed stream elements into `input(0)` (and `input(1)` for joins), then
/// `Finish()`. Attach a sink with `AttachSink` before pushing.
class CompiledQuery {
 public:
  /// Entry operator for stream i.
  Operator* input(int i) const { return inputs_[static_cast<size_t>(i)]; }
  /// Port of `input(i)` that stream i's elements are delivered on.
  int input_port(int i) const { return ports_[static_cast<size_t>(i)]; }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }

  /// Connects the query's output to `sink`.
  void AttachSink(Operator* sink) { root_->SetOutput(sink); }

  /// Pushes one element into input `i` (through the instrumented entry
  /// point so bound plans report metrics/lineage — see Operator::Process).
  void Push(const Element& e, int i = 0) {
    inputs_[static_cast<size_t>(i)]->Process(e,
                                             ports_[static_cast<size_t>(i)]);
  }

  /// Signals end-of-stream on every input.
  void Finish();

  const Schema& output_schema() const { return output_schema_; }
  const MemoryAnalysis& memory() const { return memory_; }
  const AnalyzedQuery& analysis() const { return analysis_; }
  /// Human-readable operator chain ("select -> group-by -> project").
  const std::string& plan_desc() const { return plan_desc_; }
  Plan& plan() { return plan_; }

  /// Patches the query's external edges after a plan rewrite replaced
  /// `from` with `to`: input entry points move (ports preserved) and the
  /// root follows, so Push/AttachSink keep working on the rewritten
  /// plan. Call once per splice (see ShardStatefulOps).
  void ReplaceOperator(Operator* from, Operator* to) {
    for (Operator*& in : inputs_) {
      if (in == from) in = to;
    }
    if (root_ == from) root_ = to;
  }

  /// Splices `op` in front of input `i`: the plan takes ownership, `op`
  /// feeds the old `input(i)` on `input_port(i)`, and `op` becomes input
  /// `i` on port 0 — so Push and Finish reach it first. Call before the
  /// plan is bound or lowered; each call lands in front of the last.
  void PrependInput(int i, std::unique_ptr<Operator> op) {
    const size_t at = static_cast<size_t>(i);
    op->SetOutput(inputs_[at], ports_[at]);
    inputs_[at] = plan_.Add(std::move(op));
    ports_[at] = 0;
  }

 private:
  friend Result<std::unique_ptr<CompiledQuery>> Compile(
      const std::string& text, const Catalog& catalog);

  Plan plan_;
  std::vector<Operator*> inputs_;
  std::vector<int> ports_;
  Operator* root_ = nullptr;
  Schema output_schema_;
  MemoryAnalysis memory_;
  AnalyzedQuery analysis_;
  std::string plan_desc_;
};

/// Parses, analyzes, and lowers a query to a physical operator chain.
Result<std::unique_ptr<CompiledQuery>> Compile(const std::string& text,
                                               const Catalog& catalog);

}  // namespace cql
}  // namespace sqp

#endif  // SQP_CQL_PLANNER_H_
