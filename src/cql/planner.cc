#include "cql/planner.h"

#include <algorithm>

#include "cql/parser.h"
#include "exec/aggregate_op.h"
#include "exec/project.h"
#include "exec/select.h"
#include "exec/window_agg.h"
#include "exec/window_join.h"

namespace sqp {
namespace cql {

namespace {

ExprRef AndAll(const std::vector<ExprRef>& conjuncts) {
  ExprRef e;
  for (const ExprRef& c : conjuncts) {
    e = (e == nullptr) ? c : And(e, c);
  }
  return e;
}

/// Lowers an AST expression over the *output layout* of a grouped
/// aggregation [ts, keys..., aggs...]:
///  - aggregate calls map to their agg column,
///  - group-key identifiers map to their key column,
///  - the `ordering/K` window expression maps to ts/K,
///  - constants pass through.
class GroupOutputLowering {
 public:
  GroupOutputLowering(const AnalyzedQuery& aq,
                      const std::vector<std::string>& aliases,
                      const std::vector<SchemaRef>& schemas)
      : aq_(aq), aliases_(aliases), schemas_(schemas) {}

  Result<ExprRef> Lower(const AstExprRef& e) {
    // GROUP BY aliases (`group by ts/60 as tb` ... `select tb`) resolve
    // to their defining expression.
    if (e->kind == AstExpr::Kind::kIdent && e->qualifier.empty()) {
      for (const SelectItem& g : aq_.ast.group_by) {
        if (!g.alias.empty() && g.alias == e->name) {
          return Lower(g.expr);
        }
      }
    }
    switch (e->kind) {
      case AstExpr::Kind::kConst:
        return Lit(e->value);
      case AstExpr::Kind::kCall: {
        if (!ParseAggKind(e->fn).ok()) {
          return Status::Unimplemented(
              "scalar function over aggregate output: " + e->fn);
        }
        std::string text = e->ToString();
        for (size_t i = 0; i < aq_.aggs.size(); ++i) {
          if (aq_.aggs[i].text == text) {
            return Col(static_cast<int>(1 + aq_.group_cols.size() + i));
          }
        }
        return Status::Internal("aggregate not collected: " + text);
      }
      case AstExpr::Kind::kIdent: {
        auto idx = ResolveCombined(e);
        if (!idx.ok()) return idx.status();
        for (size_t k = 0; k < aq_.group_cols.size(); ++k) {
          if (aq_.group_cols[k] == *idx) return Col(static_cast<int>(1 + k));
        }
        return Status::InvalidArgument(
            "column not in GROUP BY: " + e->ToString());
      }
      case AstExpr::Kind::kBinary: {
        // The window expression ordering/K -> ts/K over output ts.
        if (IsTumblingExpr(e)) {
          return Div(Col(0), Lit(aq_.tumbling_size));
        }
        auto l = Lower(e->lhs);
        if (!l.ok()) return l;
        auto r = Lower(e->rhs);
        if (!r.ok()) return r;
        return Bin(e->op, std::move(*l), std::move(*r));
      }
      case AstExpr::Kind::kNot: {
        auto c = Lower(e->child);
        if (!c.ok()) return c;
        return Not(std::move(*c));
      }
      case AstExpr::Kind::kStar:
        return Status::InvalidArgument("'*' outside count(*)");
    }
    return Status::Internal("unhandled AST node");
  }

  bool IsTumblingExpr(const AstExprRef& e) const {
    if (aq_.tumbling_size <= 0) return false;
    if (e->kind != AstExpr::Kind::kBinary || e->op != BinOp::kDiv) return false;
    if (e->lhs->kind != AstExpr::Kind::kIdent ||
        e->rhs->kind != AstExpr::Kind::kConst) {
      return false;
    }
    return e->rhs->value.type() == ValueType::kInt &&
           e->rhs->value.AsInt() == aq_.tumbling_size;
  }

 private:
  Result<int> ResolveCombined(const AstExprRef& e) {
    auto lowered = LowerExpr(e, aliases_, schemas_, aq_.stream_offset);
    if (!lowered.ok()) return lowered.status();
    // Ask the lowered expression for its ordinal directly; the old
    // ToString round-trip ("$i" + std::stoi) could throw out of a
    // network-reachable path instead of returning a plan error.
    if ((*lowered)->kind() != ExprKind::kColumn) {
      return Status::Internal("expected column expression");
    }
    return (*lowered)->column_index();
  }

  const AnalyzedQuery& aq_;
  const std::vector<std::string>& aliases_;
  const std::vector<SchemaRef>& schemas_;
};

std::string DeriveName(const SelectItem& item, size_t i) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == AstExpr::Kind::kIdent) return item.expr->name;
  if (item.expr->kind == AstExpr::Kind::kCall) return item.expr->fn;
  return "f" + std::to_string(i);
}

}  // namespace

void CompiledQuery::Finish() {
  // One flush per input port: binary operators (joins) forward a single
  // downstream flush only after hearing from both ports.
  for (Operator* in : inputs_) in->Flush();
}

Result<std::unique_ptr<CompiledQuery>> Compile(const std::string& text,
                                               const Catalog& catalog) {
  auto parsed = Parse(text);
  if (!parsed.ok()) return parsed.status();
  auto analyzed = Analyze(*parsed, catalog);
  if (!analyzed.ok()) return analyzed.status();
  AnalyzedQuery& aq = *analyzed;
  const Query& q = aq.ast;

  std::vector<std::string> aliases;
  std::vector<SchemaRef> schemas;
  for (size_t i = 0; i < q.from.size(); ++i) {
    aliases.push_back(q.from[i].alias);
    schemas.push_back(aq.entries[i]->schema);
  }

  auto cq = std::make_unique<CompiledQuery>();
  cq->memory_ = aq.memory;
  std::string desc;

  // --- Input side: per-stream filters, then (maybe) the join. ---
  Operator* combined_head = nullptr;  // First op seeing the combined layout.

  if (aq.num_streams == 1) {
    ExprRef filter = AndAll(aq.left_only);
    if (filter != nullptr) {
      SelectOp* sel = cq->plan_.Make<SelectOp>(filter);
      cq->inputs_.push_back(sel);
      cq->ports_.push_back(0);
      combined_head = sel;
      desc += "select -> ";
    }
  } else {
    // Pre-filters push selection below the join (classic pushdown).
    Operator* pre[2] = {nullptr, nullptr};
    ExprRef lf = AndAll(aq.left_only);
    ExprRef rf = AndAll(aq.right_only);
    if (lf != nullptr) pre[0] = cq->plan_.Make<SelectOp>(lf, "select-left");
    if (rf != nullptr) pre[1] = cq->plan_.Make<SelectOp>(rf, "select-right");

    bool w0 = q.from[0].window.has_value();
    bool w1 = q.from[1].window.has_value();
    if (w0 != w1) {
      return Status::InvalidArgument(
          "either both join inputs must be windowed or neither");
    }
    // Join columns: left side indexes are combined (= stream-0 local).
    // Unwindowed inputs join over landmark windows that never expire:
    // the symmetric hash join [WA91].
    auto opt = BinaryWindowJoinOp::Options::Unwindowed(aq.join_left_cols,
                                                       aq.join_right_cols);
    if (w0) {
      opt.left_window = *q.from[0].window;
      opt.right_window = *q.from[1].window;
    }
    Operator* join = cq->plan_.Make<BinaryWindowJoinOp>(opt);
    desc += w0 ? "window-join -> " : "window-join[landmark] -> ";
    for (int s = 0; s < 2; ++s) {
      if (pre[s] != nullptr) {
        pre[s]->SetOutput(join, s);
        cq->inputs_.push_back(pre[s]);
        cq->ports_.push_back(0);
      } else {
        cq->inputs_.push_back(join);
        cq->ports_.push_back(s);
      }
    }
    combined_head = join;
    ExprRef residual = AndAll(aq.residual);
    if (residual != nullptr) {
      SelectOp* post = cq->plan_.Make<SelectOp>(residual, "select-residual");
      join->SetOutput(post);
      combined_head = post;
      desc += "select -> ";
    }
  }

  // Helper to append an operator to the current chain tail.
  Operator* tail = combined_head;
  auto append = [&](Operator* op) {
    if (tail != nullptr) {
      tail->SetOutput(op);
    } else {
      cq->inputs_.push_back(op);
      cq->ports_.push_back(0);
    }
    tail = op;
  };

  // --- Aggregation / projection tail. ---
  if (aq.has_aggregates || aq.has_group_by) {
    if (aq.num_streams == 1 && aq.has_group_by &&
        !q.from[0].partition_by.empty()) {
      return Status::Unimplemented(
          "combining GROUP BY with a [partition by ...] window is not "
          "supported; partitioned windows already group per key");
    }
    const StreamRef& from = q.from[0];
    const bool windowed = aq.num_streams == 1 && !aq.has_group_by &&
                          from.window.has_value();
    std::vector<Field> out_fields;
    if (windowed) {
      // Sliding aggregate over the stream's [RANGE/ROWS] window, or per
      // key over `[partition by K rows N]`.
      int key_col = -1;
      if (!from.partition_by.empty()) {
        key_col = schemas[0]->FieldIndex(from.partition_by);
        if (key_col < 0) {
          return Status::NotFound("unknown partition column: " +
                                  from.partition_by);
        }
      }
      std::vector<AggSpec> specs;
      for (const ResolvedAgg& a : aq.aggs) specs.push_back(a.spec);

      // Full row: [ts, partition key (when partitioned), aggs...].
      std::vector<Field> row_fields = {{"ts", ValueType::kInt}};
      if (key_col >= 0) {
        row_fields.push_back(schemas[0]->field(static_cast<size_t>(key_col)));
      }
      const int first_agg = static_cast<int>(row_fields.size());
      SQP_RETURN_NOT_OK(AggSet::AppendFields(specs, aq.combined, &row_fields));

      // Every SELECT item is a plain ordinal of that row, so the
      // aggregate emits the final row itself and needs no project.
      std::vector<int> out_cols;
      for (size_t i = 0; i < q.select.size(); ++i) {
        const SelectItem& item = q.select[i];
        const AstExpr& x = *item.expr;
        int col = -1;
        if (key_col >= 0 && x.kind == AstExpr::Kind::kIdent &&
            x.name == from.partition_by) {
          col = 1;
        } else if (x.kind == AstExpr::Kind::kIdent &&
                   schemas[0]->has_ordering() &&
                   schemas[0]->FieldIndex(x.name) ==
                       schemas[0]->ordering_index()) {
          col = 0;
        } else if (x.kind == AstExpr::Kind::kCall) {
          std::string text = x.ToString();
          size_t a = 0;
          while (a < aq.aggs.size() && aq.aggs[a].text != text) ++a;
          if (a == aq.aggs.size()) {
            return Status::Internal("aggregate not found: " + text);
          }
          col = first_agg + static_cast<int>(a);
        } else {
          return Status::Unimplemented(
              "windowed aggregate SELECT items must be aggregates, the "
              "ordering attribute, or the partition column");
        }
        out_cols.push_back(col);
        out_fields.push_back({DeriveName(item, i),
                              row_fields[static_cast<size_t>(col)].type});
      }
      const char* op_name =
          key_col < 0 ? "window-agg" : "partitioned-window-agg";
      append(cq->plan_.Make<WindowAggregateOp>(*from.window, specs, op_name,
                                               key_col, std::move(out_cols)));
      desc += op_name;
    } else {
      GroupOutputLowering lower(aq, aliases, schemas);
      GroupByOptions opt;
      opt.key_cols = aq.group_cols;
      for (const ResolvedAgg& a : aq.aggs) opt.aggs.push_back(a.spec);
      opt.window = aq.tumbling_size > 0
                       ? WindowSpec::TimeTumbling(aq.tumbling_size)
                       : WindowSpec::Landmark();
      if (q.having != nullptr) {
        auto h = lower.Lower(q.having);
        if (!h.ok()) return h.status();
        opt.having = std::move(*h);
      }
      auto mid = GroupByAggregateOp::OutputSchema(aq.combined, opt);
      if (!mid.ok()) return mid.status();
      auto* gb = cq->plan_.Make<GroupByAggregateOp>(opt);
      append(gb);
      desc += "group-by -> ";

      std::vector<ExprRef> post;
      for (size_t i = 0; i < q.select.size(); ++i) {
        const SelectItem& item = q.select[i];
        auto e = lower.Lower(item.expr);
        if (!e.ok()) return e.status();
        auto t = (*e)->Check(*mid);
        if (!t.ok()) return t.status();
        out_fields.push_back({DeriveName(item, i), *t});
        post.push_back(std::move(*e));
      }
      append(cq->plan_.Make<ProjectOp>(post, "project-out"));
      desc += "project";
    }
    cq->output_schema_ = Schema(std::move(out_fields));
  } else if (q.distinct) {
    std::vector<int> cols;
    std::vector<Field> out_fields;
    for (const SelectItem& item : q.select) {
      if (item.expr->kind != AstExpr::Kind::kIdent) {
        return Status::Unimplemented(
            "SELECT DISTINCT supports plain columns only");
      }
      auto e = LowerExpr(item.expr, aliases, schemas, aq.stream_offset);
      if (!e.ok()) return e.status();
      if ((*e)->kind() != ExprKind::kColumn) {
        return Status::Internal("expected column expression");
      }
      int idx = (*e)->column_index();
      cols.push_back(idx);
      Field f = aq.combined.field(static_cast<size_t>(idx));
      if (!item.alias.empty()) f.name = item.alias;
      out_fields.push_back(f);
    }
    // Reset the seen-set per stream window when one is declared.
    int64_t window = 0;
    if (aq.num_streams == 1 && q.from[0].window.has_value() &&
        q.from[0].window->kind == WindowKind::kTimeSliding) {
      window = q.from[0].window->size;
    }
    auto* distinct = cq->plan_.Make<DistinctOp>(cols, window);
    append(distinct);
    desc += "distinct";
    cq->output_schema_ = Schema(std::move(out_fields));
  } else {
    std::vector<ExprRef> exprs;
    std::vector<std::string> names;
    for (size_t i = 0; i < q.select.size(); ++i) {
      auto e = LowerExpr(q.select[i].expr, aliases, schemas, aq.stream_offset);
      if (!e.ok()) return e.status();
      exprs.push_back(std::move(*e));
      names.push_back(DeriveName(q.select[i], i));
    }
    auto out_schema = ProjectOp::OutputSchema(aq.combined, exprs, names);
    if (!out_schema.ok()) return out_schema.status();
    auto* proj = cq->plan_.Make<ProjectOp>(exprs, "project-out");
    append(proj);
    desc += "project";
    cq->output_schema_ = *out_schema;
  }

  cq->root_ = tail;
  cq->analysis_ = std::move(aq);
  cq->plan_desc_ = desc;
  return cq;
}

}  // namespace cql
}  // namespace sqp
