#include "engine/plan.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/string_util.h"
#include "engine/function_registry.h"

namespace mip::engine {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kIndexScan:
      return "IndexScan";
    case PlanKind::kRemoteScan:
      return "RemoteScan";
    case PlanKind::kMergeUnion:
      return "MergeUnion";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
  }
  return "?";
}

PlanPtr MakePlanNode(PlanKind kind) {
  auto node = std::make_shared<PlanNode>();
  node->kind = kind;
  return node;
}

ExprPtr CloneExpr(const Expr& e) {
  auto out = std::make_shared<Expr>(e);
  out->args.clear();
  for (const auto& a : e.args) out->args.push_back(CloneExpr(*a));
  return out;
}

std::string UniquifyName(std::string name, std::set<std::string>* used) {
  while (used->count(ToLower(name)) > 0) name += "_";
  used->insert(ToLower(name));
  return name;
}

// --- SQL lowering ----------------------------------------------------------

namespace {

std::string DoubleToSql(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  std::string s = buf;
  // An integral double must stay a float token or it would reparse as a
  // bigint literal.
  if (s.find_first_of(".eEnN") == std::string::npos) s += ".0";
  return s;
}

std::string LowerValueToSql(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return "NULL";
    case Value::Kind::kBool:
      return v.bool_value() ? "true" : "false";
    case Value::Kind::kInt:
      return std::to_string(v.int_value());
    case Value::Kind::kDouble:
      return DoubleToSql(v.double_value());
    case Value::Kind::kString: {
      std::string out = "'";
      for (char c : v.string_value()) {
        if (c == '\'') out += "''";
        else out.push_back(c);
      }
      return out + "'";
    }
  }
  return "NULL";
}

}  // namespace

bool IsSqlIdentifier(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  // Words the parser treats as syntax when they appear bare.
  static const char* kReserved[] = {
      "select", "distinct", "from",  "where",    "group", "by",     "having",
      "order",  "limit",    "asc",   "desc",     "join",  "left",   "inner",
      "outer",  "on",       "as",    "and",      "or",    "not",    "between",
      "in",     "is",       "like",  "case",     "when",  "then",   "else",
      "end",    "null",     "true",  "false",    "cast",  "create", "insert",
      "drop",   "table",    "merge", "remote",   "into",  "values",
  };
  const std::string lower = ToLower(name);
  for (const char* kw : kReserved) {
    if (lower == kw) return false;
  }
  return true;
}

std::string LowerExprToSql(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return LowerValueToSql(e.literal);
    case ExprKind::kColumnRef:
      return ToLower(e.column_name);
    case ExprKind::kUnary:
      switch (e.unary_op) {
        case UnaryOp::kNeg:
          return "(-" + LowerExprToSql(*e.args[0]) + ")";
        case UnaryOp::kNot:
          return "(not " + LowerExprToSql(*e.args[0]) + ")";
        case UnaryOp::kIsNull:
          return "(" + LowerExprToSql(*e.args[0]) + " is null)";
        case UnaryOp::kIsNotNull:
          return "(" + LowerExprToSql(*e.args[0]) + " is not null)";
      }
      return "?";
    case ExprKind::kBinary:
      return "(" + LowerExprToSql(*e.args[0]) + " " +
             BinaryOpName(e.binary_op) + " " + LowerExprToSql(*e.args[1]) +
             ")";
    case ExprKind::kCall: {
      std::string s = ToLower(e.func_name) + "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) s += ", ";
        s += LowerExprToSql(*e.args[i]);
      }
      return s + ")";
    }
    case ExprKind::kAggregate:
      if (e.agg == AggFunc::kCountStar) return "count(*)";
      if (e.agg == AggFunc::kCountDistinct) {
        return "count(distinct " + LowerExprToSql(*e.args[0]) + ")";
      }
      return std::string(AggFuncName(e.agg)) + "(" +
             LowerExprToSql(*e.args[0]) + ")";
    case ExprKind::kStar:
      return "*";
    case ExprKind::kCase: {
      std::string s = "case";
      size_t i = 0;
      for (; i + 1 < e.args.size(); i += 2) {
        s += " when " + LowerExprToSql(*e.args[i]) + " then " +
             LowerExprToSql(*e.args[i + 1]);
      }
      if (i < e.args.size()) s += " else " + LowerExprToSql(*e.args[i]);
      return s + " end";
    }
  }
  return "?";
}

bool IsRemotelyEvaluable(const Expr& e) {
  for (const auto& a : e.args) {
    if (!IsRemotelyEvaluable(*a)) return false;
  }
  switch (e.kind) {
    case ExprKind::kLiteral:
      if (e.literal.kind() == Value::Kind::kDouble &&
          !std::isfinite(e.literal.double_value())) {
        return false;  // inf/nan have no SQL literal form
      }
      return true;
    case ExprKind::kColumnRef:
      return IsSqlIdentifier(e.column_name);
    case ExprKind::kUnary:
    case ExprKind::kBinary:
    case ExprKind::kCase:
      return true;
    case ExprKind::kCall:
      // UDFs are registered per-database; only built-ins are guaranteed to
      // exist (and agree) on the remote node.
      return IsBuiltinScalarFunction(ToLower(e.func_name));
    case ExprKind::kAggregate:
    case ExprKind::kStar:
      return false;
  }
  return false;
}

// --- Planner ---------------------------------------------------------------

namespace {

std::string DefaultItemName(const SelectItem& item, size_t ordinal) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column_name;
  if (item.expr->kind == ExprKind::kAggregate) {
    if (item.expr->agg == AggFunc::kCountStar) return "count";
    std::string base = AggFuncName(item.expr->agg);
    if (!item.expr->args.empty() &&
        item.expr->args[0]->kind == ExprKind::kColumnRef) {
      return base + "_" + ToLower(item.expr->args[0]->column_name);
    }
    return base;
  }
  return "expr" + std::to_string(ordinal);
}

/// Replaces every aggregate node in `expr` with a column reference to a
/// hidden aggregate output, appending the extracted AggregateSpec to `specs`.
/// Identical aggregates (by text) are extracted once.
ExprPtr ExtractAggregates(const Expr& expr,
                          std::vector<AggregateSpec>* specs,
                          std::map<std::string, std::string>* seen) {
  if (expr.kind == ExprKind::kAggregate) {
    const std::string text = expr.ToString();
    auto it = seen->find(text);
    if (it != seen->end()) return Col(it->second);
    const std::string name = "__agg" + std::to_string(specs->size());
    AggregateSpec spec;
    spec.func = expr.agg;
    spec.arg = expr.args.empty() ? nullptr : CloneExpr(*expr.args[0]);
    spec.output_name = name;
    specs->push_back(std::move(spec));
    seen->emplace(text, name);
    return Col(name);
  }
  auto out = std::make_shared<Expr>(expr);
  out->args.clear();
  for (const auto& a : expr.args) {
    out->args.push_back(ExtractAggregates(*a, specs, seen));
  }
  return out;
}

/// The decomposed shape of an aggregate query: grouping keys, extracted
/// aggregate specs, the rewritten select items / HAVING over hidden
/// __key*/__agg* columns. Built unbound; the executor binds against the
/// actual input schema.
struct AggregatePlan {
  std::vector<ExprPtr> key_exprs;  // unbound clones of GROUP BY expressions
  std::vector<std::string> key_names;
  std::vector<std::string> key_texts;
  std::vector<AggregateSpec> specs;  // args unbound
  struct OutputItem {
    ExprPtr rewritten;  // references __key*/__agg* columns
    std::string name;
  };
  std::vector<OutputItem> out_items;
  ExprPtr having_rewritten;
};

Result<AggregatePlan> BuildAggregatePlan(const SelectStmt& stmt) {
  AggregatePlan plan;
  for (size_t i = 0; i < stmt.group_by.size(); ++i) {
    plan.key_exprs.push_back(CloneExpr(*stmt.group_by[i]));
    plan.key_names.push_back("__key" + std::to_string(i));
    plan.key_texts.push_back(stmt.group_by[i]->ToString());
  }
  std::map<std::string, std::string> seen;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.star) {
      return Status::InvalidArgument("'*' not allowed with GROUP BY");
    }
    AggregatePlan::OutputItem out;
    out.name = DefaultItemName(item, i);
    const std::string text = item.expr->ToString();
    int key_idx = -1;
    for (size_t k = 0; k < plan.key_texts.size(); ++k) {
      if (plan.key_texts[k] == text) {
        key_idx = static_cast<int>(k);
        break;
      }
    }
    if (key_idx >= 0) {
      out.rewritten = Col(plan.key_names[static_cast<size_t>(key_idx)]);
    } else {
      if (!item.expr->ContainsAggregate()) {
        return Status::InvalidArgument(
            "select item '" + text +
            "' is neither an aggregate nor a GROUP BY key");
      }
      out.rewritten = ExtractAggregates(*item.expr, &plan.specs, &seen);
    }
    plan.out_items.push_back(std::move(out));
  }
  if (stmt.having != nullptr) {
    plan.having_rewritten =
        ExtractAggregates(*stmt.having, &plan.specs, &seen);
  }
  return plan;
}

Result<PlanPtr> PlanNamedSource(const std::string& name,
                                const PlanCatalog& catalog) {
  MIP_ASSIGN_OR_RETURN(PlanCatalog::TableInfo info, catalog.Describe(name));
  switch (info.kind) {
    case PlanCatalog::TableKind::kBase: {
      auto node = MakePlanNode(PlanKind::kScan);
      node->table_name = name;
      return node;
    }
    case PlanCatalog::TableKind::kDisk: {
      auto node = MakePlanNode(PlanKind::kScan);
      node->table_name = name;
      node->disk = true;
      return node;
    }
    case PlanCatalog::TableKind::kRemote: {
      auto node = MakePlanNode(PlanKind::kRemoteScan);
      node->table_name = name;
      node->location = info.location;
      node->remote_name = info.remote_name;
      return node;
    }
    case PlanCatalog::TableKind::kMerge: {
      auto node = MakePlanNode(PlanKind::kMergeUnion);
      node->table_name = name;
      for (const std::string& part : info.parts) {
        MIP_ASSIGN_OR_RETURN(PlanPtr child, PlanNamedSource(part, catalog));
        node->children.push_back(std::move(child));
      }
      return node;
    }
  }
  return Status::Internal("bad table kind");
}

Result<PlanPtr> PlanSource(const TableRef& ref, const PlanCatalog& catalog) {
  switch (ref.kind) {
    case TableRef::Kind::kNamed:
      return PlanNamedSource(ref.name, catalog);
    case TableRef::Kind::kFunction: {
      // Table functions are materialized once at plan time — the same
      // single invocation the interpreter performed — which also yields
      // their schema for free.
      MIP_ASSIGN_OR_RETURN(Table t,
                           catalog.RunTableFunction(ref.func_name,
                                                    ref.func_args));
      auto node = MakePlanNode(PlanKind::kScan);
      node->func_name = ref.func_name;
      node->func_args = ref.func_args;
      node->prebound = std::make_shared<Table>(std::move(t));
      return node;
    }
    case TableRef::Kind::kJoin: {
      auto node = MakePlanNode(PlanKind::kJoin);
      MIP_ASSIGN_OR_RETURN(PlanPtr left, PlanSource(*ref.left, catalog));
      MIP_ASSIGN_OR_RETURN(PlanPtr right, PlanSource(*ref.right, catalog));
      node->children = {std::move(left), std::move(right)};
      node->left_key = ref.left_key;
      node->right_key = ref.right_key;
      node->join_type = ref.join_type;
      return node;
    }
  }
  return Status::Internal("bad table ref kind");
}

PlanPtr WrapSortLimit(PlanPtr root, const SelectStmt& stmt, bool add_sort) {
  if (add_sort && !stmt.order_by.empty()) {
    auto sort = MakePlanNode(PlanKind::kSort);
    for (const OrderItem& o : stmt.order_by) {
      sort->sort_keys.push_back(o.column);
      sort->sort_ascending.push_back(o.ascending);
    }
    sort->children = {std::move(root)};
    root = std::move(sort);
  }
  if (stmt.limit >= 0) {
    auto limit = MakePlanNode(PlanKind::kLimit);
    limit->limit = stmt.limit;
    limit->children = {std::move(root)};
    root = std::move(limit);
  }
  return root;
}

}  // namespace

Result<PlanPtr> PlanSelect(const SelectStmt& stmt,
                           const PlanCatalog& catalog) {
  bool has_aggregate = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    if (!item.star && item.expr->ContainsAggregate()) has_aggregate = true;
  }

  if (has_aggregate) {
    // Shape error checks (star with GROUP BY, non-key non-aggregate items)
    // come before source resolution, as in the interpreter.
    MIP_ASSIGN_OR_RETURN(AggregatePlan agg_plan, BuildAggregatePlan(stmt));
    MIP_ASSIGN_OR_RETURN(PlanPtr root, PlanSource(*stmt.from, catalog));
    if (stmt.where != nullptr) {
      auto filter = MakePlanNode(PlanKind::kFilter);
      filter->predicate = CloneExpr(*stmt.where);
      filter->children = {std::move(root)};
      root = std::move(filter);
    }
    auto agg = MakePlanNode(PlanKind::kAggregate);
    agg->keys = std::move(agg_plan.key_exprs);
    agg->key_names = std::move(agg_plan.key_names);
    agg->aggs = std::move(agg_plan.specs);
    agg->children = {std::move(root)};
    root = std::move(agg);
    if (agg_plan.having_rewritten != nullptr) {
      auto having = MakePlanNode(PlanKind::kFilter);
      having->predicate = std::move(agg_plan.having_rewritten);
      having->children = {std::move(root)};
      root = std::move(having);
    }
    auto proj = MakePlanNode(PlanKind::kProject);
    std::set<std::string> used;
    for (AggregatePlan::OutputItem& item : agg_plan.out_items) {
      proj->exprs.push_back(std::move(item.rewritten));
      proj->names.push_back(UniquifyName(item.name, &used));
    }
    proj->children = {std::move(root)};
    root = std::move(proj);
    if (stmt.distinct) {
      auto distinct = MakePlanNode(PlanKind::kDistinct);
      distinct->children = {std::move(root)};
      root = std::move(distinct);
    }
    return WrapSortLimit(std::move(root), stmt, /*add_sort=*/true);
  }

  // --- Non-aggregate shape -------------------------------------------------
  MIP_ASSIGN_OR_RETURN(PlanPtr root, PlanSource(*stmt.from, catalog));
  if (stmt.where != nullptr) {
    auto filter = MakePlanNode(PlanKind::kFilter);
    filter->predicate = CloneExpr(*stmt.where);
    filter->children = {std::move(root)};
    root = std::move(filter);
  }

  // ORDER BY may reference input columns that are not projected (standard
  // SQL): when every key resolves in the input schema, sort before
  // projecting; otherwise sort the projected output.
  bool sort_before_projection = false;
  if (!stmt.order_by.empty()) {
    MIP_ASSIGN_OR_RETURN(Schema input, InferPlanSchema(*root, catalog));
    bool all_in_input = true;
    for (const OrderItem& o : stmt.order_by) {
      if (input.FieldIndex(o.column) < 0) all_in_input = false;
    }
    if (all_in_input) {
      auto sort = MakePlanNode(PlanKind::kSort);
      for (const OrderItem& o : stmt.order_by) {
        sort->sort_keys.push_back(o.column);
        sort->sort_ascending.push_back(o.ascending);
      }
      sort->children = {std::move(root)};
      root = std::move(sort);
      sort_before_projection = true;
    }
  }

  auto proj = MakePlanNode(PlanKind::kProject);
  for (const SelectItem& item : stmt.items) {
    SelectItem copy;
    copy.star = item.star;
    copy.alias = item.alias;
    if (!item.star) copy.expr = CloneExpr(*item.expr);
    proj->items.push_back(std::move(copy));
  }
  proj->children = {std::move(root)};
  root = std::move(proj);
  if (stmt.distinct) {
    auto distinct = MakePlanNode(PlanKind::kDistinct);
    distinct->children = {std::move(root)};
    root = std::move(distinct);
  }
  return WrapSortLimit(std::move(root), stmt,
                       /*add_sort=*/!sort_before_projection);
}

// --- Schema inference ------------------------------------------------------

namespace {

Result<Schema> SubsetSchema(const Schema& schema,
                            const std::vector<std::string>& columns) {
  if (columns.empty()) return schema;
  Schema out;
  for (const std::string& name : columns) {
    const int idx = schema.FieldIndex(name);
    if (idx < 0) {
      return Status::NotFound("pruned column '" + name +
                              "' missing from schema " + schema.ToString());
    }
    MIP_RETURN_NOT_OK(out.AddField(schema.field(static_cast<size_t>(idx))));
  }
  return out;
}

}  // namespace

Result<Schema> InferPlanSchema(const PlanNode& node,
                               const PlanCatalog& catalog) {
  switch (node.kind) {
    case PlanKind::kScan:
    case PlanKind::kIndexScan: {
      Schema schema;
      if (node.prebound != nullptr) {
        schema = node.prebound->schema();
      } else {
        MIP_ASSIGN_OR_RETURN(schema, catalog.TableSchema(node.table_name));
      }
      return SubsetSchema(schema, node.columns);
    }
    case PlanKind::kRemoteScan: {
      if (!node.sql_override.empty()) {
        return Status::NotImplemented(
            "no schema inference for sql-override remote scans");
      }
      MIP_ASSIGN_OR_RETURN(Schema schema,
                           catalog.TableSchema(node.table_name));
      return SubsetSchema(schema, node.columns);
    }
    case PlanKind::kMergeUnion:
      if (node.children.empty()) {
        return Status::InvalidArgument("merge table '" + node.table_name +
                                       "' has no parts");
      }
      return InferPlanSchema(*node.children[0], catalog);
    case PlanKind::kJoin: {
      MIP_ASSIGN_OR_RETURN(Schema left,
                           InferPlanSchema(*node.children[0], catalog));
      MIP_ASSIGN_OR_RETURN(Schema right,
                           InferPlanSchema(*node.children[1], catalog));
      // Mirrors HashJoin's output schema: left fields, then right fields
      // with a "_r" suffix on name collisions.
      Schema out = left;
      for (const Field& f : right.fields()) {
        Field field = f;
        if (out.FieldIndex(field.name) >= 0) field.name += "_r";
        MIP_RETURN_NOT_OK(out.AddField(std::move(field)));
      }
      return out;
    }
    case PlanKind::kFilter:
    case PlanKind::kDistinct:
    case PlanKind::kSort:
    case PlanKind::kLimit:
      return InferPlanSchema(*node.children[0], catalog);
    case PlanKind::kProject:
    case PlanKind::kAggregate:
      // Output types would need full binding; nothing in the planner or
      // optimizer looks above these nodes.
      return Status::NotImplemented(
          "schema inference stops below projections/aggregates");
  }
  return Status::Internal("bad plan node kind");
}

// --- EXPLAIN rendering -----------------------------------------------------

namespace {

std::string JoinStrings(const std::vector<std::string>& parts) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ", ";
    out += parts[i];
  }
  return out;
}

std::string AggSpecText(const AggregateSpec& spec) {
  std::string text;
  switch (spec.func) {
    case AggFunc::kCountStar:
      text = "count(*)";
      break;
    case AggFunc::kCountDistinct:
      text = "count(distinct " + spec.arg->ToString() + ")";
      break;
    default:
      text = std::string(AggFuncName(spec.func)) + "(" +
             spec.arg->ToString() + ")";
      break;
  }
  return text + " AS " + spec.output_name;
}

/// `canonical` is the PlanFingerprint rendering: physical-only annotations
/// (segment/index stats) are omitted and IndexScan prints as Scan, so cache
/// keys survive flushes, compactions, and access-path flips — none of which
/// change results (see PlanFingerprint in plan.h).
void RenderNode(const PlanNode& node, int depth, bool canonical,
                std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  std::string line = canonical && node.kind == PlanKind::kIndexScan
                         ? PlanKindName(PlanKind::kScan)
                         : PlanKindName(node.kind);
  switch (node.kind) {
    case PlanKind::kScan:
    case PlanKind::kIndexScan: {
      if (node.prebound != nullptr) {
        std::vector<std::string> args;
        for (const Value& v : node.func_args) args.push_back(v.ToSqlString());
        line += " " + node.func_name + "(" + JoinStrings(args) + ")";
      } else {
        line += " " + node.table_name;
      }
      if (node.disk) line += " disk";
      if (!node.columns.empty()) {
        line += " cols=[" + JoinStrings(node.columns) + "]";
      }
      if (node.scan_limit >= 0) {
        line += " limit=" + std::to_string(node.scan_limit);
      }
      if (node.prune_filter != nullptr) {
        line += " prune=" + node.prune_filter->ToString();
      }
      if (!canonical && node.seg_total >= 0) {
        const int64_t pruned = node.seg_pruned < 0 ? 0 : node.seg_pruned;
        line += " segments: scanned=" + std::to_string(node.seg_total - pruned) +
                " pruned=" + std::to_string(pruned) +
                " total=" + std::to_string(node.seg_total);
      }
      if (!canonical && node.idx_probes >= 0) {
        line += " index: probes=" + std::to_string(node.idx_probes) +
                " rows=" + std::to_string(node.idx_rows < 0 ? 0 : node.idx_rows);
      }
      break;
    }
    case PlanKind::kRemoteScan: {
      line += " " + node.table_name + " on " + node.location +
              " remote=" + node.remote_name;
      if (!node.sql_override.empty()) {
        line += " sql=[" + node.sql_override + "]";
        break;
      }
      if (!node.columns.empty()) {
        line += " cols=[" + JoinStrings(node.columns) + "]";
      }
      if (node.remote_filter != nullptr) {
        line += " filter=" + node.remote_filter->ToString();
      }
      if (node.scan_limit >= 0) {
        line += " limit=" + std::to_string(node.scan_limit);
      }
      break;
    }
    case PlanKind::kMergeUnion:
      line += " " + node.table_name;
      break;
    case PlanKind::kJoin: {
      line += node.join_type == JoinType::kLeft ? " LEFT" : " INNER";
      line += " on " + node.left_key + " = " + node.right_key;
      // Strategy and cost annotations are physical: the same bytes come
      // back under either strategy, so the canonical (fingerprint)
      // rendering omits them — a cost-model flip must not fracture the
      // gateway result cache.
      if (!canonical && node.strategy == JoinStrategy::kBroadcast) {
        line += " strategy=broadcast";
      }
      char buf[96];
      if (!canonical && node.est_left_rows >= 0) {
        std::snprintf(buf, sizeof(buf), " est: left=%.0f right=%.0f out=%.0f",
                      node.est_left_rows, node.est_right_rows,
                      node.est_out_rows);
        line += buf;
      }
      if (!canonical && node.cost_collect >= 0) {
        std::snprintf(buf, sizeof(buf), " cost: broadcast=%.0f collect=%.0f",
                      node.cost_broadcast, node.cost_collect);
        line += buf;
      }
      break;
    }
    case PlanKind::kFilter:
      line += " " + node.predicate->ToString();
      break;
    case PlanKind::kProject: {
      std::vector<std::string> parts;
      if (!node.exprs.empty()) {
        for (size_t i = 0; i < node.exprs.size(); ++i) {
          parts.push_back(node.exprs[i]->ToString() + " AS " + node.names[i]);
        }
      } else {
        for (const SelectItem& item : node.items) {
          if (item.star) {
            parts.push_back("*");
          } else if (!item.alias.empty()) {
            parts.push_back(item.expr->ToString() + " AS " + item.alias);
          } else {
            parts.push_back(item.expr->ToString());
          }
        }
      }
      line += " " + JoinStrings(parts);
      break;
    }
    case PlanKind::kAggregate: {
      if (!node.keys.empty()) {
        std::vector<std::string> keys;
        for (size_t i = 0; i < node.keys.size(); ++i) {
          keys.push_back(node.keys[i]->ToString() + " AS " +
                         node.key_names[i]);
        }
        line += " keys=[" + JoinStrings(keys) + "]";
      }
      std::vector<std::string> aggs;
      for (const AggregateSpec& spec : node.aggs) {
        aggs.push_back(AggSpecText(spec));
      }
      line += " aggs=[" + JoinStrings(aggs) + "]";
      break;
    }
    case PlanKind::kDistinct:
      break;
    case PlanKind::kSort: {
      std::vector<std::string> keys;
      for (size_t i = 0; i < node.sort_keys.size(); ++i) {
        keys.push_back(node.sort_keys[i] +
                       (node.sort_ascending[i] ? " ASC" : " DESC"));
      }
      line += " " + JoinStrings(keys);
      break;
    }
    case PlanKind::kLimit:
      line += " " + std::to_string(node.limit);
      break;
  }
  out->append(line);
  out->push_back('\n');
  for (const PlanPtr& child : node.children) {
    RenderNode(*child, depth + 1, canonical, out);
  }
}

}  // namespace

std::string RenderPlan(const PlanNode& root) {
  std::string out;
  RenderNode(root, 0, /*canonical=*/false, &out);
  return out;
}

uint64_t PlanFingerprint(const PlanNode& root) {
  std::string text;
  RenderNode(root, 0, /*canonical=*/true, &text);
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;  // FNV-1a 64 prime
  }
  return h;
}

// --- Executor --------------------------------------------------------------

namespace {

// Keeps the first occurrence of each distinct row (SELECT DISTINCT).
Table DedupRows(const Table& table) {
  std::set<std::string> seen;
  std::vector<int64_t> keep;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string key;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Value v = table.At(r, c);
      key.push_back(static_cast<char>(v.kind()));
      key += v.ToString();
      key.push_back('\x1f');
    }
    if (seen.insert(std::move(key)).second) {
      keep.push_back(static_cast<int64_t>(r));
    }
  }
  return table.Take(keep);
}

std::string BuildRemoteScanSql(const PlanNode& node) {
  std::string sql = "SELECT ";
  sql += node.columns.empty() ? "*" : JoinStrings(node.columns);
  sql += " FROM " + node.remote_name;
  if (node.remote_filter != nullptr) {
    sql += " WHERE " + LowerExprToSql(*node.remote_filter);
  }
  if (node.scan_limit >= 0) {
    sql += " LIMIT " + std::to_string(node.scan_limit);
  }
  return sql;
}

/// Process-wide counter naming broadcast temp tables; uniqueness matters
/// because concurrent joins may broadcast to the same worker, whose bound
/// runner creates/drops the temp table by name.
std::atomic<uint64_t> g_broadcast_temp_counter{0};

struct PlanExecutor {
  const PlanExecutorOptions& opts;

  /// Master-side hash join of two materialized sides. The ON clause does
  /// not say which side each key belongs to; try left.key on the left
  /// first, then swapped.
  Result<Table> LocalJoin(const PlanNode& node, const Table& left,
                          const Table& right) {
    if (opts.join_counters != nullptr) {
      opts.join_counters->probe_rows += left.num_rows();
    }
    if (left.schema().FieldIndex(node.left_key) >= 0 &&
        right.schema().FieldIndex(node.right_key) >= 0) {
      return HashJoin(left, right, node.left_key, node.right_key,
                      node.join_type, opts.exec);
    }
    if (left.schema().FieldIndex(node.right_key) >= 0 &&
        right.schema().FieldIndex(node.left_key) >= 0) {
      return HashJoin(left, right, node.right_key, node.left_key,
                      node.join_type, opts.exec);
    }
    return Status::NotFound("join keys not found: " + node.left_key + ", " +
                            node.right_key);
  }

  /// BroadcastJoin: ship the materialized build side to every worker
  /// holding a left-side part and push the join into the worker; the
  /// master concatenates per-part results in part order. Byte-identical to
  /// the collect strategy: each part joins against the identical build
  /// table, workers resolve the ambiguous ON exactly like LocalJoin, and
  /// per-part probe order concatenated in part order IS the probe order of
  /// the concatenated left side. Any part that cannot be pushed — local
  /// scan, sql-override, no bound runner, or a peer that fails the
  /// round trip (e.g. predates run_sql_bound) — falls back to fetching
  /// that part and joining at the master, preserving the result bytes.
  Result<Table> ExecBroadcastJoin(const PlanNode& node, const Table& small) {
    const PlanNode& left = *node.children[0];
    std::vector<const PlanNode*> parts;
    if (left.kind == PlanKind::kMergeUnion) {
      for (const PlanPtr& child : left.children) parts.push_back(child.get());
    } else {
      parts.push_back(&left);
    }
    std::vector<Table> results;
    results.reserve(parts.size());
    for (const PlanNode* part : parts) {
      MIP_ASSIGN_OR_RETURN(Table joined,
                           ExecBroadcastPart(node, *part, small));
      results.push_back(std::move(joined));
    }
    return Table::Concat(results);
  }

  Result<Table> ExecBroadcastPart(const PlanNode& node, const PlanNode& part,
                                  const Table& small) {
    const bool pushable =
        part.kind == PlanKind::kRemoteScan && part.sql_override.empty() &&
        part.columns.empty() && part.scan_limit < 0 &&
        static_cast<bool>(opts.run_remote_bound_sql) &&
        IsSqlIdentifier(part.remote_name) && IsSqlIdentifier(node.left_key) &&
        IsSqlIdentifier(node.right_key);
    if (pushable) {
      const std::string temp_name =
          "__bcast" +
          std::to_string(g_broadcast_temp_counter.fetch_add(1) + 1);
      std::string sql = "SELECT * FROM " + part.remote_name +
                        (node.join_type == JoinType::kLeft ? " LEFT JOIN "
                                                           : " JOIN ") +
                        temp_name + " ON " + node.left_key + " = " +
                        node.right_key;
      // A filter pushed into this part references part columns only, so
      // WHERE above the worker's join keeps/drops whole per-probe-row match
      // groups — identical to filtering the part before the join.
      if (part.remote_filter != nullptr) {
        sql += " WHERE " + LowerExprToSql(*part.remote_filter);
      }
      Result<Table> pushed =
          opts.run_remote_bound_sql(part.location, temp_name, sql, small);
      if (pushed.ok()) return pushed;
      // Fall through: fetch the part and join here instead.
    }
    MIP_ASSIGN_OR_RETURN(Table left_part, Exec(part));
    return LocalJoin(node, left_part, small);
  }

  /// Disk Scan / IndexScan: the store decodes only the scan's columns and,
  /// when `row_filter` is set, returns only the rows passing it.
  Result<Table> ExecDiskScan(const PlanNode& scan, Expr* row_filter) {
    if (!opts.scan_disk) {
      return Status::ExecutionError(
          "disk table '" + scan.table_name +
          "' has no storage attached on database " + opts.db_name);
    }
    DiskScanSpec spec;
    spec.prune_filter = scan.prune_filter.get();
    spec.use_index = scan.kind == PlanKind::kIndexScan;
    spec.columns = scan.columns;
    spec.row_filter = row_filter;
    spec.functions = opts.functions;
    spec.exec = opts.exec;
    MIP_ASSIGN_OR_RETURN(Table t, opts.scan_disk(scan.table_name, spec));
    if (scan.scan_limit >= 0) {
      t = Limit(t, static_cast<size_t>(scan.scan_limit));
    }
    return t;
  }

  Result<Table> Exec(const PlanNode& node) {
    switch (node.kind) {
      case PlanKind::kScan:
      case PlanKind::kIndexScan: {
        if (node.disk) return ExecDiskScan(node, nullptr);
        Table t;
        if (node.prebound != nullptr) {
          t = *node.prebound;
        } else {
          MIP_ASSIGN_OR_RETURN(t, opts.get_table(node.table_name));
        }
        if (node.scan_limit >= 0) {
          t = Limit(t, static_cast<size_t>(node.scan_limit));
        }
        if (!node.columns.empty()) {
          return SelectTableColumns(t, node.columns);
        }
        return t;
      }
      case PlanKind::kRemoteScan: {
        const bool lowered = !node.sql_override.empty() ||
                             node.remote_filter != nullptr ||
                             !node.columns.empty() || node.scan_limit >= 0;
        if (lowered) {
          if (!opts.run_remote_sql) {
            return Status::ExecutionError(
                "remote table '" + node.table_name +
                "' has no remote query runner installed on database " +
                opts.db_name);
          }
          const std::string sql = node.sql_override.empty()
                                      ? BuildRemoteScanSql(node)
                                      : node.sql_override;
          return opts.run_remote_sql(node.location, sql);
        }
        if (!opts.fetch_remote) {
          return Status::ExecutionError(
              "remote table '" + node.table_name +
              "' has no remote fetcher installed on database " +
              opts.db_name);
        }
        return opts.fetch_remote(node.location, node.remote_name);
      }
      case PlanKind::kMergeUnion: {
        std::vector<Table> parts;
        parts.reserve(node.children.size());
        for (const PlanPtr& child : node.children) {
          MIP_ASSIGN_OR_RETURN(Table part, Exec(*child));
          parts.push_back(std::move(part));
        }
        return Table::Concat(parts);
      }
      case PlanKind::kJoin: {
        // Build side first: both strategies materialize it exactly once.
        MIP_ASSIGN_OR_RETURN(Table right, Exec(*node.children[1]));
        if (opts.join_counters != nullptr) {
          opts.join_counters->build_rows += right.num_rows();
        }
        if (node.strategy == JoinStrategy::kBroadcast) {
          return ExecBroadcastJoin(node, right);
        }
        MIP_ASSIGN_OR_RETURN(Table left, Exec(*node.children[0]));
        return LocalJoin(node, left, right);
      }
      case PlanKind::kFilter: {
        const PlanNode& child = *node.children[0];
        if (child.disk && child.scan_limit < 0) {
          // Fused Filter-over-disk-scan: the store filters each decoded
          // part before concatenating. Not under a pushed limit, which
          // must see the unfiltered rows.
          return ExecDiskScan(child, node.predicate.get());
        }
        MIP_ASSIGN_OR_RETURN(Table input, Exec(child));
        MIP_RETURN_NOT_OK(BindExpr(node.predicate.get(), input.schema(),
                                   opts.functions));
        return Filter(input, *node.predicate, opts.functions, opts.exec);
      }
      case PlanKind::kProject: {
        MIP_ASSIGN_OR_RETURN(Table input, Exec(*node.children[0]));
        std::vector<ExprPtr> exprs;
        std::vector<std::string> names;
        if (!node.exprs.empty()) {
          exprs = node.exprs;
          names = node.names;
        } else {
          std::set<std::string> used;
          for (size_t i = 0; i < node.items.size(); ++i) {
            const SelectItem& item = node.items[i];
            if (item.star) {
              for (const Field& f : input.schema().fields()) {
                exprs.push_back(Col(f.name));
                names.push_back(f.name);
                used.insert(ToLower(f.name));
              }
              continue;
            }
            names.push_back(UniquifyName(DefaultItemName(item, i), &used));
            exprs.push_back(item.expr);
          }
        }
        for (const ExprPtr& e : exprs) {
          MIP_RETURN_NOT_OK(BindExpr(e.get(), input.schema(),
                                     opts.functions));
        }
        return Project(input, exprs, names, opts.functions, opts.exec);
      }
      case PlanKind::kAggregate: {
        MIP_ASSIGN_OR_RETURN(Table input, Exec(*node.children[0]));
        for (const ExprPtr& key : node.keys) {
          MIP_RETURN_NOT_OK(BindExpr(key.get(), input.schema(),
                                     opts.functions));
        }
        for (const AggregateSpec& spec : node.aggs) {
          if (spec.arg != nullptr) {
            MIP_RETURN_NOT_OK(BindExpr(spec.arg.get(), input.schema(),
                                       opts.functions));
          }
        }
        return GroupByAggregate(input, node.keys, node.key_names, node.aggs,
                                opts.functions, opts.exec);
      }
      case PlanKind::kDistinct: {
        MIP_ASSIGN_OR_RETURN(Table input, Exec(*node.children[0]));
        return DedupRows(input);
      }
      case PlanKind::kSort: {
        MIP_ASSIGN_OR_RETURN(Table input, Exec(*node.children[0]));
        return SortBy(input, node.sort_keys, node.sort_ascending);
      }
      case PlanKind::kLimit: {
        MIP_ASSIGN_OR_RETURN(Table input, Exec(*node.children[0]));
        return Limit(input, static_cast<size_t>(node.limit));
      }
    }
    return Status::Internal("bad plan node kind");
  }
};

}  // namespace

Result<Table> ExecutePlan(const PlanNode& root,
                          const PlanExecutorOptions& options) {
  PlanExecutor executor{options};
  return executor.Exec(root);
}

}  // namespace mip::engine
