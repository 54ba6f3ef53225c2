#include "n1ql/planner.h"

#include <algorithm>
#include <functional>

#include "n1ql/expr_eval.h"

namespace couchkv::n1ql {

const char* ScanKindName(ScanKind k) {
  switch (k) {
    case ScanKind::kKeyScan: return "KeyScan";
    case ScanKind::kIndexScan: return "IndexScan";
    case ScanKind::kPrimaryScan: return "PrimaryScan";
    case ScanKind::kNoScan: return "NoScan";
  }
  return "?";
}

std::optional<std::string> RelativePathText(const Expr& expr,
                                            const std::string& alias) {
  if (expr.kind != ExprKind::kPath || expr.path.empty()) return std::nullopt;
  size_t start = 0;
  if (!expr.path[0].is_index() && expr.path[0].field == alias) start = 1;
  if (start >= expr.path.size()) return std::nullopt;
  std::string out;
  for (size_t i = start; i < expr.path.size(); ++i) {
    if (expr.path[i].is_index()) {
      out += "[" + std::to_string(expr.path[i].index) + "]";
    } else {
      if (!out.empty()) out += ".";
      out += expr.path[i].field;
    }
  }
  return out;
}

namespace {

// Flattens an AND tree into conjuncts.
void CollectConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    CollectConjuncts(e->children[0], out);
    CollectConjuncts(e->children[1], out);
  } else {
    out->push_back(e);
  }
}

// A sargable predicate: <path> op <constant>.
struct Sarg {
  std::string path;       // relative to the FROM alias
  BinaryOp op;
  json::Value bound;      // evaluated constant
  bool is_meta_id = false;
};

// Evaluates an expression that must be constant (literals / parameters /
// arithmetic over them). Returns nullopt when it references documents.
std::optional<json::Value> EvalConst(const Expr& e,
                                     const std::vector<json::Value>& params) {
  EvalContext ctx;
  ctx.params = &params;
  // No row: paths evaluate to missing, which we reject below.
  if (e.kind == ExprKind::kPath || e.kind == ExprKind::kMeta) {
    return std::nullopt;
  }
  auto v = Eval(e, ctx);
  if (!v.ok()) return std::nullopt;
  return std::move(v).value();
}

// Tries to interpret a conjunct as a sargable predicate on a path or on
// META().id.
std::optional<Sarg> MatchSarg(const Expr& e, const std::string& alias,
                              const std::vector<json::Value>& params) {
  if (e.kind != ExprKind::kBinary) return std::nullopt;
  BinaryOp op = e.binary_op;
  if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLte &&
      op != BinaryOp::kGt && op != BinaryOp::kGte) {
    return std::nullopt;
  }
  const Expr* lhs = e.children[0].get();
  const Expr* rhs = e.children[1].get();
  bool flipped = false;
  auto path_side = [&](const Expr* side) -> std::optional<Sarg> {
    Sarg s;
    if (side->kind == ExprKind::kMeta && side->meta_field == "id" &&
        (side->meta_alias.empty() || side->meta_alias == alias)) {
      s.is_meta_id = true;
    } else {
      auto rel = RelativePathText(*side, alias);
      if (!rel.has_value()) return std::nullopt;
      s.path = *rel;
    }
    return s;
  };
  std::optional<Sarg> s = path_side(lhs);
  const Expr* const_side = rhs;
  if (!s.has_value()) {
    s = path_side(rhs);
    const_side = lhs;
    flipped = true;
  }
  if (!s.has_value()) return std::nullopt;
  auto bound = EvalConst(*const_side, params);
  if (!bound.has_value()) return std::nullopt;
  if (flipped) {
    // c op path  ==>  path op' c
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLte: op = BinaryOp::kGte; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGte: op = BinaryOp::kLte; break;
      default: break;
    }
  }
  s->op = op;
  s->bound = std::move(*bound);
  return s;
}

// Narrows `range` by one sargable predicate, keeping the tighter bound on
// each side; on a tie the exclusive bound wins. The range is then the
// intersection of every predicate given to it.
void Narrow(const Sarg& s, gsi::ScanRange* range) {
  auto lower = [&](bool inclusive) {
    if (range->lo.has_value()) {
      int c = json::Value::Compare(s.bound, *range->lo);
      if (c < 0 || (c == 0 && (inclusive || !range->lo_inclusive))) return;
    }
    range->lo = s.bound;
    range->lo_inclusive = inclusive;
  };
  auto upper = [&](bool inclusive) {
    if (range->hi.has_value()) {
      int c = json::Value::Compare(s.bound, *range->hi);
      if (c > 0 || (c == 0 && (inclusive || !range->hi_inclusive))) return;
    }
    range->hi = s.bound;
    range->hi_inclusive = inclusive;
  };
  switch (s.op) {
    case BinaryOp::kEq:
      lower(true);
      upper(true);
      break;
    case BinaryOp::kGt: lower(false); break;
    case BinaryOp::kGte: lower(true); break;
    case BinaryOp::kLt: upper(false); break;
    case BinaryOp::kLte: upper(true); break;
    default: break;
  }
}

// Collects every path referenced by the statement (relative to the FROM
// alias); used for covering-index detection. Returns false if something
// cannot be resolved to a document path (then covering is impossible).
bool CollectReferencedPaths(const Expr& e, const std::string& alias,
                            std::vector<std::string>* out) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kParameter:
      return true;
    case ExprKind::kMeta:
      if (e.meta_field == "id" &&
          (e.meta_alias.empty() || e.meta_alias == alias)) {
        return true;  // meta id always rides along with index entries
      }
      return false;
    case ExprKind::kPath: {
      auto rel = RelativePathText(e, alias);
      if (!rel.has_value()) return false;
      out->push_back(*rel);
      return true;
    }
    default: {
      auto visit = [&](const ExprPtr& c) {
        return c == nullptr || CollectReferencedPaths(*c, alias, out);
      };
      for (const ExprPtr& c : e.children) {
        if (!visit(c)) return false;
      }
      for (const CaseArm& arm : e.case_arms) {
        if (!visit(arm.when) || !visit(arm.then)) return false;
      }
      return visit(e.case_else);
    }
  }
}

void CollectAggregatesExpr(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kFunction && IsAggregateFunction(e->fn_name)) {
    out->push_back(e);
    return;  // no nested aggregates
  }
  for (const ExprPtr& c : e->children) CollectAggregatesExpr(c, out);
  if (e->kind == ExprKind::kCase) {
    for (const auto& arm : e->case_arms) {
      CollectAggregatesExpr(arm.when, out);
      CollectAggregatesExpr(arm.then, out);
    }
    CollectAggregatesExpr(e->case_else, out);
  }
}

}  // namespace

void CollectAggregates(const SelectStatement& stmt,
                       std::vector<ExprPtr>* out) {
  for (const SelectItem& item : stmt.items) CollectAggregatesExpr(item.expr, out);
  CollectAggregatesExpr(stmt.having, out);
  for (const OrderKey& k : stmt.order_by) CollectAggregatesExpr(k.expr, out);
}

json::Value QueryPlan::Describe(const SelectStatement& stmt) const {
  json::Value plan = json::Value::MakeObject();
  json::Value ops = json::Value::MakeArray();
  json::Value scan_op = json::Value::MakeObject();
  scan_op["#operator"] = json::Value::Str(ScanKindName(scan.kind));
  if (!scan.index_name.empty()) {
    scan_op["index"] = json::Value::Str(scan.index_name);
  }
  if (scan.kind == ScanKind::kIndexScan ||
      scan.kind == ScanKind::kPrimaryScan) {
    scan_op["covering"] = json::Value::Bool(scan.covering);
    if (!scan.range_description.empty()) {
      scan_op["range"] = json::Value::Str(scan.range_description);
    }
  }
  ops.Append(std::move(scan_op));
  if (scan.kind != ScanKind::kNoScan && !scan.covering &&
      scan.kind != ScanKind::kKeyScan) {
    json::Value fetch = json::Value::MakeObject();
    fetch["#operator"] = json::Value::Str("Fetch");
    ops.Append(std::move(fetch));
  }
  for (const JoinClause& jc : stmt.joins) {
    json::Value op = json::Value::MakeObject();
    switch (jc.kind) {
      case JoinClause::Kind::kJoin:
        op["#operator"] = json::Value::Str(
            jc.join_kind == JoinKind::kInner ? "Join" : "LeftOuterJoin");
        break;
      case JoinClause::Kind::kNest:
        op["#operator"] = json::Value::Str("Nest");
        break;
      case JoinClause::Kind::kUnnest:
        op["#operator"] = json::Value::Str("Unnest");
        break;
    }
    ops.Append(std::move(op));
  }
  if (filter != nullptr) {
    json::Value op = json::Value::MakeObject();
    op["#operator"] = json::Value::Str("Filter");
    op["condition"] = json::Value::Str(filter->ToString());
    ops.Append(std::move(op));
  }
  if (has_aggregates || !stmt.group_by.empty()) {
    json::Value group = json::Value::MakeObject();
    group["#operator"] = json::Value::Str("Group");
    ops.Append(std::move(group));
  }
  {
    json::Value proj = json::Value::MakeObject();
    proj["#operator"] = json::Value::Str("InitialProject");
    ops.Append(std::move(proj));
  }
  if (!stmt.order_by.empty()) {
    json::Value sort = json::Value::MakeObject();
    sort["#operator"] = json::Value::Str("Sort");
    ops.Append(std::move(sort));
  }
  if (stmt.limit != nullptr || stmt.offset != nullptr) {
    json::Value lim = json::Value::MakeObject();
    lim["#operator"] = json::Value::Str("Limit");
    ops.Append(std::move(lim));
  }
  {
    json::Value proj = json::Value::MakeObject();
    proj["#operator"] = json::Value::Str("FinalProject");
    ops.Append(std::move(proj));
  }
  plan["operators"] = std::move(ops);
  return plan;
}

StatusOr<QueryPlan> PlanSelect(const SelectStatement& stmt,
                               const std::vector<gsi::IndexDefinition>& indexes,
                               const std::vector<json::Value>& params) {
  QueryPlan plan;
  plan.filter = stmt.where;
  CollectAggregates(stmt, &plan.aggregate_exprs);
  plan.has_aggregates = !plan.aggregate_exprs.empty();

  if (!stmt.from.has_value()) {
    plan.scan.kind = ScanKind::kNoScan;
    return plan;
  }
  const FromTerm& from = *stmt.from;

  // 1. USE KEYS always wins: direct key-value retrieval performance
  //    (paper §3.2.3).
  if (from.use_keys != nullptr) {
    plan.scan.kind = ScanKind::kKeyScan;
    plan.scan.use_keys = from.use_keys;
    return plan;
  }

  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(stmt.where, &conjuncts);
  std::vector<std::optional<Sarg>> sargs;
  sargs.reserve(conjuncts.size());
  for (const ExprPtr& c : conjuncts) {
    sargs.push_back(MatchSarg(*c, from.alias, params));
  }

  // Referenced paths for covering detection: every clause that is
  // evaluated against a row, so a covered row must carry what they read.
  std::vector<std::string> referenced;
  bool coverable = stmt.joins.empty();
  auto collect = [&](const ExprPtr& e) {
    if (e != nullptr && !CollectReferencedPaths(*e, from.alias, &referenced)) {
      coverable = false;
    }
  };
  for (const SelectItem& item : stmt.items) {
    if (item.star) coverable = false;
    collect(item.expr);
  }
  collect(stmt.where);
  for (const ExprPtr& g : stmt.group_by) collect(g);
  collect(stmt.having);
  for (const OrderKey& k : stmt.order_by) collect(k.expr);

  // 2. Look for the best qualifying secondary index.
  const gsi::IndexDefinition* best = nullptr;
  gsi::ScanRange best_range;
  int best_score = -1;
  std::string best_desc;
  for (const gsi::IndexDefinition& def : indexes) {
    if (def.is_primary || def.key_paths.empty()) continue;
    if (def.array_index) continue;  // array indexes handled via ANY below
    // Partial index: the query must repeat the index predicate verbatim as
    // a conjunct (textual implication check, as Couchbase requires the
    // WHERE clause to match).
    if (!def.where_text.empty()) {
      bool implied = false;
      for (const ExprPtr& c : conjuncts) {
        if (c->ToString() == def.where_text) {
          implied = true;
          break;
        }
      }
      if (!implied) continue;
    }
    const std::string& lead = def.key_paths[0];
    gsi::ScanRange range;
    int score = 0;
    for (const auto& s : sargs) {
      if (!s.has_value() || s->is_meta_id || s->path != lead) continue;
      Narrow(*s, &range);
      score = std::max(score, s->op == BinaryOp::kEq ? 100 : 50);
    }
    if (score == 0) continue;
    // A comparison is never true of a NULL key, and NULL keys sort first:
    // a range open below starts above them, so a pushed-down LIMIT does
    // not count index entries the filter then drops.
    if (!range.lo.has_value()) {
      range.lo = json::Value::Null();
      range.lo_inclusive = false;
    }
    if (!def.where_text.empty()) score += 10;  // partial indexes are smaller
    if (score > best_score) {
      best = &def;
      best_range = range;
      best_score = score;
      best_desc.clear();
      if (range.lo.has_value()) {
        best_desc += (range.lo_inclusive ? ">= " : "> ") + range.lo->ToJson();
      }
      if (range.hi.has_value()) {
        if (!best_desc.empty()) best_desc += " AND ";
        best_desc += (range.hi_inclusive ? "<= " : "< ") + range.hi->ToJson();
      }
    }
  }

  // META().id range predicates can use the primary index as a ranged scan
  // (this is what YCSB workload E does, §10.1.2).
  const gsi::IndexDefinition* primary = nullptr;
  for (const gsi::IndexDefinition& def : indexes) {
    if (def.is_primary) {
      primary = &def;
      break;
    }
  }
  gsi::ScanRange id_range;
  bool has_id_range = false;
  for (const auto& s : sargs) {
    if (!s.has_value() || !s->is_meta_id) continue;
    has_id_range = true;
    Narrow(*s, &id_range);
  }

  if (best != nullptr) {
    plan.scan.kind = ScanKind::kIndexScan;
    plan.scan.index_name = best->name;
    plan.scan.range = best_range;
    plan.scan.index_key_paths = best->key_paths;
    plan.scan.range_description = best_desc;
    // WHERE is fully absorbed when every conjunct is a sargable predicate
    // on the chosen leading key (or restates the partial-index predicate).
    plan.scan.where_consumed = true;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      bool absorbed =
          (sargs[i].has_value() && !sargs[i]->is_meta_id &&
           sargs[i]->path == best->key_paths[0]) ||
          (!best->where_text.empty() &&
           conjuncts[i]->ToString() == best->where_text);
      if (!absorbed) {
        plan.scan.where_consumed = false;
        break;
      }
    }
    if (coverable) {
      bool all_covered = true;
      for (const std::string& p : referenced) {
        if (std::find(best->key_paths.begin(), best->key_paths.end(), p) ==
            best->key_paths.end()) {
          all_covered = false;
          break;
        }
      }
      plan.scan.covering = all_covered;
    }
    return plan;
  }

  // 3. Fall back to the primary index (full or id-ranged scan).
  if (primary != nullptr) {
    plan.scan.kind = ScanKind::kPrimaryScan;
    plan.scan.index_name = primary->name;
    if (has_id_range) {
      plan.scan.range = id_range;
      plan.scan.range_description = "meta().id range";
    }
    // A primary index entry is just META().id: it covers a statement that
    // reads nothing else from the document.
    plan.scan.covering = coverable && referenced.empty();
    // Every id is a string, so against a string bound the index order is
    // the comparison itself: such a META().id conjunct holds for every id
    // the range yields and leaves the filter. Any other conjunct, a NULL,
    // MISSING or non-string bound included, is still evaluated. A join
    // could rebind the alias, so a statement with one keeps its WHERE.
    plan.scan.where_consumed = true;
    std::vector<ExprPtr> residual;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      const bool on_id = sargs[i].has_value() && sargs[i]->is_meta_id;
      if (!on_id) plan.scan.where_consumed = false;
      if (!on_id || !sargs[i]->bound.is_string() || !stmt.joins.empty()) {
        residual.push_back(conjuncts[i]);
      }
    }
    if (residual.size() < conjuncts.size()) {
      plan.filter = nullptr;
      for (ExprPtr& c : residual) {
        plan.filter = plan.filter == nullptr
                          ? std::move(c)
                          : MakeBinary(BinaryOp::kAnd, plan.filter,
                                       std::move(c));
      }
    }
    return plan;
  }
  return Status::PlanError(
      "no index available for keyspace " + from.keyspace +
      " (no sargable secondary index and no primary index); "
      "CREATE PRIMARY INDEX or add a suitable GSI index");
}

}  // namespace couchkv::n1ql
