#include "n1ql/exec_util.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>

namespace couchkv::n1ql {

using json::Value;

namespace {

// Computes one aggregate call over a group: the rows of `rows` that
// `members` indexes.
StatusOr<Value> ComputeAggregate(const Expr& agg,
                                 const std::vector<ExecRow>& rows,
                                 const std::vector<size_t>& members,
                                 const std::string& default_alias,
                                 const std::vector<Value>& params) {
  std::vector<Value> inputs;
  inputs.reserve(members.size());
  for (size_t i : members) {
    if (agg.fn_star) {
      inputs.push_back(Value::Bool(true));  // COUNT(*): every row counts
      continue;
    }
    auto v = Eval(*agg.children[0], RowContext(rows[i], default_alias, params));
    if (!v.ok()) return v.status();
    inputs.push_back(std::move(v).value());
  }
  if (agg.fn_distinct) {
    std::vector<Value> uniq;
    for (Value& v : inputs) {
      bool dup = false;
      for (const Value& u : uniq) {
        if (Value::Compare(u, v) == 0) {
          dup = true;
          break;
        }
      }
      if (!dup) uniq.push_back(std::move(v));
    }
    inputs = std::move(uniq);
  }
  if (agg.fn_name == "count") {
    int64_t n = 0;
    for (const Value& v : inputs) {
      if (!v.is_missing() && !v.is_null()) ++n;
    }
    return Value::Int(n);
  }
  if (agg.fn_name == "sum" || agg.fn_name == "avg") {
    double sum = 0;
    int64_t n = 0;
    for (const Value& v : inputs) {
      if (v.is_number()) {
        sum += v.AsNumber();
        ++n;
      }
    }
    if (agg.fn_name == "sum") return n ? Value::Number(sum) : Value::Null();
    return n ? Value::Number(sum / static_cast<double>(n)) : Value::Null();
  }
  // MIN / MAX over the collation order, ignoring missing/null.
  Value best = Value::Missing();
  for (const Value& v : inputs) {
    if (v.is_missing() || v.is_null()) continue;
    if (best.is_missing()) {
      best = v;
    } else {
      int c = Value::Compare(v, best);
      if ((agg.fn_name == "min" && c < 0) || (agg.fn_name == "max" && c > 0)) {
        best = v;
      }
    }
  }
  return best.is_missing() ? Value::Null() : best;
}

// Partitions the rows into groups keyed by the GROUP BY values (one global
// group when there is no GROUP BY but aggregates are present) and replaces
// them with one row per group: its first member plus the group's aggregates.
Status GroupRows(const SelectStatement& stmt,
                 const std::vector<ExprPtr>& aggregates,
                 const std::string& default_alias,
                 const std::vector<Value>& params, std::vector<ExecRow>* rows) {
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < rows->size(); ++i) {
    EvalContext ctx = RowContext((*rows)[i], default_alias, params);
    std::string key;
    for (const ExprPtr& g : stmt.group_by) {
      auto v = Eval(*g, ctx);
      if (!v.ok()) return v.status();
      key += v->ToJson();
      key += '\x1f';
    }
    groups[key].push_back(i);
  }
  // Aggregates over an empty input still produce one row (COUNT(*) = 0).
  if (groups.empty() && stmt.group_by.empty()) groups[""];
  std::vector<ExecRow> out;
  out.reserve(groups.size());
  for (const auto& [key, members] : groups) {
    ExecRow result;
    for (const ExprPtr& agg : aggregates) {
      auto v = ComputeAggregate(*agg, *rows, members, default_alias, params);
      if (!v.ok()) return v.status();
      result.aggregates[agg->ToString()] = std::move(v).value();
    }
    if (!members.empty()) result.row = std::move((*rows)[members[0]].row);
    out.push_back(std::move(result));
  }
  *rows = std::move(out);
  return Status::OK();
}

// ORDER BY / GROUP BY may name a select-list output alias (standard SQL):
// when `expr` is a bare single-segment path matching an item's alias, the
// item's expression is returned instead; otherwise `expr` itself.
const ExprPtr& ResolveOutputAlias(const ExprPtr& expr,
                                  const std::vector<SelectItem>& items) {
  if (expr == nullptr || expr->kind != ExprKind::kPath ||
      expr->path.size() != 1 || expr->path[0].is_index()) {
    return expr;
  }
  for (const SelectItem& item : items) {
    if (!item.star && item.expr != nullptr &&
        item.alias == expr->path[0].field) {
      // Do not substitute when the "alias" is really the trailing segment
      // of the same path (SELECT name FROM b ORDER BY name is identical
      // either way, so substitution is still safe).
      return item.expr;
    }
  }
  return expr;
}

// ORDER BY: a stable sort on the evaluated keys, so ties keep scan order.
Status SortRows(const SelectStatement& stmt, const std::string& default_alias,
                const std::vector<Value>& params, std::vector<ExecRow>* rows) {
  struct Keyed {
    std::vector<Value> keys;
    size_t index;
  };
  std::vector<Keyed> keyed(rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    keyed[i].index = i;
    EvalContext ctx = RowContext((*rows)[i], default_alias, params);
    for (const OrderKey& k : stmt.order_by) {
      auto v = Eval(*ResolveOutputAlias(k.expr, stmt.items), ctx);
      if (!v.ok()) return v.status();
      keyed[i].keys.push_back(std::move(v).value());
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&](const Keyed& a, const Keyed& b) {
                     for (size_t k = 0; k < stmt.order_by.size(); ++k) {
                       int c = Value::Compare(a.keys[k], b.keys[k]);
                       if (c != 0) {
                         return stmt.order_by[k].descending ? c > 0 : c < 0;
                       }
                     }
                     return false;
                   });
  std::vector<ExecRow> sorted;
  sorted.reserve(rows->size());
  for (const Keyed& k : keyed) sorted.push_back(std::move((*rows)[k.index]));
  *rows = std::move(sorted);
  return Status::OK();
}

// Projects one row through the select list ('*', `alias`.*, expressions
// with aliases). Missing values are omitted from the result object.
StatusOr<Value> ProjectSelectItems(const std::vector<SelectItem>& items,
                                   const EvalContext& ctx) {
  Value out = Value::MakeObject();
  size_t anon = 1;
  for (const SelectItem& item : items) {
    if (item.star) {
      // '*' merges every bound document into the result object.
      for (const auto& [alias, doc] : ctx.row->bindings) {
        if (doc.value.is_object()) {
          for (const auto& [k, v] : doc.value.AsObject()) {
            out[k] = v;
          }
        } else if (!doc.value.is_missing()) {
          out[alias] = doc.value;
        }
      }
      continue;
    }
    // alias.* form arrives as __star__(path).
    if (item.expr->kind == ExprKind::kFunction &&
        item.expr->fn_name == "__star__") {
      auto v = Eval(*item.expr->children[0], ctx);
      if (!v.ok()) return v.status();
      if (v->is_object()) {
        for (const auto& [k, field] : v->AsObject()) out[k] = field;
      }
      continue;
    }
    auto v = Eval(*item.expr, ctx);
    if (!v.ok()) return v.status();
    std::string name = item.alias;
    if (name.empty()) name = "$" + std::to_string(anon++);
    if (!v->is_missing()) out[name] = std::move(v).value();
  }
  return out;
}

}  // namespace

EvalContext RowContext(const ExecRow& row, const std::string& default_alias,
                       const std::vector<Value>& params) {
  EvalContext ctx;
  ctx.row = &row.row;
  ctx.default_alias = default_alias;
  ctx.params = &params;
  ctx.aggregates = &row.aggregates;
  return ctx;
}

std::optional<std::vector<std::string>> KeyIds(const Value& keys) {
  std::vector<std::string> ids;
  if (keys.is_string()) {
    ids.push_back(keys.AsString());
  } else if (keys.is_array()) {
    for (const Value& k : keys.AsArray()) {
      if (k.is_string()) ids.push_back(k.AsString());
    }
  } else {
    return std::nullopt;
  }
  return ids;
}

StatusOr<std::vector<std::string>> EvalUseKeys(
    const Expr& use_keys, const std::vector<Value>& params) {
  EvalContext ctx;
  ctx.params = &params;
  auto keys = Eval(use_keys, ctx);
  if (!keys.ok()) return keys.status();
  auto ids = KeyIds(*keys);
  if (!ids.has_value()) {
    return Status::InvalidArgument("USE KEYS expects a string or array");
  }
  return std::move(*ids);
}

StatusOr<size_t> EvalCountExpr(const ExprPtr& e,
                               const std::vector<Value>& params,
                               size_t fallback) {
  if (e == nullptr) return fallback;
  EvalContext ctx;
  ctx.params = &params;
  auto v = Eval(*e, ctx);
  if (!v.ok()) return v.status();
  const double n = v->is_number() ? v->AsNumber() : -1;
  if (!(n >= 0)) {  // also rejects NaN
    return Status::InvalidArgument("LIMIT/OFFSET must be a non-negative number");
  }
  // Converting a double at or above 2^64 to size_t is undefined: saturate.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  return n >= kTwoTo64 ? SIZE_MAX : static_cast<size_t>(n);
}

Status FilterRows(const Expr& cond, const std::string& default_alias,
                  const std::vector<Value>& params,
                  std::vector<ExecRow>* rows) {
  std::vector<ExecRow> kept;
  kept.reserve(rows->size());
  for (ExecRow& row : *rows) {
    auto keep = EvalCondition(cond, RowContext(row, default_alias, params));
    if (!keep.ok()) return keep.status();
    if (*keep) kept.push_back(std::move(row));
  }
  *rows = std::move(kept);
  return Status::OK();
}

Status Unnest(const JoinClause& jc, const std::string& default_alias,
              const std::vector<Value>& params, std::vector<ExecRow>* rows) {
  std::vector<ExecRow> next;
  for (const ExecRow& row : *rows) {
    auto arr = Eval(*jc.unnest_expr, RowContext(row, default_alias, params));
    if (!arr.ok()) return arr.status();
    if (!arr->is_array()) continue;  // inner unnest drops the row
    for (const Value& elem : arr->AsArray()) {
      ExecRow out = row;
      out.row.bindings[jc.alias] = BoundDoc{elem, "", 0};
      next.push_back(std::move(out));
    }
  }
  *rows = std::move(next);
  return Status::OK();
}

void AppendKeyJoin(const JoinClause& jc, ExecRow row,
                   std::vector<ExecRow> inner, std::vector<ExecRow>* out) {
  if (jc.kind == JoinClause::Kind::kNest) {
    // NEST: one output row; inner docs collected into an array (paper
    // §3.2.3: "its right-hand input is collected into an array").
    if (inner.empty() && jc.join_kind == JoinKind::kInner) return;
    Value::Array collected;
    collected.reserve(inner.size());
    for (ExecRow& in : inner) {
      collected.push_back(std::move(in.row.bindings[jc.alias].value));
    }
    row.row.bindings[jc.alias] =
        BoundDoc{Value::MakeArray(std::move(collected)), "", 0};
    out->push_back(std::move(row));
    return;
  }
  if (inner.empty()) {
    if (jc.join_kind == JoinKind::kLeftOuter) {
      out->push_back(std::move(row));  // alias left unbound (MISSING)
    }
    return;
  }
  for (ExecRow& in : inner) {
    ExecRow joined = row;
    joined.row.bindings[jc.alias] = std::move(in.row.bindings[jc.alias]);
    out->push_back(std::move(joined));
  }
}

StatusOr<std::vector<Value>> FinishSelect(
    const SelectStatement& stmt, const ExprPtr& where,
    const std::vector<ExprPtr>& aggregates, const std::vector<Value>& params,
    std::vector<ExecRow> rows) {
  const std::string default_alias = stmt.from ? stmt.from->alias : "";
  if (where != nullptr) {
    COUCHKV_RETURN_IF_ERROR(FilterRows(*where, default_alias, params, &rows));
  }
  if (!aggregates.empty() || !stmt.group_by.empty()) {
    COUCHKV_RETURN_IF_ERROR(
        GroupRows(stmt, aggregates, default_alias, params, &rows));
    if (stmt.having != nullptr) {
      COUCHKV_RETURN_IF_ERROR(
          FilterRows(*stmt.having, default_alias, params, &rows));
    }
  }
  if (!stmt.order_by.empty()) {
    COUCHKV_RETURN_IF_ERROR(SortRows(stmt, default_alias, params, &rows));
  }

  auto offset = EvalCountExpr(stmt.offset, params, 0);
  if (!offset.ok()) return offset.status();
  auto limit = EvalCountExpr(stmt.limit, params, SIZE_MAX);
  if (!limit.ok()) return limit.status();
  rows.erase(rows.begin(),
             rows.begin() + static_cast<std::ptrdiff_t>(
                                std::min(*offset, rows.size())));
  if (rows.size() > *limit) rows.resize(*limit);

  // Projection (+ DISTINCT on the projected values).
  std::vector<Value> out;
  out.reserve(rows.size());
  std::set<std::string> seen;
  for (const ExecRow& row : rows) {
    auto projected =
        ProjectSelectItems(stmt.items, RowContext(row, default_alias, params));
    if (!projected.ok()) return projected.status();
    if (stmt.distinct && !seen.insert(projected->ToJson()).second) continue;
    out.push_back(std::move(projected).value());
  }
  return out;
}

}  // namespace couchkv::n1ql
