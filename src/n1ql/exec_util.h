// The SELECT executor shared by the N1QL query service and the analytics
// service. The paper's analytics service (§6.2) runs the same dialect as the
// query service (§4.5.3, Fig. 11), so the two differ only in what they
// supply:
//   - the scan: N1QL runs an index, covered or key scan and fetches through
//     the data service; analytics scans or looks up its shadow dataset;
//   - the `fetch` behind an ON KEYS join (FetchRows vs. a dataset lookup);
//   - general (non-key) joins, which only analytics runs.
// Every other stage is here: the USE KEYS / ON KEYS id list, UNNEST, the ON
// KEYS JOIN / LEFT JOIN / NEST stage, and FinishSelect (WHERE → GROUP BY and
// aggregates → HAVING → ORDER BY → OFFSET/LIMIT → projection + DISTINCT).
#ifndef COUCHKV_N1QL_EXEC_UTIL_H_
#define COUCHKV_N1QL_EXEC_UTIL_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "n1ql/ast.h"
#include "n1ql/expr_eval.h"

namespace couchkv::n1ql {

// One row flowing through the stages: the bound documents plus, once
// grouped, its group's aggregate values keyed by normalized call text.
struct ExecRow {
  Row row;
  std::map<std::string, json::Value> aggregates;
};

// The context every stage evaluates `row` in.
EvalContext RowContext(const ExecRow& row, const std::string& default_alias,
                       const std::vector<json::Value>& params);

// The document ids a USE KEYS / ON KEYS value names: a string is one id; an
// array gives its string elements in order, duplicates kept and other
// elements skipped. nullopt when `keys` is neither a string nor an array.
std::optional<std::vector<std::string>> KeyIds(const json::Value& keys);

// Evaluates a USE KEYS expression (parameters only, no row) to its ids;
// InvalidArgument unless it yields a string or an array.
StatusOr<std::vector<std::string>> EvalUseKeys(
    const Expr& use_keys, const std::vector<json::Value>& params);

// Evaluates a LIMIT/OFFSET expression to a count; `fallback` when null.
// Counts at or above 2^64 saturate to SIZE_MAX.
StatusOr<size_t> EvalCountExpr(const ExprPtr& e,
                               const std::vector<json::Value>& params,
                               size_t fallback);

// Keeps the rows for which `cond` holds (WHERE, HAVING, DML targets).
Status FilterRows(const Expr& cond, const std::string& default_alias,
                  const std::vector<json::Value>& params,
                  std::vector<ExecRow>* rows);

// UNNEST (paper §3.2.3): repeats each row once per element of the array
// `jc.unnest_expr` yields, bound to `jc.alias`; drops a row whose value is
// not an array.
Status Unnest(const JoinClause& jc, const std::string& default_alias,
              const std::vector<json::Value>& params,
              std::vector<ExecRow>* rows);

// Appends what one left row of an ON KEYS join yields, given the inner rows
// its keys fetched (see KeyJoin).
void AppendKeyJoin(const JoinClause& jc, ExecRow row,
                   std::vector<ExecRow> inner, std::vector<ExecRow>* out);

// ON KEYS JOIN / LEFT JOIN / NEST (§3.2.4; the nested-loop key join of
// §4.5.3). For each row, evaluates `jc.on_keys` and calls
// `fetch(jc.keyspace, jc.alias, ids)`, which returns
// StatusOr<std::vector<ExecRow>>: one row binding `jc.alias` per id found,
// in id order. JOIN emits a row per inner document; LEFT keeps an unmatched
// row with the alias unbound (MISSING); NEST binds the inner documents as
// one array (and INNER NEST drops a row with none).
template <typename Fetch>
Status KeyJoin(const JoinClause& jc, const std::string& default_alias,
               const std::vector<json::Value>& params,
               std::vector<ExecRow>* rows, Fetch&& fetch) {
  std::vector<ExecRow> next;
  for (ExecRow& row : *rows) {
    auto keys = Eval(*jc.on_keys, RowContext(row, default_alias, params));
    if (!keys.ok()) return keys.status();
    auto inner = fetch(jc.keyspace, jc.alias,
                       KeyIds(*keys).value_or(std::vector<std::string>{}));
    if (!inner.ok()) return inner.status();
    AppendKeyJoin(jc, std::move(row), std::move(inner).value(), &next);
  }
  *rows = std::move(next);
  return Status::OK();
}

// The stages after the scan and joins: WHERE → GROUP BY and `aggregates`
// (the statement's aggregate calls, see CollectAggregates) → HAVING →
// ORDER BY → OFFSET/LIMIT → projection + DISTINCT. `where` is the filter
// still to evaluate: the statement's WHERE, or what a plan leaves of it
// (QueryPlan::filter); null for none. Returns the result rows.
StatusOr<std::vector<json::Value>> FinishSelect(
    const SelectStatement& stmt, const ExprPtr& where,
    const std::vector<ExprPtr>& aggregates,
    const std::vector<json::Value>& params, std::vector<ExecRow> rows);

}  // namespace couchkv::n1ql

#endif  // COUCHKV_N1QL_EXEC_UTIL_H_
