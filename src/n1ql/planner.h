// The N1QL query planner (paper §4.5.3): picks the access path for each
// keyspace — KeyScan (USE KEYS), IndexScan (a sargable secondary index,
// possibly covering), or PrimaryScan (full or META().id-ranged scan via the
// primary index; covering when the statement reads only META().id) — and
// records it in a QueryPlan the executor then runs.
#ifndef COUCHKV_N1QL_PLANNER_H_
#define COUCHKV_N1QL_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "gsi/index_service.h"
#include "n1ql/ast.h"

namespace couchkv::n1ql {

enum class ScanKind { kKeyScan, kIndexScan, kPrimaryScan, kNoScan };

const char* ScanKindName(ScanKind k);

// The chosen access path for the FROM keyspace.
struct ScanChoice {
  ScanKind kind = ScanKind::kNoScan;  // kNoScan: FROM-less SELECT
  // kKeyScan
  ExprPtr use_keys;
  // kIndexScan / kPrimaryScan
  std::string index_name;
  gsi::ScanRange range;  // bounds derived from sargable predicates
  bool covering = false;
  std::vector<std::string> index_key_paths;  // for covering reconstruction
  std::string range_description;             // for EXPLAIN
  // True when the WHERE clause is entirely absorbed by the scan range, so
  // LIMIT can be pushed down into the index scan.
  bool where_consumed = false;
};

struct QueryPlan {
  ScanChoice scan;
  // The WHERE the Filter operator evaluates per row: the statement's WHERE
  // less the conjuncts the scan range already implies; null when none is
  // left (EXPLAIN then lists no Filter).
  ExprPtr filter;
  // True when the statement has aggregates / GROUP BY (executor runs the
  // Group operator).
  bool has_aggregates = false;
  // Normalized texts of aggregate calls appearing anywhere in the query.
  std::vector<ExprPtr> aggregate_exprs;

  // Rendered plan for EXPLAIN (mirrors Figure 11's operator list).
  json::Value Describe(const SelectStatement& stmt) const;
};

// If `expr` is a path rooted at `alias` (or unqualified), returns its text
// relative to the document root ("a.b[0]"); otherwise nullopt.
std::optional<std::string> RelativePathText(const Expr& expr,
                                            const std::string& alias);

// Collects every aggregate call in the statement.
void CollectAggregates(const SelectStatement& stmt,
                       std::vector<ExprPtr>* out);

// Chooses the access path for `stmt` given the indexes defined on the
// bucket. `params` lets sargable bounds reference positional parameters.
StatusOr<QueryPlan> PlanSelect(const SelectStatement& stmt,
                               const std::vector<gsi::IndexDefinition>& indexes,
                               const std::vector<json::Value>& params);

}  // namespace couchkv::n1ql

#endif  // COUCHKV_N1QL_PLANNER_H_
