// The Query Service (paper §4.3.5, §4.5): parses N1QL (once per statement
// text, kept in a bounded statement cache), plans each call against the
// index catalog, and executes the operator pipeline of Figure 11. It owns the
// access paths — the planner, RunScan (covered, index and key scans with
// LIMIT pushdown) and the parallel FetchRows — and hands the rows to the
// SELECT stages it shares with the analytics service (n1ql/exec_util.h):
// join/nest/unnest → filter → group → sort → limit → project. Also executes
// DML and index DDL.
#ifndef COUCHKV_N1QL_QUERY_SERVICE_H_
#define COUCHKV_N1QL_QUERY_SERVICE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/smart_client.h"
#include "cluster/cluster.h"
#include "common/synchronization.h"
#include "common/thread_pool.h"
#include "gsi/index_service.h"
#include "n1ql/ast.h"
#include "n1ql/exec_util.h"
#include "n1ql/planner.h"
#include "stats/registry.h"
#include "views/view_engine.h"

namespace couchkv::n1ql {

struct QueryOptions {
  std::vector<json::Value> params;  // positional $1, $2, ...
  // Query scan consistency (paper §3.2.3): not_bounded or request_plus.
  gsi::ScanConsistency consistency = gsi::ScanConsistency::kNotBounded;
};

struct QueryMetrics {
  uint64_t elapsed_ns = 0;
  size_t result_count = 0;
  size_t docs_fetched = 0;    // Fetch-operator document reads
  size_t mutation_count = 0;  // DML statements
};

struct QueryResult {
  std::vector<json::Value> rows;
  QueryMetrics metrics;
};

class QueryService {
 public:
  QueryService(cluster::Cluster* cluster,
               std::shared_ptr<gsi::IndexService> gsi,
               std::shared_ptr<views::ViewEngine> views);

  // Parses (or finds already parsed) and executes one N1QL statement.
  StatusOr<QueryResult> Execute(const std::string& query,
                                const QueryOptions& opts = {});

  // The most statements kept parsed. Past it, caching a new text evicts an
  // arbitrary entry.
  static constexpr size_t kStatementCacheEntries = 1024;
  // How many statements are kept parsed now.
  size_t cached_statements() const;

 private:
  // The parsed statement for `query`: from the statement cache, or parsed
  // and cached (only texts that parse are kept). A hit costs one lock and
  // one map lookup. Plans are not cached: planning runs per call against
  // the indexes of the moment, so index DDL invalidates nothing.
  StatusOr<std::shared_ptr<const Statement>> Prepare(const std::string& query);

  client::SmartClient* ClientFor(const std::string& bucket);

  StatusOr<QueryResult> ExecSelect(const SelectStatement& stmt,
                                   const QueryOptions& opts, bool explain);
  StatusOr<QueryResult> ExecInsert(const InsertStatement& stmt,
                                   const QueryOptions& opts);
  StatusOr<QueryResult> ExecUpdate(const UpdateStatement& stmt,
                                   const QueryOptions& opts);
  StatusOr<QueryResult> ExecDelete(const DeleteStatement& stmt,
                                   const QueryOptions& opts);
  StatusOr<QueryResult> ExecCreateIndex(const CreateIndexStatement& stmt);
  StatusOr<QueryResult> ExecDropIndex(const DropIndexStatement& stmt);

  // --- operators ---
  // Runs the chosen scan, producing bound rows. Sets metrics.docs_fetched.
  StatusOr<std::vector<ExecRow>> RunScan(const SelectStatement& stmt,
                                         const QueryPlan& plan,
                                         const QueryOptions& opts,
                                         QueryMetrics* metrics);
  // Parallel fetch of documents by id; missing ids are skipped.
  StatusOr<std::vector<ExecRow>> FetchRows(const std::string& bucket,
                                           const std::string& alias,
                                           const std::vector<std::string>& ids,
                                           QueryMetrics* metrics);

  // Resolves the target documents for UPDATE/DELETE.
  StatusOr<std::vector<ExecRow>> ResolveDmlTargets(
      const std::string& keyspace, const std::string& alias,
      const ExprPtr& use_keys, const ExprPtr& where, const QueryOptions& opts,
      QueryMetrics* metrics);

  cluster::Cluster* cluster_;
  std::shared_ptr<gsi::IndexService> gsi_;
  std::shared_ptr<views::ViewEngine> views_;
  ThreadPool pool_;

  // Service-wide observability (scope "n1ql"): statement counts, end-to-end
  // query latency, and the fan-out fetch operator's latency.
  std::shared_ptr<stats::Scope> stats_scope_;
  stats::Counter* queries_ = nullptr;
  stats::Counter* query_errors_ = nullptr;
  stats::Counter* dml_mutations_ = nullptr;
  Histogram* query_ns_ = nullptr;
  Histogram* fetch_ns_ = nullptr;

  mutable Mutex mu_{"n1ql.query_service"};
  std::map<std::string, std::unique_ptr<client::SmartClient>> clients_
      GUARDED_BY(mu_);
  // The statement cache (see Prepare): text -> immutable parsed statement,
  // shared with the calls running it.
  std::unordered_map<std::string, std::shared_ptr<const Statement>>
      statements_ GUARDED_BY(mu_);
  // Indexes created USING VIEW (paper §3.3.1), tracked for DROP INDEX.
  // "bucket.name" -> view
  std::map<std::string, std::string> view_indexes_ GUARDED_BY(mu_);
};

}  // namespace couchkv::n1ql

#endif  // COUCHKV_N1QL_QUERY_SERVICE_H_
