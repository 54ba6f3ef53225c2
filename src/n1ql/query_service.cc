#include "n1ql/query_service.h"

#include <algorithm>
#include <thread>

#include "common/clock.h"
#include "n1ql/exec_util.h"
#include "n1ql/parser.h"
#include "stats/trace.h"

namespace couchkv::n1ql {

using json::Value;

QueryService::QueryService(cluster::Cluster* cluster,
                           std::shared_ptr<gsi::IndexService> gsi,
                           std::shared_ptr<views::ViewEngine> views)
    : cluster_(cluster),
      gsi_(std::move(gsi)),
      views_(std::move(views)),
      pool_(std::max(4u, std::thread::hardware_concurrency())) {
  stats_scope_ = stats::Registry::Global().GetScope("n1ql");
  queries_ = stats_scope_->GetCounter("queries");
  query_errors_ = stats_scope_->GetCounter("query_errors");
  dml_mutations_ = stats_scope_->GetCounter("dml_mutations");
  query_ns_ = stats_scope_->GetHistogram("query_ns");
  fetch_ns_ = stats_scope_->GetHistogram("fetch_ns");
}

client::SmartClient* QueryService::ClientFor(const std::string& bucket) {
  LockGuard lock(mu_);
  auto it = clients_.find(bucket);
  if (it == clients_.end()) {
    it = clients_
             .emplace(bucket,
                      std::make_unique<client::SmartClient>(cluster_, bucket))
             .first;
  }
  return it->second.get();
}

StatusOr<QueryResult> QueryService::Execute(const std::string& query,
                                            const QueryOptions& opts) {
  // MDS: queries require a healthy query-service node somewhere.
  bool have_query_node = false;
  for (cluster::NodeId id : cluster_->node_ids()) {
    cluster::Node* n = cluster_->node(id);
    if (n != nullptr && n->healthy() && n->HasService(cluster::kQueryService)) {
      have_query_node = true;
      break;
    }
  }
  if (!have_query_node) {
    return Status::Unsupported("no query service node in the cluster");
  }

  queries_->Add();
  trace::Span span("n1ql.query", query_ns_);
  auto prepared = Prepare(query);
  if (!prepared.ok()) {
    query_errors_->Add();
    return prepared.status();
  }
  const Statement& stmt = **prepared;
  span.Phase("parse");

  uint64_t start = Clock::Real()->NowNanos();
  StatusOr<QueryResult> result = Status::Internal("unreachable");
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      result = ExecSelect(stmt.select, opts, stmt.explain);
      break;
    case Statement::Kind::kInsert:
      result = ExecInsert(stmt.insert, opts);
      break;
    case Statement::Kind::kUpdate:
      result = ExecUpdate(stmt.update, opts);
      break;
    case Statement::Kind::kDelete:
      result = ExecDelete(stmt.del, opts);
      break;
    case Statement::Kind::kCreateIndex:
      result = ExecCreateIndex(stmt.create_index);
      break;
    case Statement::Kind::kDropIndex:
      result = ExecDropIndex(stmt.drop_index);
      break;
  }
  span.Phase("exec");
  if (result.ok()) {
    result->metrics.elapsed_ns = Clock::Real()->NowNanos() - start;
    result->metrics.result_count = result->rows.size();
    dml_mutations_->Add(result->metrics.mutation_count);
  } else {
    query_errors_->Add();
  }
  return result;
}

StatusOr<std::shared_ptr<const Statement>> QueryService::Prepare(
    const std::string& query) {
  {
    LockGuard lock(mu_);
    auto it = statements_.find(query);
    if (it != statements_.end()) return it->second;
  }
  auto parsed = ParseStatement(query);
  if (!parsed.ok()) return parsed.status();
  auto stmt = std::make_shared<const Statement>(std::move(parsed).value());
  LockGuard lock(mu_);
  if (statements_.size() >= kStatementCacheEntries &&
      !statements_.contains(query)) {
    statements_.erase(statements_.begin());
  }
  statements_.emplace(query, stmt);
  return stmt;
}

size_t QueryService::cached_statements() const {
  LockGuard lock(mu_);
  return statements_.size();
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

StatusOr<std::vector<ExecRow>> QueryService::FetchRows(
    const std::string& bucket, const std::string& alias,
    const std::vector<std::string>& ids, QueryMetrics* metrics) {
  // Fetch is parallelized across the pool (paper §4.5.3: "The execution of
  // the fetch operator is parallelized").
  trace::Span span("n1ql.fetch", fetch_ns_);
  client::SmartClient* client = ClientFor(bucket);
  std::vector<std::optional<ExecRow>> slots(ids.size());
  std::atomic<size_t> fetched{0};
  auto fetch_one = [&](size_t i) {
    auto reply = client->Get(ids[i]);
    if (!reply.ok()) return;
    auto parsed = json::Parse(reply->value);
    if (!parsed.ok()) return;
    ExecRow row;
    row.row.bindings[alias] =
        BoundDoc{std::move(parsed).value(), ids[i], reply->cas};
    slots[i] = std::move(row);
    fetched.fetch_add(1, std::memory_order_relaxed);
  };
  // Small fetches run inline: per-task pool overhead would dominate, and
  // concurrent queries would contend on the shared pool's queue.
  constexpr size_t kParallelFetchThreshold = 64;
  if (ids.size() < kParallelFetchThreshold) {
    for (size_t i = 0; i < ids.size(); ++i) fetch_one(i);
  } else {
    // Per-call completion latch: the pool is shared across concurrent
    // queries, so waiting for global pool idleness would stall under load.
    Mutex done_mu{"n1ql.scatter_done"};
    CondVar done_cv;
    size_t outstanding = ids.size();
    for (size_t i = 0; i < ids.size(); ++i) {
      pool_.Submit([&, i] {
        fetch_one(i);
        LockGuard lock(done_mu);
        if (--outstanding == 0) done_cv.NotifyAll();
      });
    }
    UniqueLock lock(done_mu);
    while (outstanding > 0) done_cv.Wait(lock);
  }
  metrics->docs_fetched += fetched.load();
  std::vector<ExecRow> rows;
  rows.reserve(ids.size());
  for (auto& slot : slots) {
    if (slot.has_value()) rows.push_back(std::move(*slot));
  }
  return rows;
}

StatusOr<std::vector<ExecRow>> QueryService::RunScan(
    const SelectStatement& stmt, const QueryPlan& plan,
    const QueryOptions& opts, QueryMetrics* metrics) {
  if (plan.scan.kind == ScanKind::kNoScan) {
    // SELECT without FROM: one empty row.
    return std::vector<ExecRow>{ExecRow{}};
  }
  const FromTerm& from = *stmt.from;

  if (plan.scan.kind == ScanKind::kKeyScan) {
    auto ids = EvalUseKeys(*plan.scan.use_keys, opts.params);
    if (!ids.ok()) return ids.status();
    return FetchRows(from.keyspace, from.alias, *ids, metrics);
  }

  // Index-backed scans. Push LIMIT+OFFSET into the index scan only when the
  // rest of the pipeline cannot drop or reorder rows.
  size_t scan_limit = SIZE_MAX;
  if (plan.scan.where_consumed && stmt.joins.empty() &&
      stmt.order_by.empty() && stmt.group_by.empty() &&
      !plan.has_aggregates && !stmt.distinct) {
    auto limit = EvalCountExpr(stmt.limit, opts.params, SIZE_MAX);
    if (!limit.ok()) return limit.status();
    auto offset = EvalCountExpr(stmt.offset, opts.params, 0);
    if (!offset.ok()) return offset.status();
    scan_limit = *limit > SIZE_MAX - *offset ? SIZE_MAX : *limit + *offset;
  }

  auto entries = gsi_->Scan(from.keyspace, plan.scan.index_name,
                            plan.scan.range, scan_limit, opts.consistency);
  if (!entries.ok()) return entries.status();

  if (plan.scan.covering) {
    // Covered query (paper §5.1.2): reconstruct the referenced fields from
    // the index entries; no document fetch at all. A covered PrimaryScan
    // binds an empty document that carries only META().id. Rows are as
    // fresh as the index: an id deleted after the index last caught up
    // still appears unless the scan is request_plus.
    std::vector<ExecRow> rows;
    rows.reserve(entries->size());
    for (gsi::IndexEntry& e : *entries) {
      Value doc = Value::MakeObject();
      if (plan.scan.index_key_paths.size() == 1) {
        doc.SetPath(plan.scan.index_key_paths[0], e.key);
      } else if (e.key.is_array()) {
        const auto& parts = e.key.AsArray();
        for (size_t i = 0;
             i < plan.scan.index_key_paths.size() && i < parts.size(); ++i) {
          doc.SetPath(plan.scan.index_key_paths[i], parts[i]);
        }
      }
      ExecRow row;
      row.row.bindings[from.alias] =
          BoundDoc{std::move(doc), std::move(e.doc_id), 0};
      rows.push_back(std::move(row));
    }
    return rows;
  }

  std::vector<std::string> ids;
  ids.reserve(entries->size());
  for (const gsi::IndexEntry& e : *entries) ids.push_back(e.doc_id);
  return FetchRows(from.keyspace, from.alias, ids, metrics);
}

StatusOr<QueryResult> QueryService::ExecSelect(const SelectStatement& stmt,
                                               const QueryOptions& opts,
                                               bool explain) {
  // §3.2.4: general (non-key) joins are linguistically restricted — "joins
  // are only allowed when one of the two sides involves the primary key".
  // The analytics service (§6.2) runs them instead.
  for (const JoinClause& jc : stmt.joins) {
    if (jc.kind == JoinClause::Kind::kJoin && jc.on_keys == nullptr) {
      return Status::Unsupported(
          "general join conditions are not supported by the query service; "
          "use ON KEYS, or run the query on the analytics service");
    }
  }
  std::vector<gsi::IndexDefinition> indexes;
  if (stmt.from.has_value()) {
    indexes = gsi_->ListIndexes(stmt.from->keyspace);
  }
  auto plan_or = PlanSelect(stmt, indexes, opts.params);
  if (!plan_or.ok()) return plan_or.status();
  QueryPlan& plan = *plan_or;

  QueryResult result;
  if (explain) {
    result.rows.push_back(plan.Describe(stmt));
    return result;
  }

  // Scan (+ implicit fetch).
  auto rows = RunScan(stmt, plan, opts, &result.metrics);
  if (!rows.ok()) return rows.status();

  // Joins / NEST / UNNEST. ON KEYS fetches the inner documents through the
  // data service: the nested-loop key join of §4.5.3.
  const std::string default_alias = stmt.from ? stmt.from->alias : "";
  auto fetch = [&](const std::string& keyspace, const std::string& alias,
                   const std::vector<std::string>& ids) {
    return FetchRows(keyspace, alias, ids, &result.metrics);
  };
  for (const JoinClause& jc : stmt.joins) {
    COUCHKV_RETURN_IF_ERROR(
        jc.kind == JoinClause::Kind::kUnnest
            ? Unnest(jc, default_alias, opts.params, &*rows)
            : KeyJoin(jc, default_alias, opts.params, &*rows, fetch));
  }

  auto out = FinishSelect(stmt, plan.filter, plan.aggregate_exprs,
                          opts.params, std::move(rows).value());
  if (!out.ok()) return out.status();
  result.rows = std::move(out).value();
  return result;
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

StatusOr<QueryResult> QueryService::ExecInsert(const InsertStatement& stmt,
                                               const QueryOptions& opts) {
  client::SmartClient* client = ClientFor(stmt.keyspace);
  QueryResult result;
  EvalContext ctx;
  ctx.params = &opts.params;
  for (const auto& [key_expr, value_expr] : stmt.values) {
    auto key = Eval(*key_expr, ctx);
    if (!key.ok()) return key.status();
    if (!key->is_string()) {
      return Status::InvalidArgument("INSERT key must be a string");
    }
    auto value = Eval(*value_expr, ctx);
    if (!value.ok()) return value.status();
    StatusOr<client::MutateReply> reply =
        stmt.upsert ? client->Upsert(key->AsString(), value->ToJson())
                    : client->Insert(key->AsString(), value->ToJson());
    if (!reply.ok()) return reply.status();
    ++result.metrics.mutation_count;
  }
  return result;
}

StatusOr<std::vector<ExecRow>> QueryService::ResolveDmlTargets(
    const std::string& keyspace, const std::string& alias,
    const ExprPtr& use_keys, const ExprPtr& where, const QueryOptions& opts,
    QueryMetrics* metrics) {
  // Reuse the SELECT machinery: build a synthetic `SELECT * FROM ks ...`.
  SelectStatement synth;
  SelectItem star;
  star.star = true;
  synth.items.push_back(star);
  FromTerm from;
  from.keyspace = keyspace;
  from.alias = alias;
  from.use_keys = use_keys;
  synth.from = from;
  synth.where = where;

  auto plan = PlanSelect(synth, gsi_->ListIndexes(keyspace), opts.params);
  if (!plan.ok()) return plan.status();
  // DML must see the document body, never a covered projection.
  plan->scan.covering = false;
  auto rows = RunScan(synth, *plan, opts, metrics);
  if (!rows.ok() || plan->filter == nullptr) return rows;
  COUCHKV_RETURN_IF_ERROR(
      FilterRows(*plan->filter, alias, opts.params, &*rows));
  return rows;
}

StatusOr<QueryResult> QueryService::ExecUpdate(const UpdateStatement& stmt,
                                               const QueryOptions& opts) {
  QueryResult result;
  auto targets = ResolveDmlTargets(stmt.keyspace, stmt.alias, stmt.use_keys,
                                   stmt.where, opts, &result.metrics);
  if (!targets.ok()) return targets.status();
  auto limit = EvalCountExpr(stmt.limit, opts.params, SIZE_MAX);
  if (!limit.ok()) return limit.status();
  if (targets->size() > *limit) targets->resize(*limit);

  client::SmartClient* client = ClientFor(stmt.keyspace);
  for (ExecRow& row : *targets) {
    BoundDoc& bound = row.row.bindings[stmt.alias];
    Value doc = bound.value;
    EvalContext ctx = RowContext(row, stmt.alias, opts.params);
    for (const UpdatePair& pair : stmt.set) {
      auto v = Eval(*pair.value, ctx);
      if (!v.ok()) return v.status();
      if (!doc.SetPath(pair.path, std::move(v).value())) {
        return Status::InvalidArgument("cannot SET path " + pair.path);
      }
    }
    for (const std::string& path : stmt.unset) {
      doc.RemovePath(path);
    }
    client::WriteOptions wopts;
    wopts.cas = bound.meta_cas;  // optimistic: fail on concurrent change
    auto reply = client->Replace(bound.meta_id, doc.ToJson(), wopts);
    if (!reply.ok()) {
      if (reply.status().IsKeyExists()) continue;  // lost the race: skip
      return reply.status();
    }
    ++result.metrics.mutation_count;
  }
  return result;
}

StatusOr<QueryResult> QueryService::ExecDelete(const DeleteStatement& stmt,
                                               const QueryOptions& opts) {
  QueryResult result;
  auto targets = ResolveDmlTargets(stmt.keyspace, stmt.alias, stmt.use_keys,
                                   stmt.where, opts, &result.metrics);
  if (!targets.ok()) return targets.status();
  auto limit = EvalCountExpr(stmt.limit, opts.params, SIZE_MAX);
  if (!limit.ok()) return limit.status();
  if (targets->size() > *limit) targets->resize(*limit);

  client::SmartClient* client = ClientFor(stmt.keyspace);
  for (ExecRow& row : *targets) {
    BoundDoc& bound = row.row.bindings[stmt.alias];
    auto reply = client->Remove(bound.meta_id, bound.meta_cas);
    if (!reply.ok()) {
      if (reply.status().IsKeyExists() || reply.status().IsNotFound()) continue;
      return reply.status();
    }
    ++result.metrics.mutation_count;
  }
  return result;
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

StatusOr<QueryResult> QueryService::ExecCreateIndex(
    const CreateIndexStatement& stmt) {
  if (stmt.using_clause == CreateIndexStatement::Using::kView) {
    // USING VIEW (paper §3.3.1): materialize a local view index keyed on the
    // indexed paths. Queryable through the View API.
    views::ViewDefinition def;
    def.name = stmt.name;
    for (const ExprPtr& key : stmt.keys) {
      auto rel = RelativePathText(*key, stmt.keyspace);
      if (!rel.has_value()) {
        return Status::Unsupported("USING VIEW requires plain path keys");
      }
      def.map.key_paths.push_back(*rel);
    }
    if (!def.map.key_paths.empty()) {
      def.map.filter_exists_path = def.map.key_paths[0];
    }
    if (stmt.primary) {
      return Status::Unsupported(
          "PRIMARY INDEX USING VIEW is not supported; use GSI");
    }
    COUCHKV_RETURN_IF_ERROR(views_->CreateView(stmt.keyspace, def));
    LockGuard lock(mu_);
    view_indexes_[stmt.keyspace + "." + stmt.name] = stmt.name;
    return QueryResult{};
  }

  gsi::IndexDefinition def;
  def.name = stmt.name;
  def.bucket = stmt.keyspace;
  def.is_primary = stmt.primary;
  def.array_index = stmt.array_index;
  def.num_partitions = stmt.num_partitions;
  def.mode = stmt.memory_optimized ? gsi::IndexStorageMode::kMemoryOptimized
                                   : gsi::IndexStorageMode::kStandard;
  for (const ExprPtr& key : stmt.keys) {
    auto rel = RelativePathText(*key, stmt.keyspace);
    if (!rel.has_value()) {
      return Status::Unsupported(
          "only plain document paths can be indexed (got " + key->ToString() +
          ")");
    }
    def.key_paths.push_back(*rel);
  }
  if (stmt.where != nullptr) {
    def.where_text = stmt.where->ToString();
    ExprPtr where = stmt.where;
    std::string alias = stmt.keyspace;
    def.where_fn = [where, alias](const json::Value& doc) {
      Row row;
      row.bindings[alias] = BoundDoc{doc, "", 0};
      EvalContext ctx;
      ctx.row = &row;
      ctx.default_alias = alias;
      auto cond = EvalCondition(*where, ctx);
      return cond.ok() && *cond;
    };
  }
  COUCHKV_RETURN_IF_ERROR(gsi_->CreateIndex(std::move(def)));
  return QueryResult{};
}

StatusOr<QueryResult> QueryService::ExecDropIndex(
    const DropIndexStatement& stmt) {
  {
    LockGuard lock(mu_);
    auto it = view_indexes_.find(stmt.keyspace + "." + stmt.name);
    if (it != view_indexes_.end()) {
      Status st = views_->DropView(stmt.keyspace, it->second);
      if (st.ok()) view_indexes_.erase(it);
      if (!st.ok()) return st;
      return QueryResult{};
    }
  }
  COUCHKV_RETURN_IF_ERROR(gsi_->DropIndex(stmt.keyspace, stmt.name));
  return QueryResult{};
}

}  // namespace couchkv::n1ql
