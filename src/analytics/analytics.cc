#include "analytics/analytics.h"

#include <optional>
#include <unordered_map>

#include "common/clock.h"
#include "n1ql/exec_util.h"
#include "n1ql/parser.h"
#include "n1ql/planner.h"

namespace couchkv::analytics {

using json::Value;
using n1ql::BoundDoc;
using n1ql::ExecRow;
using n1ql::ExprPtr;
using n1ql::JoinClause;
using n1ql::JoinKind;
using n1ql::RowContext;
using n1ql::SelectStatement;

// ---------------------------------------------------------------------------
// ShadowDataset
// ---------------------------------------------------------------------------

void ShadowDataset::ApplyMutation(const kv::Mutation& m) {
  Shard& shard = shards_[ShardOf(m.doc.key)];
  {
    WriterLockGuard lock(shard.mu);
    if (m.doc.meta.deleted) {
      shard.docs.erase(m.doc.key);
    } else {
      auto parsed = json::Parse(m.doc.value);
      if (parsed.ok()) {
        shard.docs[m.doc.key] = std::move(parsed).value();
      } else {
        shard.docs.erase(m.doc.key);  // non-JSON values are not analyzable
      }
    }
  }
  processed_[m.vbucket].store(m.doc.meta.seqno, std::memory_order_release);
}

void ShadowDataset::ForEach(
    const std::function<void(const std::string&, const json::Value&)>& fn)
    const {
  for (const Shard& shard : shards_) {
    ReaderLockGuard lock(shard.mu);
    for (const auto& [id, doc] : shard.docs) {
      fn(id, doc);
    }
  }
}

std::optional<Value> ShadowDataset::Get(const std::string& id) const {
  const Shard& shard = shards_[ShardOf(id)];
  ReaderLockGuard lock(shard.mu);
  auto it = shard.docs.find(id);
  if (it == shard.docs.end()) return std::nullopt;
  return it->second;
}

size_t ShadowDataset::num_docs() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    ReaderLockGuard lock(shard.mu);
    n += shard.docs.size();
  }
  return n;
}

// ---------------------------------------------------------------------------
// AnalyticsService: dataset lifecycle
// ---------------------------------------------------------------------------

Status AnalyticsService::ConnectBucket(const std::string& bucket) {
  if (cluster_->map(bucket) == nullptr) {
    return Status::NotFound("no such bucket: " + bucket);
  }
  auto ds = std::make_shared<ShadowDataset>();
  LockGuard lock(mu_);
  if (datasets_.count(bucket)) {
    return Status::KeyExists("bucket already connected: " + bucket);
  }
  auto feed = cluster::Feed::Open(
      cluster_, bucket, "analytics:" + bucket,
      [ds](cluster::NodeId, const cluster::ClusterMap&) -> dcp::MutationFn {
        return [ds](const kv::Mutation& m) {
          ds->ApplyMutation(m);
          return Status::OK();
        };
      },
      [ds](cluster::NodeId, uint16_t vb) { return ds->processed_seqno(vb); });
  datasets_[bucket] = Entry{std::move(ds), std::move(feed)};
  return Status::OK();
}

Status AnalyticsService::DisconnectBucket(const std::string& bucket) {
  LockGuard lock(mu_);
  auto it = datasets_.find(bucket);
  if (it == datasets_.end()) return Status::NotFound("bucket not connected");
  // Closed under mu_, so a reconnect cannot interleave.
  it->second.feed->Close();
  datasets_.erase(it);
  return Status::OK();
}

AnalyticsService::Entry AnalyticsService::Find(
    const std::string& bucket) const {
  LockGuard lock(mu_);
  auto it = datasets_.find(bucket);
  return it == datasets_.end() ? Entry{} : it->second;
}

Status AnalyticsService::WaitCaughtUp(const std::string& bucket,
                                      uint64_t timeout_ms) {
  Entry entry = Find(bucket);
  if (entry.feed == nullptr) return Status::NotFound("not connected");
  return entry.feed->WaitCaughtUp(timeout_ms);
}

const ShadowDataset* AnalyticsService::dataset(
    const std::string& bucket) const {
  return Find(bucket).state.get();
}

// ---------------------------------------------------------------------------
// Query execution: the "parallel database inspired" batch engine (§6.2) —
// full scans + hash joins over shadow data, never touching the data service.
// ---------------------------------------------------------------------------

namespace {

// Splits an equality join condition into (left_expr, right_expr) where the
// right side references only `right_alias`. Returns false when the
// condition is not a simple equality (falls back to nested-loop).
bool SplitEquiJoin(const n1ql::Expr& cond, const std::string& right_alias,
                   ExprPtr* left_key, ExprPtr* right_key) {
  if (cond.kind != n1ql::ExprKind::kBinary ||
      cond.binary_op != n1ql::BinaryOp::kEq) {
    return false;
  }
  auto references_only = [&](const n1ql::Expr& e, const std::string& alias,
                             auto&& self) -> bool {
    if (e.kind == n1ql::ExprKind::kPath) {
      return !e.path.empty() && !e.path[0].is_index() &&
             e.path[0].field == alias;
    }
    if (e.kind == n1ql::ExprKind::kMeta) return e.meta_alias == alias;
    for (const ExprPtr& c : e.children) {
      if (c != nullptr && !self(*c, alias, self)) return false;
    }
    return true;
  };
  const ExprPtr& a = cond.children[0];
  const ExprPtr& b = cond.children[1];
  if (references_only(*b, right_alias, references_only)) {
    *left_key = a;
    *right_key = b;
    return true;
  }
  if (references_only(*a, right_alias, references_only)) {
    *left_key = b;
    *right_key = a;
    return true;
  }
  return false;
}

// Point lookups for USE KEYS and ON KEYS: one row per id `ds` holds, in id
// order, with `alias` bound. Adds the documents found to `*scanned`.
std::vector<ExecRow> Lookup(const ShadowDataset& ds, const std::string& alias,
                            const std::vector<std::string>& ids,
                            size_t* scanned) {
  std::vector<ExecRow> found;
  for (const std::string& id : ids) {
    std::optional<Value> doc = ds.Get(id);
    if (!doc.has_value()) continue;
    ExecRow row;
    row.row.bindings[alias] = BoundDoc{std::move(*doc), id, 0};
    found.push_back(std::move(row));
  }
  *scanned += found.size();
  return found;
}

// A general join — the capability N1QL's OLTP engine refuses (§3.2.4): a
// hash join for an equality condition, a nested loop for anything else.
// Adds the right-side documents it read to `*scanned`.
Status GeneralJoin(const JoinClause& jc, const ShadowDataset& right,
                   const std::string& default_alias,
                   const std::vector<Value>& params, std::vector<ExecRow>* rows,
                   size_t* scanned) {
  std::vector<ExecRow> next;
  ExprPtr left_key, right_key;
  if (SplitEquiJoin(*jc.on_condition, jc.alias, &left_key, &right_key)) {
    // Hash join: build on the right dataset, probe with each left row.
    std::unordered_multimap<std::string, std::pair<std::string, Value>>
        hash_table;
    right.ForEach([&](const std::string& id, const Value& doc) {
      ExecRow probe;
      probe.row.bindings[jc.alias] = BoundDoc{doc, id, 0};
      auto key = Eval(*right_key, RowContext(probe, jc.alias, params));
      if (!key.ok() || key->is_missing() || key->is_null()) return;
      hash_table.emplace(key->ToJson(), std::make_pair(id, doc));
    });
    *scanned += hash_table.size();
    for (ExecRow& row : *rows) {
      auto key = Eval(*left_key, RowContext(row, default_alias, params));
      if (!key.ok()) return key.status();
      size_t matched = 0;
      if (!key->is_missing() && !key->is_null()) {
        auto [lo, hi] = hash_table.equal_range(key->ToJson());
        for (auto it = lo; it != hi; ++it) {
          ExecRow out = row;
          out.row.bindings[jc.alias] =
              BoundDoc{it->second.second, it->second.first, 0};
          next.push_back(std::move(out));
          ++matched;
        }
      }
      if (matched == 0 && jc.join_kind == JoinKind::kLeftOuter) {
        next.push_back(std::move(row));
      }
    }
  } else {
    // Nested-loop join with an arbitrary condition.
    std::vector<std::pair<std::string, Value>> right_docs;
    right.ForEach([&](const std::string& id, const Value& doc) {
      right_docs.emplace_back(id, doc);
    });
    *scanned += right_docs.size();
    for (ExecRow& row : *rows) {
      size_t matched = 0;
      for (auto& [id, doc] : right_docs) {
        ExecRow candidate = row;
        candidate.row.bindings[jc.alias] = BoundDoc{doc, id, 0};
        auto cond = EvalCondition(*jc.on_condition,
                                  RowContext(candidate, default_alias, params));
        if (!cond.ok()) return cond.status();
        if (*cond) {
          next.push_back(std::move(candidate));
          ++matched;
        }
      }
      if (matched == 0 && jc.join_kind == JoinKind::kLeftOuter) {
        next.push_back(std::move(row));
      }
    }
  }
  *rows = std::move(next);
  return Status::OK();
}

}  // namespace

StatusOr<AnalyticsResult> AnalyticsService::Query(
    const std::string& text, const std::vector<Value>& params) {
  uint64_t start = Clock::Real()->NowNanos();
  auto stmt_or = n1ql::ParseStatement(text);
  if (!stmt_or.ok()) return stmt_or.status();
  if (stmt_or->kind != n1ql::Statement::Kind::kSelect) {
    return Status::Unsupported("the analytics service is read-only");
  }
  const SelectStatement& stmt = stmt_or->select;
  AnalyticsResult result;

  auto find_dataset =
      [&](const std::string& name) -> StatusOr<std::shared_ptr<ShadowDataset>> {
    std::shared_ptr<ShadowDataset> ds = Find(name).state;
    if (ds == nullptr) {
      return Status::NotFound("bucket not connected to analytics: " + name);
    }
    return ds;
  };

  // Base rows: a full scan of the shadow dataset (no index machinery — this
  // engine is built for "richer (and more expensive) queries"), or lookups
  // for USE KEYS.
  const std::string default_alias = stmt.from ? stmt.from->alias : "";
  std::vector<ExecRow> rows;
  if (!stmt.from.has_value()) {
    rows.emplace_back();
  } else {
    auto ds = find_dataset(stmt.from->keyspace);
    if (!ds.ok()) return ds.status();
    if (stmt.from->use_keys != nullptr) {
      auto ids = n1ql::EvalUseKeys(*stmt.from->use_keys, params);
      if (!ids.ok()) return ids.status();
      rows = Lookup(**ds, default_alias, *ids, &result.scanned_docs);
    } else {
      (*ds)->ForEach([&](const std::string& id, const Value& doc) {
        ExecRow row;
        row.row.bindings[default_alias] = BoundDoc{doc, id, 0};
        rows.push_back(std::move(row));
      });
      result.scanned_docs += rows.size();
    }
  }

  // Joins: UNNEST flattening, key lookups for ON KEYS, a hash join for
  // equality conditions, a nested loop for everything else.
  for (const JoinClause& jc : stmt.joins) {
    if (jc.kind == JoinClause::Kind::kUnnest) {
      COUCHKV_RETURN_IF_ERROR(n1ql::Unnest(jc, default_alias, params, &rows));
      continue;
    }
    auto right_ds = find_dataset(jc.keyspace);
    if (!right_ds.ok()) return right_ds.status();
    if (jc.on_keys != nullptr) {
      auto lookup = [&](const std::string&, const std::string& alias,
                        const std::vector<std::string>& ids) {
        return StatusOr<std::vector<ExecRow>>(
            Lookup(**right_ds, alias, ids, &result.scanned_docs));
      };
      COUCHKV_RETURN_IF_ERROR(
          n1ql::KeyJoin(jc, default_alias, params, &rows, lookup));
      continue;
    }
    if (jc.on_condition == nullptr) {
      return Status::InvalidArgument("JOIN requires ON KEYS or ON <cond>");
    }
    COUCHKV_RETURN_IF_ERROR(GeneralJoin(jc, **right_ds, default_alias, params,
                                        &rows, &result.scanned_docs));
  }

  std::vector<ExprPtr> aggregates;
  n1ql::CollectAggregates(stmt, &aggregates);
  auto out = n1ql::FinishSelect(stmt, stmt.where, aggregates, params,
                                std::move(rows));
  if (!out.ok()) return out.status();
  result.rows = std::move(out).value();
  result.elapsed_ns = Clock::Real()->NowNanos() - start;
  return result;
}

}  // namespace couchkv::analytics
