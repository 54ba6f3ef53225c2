#include "analytics/analytics.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/clock.h"
#include "n1ql/exec_util.h"
#include "n1ql/parser.h"
#include "n1ql/planner.h"

namespace couchkv::analytics {

using json::Value;
using n1ql::BoundDoc;
using n1ql::EvalContext;
using n1ql::ExprPtr;
using n1ql::JoinClause;
using n1ql::Row;
using n1ql::SelectStatement;

// ---------------------------------------------------------------------------
// ShadowDataset
// ---------------------------------------------------------------------------

void ShadowDataset::ApplyMutation(const kv::Mutation& m) {
  Shard& shard = ShardFor(m.doc.key);
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
    return e.kind != n1ql::ExprKind::kLiteral || true;
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

  // Base rows: full scan of the shadow dataset (no index machinery — this
  // engine is built for "richer (and more expensive) queries").
  std::vector<Row> rows;
  std::string default_alias;
  if (stmt.from.has_value()) {
    default_alias = stmt.from->alias;
    auto ds = find_dataset(stmt.from->keyspace);
    if (!ds.ok()) return ds.status();
    if (stmt.from->use_keys != nullptr) {
      EvalContext ctx;
      ctx.params = &params;
      auto keys = Eval(*stmt.from->use_keys, ctx);
      if (!keys.ok()) return keys.status();
      std::set<std::string> wanted;
      if (keys->is_string()) {
        wanted.insert(keys->AsString());
      } else if (keys->is_array()) {
        for (const Value& k : keys->AsArray()) {
          if (k.is_string()) wanted.insert(k.AsString());
        }
      }
      (*ds)->ForEach([&](const std::string& id, const Value& doc) {
        if (!wanted.count(id)) return;
        Row row;
        row.bindings[default_alias] = BoundDoc{doc, id, 0};
        rows.push_back(std::move(row));
      });
    } else {
      (*ds)->ForEach([&](const std::string& id, const Value& doc) {
        Row row;
        row.bindings[default_alias] = BoundDoc{doc, id, 0};
        rows.push_back(std::move(row));
      });
    }
    result.scanned_docs += rows.size();
  } else {
    rows.emplace_back();
  }

  // Joins: hash join for equality conditions, key join for ON KEYS,
  // UNNEST flattening, nested-loop for everything else.
  for (const JoinClause& jc : stmt.joins) {
    std::vector<Row> next;
    if (jc.kind == JoinClause::Kind::kUnnest) {
      for (Row& row : rows) {
        EvalContext ctx;
        ctx.row = &row;
        ctx.default_alias = default_alias;
        ctx.params = &params;
        auto arr = Eval(*jc.unnest_expr, ctx);
        if (!arr.ok()) return arr.status();
        if (!arr->is_array()) continue;
        for (const Value& elem : arr->AsArray()) {
          Row out = row;
          out.bindings[jc.alias] = BoundDoc{elem, "", 0};
          next.push_back(std::move(out));
        }
      }
      rows = std::move(next);
      continue;
    }

    auto right_ds = find_dataset(jc.keyspace);
    if (!right_ds.ok()) return right_ds.status();

    if (jc.on_keys != nullptr) {
      // Key join: identical semantics to the N1QL nested-loop ON KEYS join,
      // resolved against the shadow copy. Build an id map once.
      std::unordered_map<std::string, Value> by_id;
      (*right_ds)->ForEach([&](const std::string& id, const Value& doc) {
        by_id.emplace(id, doc);
      });
      result.scanned_docs += by_id.size();
      for (Row& row : rows) {
        EvalContext ctx;
        ctx.row = &row;
        ctx.default_alias = default_alias;
        ctx.params = &params;
        auto keys = Eval(*jc.on_keys, ctx);
        if (!keys.ok()) return keys.status();
        std::vector<std::string> ids;
        if (keys->is_string()) {
          ids.push_back(keys->AsString());
        } else if (keys->is_array()) {
          for (const Value& k : keys->AsArray()) {
            if (k.is_string()) ids.push_back(k.AsString());
          }
        }
        std::vector<std::pair<std::string, const Value*>> matches;
        for (const std::string& id : ids) {
          auto hit = by_id.find(id);
          if (hit != by_id.end()) matches.emplace_back(id, &hit->second);
        }
        if (jc.kind == JoinClause::Kind::kNest) {
          if (matches.empty() && jc.join_kind == n1ql::JoinKind::kInner) {
            continue;
          }
          Value::Array collected;
          for (auto& [id, doc] : matches) collected.push_back(*doc);
          Row out = std::move(row);
          out.bindings[jc.alias] =
              BoundDoc{Value::MakeArray(std::move(collected)), "", 0};
          next.push_back(std::move(out));
        } else if (matches.empty()) {
          if (jc.join_kind == n1ql::JoinKind::kLeftOuter) {
            next.push_back(std::move(row));
          }
        } else {
          for (auto& [id, doc] : matches) {
            Row out = row;
            out.bindings[jc.alias] = BoundDoc{*doc, id, 0};
            next.push_back(std::move(out));
          }
        }
      }
      rows = std::move(next);
      continue;
    }

    if (jc.on_condition == nullptr) {
      return Status::InvalidArgument("JOIN requires ON KEYS or ON <cond>");
    }
    // General join — the capability N1QL's OLTP engine refuses (§3.2.4).
    ExprPtr left_key, right_key;
    bool equi = SplitEquiJoin(*jc.on_condition, jc.alias, &left_key,
                              &right_key);
    if (equi) {
      // Hash join: build on the right dataset, probe with each left row.
      std::unordered_multimap<std::string, std::pair<std::string, Value>>
          hash_table;
      size_t built = 0;
      Status build_error;
      (*right_ds)->ForEach([&](const std::string& id, const Value& doc) {
        Row probe;
        probe.bindings[jc.alias] = BoundDoc{doc, id, 0};
        EvalContext ctx;
        ctx.row = &probe;
        ctx.default_alias = jc.alias;
        ctx.params = &params;
        auto key = Eval(*right_key, ctx);
        if (!key.ok() || key->is_missing() || key->is_null()) return;
        hash_table.emplace(key->ToJson(), std::make_pair(id, doc));
        ++built;
      });
      result.scanned_docs += built;
      for (Row& row : rows) {
        EvalContext ctx;
        ctx.row = &row;
        ctx.default_alias = default_alias;
        ctx.params = &params;
        auto key = Eval(*left_key, ctx);
        if (!key.ok()) return key.status();
        size_t matched = 0;
        if (!key->is_missing() && !key->is_null()) {
          auto [lo, hi] = hash_table.equal_range(key->ToJson());
          for (auto it = lo; it != hi; ++it) {
            Row out = row;
            out.bindings[jc.alias] =
                BoundDoc{it->second.second, it->second.first, 0};
            next.push_back(std::move(out));
            ++matched;
          }
        }
        if (matched == 0 && jc.join_kind == n1ql::JoinKind::kLeftOuter) {
          next.push_back(std::move(row));
        }
      }
    } else {
      // Nested-loop join with an arbitrary condition.
      std::vector<std::pair<std::string, Value>> right_docs;
      (*right_ds)->ForEach([&](const std::string& id, const Value& doc) {
        right_docs.emplace_back(id, doc);
      });
      result.scanned_docs += right_docs.size();
      for (Row& row : rows) {
        size_t matched = 0;
        for (auto& [id, doc] : right_docs) {
          Row candidate = row;
          candidate.bindings[jc.alias] = BoundDoc{doc, id, 0};
          EvalContext ctx;
          ctx.row = &candidate;
          ctx.default_alias = default_alias;
          ctx.params = &params;
          auto cond = EvalCondition(*jc.on_condition, ctx);
          if (!cond.ok()) return cond.status();
          if (*cond) {
            next.push_back(std::move(candidate));
            ++matched;
          }
        }
        if (matched == 0 && jc.join_kind == n1ql::JoinKind::kLeftOuter) {
          next.push_back(std::move(row));
        }
      }
    }
    rows = std::move(next);
  }

  // Filter.
  if (stmt.where != nullptr) {
    std::vector<Row> kept;
    kept.reserve(rows.size());
    for (Row& row : rows) {
      EvalContext ctx;
      ctx.row = &row;
      ctx.default_alias = default_alias;
      ctx.params = &params;
      auto cond = EvalCondition(*stmt.where, ctx);
      if (!cond.ok()) return cond.status();
      if (*cond) kept.push_back(std::move(row));
    }
    rows = std::move(kept);
  }

  // Group / aggregate / having.
  std::vector<ExprPtr> aggregates;
  n1ql::CollectAggregates(stmt, &aggregates);
  struct OutRow {
    Row row;
    std::map<std::string, Value> agg;
  };
  std::vector<OutRow> out_rows;
  if (!aggregates.empty() || !stmt.group_by.empty()) {
    std::map<std::string, std::vector<Row>> groups;
    std::map<std::string, Row> reps;
    for (Row& row : rows) {
      EvalContext ctx;
      ctx.row = &row;
      ctx.default_alias = default_alias;
      ctx.params = &params;
      std::string key;
      for (const ExprPtr& g : stmt.group_by) {
        auto v = Eval(*g, ctx);
        if (!v.ok()) return v.status();
        key += v->ToJson();
        key += '\x1f';
      }
      groups[key].push_back(row);
      reps.emplace(key, row);
    }
    if (groups.empty() && stmt.group_by.empty()) {
      groups[""] = {};
      reps.emplace("", Row{});
    }
    for (auto& [key, members] : groups) {
      OutRow out;
      out.row = reps.at(key);
      for (const ExprPtr& agg : aggregates) {
        auto v = n1ql::ComputeAggregate(*agg, members, default_alias, params);
        if (!v.ok()) return v.status();
        out.agg[agg->ToString()] = std::move(v).value();
      }
      out_rows.push_back(std::move(out));
    }
    if (stmt.having != nullptr) {
      std::vector<OutRow> kept;
      for (OutRow& out : out_rows) {
        EvalContext ctx;
        ctx.row = &out.row;
        ctx.default_alias = default_alias;
        ctx.params = &params;
        ctx.aggregates = &out.agg;
        auto cond = EvalCondition(*stmt.having, ctx);
        if (!cond.ok()) return cond.status();
        if (*cond) kept.push_back(std::move(out));
      }
      out_rows = std::move(kept);
    }
  } else {
    out_rows.reserve(rows.size());
    for (Row& row : rows) out_rows.push_back(OutRow{std::move(row), {}});
  }

  // Order.
  if (!stmt.order_by.empty()) {
    struct Keyed {
      std::vector<Value> keys;
      size_t index;
    };
    std::vector<Keyed> keyed(out_rows.size());
    for (size_t i = 0; i < out_rows.size(); ++i) {
      keyed[i].index = i;
      EvalContext ctx;
      ctx.row = &out_rows[i].row;
      ctx.default_alias = default_alias;
      ctx.params = &params;
      ctx.aggregates = &out_rows[i].agg;
      for (const n1ql::OrderKey& k : stmt.order_by) {
        auto v = Eval(*n1ql::ResolveOutputAlias(k.expr, stmt.items), ctx);
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
    std::vector<OutRow> sorted;
    sorted.reserve(out_rows.size());
    for (const Keyed& k : keyed) sorted.push_back(std::move(out_rows[k.index]));
    out_rows = std::move(sorted);
  }

  // Offset / limit.
  auto offset = n1ql::EvalCountExpr(stmt.offset, params, 0);
  if (!offset.ok()) return offset.status();
  auto limit = n1ql::EvalCountExpr(stmt.limit, params, SIZE_MAX);
  if (!limit.ok()) return limit.status();
  if (*offset > 0) {
    if (*offset >= out_rows.size()) {
      out_rows.clear();
    } else {
      out_rows.erase(out_rows.begin(),
                     out_rows.begin() + static_cast<long>(*offset));
    }
  }
  if (out_rows.size() > *limit) out_rows.resize(*limit);

  // Projection (+ DISTINCT).
  std::set<std::string> seen;
  for (const OutRow& out : out_rows) {
    EvalContext ctx;
    ctx.row = &out.row;
    ctx.default_alias = default_alias;
    ctx.params = &params;
    ctx.aggregates = &out.agg;
    auto projected = n1ql::ProjectSelectItems(stmt.items, ctx);
    if (!projected.ok()) return projected.status();
    if (stmt.distinct && !seen.insert(projected->ToJson()).second) continue;
    result.rows.push_back(std::move(projected).value());
  }
  result.elapsed_ns = Clock::Real()->NowNanos() - start;
  return result;
}

}  // namespace couchkv::analytics
