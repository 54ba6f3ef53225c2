#include "views/view_engine.h"

#include <algorithm>

#include "stats/trace.h"

namespace couchkv::views {

Status ViewEngine::CreateView(const std::string& bucket, ViewDefinition def) {
  if (!cluster_->map(bucket)) {
    return Status::NotFound("no such bucket: " + bucket);
  }
  auto state = std::make_shared<ViewState>();
  state->def = def;
  LockGuard lock(mu_);
  auto& per_bucket = views_[bucket];
  if (per_bucket.count(def.name)) {
    return Status::KeyExists("view exists: " + def.name);
  }
  auto feed = cluster::Feed::Open(
      cluster_, bucket, "view:" + bucket + ":" + def.name,
      [state](cluster::NodeId node,
              const cluster::ClusterMap& map) -> dcp::MutationFn {
        std::shared_ptr<ViewIndex> index = state->IndexOn(node);
        for (uint16_t vb = 0; vb < cluster::kNumVBuckets; ++vb) {
          index->SetVBucketActive(vb, map.ActiveFor(vb) == node);
        }
        return [index](const kv::Mutation& m) {
          // Views are maintained node-locally (no network hop).
          index->ApplyMutation(m);
          return Status::OK();
        };
      },
      [state](cluster::NodeId node, uint16_t vb) {
        return state->IndexOn(node)->processed_seqno(vb);
      });
  per_bucket[def.name] = Entry{std::move(state), std::move(feed)};
  return Status::OK();
}

Status ViewEngine::DropView(const std::string& bucket,
                            const std::string& view) {
  LockGuard lock(mu_);
  auto bit = views_.find(bucket);
  if (bit == views_.end()) return Status::NotFound("no such view");
  auto it = bit->second.find(view);
  if (it == bit->second.end()) return Status::NotFound("no such view");
  // Closed under mu_, so a re-create of the name cannot interleave.
  it->second.feed->Close();
  bit->second.erase(it);
  return Status::OK();
}

std::shared_ptr<ViewIndex> ViewEngine::ViewState::IndexOn(
    cluster::NodeId node) {
  // Views are co-located with the data (paper §3.3.1), so a node added
  // after the view was defined (rebalance-in) gets its own local index.
  LockGuard lock(mu);
  std::shared_ptr<ViewIndex>& index = indexes[node];
  if (index == nullptr) index = std::make_shared<ViewIndex>(def);
  return index;
}

StatusOr<ViewResult> ViewEngine::Query(const std::string& bucket,
                                       const std::string& view,
                                       const ViewQueryOptions& opts,
                                       Staleness stale) {
  queries_->Add();
  trace::Span span("views.query", query_ns_);
  Entry entry;
  {
    LockGuard lock(mu_);
    auto bit = views_.find(bucket);
    if (bit == views_.end()) return Status::NotFound("no such bucket");
    auto vit = bit->second.find(view);
    if (vit == bit->second.end()) return Status::NotFound("no such view");
    entry = vit->second;
  }
  const ViewState* state = entry.state.get();

  if (stale == Staleness::kFalse) {
    COUCHKV_RETURN_IF_ERROR(entry.feed->WaitCaughtUp(/*timeout_ms=*/30000));
  }

  // Scatter: scan each node's local index. Gather: merge in collation order.
  std::map<cluster::NodeId, std::shared_ptr<ViewIndex>> indexes;
  {
    LockGuard lock(state->mu);
    indexes = state->indexes;
  }
  std::vector<ViewRow> merged;
  for (auto& [node_id, index] : indexes) {
    cluster::Node* n = cluster_->node(node_id);
    if (n == nullptr || !n->healthy()) continue;
    std::vector<ViewRow> part = index->Scan(opts);
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  std::sort(merged.begin(), merged.end(),
            [&](const ViewRow& a, const ViewRow& b) {
              int c = json::Value::Compare(a.key, b.key);
              if (c != 0) return opts.descending ? c > 0 : c < 0;
              return opts.descending ? a.doc_id > b.doc_id
                                     : a.doc_id < b.doc_id;
            });

  ViewResult result;
  bool do_reduce = opts.reduce && state->def.reduce != ReduceFn::kNone;
  if (do_reduce) {
    if (opts.group) {
      // Group rows by key and reduce each group.
      size_t i = 0;
      while (i < merged.size()) {
        size_t j = i;
        std::vector<json::Value> values;
        while (j < merged.size() &&
               json::Value::Compare(merged[j].key, merged[i].key) == 0) {
          values.push_back(merged[j].value);
          ++j;
        }
        ViewRow row;
        row.key = merged[i].key;
        row.value = RunReduce(state->def.reduce, values);
        result.rows.push_back(std::move(row));
        i = j;
      }
    } else {
      std::vector<json::Value> values;
      values.reserve(merged.size());
      for (auto& r : merged) values.push_back(r.value);
      ViewRow row;
      row.key = json::Value::Null();
      row.value = RunReduce(state->def.reduce, values);
      result.rows.push_back(std::move(row));
    }
  } else {
    result.rows = std::move(merged);
  }

  // skip / limit apply to the final row stream.
  if (opts.skip > 0) {
    if (opts.skip >= result.rows.size()) {
      result.rows.clear();
    } else {
      result.rows.erase(result.rows.begin(),
                        result.rows.begin() + static_cast<long>(opts.skip));
    }
  }
  if (result.rows.size() > opts.limit) {
    result.rows.resize(opts.limit);
  }

  if (stale == Staleness::kUpdateAfter) {
    // Kick the indexers after serving (the paper's default behaviour).
    for (cluster::NodeId id : cluster_->node_ids()) {
      cluster::Node* n = cluster_->node(id);
      if (n != nullptr) n->dispatcher()->Notify();
    }
  }
  return result;
}

}  // namespace couchkv::views
