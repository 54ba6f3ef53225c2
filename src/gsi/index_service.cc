#include "gsi/index_service.h"

#include <algorithm>
#include <thread>

#include "stats/trace.h"

namespace couchkv::gsi {

std::vector<json::Value> ProjectKeys(const IndexDefinition& def,
                                     const std::string& doc_id,
                                     const json::Value* doc) {
  if (doc == nullptr) return {};  // deletion: drop all entries
  if (def.where_fn && !def.where_fn(*doc)) return {};  // partial index filter
  if (def.is_primary) {
    return {json::Value::Str(doc_id)};
  }
  if (def.key_paths.empty()) return {};

  const json::Value& leading = doc->GetPath(def.key_paths[0]);
  // Couchbase does not index documents whose leading key is MISSING.
  if (leading.is_missing()) return {};

  auto make_key = [&](const json::Value& lead) -> json::Value {
    if (def.key_paths.size() == 1) return lead;
    json::Value::Array parts;
    parts.push_back(lead);
    for (size_t i = 1; i < def.key_paths.size(); ++i) {
      parts.push_back(doc->GetPath(def.key_paths[i]));
    }
    return json::Value::MakeArray(std::move(parts));
  };

  if (def.array_index) {
    // Array index (paper §6.1.2): one entry per element of the leading
    // array, so predicates over array contents become index scans.
    if (!leading.is_array()) return {};
    std::vector<json::Value> keys;
    keys.reserve(leading.AsArray().size());
    for (const json::Value& elem : leading.AsArray()) {
      keys.push_back(make_key(elem));
    }
    return keys;
  }
  return {make_key(leading)};
}

Status IndexService::CreateIndex(IndexDefinition def) {
  if (def.name.empty() || def.bucket.empty()) {
    return Status::InvalidArgument("index needs name and bucket");
  }
  if (!def.is_primary && def.key_paths.empty()) {
    return Status::InvalidArgument("secondary index needs key paths");
  }
  if (def.num_partitions == 0) def.num_partitions = 1;
  auto map = cluster_->map(def.bucket);
  if (!map) return Status::NotFound("no such bucket: " + def.bucket);

  // Place partitions round-robin across healthy index-service nodes.
  std::vector<cluster::NodeId> index_nodes;
  for (cluster::NodeId id : cluster_->node_ids()) {
    cluster::Node* n = cluster_->node(id);
    if (n != nullptr && n->healthy() && n->HasService(cluster::kIndexService)) {
      index_nodes.push_back(id);
    }
  }
  if (index_nodes.empty()) return Status::Unsupported("no index nodes");

  auto state = std::make_shared<IndexState>();
  state->def = def;
  for (uint32_t p = 0; p < def.num_partitions; ++p) {
    cluster::NodeId host = index_nodes[p % index_nodes.size()];
    std::unique_ptr<storage::File> log;
    if (def.mode == IndexStorageMode::kStandard) {
      std::string path = "gsi." + def.bucket + "." + def.name + ".p" +
                         std::to_string(p) + ".log";
      auto file_or = cluster_->node(host)->env()->Open(path);
      if (!file_or.ok()) return file_or.status();
      log = std::move(file_or).value();
    }
    state->partitions.push_back(
        std::make_shared<IndexPartition>(def, p, std::move(log)));
    state->placement.push_back(host);
  }

  LockGuard lock(mu_);
  auto& per_bucket = indexes_[def.bucket];
  if (per_bucket.count(def.name)) {
    return Status::KeyExists("index exists: " + def.name);
  }
  auto feed = cluster::Feed::Open(
      cluster_, def.bucket, "gsi:" + def.bucket + ":" + def.name,
      [state, cluster = cluster_, projected = keys_projected_,
       routed = routed_keys_](cluster::NodeId node,
                              const cluster::ClusterMap&) {
        return Projector(state, cluster, node, projected, routed);
      },
      [state](cluster::NodeId, uint16_t vb) {
        // Min processed seqno across partitions.
        uint64_t min_seqno = UINT64_MAX;
        for (const auto& p : state->partitions) {
          min_seqno = std::min(min_seqno, p->processed_seqno(vb));
        }
        return min_seqno;
      });
  per_bucket[def.name] = Entry{std::move(state), std::move(feed)};
  return Status::OK();
}

Status IndexService::DropIndex(const std::string& bucket,
                               const std::string& name) {
  LockGuard lock(mu_);
  auto bit = indexes_.find(bucket);
  if (bit == indexes_.end()) return Status::NotFound("no such index");
  auto it = bit->second.find(name);
  if (it == bit->second.end()) return Status::NotFound("no such index");
  // Closed under mu_, so a re-create of the name cannot interleave.
  it->second.feed->Close();
  bit->second.erase(it);
  return Status::OK();
}

IndexService::Entry IndexService::Find(const std::string& bucket,
                                       const std::string& name) const {
  LockGuard lock(mu_);
  auto bit = indexes_.find(bucket);
  if (bit == indexes_.end()) return {};
  auto it = bit->second.find(name);
  return it == bit->second.end() ? Entry{} : it->second;
}

std::vector<IndexDefinition> IndexService::ListIndexes(
    const std::string& bucket) const {
  LockGuard lock(mu_);
  std::vector<IndexDefinition> out;
  auto bit = indexes_.find(bucket);
  if (bit == indexes_.end()) return out;
  for (const auto& [name, entry] : bit->second) {
    out.push_back(entry.state->def);
  }
  return out;
}

dcp::MutationFn IndexService::Projector(std::shared_ptr<IndexState> state,
                                        cluster::Cluster* cluster,
                                        cluster::NodeId node,
                                        stats::Counter* projected,
                                        stats::Counter* routed) {
  return [state, cluster, node, projected, routed](const kv::Mutation& m) {
    // Projector: evaluate the secondary keys for this mutation.
    const IndexDefinition& def = state->def;
    KeyVersion kv;
    kv.index_name = def.name;
    kv.doc_id = m.doc.key;
    kv.vbucket = m.vbucket;
    kv.seqno = m.doc.meta.seqno;
    if (!m.doc.meta.deleted) {
      if (def.is_primary && !def.where_fn) {
        // The key is the id, so the body is only checked, never built: a
        // value Parse rejects stays out of every index alike.
        if (json::Validate(m.doc.value).ok()) {
          kv.keys.push_back(json::Value::Str(m.doc.key));
        }
      } else {
        auto parsed = json::Parse(m.doc.value);
        if (parsed.ok()) {
          kv.keys = ProjectKeys(def, m.doc.key, &parsed.value());
        }
      }
    }
    projected->Add(kv.keys.size());
    // Router: with a broadcast scheme, an insert lands on the partition
    // owning the new key while deletes land wherever old entries live
    // (paper §4.3.4: "An insert message may be sent to one indexer with a
    // delete message being sent to another ... if the partition key itself
    // has changed").
    net::Transport* t = cluster->transport();
    for (size_t i = 0; i < state->partitions.size(); ++i) {
      IndexPartition* p = state->partitions[i].get();
      Status st = net::Call(t, net::Endpoint::Node(node),
                            net::Endpoint::Node(state->placement[i]), [&] {
                              p->Apply(kv);
                              return Status::OK();
                            });
      // Partial broadcast is fine: the re-delivery re-applies to every
      // partition, and Apply replaces a document's entries wholesale.
      if (!st.ok()) return st;
    }
    routed->Add();
    return Status::OK();
  };
}

Status IndexService::WaitUntilCaughtUp(const std::string& bucket,
                                       const std::string& name,
                                       uint64_t timeout_ms) {
  Entry entry = Find(bucket, name);
  if (entry.feed == nullptr) return Status::NotFound("no such index");
  // The request_plus barrier of §3.2.3 / §4.2.
  return entry.feed->WaitCaughtUp(timeout_ms);
}

StatusOr<std::vector<IndexEntry>> IndexService::Scan(
    const std::string& bucket, const std::string& name, const ScanRange& range,
    size_t limit, ScanConsistency consistency) {
  std::shared_ptr<IndexState> state = Find(bucket, name).state;
  if (state == nullptr) return Status::NotFound("no such index");
  scans_->Add();
  trace::Span span("gsi.scan", scan_ns_);
  if (consistency == ScanConsistency::kRequestPlus) {
    COUCHKV_RETURN_IF_ERROR(WaitUntilCaughtUp(bucket, name));
  }
  span.Phase("barrier");
  // Scatter: scan each partition on its index node; gather: merge in key
  // order. Each partition scan is one round trip on the query-service ->
  // index-node link, retried a few times under transient faults. Every
  // partition returns its entries in (key, doc_id) order, so gathering is a
  // merge of sorted runs, not a sort; the first run (all of a one-partition
  // index) is taken as it is.
  auto entry_less = [](const IndexEntry& a, const IndexEntry& b) {
    int c = json::Value::Compare(a.key, b.key);
    if (c != 0) return c < 0;
    return a.doc_id < b.doc_id;
  };
  net::Transport* t = cluster_->transport();
  std::vector<IndexEntry> merged;
  for (size_t i = 0; i < state->partitions.size(); ++i) {
    IndexPartition* p = state->partitions[i].get();
    std::vector<IndexEntry> part;
    Status st = Status::OK();
    for (int attempt = 0; attempt < 16; ++attempt) {
      if (attempt > 0) scan_retries_->Add();
      part.clear();
      st = net::Call(t, net::Endpoint::Service(net::kServiceQuery),
                     net::Endpoint::Node(state->placement[i]), [&] {
                       part = p->Scan(range, limit);
                       return Status::OK();
                     });
      if (st.ok()) break;
      std::this_thread::yield();
    }
    if (!st.ok()) return st;  // partition unreachable: the scan fails whole
    if (i == 0) {
      merged = std::move(part);  // already sorted and within the limit
      continue;
    }
    auto run = static_cast<std::ptrdiff_t>(merged.size());
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
    std::inplace_merge(merged.begin(), merged.begin() + run, merged.end(),
                       entry_less);
    if (merged.size() > limit) merged.resize(limit);
  }
  return merged;
}

IndexStats IndexService::Stats(const std::string& bucket,
                               const std::string& name) const {
  IndexStats stats;
  std::shared_ptr<IndexState> state = Find(bucket, name).state;
  if (state == nullptr) return stats;
  stats.name = name;
  stats.num_partitions = state->def.num_partitions;
  for (const auto& p : state->partitions) {
    stats.num_entries += p->num_entries();
    stats.disk_bytes_written += p->disk_bytes_written();
  }
  return stats;
}

}  // namespace couchkv::gsi
