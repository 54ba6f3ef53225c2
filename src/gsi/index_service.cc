#include "gsi/index_service.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"
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

  {
    LockGuard lock(mu_);
    auto& per_bucket = indexes_[def.bucket];
    if (per_bucket.count(def.name)) {
      return Status::KeyExists("index exists: " + def.name);
    }
    per_bucket[def.name] = state;
  }
  WireIndex(def.bucket, state);
  return Status::OK();
}

Status IndexService::DropIndex(const std::string& bucket,
                               const std::string& name) {
  std::shared_ptr<IndexState> state;
  {
    LockGuard lock(mu_);
    auto bit = indexes_.find(bucket);
    if (bit == indexes_.end()) return Status::NotFound("no such index");
    auto it = bit->second.find(name);
    if (it == bit->second.end()) return Status::NotFound("no such index");
    state = it->second;
    bit->second.erase(it);
  }
  for (cluster::NodeId id : cluster_->node_ids()) {
    cluster::Node* n = cluster_->node(id);
    std::shared_ptr<cluster::Bucket> b = n ? n->bucket(bucket) : nullptr;
    if (b != nullptr) b->producer()->RemoveStreamsNamed(StreamName(state->def));
  }
  return Status::OK();
}

std::vector<IndexDefinition> IndexService::ListIndexes(
    const std::string& bucket) const {
  LockGuard lock(mu_);
  std::vector<IndexDefinition> out;
  auto bit = indexes_.find(bucket);
  if (bit == indexes_.end()) return out;
  for (const auto& [name, state] : bit->second) out.push_back(state->def);
  return out;
}

StatusOr<IndexDefinition> IndexService::GetIndex(
    const std::string& bucket, const std::string& name) const {
  LockGuard lock(mu_);
  auto bit = indexes_.find(bucket);
  if (bit != indexes_.end()) {
    auto it = bit->second.find(name);
    if (it != bit->second.end()) return it->second->def;
  }
  return Status::NotFound("no such index: " + name);
}

Status IndexService::Route(net::Transport* t, cluster::NodeId src_node,
                           IndexState* state, const KeyVersion& kv) {
  // The router decides which indexer receives the key version. With a
  // broadcast scheme, an insert lands on the partition owning the new key
  // while deletes land wherever old entries live (paper §4.3.4: "An insert
  // message may be sent to one indexer with a delete message being sent to
  // another ... if the partition key itself has changed").
  for (size_t i = 0; i < state->partitions.size(); ++i) {
    IndexPartition* p = state->partitions[i].get();
    Status st =
        net::Call(t, net::Endpoint::Node(src_node),
                  net::Endpoint::Node(state->placement[i]), [&] {
                    p->Apply(kv);
                    return Status::OK();
                  });
    // Partial broadcast is fine: the re-delivery re-applies to every
    // partition, and Apply replaces a document's entries wholesale, so
    // applying the same key version twice is a no-op.
    if (!st.ok()) return st;
  }
  return Status::OK();
}

void IndexService::WireIndex(const std::string& bucket,
                             std::shared_ptr<IndexState> state) {
  auto map = cluster_->map(bucket);
  if (!map) return;
  const std::string stream = StreamName(state->def);
  for (cluster::NodeId id : cluster_->node_ids()) {
    cluster::Node* n = cluster_->node(id);
    if (n == nullptr || !n->HasService(cluster::kDataService)) continue;
    std::shared_ptr<cluster::Bucket> b = n->bucket(bucket);
    if (b == nullptr) continue;
    b->producer()->RemoveStreamsNamed(stream);
    if (!n->healthy()) continue;
    IndexDefinition def = state->def;
    cluster::Cluster* cluster = cluster_;
    stats::Counter* projected = keys_projected_;
    stats::Counter* routed = routed_keys_;
    for (uint16_t vb = 0; vb < cluster::kNumVBuckets; ++vb) {
      if (map->ActiveFor(vb) != id) continue;
      uint64_t from = ProcessedSeqno(*state, vb);
      std::shared_ptr<IndexState> sp = state;
      auto st = b->producer()->AddStream(
          stream, vb, from,
          [sp, def, cluster, id, projected, routed](const kv::Mutation& m) {
            // Projector: evaluate the secondary keys for this mutation.
            KeyVersion kv;
            kv.index_name = def.name;
            kv.doc_id = m.doc.key;
            kv.vbucket = m.vbucket;
            kv.seqno = m.doc.meta.seqno;
            if (!m.doc.meta.deleted) {
              auto parsed = json::Parse(m.doc.value);
              if (parsed.ok()) {
                kv.keys = ProjectKeys(def, m.doc.key, &parsed.value());
              }
            }
            projected->Add(kv.keys.size());
            Status routed_st = Route(cluster->transport(), id, sp.get(), kv);
            if (routed_st.ok()) routed->Add();
            return routed_st;
          });
      if (!st.ok()) {
        LOG_WARN << "gsi stream failed: " << st.status().ToString();
      }
    }
    n->dispatcher()->Notify();
  }
}

void IndexService::OnTopologyChange(const std::string& bucket) {
  std::vector<std::shared_ptr<IndexState>> states;
  {
    LockGuard lock(mu_);
    auto bit = indexes_.find(bucket);
    if (bit == indexes_.end()) return;
    for (auto& [name, st] : bit->second) states.push_back(st);
  }
  for (auto& st : states) WireIndex(bucket, st);
}

uint64_t IndexService::ProcessedSeqno(const IndexState& state, uint16_t vb) {
  uint64_t min_seqno = UINT64_MAX;
  for (const auto& p : state.partitions) {
    min_seqno = std::min(min_seqno, p->processed_seqno(vb));
  }
  return min_seqno == UINT64_MAX ? 0 : min_seqno;
}

Status IndexService::WaitUntilCaughtUp(const std::string& bucket,
                                       const std::string& name,
                                       uint64_t timeout_ms) {
  std::shared_ptr<IndexState> state;
  {
    LockGuard lock(mu_);
    auto bit = indexes_.find(bucket);
    if (bit == indexes_.end()) return Status::NotFound("no such index");
    auto it = bit->second.find(name);
    if (it == bit->second.end()) return Status::NotFound("no such index");
    state = it->second;
  }
  auto map = cluster_->map(bucket);
  if (!map) return Status::NotFound("no map");

  // Capture the per-vBucket high seqnos at request time (this is exactly
  // the request_plus barrier of §3.2.3 / §4.2).
  struct Target {
    uint16_t vb;
    uint64_t seqno;
    cluster::Node* node;
  };
  std::vector<Target> targets;
  for (uint16_t vb = 0; vb < cluster::kNumVBuckets; ++vb) {
    cluster::NodeId active = map->ActiveFor(vb);
    cluster::Node* n = cluster_->node(active);
    if (n == nullptr || !n->healthy()) continue;
    std::shared_ptr<cluster::Bucket> b = n->bucket(bucket);
    if (b == nullptr) continue;
    uint64_t high = b->vbucket(vb)->high_seqno();
    if (high > ProcessedSeqno(*state, vb)) targets.push_back({vb, high, n});
  }
  uint64_t deadline = cluster_->clock()->NowMillis() + timeout_ms;
  for (const Target& t : targets) {
    while (ProcessedSeqno(*state, t.vb) < t.seqno) {
      t.node->dispatcher()->Notify();
      if (cluster_->clock()->NowMillis() > deadline) {
        return Status::Timeout("request_plus wait exceeded timeout");
      }
      std::this_thread::yield();
    }
  }
  return Status::OK();
}

StatusOr<std::vector<IndexEntry>> IndexService::Scan(
    const std::string& bucket, const std::string& name, const ScanRange& range,
    size_t limit, ScanConsistency consistency) {
  std::shared_ptr<IndexState> state;
  {
    LockGuard lock(mu_);
    auto bit = indexes_.find(bucket);
    if (bit == indexes_.end()) return Status::NotFound("no such index");
    auto it = bit->second.find(name);
    if (it == bit->second.end()) return Status::NotFound("no such index");
    state = it->second;
  }
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
  // merge of sorted runs, not a sort; a one-partition index merges nothing.
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
  LockGuard lock(mu_);
  auto bit = indexes_.find(bucket);
  if (bit == indexes_.end()) return stats;
  auto it = bit->second.find(name);
  if (it == bit->second.end()) return stats;
  stats.name = name;
  stats.num_partitions = it->second->def.num_partitions;
  for (const auto& p : it->second->partitions) {
    stats.num_entries += p->num_entries();
    stats.disk_bytes_written += p->disk_bytes_written();
  }
  return stats;
}

}  // namespace couchkv::gsi
