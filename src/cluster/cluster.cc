#include "cluster/cluster.h"

#include <algorithm>
#include <thread>

#include "cluster/feed.h"
#include "cluster/wire_service.h"
#include "common/logging.h"

namespace couchkv::cluster {

namespace {
// Stream name prefix for intra-cluster replication consumers.
std::string ReplStreamName(NodeId dst) {
  return "intra-repl:" + std::to_string(dst);
}
constexpr const char* kMoverStream = "rebalance-mover";
}  // namespace

Cluster::Cluster(ClusterOptions opts) : opts_(std::move(opts)) {
  scope_ = stats::Registry::Global().GetScope("cluster");
  failover_manual_ = scope_->GetCounter("failover.manual_total");
  failover_auto_ = scope_->GetCounter("failover.auto_total");
  failover_vetoed_ = scope_->GetCounter("failover.vetoed");
  recovery_delta_ = scope_->GetCounter("recovery.delta_total");
  recovery_rollback_vbs_ = scope_->GetCounter("recovery.rollback_vbuckets");
  recovery_resurrected_vbs_ =
      scope_->GetCounter("recovery.resurrected_vbuckets");
  promotion_lag_ = scope_->GetHistogram("failover.promotion_lag");
}

Cluster::~Cluster() {
  // Wire listeners first, and strictly before mu_ is taken: their handler
  // threads call back into node()/map(), which lock mu_ — stopping them
  // while holding it would deadlock the join.
  StopWireServers();
  // Feeds that outlive the cluster are closed while their nodes still
  // exist, so their own destructors later have nothing left to remove.
  for (const std::shared_ptr<Feed>& feed : LiveFeeds()) {
    if (feed != nullptr) feed->Close();
  }
  LockGuard lock(mu_);
  // Stop every node's DCP pump before destroying any node: replication
  // callbacks registered on node A deliver into node B's vBuckets, so no
  // pump thread may survive the first ~Node.
  for (auto& [id, n] : nodes_) n->dispatcher()->Stop();
  nodes_.clear();
}

std::unique_ptr<storage::Env> Cluster::MakeNodeEnv(NodeId id) {
  std::unique_ptr<storage::Env> env =
      storage::Env::NewMemEnv(opts_.simulated_fsync_us);
  if (opts_.wrap_node_env) env = opts_.wrap_node_env(id, std::move(env));
  return env;
}

NodeId Cluster::AddNode(uint32_t services) {
  LockGuard lock(mu_);
  NodeId id = next_node_id_++;
  nodes_[id] =
      std::make_unique<Node>(id, services, opts_.clock, MakeNodeEnv(id));
  return id;
}

Node* Cluster::node(NodeId id) {
  LockGuard lock(mu_);
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<NodeId> Cluster::node_ids() const {
  LockGuard lock(mu_);
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) ids.push_back(id);
  return ids;
}

std::vector<NodeId> Cluster::healthy_data_nodes() const {
  LockGuard lock(mu_);
  std::vector<NodeId> ids;
  for (const auto& [id, n] : nodes_) {
    if (n->healthy() && n->HasService(kDataService)) ids.push_back(id);
  }
  return ids;
}

std::vector<NodeId> Cluster::member_ids() const {
  LockGuard lock(mu_);
  std::vector<NodeId> ids;
  for (const auto& [id, n] : nodes_) {
    if (!failed_over_.count(id)) ids.push_back(id);
  }
  return ids;
}

bool Cluster::failed_over(NodeId id) const {
  LockGuard lock(mu_);
  return failed_over_.count(id) != 0;
}

NodeId Cluster::orchestrator() const {
  LockGuard lock(mu_);
  for (const auto& [id, n] : nodes_) {
    if (n->healthy()) return id;
  }
  return kNoNode;
}

Status Cluster::CreateBucket(const BucketConfig& config) {
  std::vector<NodeId> data_nodes = healthy_data_nodes();
  if (data_nodes.empty()) return Status::Unsupported("no data nodes");
  {
    LockGuard lock(mu_);
    if (bucket_configs_.count(config.name)) {
      return Status::KeyExists("bucket exists");
    }
    bucket_configs_[config.name] = config;
    for (NodeId id : data_nodes) {
      COUCHKV_RETURN_IF_ERROR(nodes_[id]->CreateBucket(config));
    }
  }
  auto map = std::make_shared<ClusterMap>(
      BuildBalancedMap(data_nodes, config.num_replicas, /*version=*/1));
  ApplyMap(config.name, map);
  PublishMap(config.name, map);
  return Status::OK();
}

std::shared_ptr<const ClusterMap> Cluster::map(
    const std::string& bucket) const {
  LockGuard lock(mu_);
  auto it = maps_.find(bucket);
  return it == maps_.end() ? nullptr : it->second;
}

std::vector<std::string> Cluster::bucket_names() const {
  LockGuard lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, cfg] : bucket_configs_) names.push_back(name);
  return names;
}

void Cluster::PublishMap(const std::string& bucket,
                         std::shared_ptr<const ClusterMap> map) {
  LockGuard lock(mu_);
  maps_[bucket] = std::move(map);
}

void Cluster::ApplyMap(const std::string& bucket,
                       std::shared_ptr<const ClusterMap> map) {
  // 1. vBucket states on every node.
  for (NodeId id : node_ids()) {
    Node* n = node(id);
    if (n == nullptr || !n->HasService(kDataService)) continue;
    std::shared_ptr<Bucket> b = n->bucket(bucket);
    if (b == nullptr) continue;
    for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
      const VBucketEntry& e = map->entries[vb];
      VBucketState want;
      if (e.active == id) {
        want = VBucketState::kActive;
      } else if (std::find(e.replicas.begin(), e.replicas.end(), id) !=
                 e.replicas.end()) {
        want = VBucketState::kReplica;
      } else {
        want = VBucketState::kDead;
      }
      if (b->vbucket(vb)->state() != want) {
        Status st = b->SetVBucketState(vb, want);
        if (!st.ok()) {
          LOG_ERROR << "SetVBucketState failed: " << st.ToString();
        }
      }
    }
  }
  // 2. Replication streams.
  SetupReplication(bucket, *map);
}

void Cluster::SetupReplication(const std::string& bucket,
                               const ClusterMap& map) {
  // Tear down all existing replication streams for this bucket, then
  // re-create them according to the map. Streams resume from the replica's
  // current high seqno, so no data is re-sent unnecessarily (and fresh
  // replicas backfill from storage through DCP).
  std::vector<NodeId> ids = node_ids();
  for (NodeId src : ids) {
    Node* n = node(src);
    std::shared_ptr<Bucket> b = n ? n->bucket(bucket) : nullptr;
    if (b == nullptr) continue;
    for (NodeId dst : ids) {
      b->producer()->RemoveStreamsNamed(ReplStreamName(dst));
    }
  }
  for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
    const VBucketEntry& e = map.entries[vb];
    Node* src_node = node(e.active);
    if (src_node == nullptr || !src_node->healthy()) continue;
    std::shared_ptr<Bucket> src_bucket = src_node->bucket(bucket);
    if (src_bucket == nullptr) continue;
    for (NodeId r : e.replicas) {
      Node* dst_node = node(r);
      if (dst_node == nullptr || !dst_node->healthy()) continue;
      std::shared_ptr<Bucket> dst_bucket = dst_node->bucket(bucket);
      if (dst_bucket == nullptr) continue;
      VBucket* dst_vb = dst_bucket->vbucket(vb);
      uint64_t from = dst_vb->high_seqno();
      // Each replicated mutation is one message on the active->replica link.
      // A lost delivery returns non-OK, which stalls the stream (at-least-
      // once: it is retried on a later pump; ApplyReplicated is idempotent).
      auto stream_or = src_bucket->producer()->AddStream(
          ReplStreamName(r), vb, from,
          [this, dst_vb, src = e.active, dst = r](const kv::Mutation& m) {
            return net::Call(transport(), net::Endpoint::Node(src),
                             net::Endpoint::Node(dst), [&] {
                               dst_vb->ApplyReplicated(m.doc);
                               return Status::OK();
                             });
          });
      if (!stream_or.ok()) {
        LOG_ERROR << "replication stream failed: "
                  << stream_or.status().ToString();
      }
    }
    src_node->dispatcher()->Notify();
  }
}

void Cluster::AddFeed(std::weak_ptr<Feed> feed) {
  LockGuard lock(mu_);
  std::erase_if(feeds_, [](const std::weak_ptr<Feed>& f) {
    return f.expired();
  });
  feeds_.push_back(std::move(feed));
}

std::vector<std::shared_ptr<Feed>> Cluster::LiveFeeds() {
  LockGuard lock(mu_);
  std::vector<std::shared_ptr<Feed>> feeds;
  for (const std::weak_ptr<Feed>& f : feeds_) feeds.push_back(f.lock());
  return feeds;
}

void Cluster::RewireFeeds(const std::string& bucket) {
  for (const std::shared_ptr<Feed>& feed : LiveFeeds()) {
    if (feed != nullptr && feed->bucket() == bucket) feed->Wire();
  }
}

Status Cluster::MoveVBucket(const std::string& bucket, uint16_t vb,
                            NodeId from, NodeId to) {
  Node* src_node = node(from);
  Node* dst_node = node(to);
  if (src_node == nullptr || dst_node == nullptr) {
    return Status::InvalidArgument("bad nodes for move");
  }
  std::shared_ptr<Bucket> src = src_node->bucket(bucket);
  std::shared_ptr<Bucket> dst = dst_node->bucket(bucket);
  if (src == nullptr || dst == nullptr) {
    return Status::InvalidArgument("bucket missing on nodes");
  }
  COUCHKV_RETURN_IF_ERROR(dst->SetVBucketState(vb, VBucketState::kPending));
  VBucket* dst_vb = dst->vbucket(vb);
  VBucket* src_vb = src->vbucket(vb);

  // Stream the partition's data through DCP: backfill from storage plus the
  // in-memory tail (paper §4.3.1: "the cluster moves the data directly
  // between two server nodes").
  auto stream_or = src->producer()->AddStream(
      kMoverStream, vb, dst_vb->high_seqno(),
      [this, dst_vb, from, to](const kv::Mutation& m) {
        return net::Call(transport(), net::Endpoint::Node(from),
                         net::Endpoint::Node(to), [&] {
                           dst_vb->ApplyReplicated(m.doc);
                           return Status::OK();
                         });
      });
  if (!stream_or.ok()) return stream_or.status();
  uint64_t stream_id = stream_or.value();

  // Catch-up phase: pump until the destination has seen everything.
  while (dst_vb->high_seqno() < src_vb->high_seqno()) {
    src->producer()->PumpOnce();
  }

  // Atomic switchover: block writers on the source, drain the last deltas,
  // then flip states. After this the source answers NotMyVBucket and smart
  // clients refresh their map.
  src_vb->WithOpLock([&] {
    while (dst_vb->high_seqno() < src_vb->high_seqno()) {
      src->producer()->PumpOnce();
    }
    src_vb->set_state(VBucketState::kDead);
    dst_vb->set_state(VBucketState::kActive);
  });
  src->producer()->RemoveStream(stream_id);
  total_moves_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Cluster::Rebalance() {
  std::vector<NodeId> data_nodes = healthy_data_nodes();
  if (data_nodes.empty()) return Status::Unsupported("no data nodes");

  for (const std::string& bucket : bucket_names()) {
    BucketConfig config;
    std::shared_ptr<const ClusterMap> old_map;
    {
      LockGuard lock(mu_);
      config = bucket_configs_[bucket];
      old_map = maps_[bucket];
    }
    // Ensure the bucket exists on any newly added node.
    for (NodeId id : data_nodes) {
      Node* n = node(id);
      if (n->bucket(bucket) == nullptr) {
        COUCHKV_RETURN_IF_ERROR(n->CreateBucket(config));
      }
    }
    // Minimal-move target: only the excess of over-quota nodes (and the
    // partitions of departed nodes) change owner.
    ClusterMap target = BuildMinimalMoveMap(*old_map, data_nodes,
                                            config.num_replicas,
                                            old_map->version + 1);

    // Move actives that change owner, publishing an updated map after each
    // partition so clients can re-route immediately.
    ClusterMap working = *old_map;
    for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
      NodeId cur = working.entries[vb].active;
      NodeId want = target.entries[vb].active;
      if (cur == want) continue;
      if (cur == kNoNode) {
        // The partition's data was lost at failover (nothing to promote)
        // and never recovered. There is nothing to move; re-own it empty so
        // the keyspace becomes writable again instead of wedging the whole
        // rebalance.
        Node* dst_node = node(want);
        std::shared_ptr<Bucket> dst =
            dst_node != nullptr ? dst_node->bucket(bucket) : nullptr;
        if (dst == nullptr) {
          return Status::InvalidArgument("no destination for lost vb");
        }
        COUCHKV_RETURN_IF_ERROR(
            dst->SetVBucketState(vb, VBucketState::kActive));
        working.entries[vb].active = want;
        working.version += 1;
        PublishMap(bucket, std::make_shared<ClusterMap>(working));
        continue;
      }
      COUCHKV_RETURN_IF_ERROR(MoveVBucket(bucket, vb, cur, want));
      working.entries[vb].active = want;
      working.version += 1;
      PublishMap(bucket, std::make_shared<ClusterMap>(working));
    }

    // Apply the final map (replica placement + streams) and publish it.
    target.version = working.version + 1;
    auto final_map = std::make_shared<ClusterMap>(target);
    ApplyMap(bucket, final_map);
    PublishMap(bucket, final_map);
    RewireFeeds(bucket);
  }
  return Status::OK();
}

Status Cluster::Failover(NodeId id, FailoverMode mode) {
  Node* failed = node(id);
  if (failed == nullptr) return Status::NotFound("no such node");
  {
    LockGuard lock(mu_);
    if (failed_over_.count(id)) {
      return Status::InvalidArgument("node " + std::to_string(id) +
                                     " is already failed over");
    }
  }
  // A replica that survives the node is the freshest one the failed node
  // was replicating to; its high seqno reads stay valid below because
  // replication INTO it is stalled (its source is the node being removed).
  auto best_replica = [&](const std::string& bucket, uint16_t vb,
                          const VBucketEntry& e, uint64_t* high) {
    NodeId promoted = kNoNode;
    for (NodeId r : e.replicas) {
      if (r == id) continue;
      Node* rn = node(r);
      if (rn == nullptr || !rn->healthy()) continue;
      std::shared_ptr<Bucket> rb = rn->bucket(bucket);
      if (rb == nullptr) continue;
      uint64_t seq = rb->vbucket(vb)->high_seqno();
      // Strict > keeps the tie-break on chain order, so equal-seqno
      // promotions stay deterministic across runs.
      if (promoted == kNoNode || seq > *high) {
        promoted = r;
        *high = seq;
      }
    }
    return promoted;
  };
  // Auto-failover safety veto (paper §4.3.1: ns_server refuses an automatic
  // failover that would lose data): probe the surgery read-only first, and
  // abort before any state is touched if a partition would lose its last
  // copy. Manual failover proceeds and records the loss (active = kNoNode).
  if (mode == FailoverMode::kAuto) {
    for (const std::string& bucket : bucket_names()) {
      std::shared_ptr<const ClusterMap> old_map = map(bucket);
      if (!old_map) continue;
      for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
        const VBucketEntry& probe = old_map->entries[vb];
        if (probe.active != id) continue;
        uint64_t high = 0;
        if (best_replica(bucket, vb, probe, &high) == kNoNode) {
          failover_vetoed_->Add();
          return Status::Aborted(
              "auto-failover of node " + std::to_string(id) + " vetoed: vb " +
              std::to_string(vb) + " of bucket " + bucket +
              " would drop to zero copies");
        }
      }
    }
  }
  failed->set_healthy(false);

  FailoverRecord record;
  for (const std::string& bucket : bucket_names()) {
    std::shared_ptr<const ClusterMap> old_map = map(bucket);
    if (!old_map) continue;
    std::shared_ptr<Bucket> failed_bucket = failed->bucket(bucket);
    std::vector<uint64_t>& safe = record.safe_seqno[bucket];
    std::vector<bool>& hosted = record.hosted[bucket];
    safe.assign(kNumVBuckets, 0);
    hosted.assign(kNumVBuckets, false);
    ClusterMap next = *old_map;
    next.version += 1;
    for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
      VBucketEntry& e = next.entries[vb];
      hosted[vb] = e.active == id || std::find(e.replicas.begin(),
                                               e.replicas.end(),
                                               id) != e.replicas.end();
      // Remove the failed node from replica chains.
      std::erase(e.replicas, id);
      if (e.active != id) {
        // Active survives elsewhere; its current seqno bounds what a
        // recovered copy of this vb may legitimately hold.
        Node* an = node(e.active);
        std::shared_ptr<Bucket> ab =
            an != nullptr ? an->bucket(bucket) : nullptr;
        if (ab != nullptr) safe[vb] = ab->vbucket(vb)->high_seqno();
        continue;
      }
      // Promote the most-caught-up healthy replica (paper §4.3.1 promotes
      // replicas of the server that went down; picking the highest seqno
      // closes the data-loss window chain-order promotion had, since an
      // in-order DCP stream makes the freshest replica a superset of every
      // other).
      uint64_t promoted_high = 0;
      NodeId promoted = best_replica(bucket, vb, e, &promoted_high);
      if (promoted == kNoNode) {
        LOG_ERROR << "vb " << vb << " lost: no replica to promote";
        e.active = kNoNode;
        continue;
      }
      safe[vb] = promoted_high;
      // How far behind the promotion is. Only measurable while the failed
      // node's memory is still around (partitioned, not crashed).
      if (failed_bucket != nullptr) {
        uint64_t failed_high = failed_bucket->vbucket(vb)->high_seqno();
        promotion_lag_->Record(
            failed_high > promoted_high ? failed_high - promoted_high : 0);
      }
      std::erase(e.replicas, promoted);
      e.active = promoted;
    }
    auto next_ptr = std::make_shared<ClusterMap>(next);
    ApplyMap(bucket, next_ptr);
    PublishMap(bucket, next_ptr);
    RewireFeeds(bucket);
  }
  {
    LockGuard lock(mu_);
    failed_over_[id] = std::move(record);
  }
  (mode == FailoverMode::kAuto ? failover_auto_ : failover_manual_)->Add();
  return Status::OK();
}

Status Cluster::RecoverNode(NodeId id) {
  Node* n = node(id);
  if (n == nullptr) return Status::NotFound("no such node");
  FailoverRecord record;
  {
    LockGuard lock(mu_);
    auto it = failed_over_.find(id);
    if (it == failed_over_.end()) {
      return Status::InvalidArgument("node " + std::to_string(id) +
                                     " is not failed over");
    }
    record = it->second;
  }
  std::map<std::string, BucketConfig> configs;
  {
    LockGuard lock(mu_);
    configs = bucket_configs_;
  }
  uint64_t rollbacks = 0;
  uint64_t resurrected = 0;
  std::map<std::string, std::shared_ptr<const ClusterMap>> interim_maps;
  if (n->HasService(kDataService)) {
    if (n->crashed()) {
      // The process died: boot it and warm up exactly the vBuckets it
      // hosted at failover from its surviving disk.
      n->Boot();
      for (const auto& [name, config] : configs) {
        COUCHKV_RETURN_IF_ERROR(n->CreateBucket(config));
        std::shared_ptr<Bucket> b = n->bucket(name);
        auto hosted_it = record.hosted.find(name);
        if (hosted_it == record.hosted.end()) continue;
        for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
          if (!hosted_it->second[vb]) continue;
          COUCHKV_RETURN_IF_ERROR(
              b->SetVBucketState(vb, VBucketState::kReplica));
        }
        auto loaded = b->Warmup();
        if (!loaded.ok()) return loaded.status();
      }
    } else {
      // Alive (it was partitioned, not dead): demote any stale actives so
      // clients holding a pre-failover map get NotMyVBucket, not a second
      // master, once the node is marked healthy again below.
      for (const auto& [name, config] : configs) {
        std::shared_ptr<Bucket> b = n->bucket(name);
        if (b == nullptr) continue;
        for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
          if (b->vbucket(vb)->state() == VBucketState::kActive) {
            COUCHKV_RETURN_IF_ERROR(
                b->SetVBucketState(vb, VBucketState::kReplica));
          }
        }
      }
    }
    // Delta-recovery map surgery: re-enter the node as an extra replica of
    // every vBucket it still holds (SetupReplication resumes each stream
    // from the replica's high seqno, so only the delta flows), after rolling
    // back copies that diverged past the promotion point. Partitions that
    // lost every copy at failover are resurrected from the recovered data.
    for (const auto& [name, config] : configs) {
      std::shared_ptr<Bucket> b = n->bucket(name);
      std::shared_ptr<const ClusterMap> m = map(name);
      if (b == nullptr || m == nullptr) continue;
      const std::vector<uint64_t>& safe = record.safe_seqno[name];
      const std::vector<bool>& hosted = record.hosted[name];
      ClusterMap interim = *m;
      interim.version += 1;
      for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
        if (hosted.empty() || !hosted[vb]) continue;
        VBucketEntry& e = interim.entries[vb];
        if (e.active == kNoNode) {
          // Every other copy is gone; the recovered one, whatever it holds,
          // is the authoritative survivor.
          e.active = id;
          std::erase(e.replicas, id);
          ++resurrected;
          continue;
        }
        uint64_t local_high = b->vbucket(vb)->high_seqno();
        if (local_high > (vb < safe.size() ? safe[vb] : 0)) {
          // The copy ran past what the promoted active had at failover:
          // its tail was never adopted and would collide with the new
          // write stream. Drop and re-backfill from scratch.
          COUCHKV_RETURN_IF_ERROR(b->RollbackVBucket(vb));
          ++rollbacks;
        }
        if (e.active != id && std::find(e.replicas.begin(), e.replicas.end(),
                                        id) == e.replicas.end()) {
          e.replicas.push_back(id);
        }
      }
      interim_maps[name] = std::make_shared<ClusterMap>(interim);
    }
  }
  n->set_healthy(true);
  {
    LockGuard lock(mu_);
    failed_over_.erase(id);
  }
  for (const auto& [name, interim] : interim_maps) {
    ApplyMap(name, interim);
    PublishMap(name, interim);
    RewireFeeds(name);
  }
  recovery_delta_->Add();
  recovery_rollback_vbs_->Add(rollbacks);
  recovery_resurrected_vbs_->Add(resurrected);
  // A recovered-from-crash node needs its listener back (fresh port); an
  // alive-but-partitioned one still has its listener and this is a no-op.
  COUCHKV_RETURN_IF_ERROR(n->RestartWireServer());
  // Spread actives back onto the reintegrated node (and give resurrected
  // partitions their replicas back).
  return Rebalance();
}

Status Cluster::CrashNode(NodeId id) {
  Node* n = node(id);
  if (n == nullptr) return Status::NotFound("no such node");
  if (!n->healthy()) return Status::InvalidArgument("node already down");
  // Mark the node down first so clients stop routing to it mid-teardown.
  n->set_healthy(false);
  // Detach the replication streams feeding this node's replicas: their
  // delivery callbacks hold pointers into the buckets about to be freed.
  // RemoveStreamsNamed is a barrier, so after this loop no other node's
  // dispatcher can touch the crashing node's memory.
  for (const std::string& bucket : bucket_names()) {
    for (NodeId src : node_ids()) {
      if (src == id) continue;
      Node* sn = node(src);
      std::shared_ptr<Bucket> sb = sn != nullptr ? sn->bucket(bucket) : nullptr;
      if (sb != nullptr) {
        sb->producer()->RemoveStreamsNamed(ReplStreamName(id));
      }
    }
  }
  n->Crash();
  return Status::OK();
}

Status Cluster::RestartNode(NodeId id) {
  Node* n = node(id);
  if (n == nullptr) return Status::NotFound("no such node");
  if (n->healthy()) return Status::InvalidArgument("node is running");
  n->Boot();
  std::map<std::string, BucketConfig> configs;
  {
    LockGuard lock(mu_);
    configs = bucket_configs_;
  }
  for (const auto& [name, config] : configs) {
    if (!n->HasService(kDataService)) break;
    COUCHKV_RETURN_IF_ERROR(n->CreateBucket(config));
    std::shared_ptr<Bucket> b = n->bucket(name);
    std::shared_ptr<const ClusterMap> m = map(name);
    if (!m) continue;
    // Set the hosted states before warmup so Warmup() scans exactly the
    // files this node is responsible for. Opening each file runs the
    // storage layer's recovery, which discards any uncommitted (torn) tail.
    for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
      const VBucketEntry& e = m->entries[vb];
      VBucketState want = VBucketState::kDead;
      if (e.active == id) {
        want = VBucketState::kActive;
      } else if (std::find(e.replicas.begin(), e.replicas.end(), id) !=
                 e.replicas.end()) {
        want = VBucketState::kReplica;
      }
      if (want != VBucketState::kDead) {
        COUCHKV_RETURN_IF_ERROR(b->SetVBucketState(vb, want));
      }
    }
    auto loaded = b->Warmup();
    if (!loaded.ok()) return loaded.status();
    // A replica elsewhere may be AHEAD of the reborn active: writes that
    // were replicated but not yet persisted died with the process. Such a
    // replica is rolled back (dropped and re-backfilled from the active's
    // storage) — the divergent seqnos would otherwise collide with the new
    // write stream. This mirrors Couchbase's replica rollback on failover.
    for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
      const VBucketEntry& e = m->entries[vb];
      if (e.active != id) continue;
      uint64_t active_high = b->vbucket(vb)->high_seqno();
      for (NodeId r : e.replicas) {
        Node* rn = node(r);
        if (rn == nullptr || !rn->healthy()) continue;
        std::shared_ptr<Bucket> rb = rn->bucket(name);
        if (rb == nullptr) continue;
        if (rb->vbucket(vb)->high_seqno() > active_high) {
          Status st = rb->RollbackVBucket(vb);
          if (!st.ok()) {
            LOG_ERROR << "replica rollback failed for vb " << vb << ": "
                      << st.ToString();
          }
        }
      }
    }
  }
  n->set_healthy(true);
  // Back on the wire: a fresh ephemeral port (never the old one), which
  // clients rediscover through the resolver on their next hop.
  COUCHKV_RETURN_IF_ERROR(n->RestartWireServer());
  for (const auto& [name, config] : configs) {
    std::shared_ptr<const ClusterMap> m = map(name);
    if (m) ApplyMap(name, m);
    RewireFeeds(name);
  }
  return Status::OK();
}

Status Cluster::StartWireServers(const std::string& bucket) {
  std::vector<std::pair<NodeId, Node*>> nodes;
  {
    LockGuard lock(mu_);
    for (auto& [id, n] : nodes_) nodes.emplace_back(id, n.get());
  }
  // Start outside mu_: each Start() spawns an accept thread whose
  // connections immediately call node()/map() through the handler.
  for (auto& [id, n] : nodes) {
    WireService service(this, id, bucket);
    COUCHKV_RETURN_IF_ERROR(n->StartWireServer(
        [service](const net::wire::Message& req,
                  const net::RequestContext& ctx) mutable {
          return service.Handle(req, ctx);
        }));
  }
  return Status::OK();
}

void Cluster::StopWireServers() {
  std::vector<Node*> nodes;
  {
    LockGuard lock(mu_);
    for (auto& [id, n] : nodes_) nodes.push_back(n.get());
  }
  for (Node* n : nodes) n->StopWireServer();
}

uint16_t Cluster::wire_port(NodeId id) {
  Node* n = node(id);
  return n != nullptr ? n->wire_port() : 0;
}

Status Cluster::WaitForDurability(const std::string& bucket, uint16_t vb,
                                  uint64_t seqno, const Durability& dur) {
  if (dur.replicate_to == 0 && dur.persist_to == 0) return Status::OK();
  std::shared_ptr<const ClusterMap> m = map(bucket);
  if (!m) return Status::NotFound("no such bucket");
  const VBucketEntry& e = m->entries[vb];

  uint64_t deadline =
      opts_.clock->NowMillis() + dur.timeout_ms;
  // The active node's flusher is woken once to shorten the persistence wait.
  if (dur.persist_to > 0) {
    Node* an = node(e.active);
    if (an != nullptr) {
      std::shared_ptr<Bucket> b = an->bucket(bucket);
      if (b != nullptr) {
        Status wait = b->WaitForPersistence(vb, seqno, dur.timeout_ms);
        // A Timeout here (e.g. the flusher is stalled on a failing disk) is
        // NOT success: fall through to the observe loop, which re-reads
        // persisted_seqno and enforces the deadline itself — the ack can
        // only come from an actual persisted_seqno advance. Any other error
        // is a routing/topology failure the caller must see.
        if (!wait.ok() && !wait.IsTimeout()) return wait;
      }
    }
  }
  for (;;) {
    uint32_t replicated = 0;
    uint32_t persisted = 0;
    bool active_persisted = false;
    Node* an = node(e.active);
    if (an != nullptr) {
      std::shared_ptr<Bucket> b = an->bucket(bucket);
      if (b != nullptr && b->vbucket(vb)->persisted_seqno() >= seqno) {
        ++persisted;  // active's persistence counts toward persist_to
        active_persisted = true;
      }
      an->dispatcher()->Notify();
    }
    for (NodeId r : e.replicas) {
      Node* rn = node(r);
      if (rn == nullptr || !rn->healthy()) continue;
      std::shared_ptr<Bucket> rb = rn->bucket(bucket);
      if (rb == nullptr) continue;
      VBucket* rvb = rb->vbucket(vb);
      if (rvb->high_seqno() >= seqno) ++replicated;
      if (rvb->persisted_seqno() >= seqno) ++persisted;
    }
    // persist_to >= 1 requires the active among the persisted nodes (the
    // Couchbase PersistTo.MASTER rule). Without it, a persist-ack could be
    // backed only by a replica — which a crash-restart of the active rolls
    // back, silently voiding the durability promise.
    if (replicated >= dur.replicate_to && persisted >= dur.persist_to &&
        (dur.persist_to == 0 || active_persisted)) {
      return Status::OK();
    }
    if (opts_.clock->NowMillis() > deadline) {
      return Status::Timeout("durability requirement not met");
    }
    std::this_thread::yield();
  }
}

void Cluster::Quiesce() {
  // Alternate DCP drains and flushes until stable. Two rounds suffice:
  // draining DCP can enqueue disk writes (replica applies), but flushing
  // never creates new DCP traffic.
  for (int round = 0; round < 3; ++round) {
    for (NodeId id : node_ids()) {
      Node* n = node(id);
      if (n != nullptr) n->dispatcher()->Quiesce();
    }
    for (NodeId id : node_ids()) {
      Node* n = node(id);
      if (n == nullptr) continue;
      for (const std::string& bucket : bucket_names()) {
        std::shared_ptr<Bucket> b = n->bucket(bucket);
        if (b != nullptr) b->FlushAll();
      }
    }
  }
}

}  // namespace couchkv::cluster
