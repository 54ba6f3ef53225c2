#include "cluster/feed.h"

#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"

namespace couchkv::cluster {

std::shared_ptr<Feed> Feed::Open(Cluster* cluster, std::string bucket,
                                 std::string name, BindFn bind,
                                 ProgressFn progress) {
  std::shared_ptr<Feed> feed(new Feed(cluster, std::move(bucket),
                                      std::move(name), std::move(bind),
                                      std::move(progress)));
  // Registered before the first wire, so no map change can slip between.
  cluster->AddFeed(feed);
  feed->Wire();
  return feed;
}

void Feed::Wire() {
  LockGuard lock(mu_);
  if (closed_.load(std::memory_order_relaxed)) return;
  std::shared_ptr<const ClusterMap> map = cluster_->map(bucket_);
  if (!map) return;
  for (NodeId id : cluster_->node_ids()) {
    Node* n = cluster_->node(id);
    std::shared_ptr<Bucket> b = n != nullptr ? n->bucket(bucket_) : nullptr;
    if (b == nullptr) continue;  // not a data node, or crashed
    dcp::Producer* producer = b->producer();
    producer->RemoveStreamsNamed(name_);
    if (!n->healthy()) continue;
    dcp::MutationFn fn = bind_(id, *map);
    for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
      if (map->ActiveFor(vb) != id) continue;
      auto st = producer->AddStream(name_, vb, progress_(id, vb), fn);
      if (!st.ok()) {
        LOG_WARN << name_ << " stream failed: " << st.status().ToString();
      }
    }
    n->dispatcher()->Notify();
  }
}

void Feed::Close() {
  LockGuard lock(mu_);
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  for (NodeId id : cluster_->node_ids()) {
    Node* n = cluster_->node(id);
    std::shared_ptr<Bucket> b = n != nullptr ? n->bucket(bucket_) : nullptr;
    if (b != nullptr) b->producer()->RemoveStreamsNamed(name_);
  }
}

Status Feed::WaitCaughtUp(uint64_t timeout_ms) const {
  std::shared_ptr<const ClusterMap> map = cluster_->map(bucket_);
  if (!map) return Status::NotFound("no map for bucket " + bucket_);
  // Capture "now": the high seqno of each active vBucket at entry.
  struct Target {
    NodeId id;
    Node* node;
    uint16_t vb;
    uint64_t seqno;
  };
  std::vector<Target> targets;
  for (NodeId id : cluster_->node_ids()) {
    Node* n = cluster_->node(id);
    if (n == nullptr || !n->healthy()) continue;
    std::shared_ptr<Bucket> b = n->bucket(bucket_);
    if (b == nullptr) continue;
    for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
      if (map->ActiveFor(vb) != id) continue;
      uint64_t high = b->vbucket(vb)->high_seqno();
      if (high > progress_(id, vb)) targets.push_back({id, n, vb, high});
    }
  }
  const uint64_t deadline = cluster_->clock()->NowMillis() + timeout_ms;
  for (const Target& t : targets) {
    while (progress_(t.id, t.vb) < t.seqno) {
      if (closed_.load(std::memory_order_acquire)) {
        return Status::NotFound(name_ + " was closed");
      }
      t.node->dispatcher()->Notify();
      if (cluster_->clock()->NowMillis() > deadline) {
        return Status::Timeout(name_ + ": caught-up wait exceeded timeout");
      }
      std::this_thread::yield();
    }
  }
  return Status::OK();
}

uint64_t Feed::Backlog() const {
  uint64_t backlog = 0;
  for (NodeId id : cluster_->node_ids()) {
    Node* n = cluster_->node(id);
    if (n == nullptr || !n->healthy()) continue;
    std::shared_ptr<Bucket> b = n->bucket(bucket_);
    if (b == nullptr) continue;
    backlog += b->producer()->Backlog(name_);
  }
  return backlog;
}

}  // namespace couchkv::cluster
