// The Couchbase cluster: node membership, per-bucket cluster maps,
// orchestrator election, intra-cluster replication wiring, rebalance with
// per-vBucket atomic switchover, and failover (paper §4.1, §4.3.1).
//
// Everything here is the logic of ns_server (the Erlang cluster manager)
// re-implemented in C++ over in-process nodes.
#ifndef COUCHKV_CLUSTER_CLUSTER_H_
#define COUCHKV_CLUSTER_CLUSTER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/types.h"
#include "cluster/vbucket_map.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "net/transport.h"
#include "stats/registry.h"

namespace couchkv::cluster {

class Feed;

struct ClusterOptions {
  Clock* clock = Clock::Real();
  // Each node's private disk is an in-memory filesystem. This is its
  // simulated fsync latency (0 = free), standing in for real disk sync cost
  // when benchmarking durability/persistence.
  uint64_t simulated_fsync_us = 0;
  // Test hook: wraps the Env a new node gets as its private disk (e.g. in a
  // storage::FaultyEnv) before the node boots. Receives the node id and the
  // in-memory env; returns the env to install. The wrapper IS the node's
  // disk from then on — it survives CrashNode/RestartNode, so warmup
  // recovers through it too.
  std::function<std::unique_ptr<storage::Env>(NodeId,
                                              std::unique_ptr<storage::Env>)>
      wrap_node_env;
};

// Who asked for a failover. Auto-failover (the HealthMonitor orchestrator)
// refuses to proceed when it would drop a vBucket to zero copies — the paper
// only auto-fails-over when safe, leaving risky cases to the administrator.
// Manual failover honors the admin's judgment and accepts the data loss.
enum class FailoverMode { kManual, kAuto };

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Membership ---
  NodeId AddNode(uint32_t services = kAllServices);
  Node* node(NodeId id);
  std::vector<NodeId> node_ids() const;
  std::vector<NodeId> healthy_data_nodes() const;
  // Nodes that are still cluster members: everything not failed over. A
  // crashed or partitioned member stays in this set (and keeps its vote in
  // the failure detector's quorum) until a failover removes it.
  std::vector<NodeId> member_ids() const;
  bool failed_over(NodeId id) const;

  // The elected orchestrator: lowest-id healthy node (paper §4.3.1 — on
  // orchestrator crash "they will elect a new orchestrator immediately").
  NodeId orchestrator() const;

  // --- Buckets ---
  // Creates the bucket on every data-service node and wires replication.
  Status CreateBucket(const BucketConfig& config);
  std::shared_ptr<const ClusterMap> map(const std::string& bucket) const;
  std::vector<std::string> bucket_names() const;

  // --- Topology operations (run by the orchestrator) ---
  // Recomputes a balanced map over the current healthy data nodes and moves
  // vBuckets, with an atomic per-partition switchover.
  Status Rebalance();

  // Takes `id` out of service, promoting for each of its active partitions
  // the healthy replica with the highest high_seqno (DCP delivers in order,
  // so the most-caught-up replica holds a superset of every other replica —
  // promoting it preserves all ReplicateTo-acked writes). A second call for
  // the same node returns InvalidArgument. In kAuto mode the call is vetoed
  // (Aborted, nothing mutated) when any vBucket would lose its last copy.
  Status Failover(NodeId id, FailoverMode mode = FailoverMode::kManual);

  // Reintegrates a failed-over node by delta recovery: divergent vBuckets
  // (those whose high_seqno ran past what the promoted active had at
  // failover time) are rolled back, everything else catches up via DCP from
  // the current actives starting at its local high seqno; vBuckets whose
  // active was lost entirely (active == kNoNode) are resurrected from the
  // recovered node's copy. Ends with a Rebalance to spread actives back.
  // The node may be crashed (it is booted and warmed up from disk first) or
  // alive-but-partitioned (heal the partition before calling).
  Status RecoverNode(NodeId id);

  // --- Crash / restart (torture testing) ---
  // Kills node `id` like a process crash: its in-memory hash tables, disk
  // write queue, and DCP state are destroyed; its flusher may be stopped
  // between writing a batch and committing it (torn write — the storage
  // layer's recovery discards the uncommitted tail). The node's simulated
  // disk survives. Unlike Failover(), the cluster map is left untouched, so
  // requests for the node's partitions fail with TempFail until restart.
  Status CrashNode(NodeId id);

  // Boots a crashed node: recreates its buckets, recovers each hosted
  // vBucket from storage through the real Warmup path, rolls back replicas
  // elsewhere that ran ahead of the recovered actives (replicated-but-
  // unpersisted writes died in the crash), and re-wires replication.
  Status RestartNode(NodeId id);

  // --- Transport ---
  // All cross-node traffic (smart-client KV ops, DCP replication and
  // rebalance deliveries, GSI fan-out, XDCR shipments) is admitted through
  // this transport. Defaults to a DirectTransport (perfect network).
  net::Transport* transport() const {
    return transport_.load(std::memory_order_acquire);
  }
  // Installs a transport (e.g. net::FaultyTransport). `t` must outlive the
  // cluster; nullptr restores the built-in DirectTransport. Existing
  // callbacks pick the new transport up on their next delivery.
  void set_transport(net::Transport* t) {
    transport_.store(t != nullptr ? t : &direct_transport_,
                     std::memory_order_release);
  }

  // --- Wire front-ends (TCP listeners, binary protocol) ---
  // Starts a binary-protocol listener on every node, each serving `bucket`
  // and bound to an ephemeral 127.0.0.1 port (read them back through
  // wire_port()). CrashNode kills the crashed node's listener;
  // RestartNode/RecoverNode bring it back on a FRESH port, so consumers
  // must re-resolve (WireClient re-learns ports from the cluster map).
  Status StartWireServers(const std::string& bucket);
  // Stops every listener and joins their threads. Idempotent; also run by
  // the destructor before any node state is torn down.
  void StopWireServers();
  // Node `id`'s current listener port; 0 when down or never started.
  uint16_t wire_port(NodeId id);

  // --- Durability (paper §2.3.2) ---
  // Blocks until `seqno` in (bucket, vb) satisfies `dur`, observing replica
  // high-seqnos and persisted-seqnos across the cluster.
  Status WaitForDurability(const std::string& bucket, uint16_t vb,
                           uint64_t seqno, const Durability& dur);

  // Drains all async machinery (DCP + flushers) — deterministic tests.
  void Quiesce();

  Clock* clock() const { return opts_.clock; }

  // Total number of vBucket moves performed by Rebalance() calls.
  uint64_t total_vbucket_moves() const {
    return total_moves_.load(std::memory_order_relaxed);
  }

 private:
  // What Failover() learned about a node at the moment it was removed, kept
  // until RecoverNode() reintegrates it.
  struct FailoverRecord {
    // bucket -> per-vBucket seqno the promoted active held at failover. A
    // recovered copy at or below this seqno is a guaranteed prefix of the
    // new active's history (DCP delivers in order) and may catch up by
    // delta; above it, the copy holds writes the promotion discarded and
    // must be rolled back.
    std::map<std::string, std::vector<uint64_t>> safe_seqno;
    // bucket -> per-vBucket bit: the node hosted a copy (active or replica)
    // when it was failed over. Drives warmup state selection on recovery.
    std::map<std::string, std::vector<bool>> hosted;
  };

  std::unique_ptr<storage::Env> MakeNodeEnv(NodeId id);
  // Applies vBucket states + replication streams for `bucket` per `map`.
  void ApplyMap(const std::string& bucket,
                std::shared_ptr<const ClusterMap> map);
  void SetupReplication(const std::string& bucket, const ClusterMap& map);
  void PublishMap(const std::string& bucket,
                  std::shared_ptr<const ClusterMap> map);
  // DCP consumers (cluster/feed.h) register here and are re-wired on every
  // map change of their bucket.
  friend class Feed;
  void AddFeed(std::weak_ptr<Feed> feed);
  // The live feeds. Strong refs are taken under mu_ and dropped by the
  // caller after releasing it: a Feed's destructor locks mu_.
  std::vector<std::shared_ptr<Feed>> LiveFeeds();
  void RewireFeeds(const std::string& bucket);
  Status MoveVBucket(const std::string& bucket, uint16_t vb, NodeId from,
                     NodeId to);

  ClusterOptions opts_;

  net::DirectTransport direct_transport_;
  std::atomic<net::Transport*> transport_{&direct_transport_};

  mutable Mutex mu_{"cluster.topology"};
  std::map<NodeId, std::unique_ptr<Node>> nodes_ GUARDED_BY(mu_);
  NodeId next_node_id_ GUARDED_BY(mu_) = 0;
  std::map<std::string, BucketConfig> bucket_configs_ GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<const ClusterMap>> maps_
      GUARDED_BY(mu_);
  std::vector<std::weak_ptr<Feed>> feeds_ GUARDED_BY(mu_);
  std::map<NodeId, FailoverRecord> failed_over_ GUARDED_BY(mu_);
  // Atomic so total_vbucket_moves() stays a lock-free accessor.
  std::atomic<uint64_t> total_moves_{0};

  // Scope "cluster": failover/recovery counters the HealthMonitor tests and
  // dashboards read.
  std::shared_ptr<stats::Scope> scope_;
  stats::Counter* failover_manual_ = nullptr;
  stats::Counter* failover_auto_ = nullptr;
  stats::Counter* failover_vetoed_ = nullptr;
  stats::Counter* recovery_delta_ = nullptr;
  stats::Counter* recovery_rollback_vbs_ = nullptr;
  stats::Counter* recovery_resurrected_vbs_ = nullptr;
  // Seqnos the failed node had seen but the promoted replica had not — the
  // write window the failover gave up (0 whenever replication was caught
  // up; unknowable, and skipped, when the failed node's memory is gone).
  Histogram* promotion_lag_ = nullptr;
};

}  // namespace couchkv::cluster

#endif  // COUCHKV_CLUSTER_CLUSTER_H_
