// A Couchbase Server node: runs a configurable set of services
// (multi-dimensional scaling, paper §4.4). Every node carries the cluster-
// manager machinery; the data service adds buckets, a flusher, and a DCP
// dispatcher. The index and query services are attached by the gsi / n1ql
// modules through the service registry.
#ifndef COUCHKV_CLUSTER_NODE_H_
#define COUCHKV_CLUSTER_NODE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "cluster/bucket.h"
#include "cluster/types.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "dcp/dcp.h"
#include "net/tcp_server.h"
#include "stats/flight_recorder.h"
#include "stats/registry.h"
#include "storage/env.h"

namespace couchkv::cluster {

class Node {
 public:
  // `env` is this node's private "disk"; pass nullptr to give the node its
  // own in-memory filesystem.
  Node(NodeId id, uint32_t services, Clock* clock,
       std::unique_ptr<storage::Env> env = nullptr);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  uint32_t services() const { return services_; }
  bool HasService(Service s) const { return (services_ & s) != 0; }

  // Health: an unhealthy node simulates a crashed process — every request
  // fails and its background machinery is ignored by the orchestrator.
  bool healthy() const { return healthy_.load(std::memory_order_acquire); }
  void set_healthy(bool h) { healthy_.store(h, std::memory_order_release); }

  // True between Crash() and Boot(): the process is gone (buckets destroyed,
  // dispatcher stopped), as opposed to an unhealthy-but-running node whose
  // in-memory state survives. Recovery paths branch on this: a crashed node
  // must warm up from its disk; a partitioned node still holds its data.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // Simulates a process crash: stops the DCP dispatcher, then destroys all
  // buckets hard (hash tables and the disk write queue are lost; the flusher
  // may be killed between writing a batch and committing it). The node's
  // env (its simulated disk) survives. Caller (Cluster::CrashNode) must
  // first detach streams on OTHER nodes that point into this node's memory.
  void Crash();

  // Brings a crashed node back up with a fresh dispatcher and no buckets;
  // the cluster layer recreates buckets and warms them up from the env.
  // Does not flip healthy() — the caller does that once recovery completes.
  void Boot();

  Status CreateBucket(const BucketConfig& config);
  // Returns a pin on the bucket: holders keep it alive even if the node
  // crashes mid-operation (Crash() drops the node's reference, and the
  // object dies when the last in-flight operation lets go).
  std::shared_ptr<Bucket> bucket(const std::string& name);
  dcp::Dispatcher* dispatcher() { return dispatcher_.get(); }
  storage::Env* env() { return env_.get(); }
  Clock* clock() { return clock_; }
  // This node's stats scope ("node.<id>"): the wire front-end registers its
  // per-node histograms here so Stats(group="wire") exposes them.
  stats::Scope* stats_scope() { return scope_.get(); }
  // The per-node flight recorder (last N completed wire ops + in-flight
  // table); always present, recorded into by the wire service. Crash()
  // clears it — a dead process would have lost its ring.
  stats::FlightRecorder* flight_recorder() { return &flight_recorder_; }

  // --- Data service (KV API) gate; the smart client and the wire
  // front-end run every KV op through it ---
  // Checks that the node is up, runs the data service and hosts `bucket`,
  // and that `vb` is in range; then runs `fn(VBucket&)` with the bucket
  // pinned, so a concurrent Crash() cannot free it under the op. A failed
  // check comes back as `fn`'s result type.
  template <typename Fn>
  auto WithVBucket(const std::string& bucket, uint16_t vb, Fn&& fn)
      -> decltype(fn(std::declval<VBucket&>())) {
    StatusOr<std::shared_ptr<Bucket>> b = Route(bucket, vb);
    if (!b.ok()) return b.status();
    return fn(*(*b)->vbucket(vb));
  }

  // --- Wire front-end (TCP listener for the binary protocol) ---
  // Starts a TCP listener on an ephemeral 127.0.0.1 port serving `handler`.
  // The handler is retained so RestartWireServer() can bring the listener
  // back after a crash/boot cycle (on a fresh port — ephemeral ports are
  // never reused deliberately). InvalidArgument if already listening.
  Status StartWireServer(net::TcpServer::Handler handler);
  // Re-starts the listener with the retained handler; OK (no-op) when no
  // handler was ever installed or the listener is still up.
  Status RestartWireServer();
  // Stops the listener and joins its threads. Idempotent. Crash() calls
  // this first — connection threads dispatch into bucket state, so they
  // must be gone before the buckets are.
  void StopWireServer();
  // The listener's current port; 0 when not listening. Lock-free: resolvers
  // call this on every hop.
  uint16_t wire_port() const {
    return wire_port_.load(std::memory_order_acquire);
  }

  // The memcached-style STATS [group] admin op (paper §3.1.2): scrapes this
  // node's scope, every hosted bucket's scope (refreshing their gauges
  // first), and this node's slice of the transport scope. `group` filters by
  // dot-delimited segment ("kv", "storage", "dcp", ...); empty returns all.
  // TempFail when the node is down, like every other op.
  StatusOr<stats::Snapshot> Stats(const std::string& group = "");

 private:
  // WithVBucket's checks; returns a pinned bucket (see bucket()) or an
  // error.
  StatusOr<std::shared_ptr<Bucket>> Route(const std::string& bucket,
                                          uint16_t vb);

  const NodeId id_;
  const uint32_t services_;
  Clock* clock_;
  std::unique_ptr<storage::Env> env_;
  std::unique_ptr<dcp::Dispatcher> dispatcher_;
  std::atomic<bool> healthy_{true};
  std::atomic<bool> crashed_{false};
  std::shared_ptr<stats::Scope> scope_;  // "node.<id>"
  stats::Counter* stat_scrapes_ = nullptr;
  stats::Counter* boots_ = nullptr;
  stats::FlightRecorder flight_recorder_;

  mutable Mutex mu_{"cluster.node"};
  std::map<std::string, std::shared_ptr<Bucket>> buckets_ GUARDED_BY(mu_);

  // Wire listener state. Separate mutex: StopWireServer() joins connection
  // threads, and those threads take mu_ through the KV gate — a single
  // lock would deadlock Crash().
  mutable Mutex wire_mu_{"cluster.node.wire"};
  std::unique_ptr<net::TcpServer> wire_server_ GUARDED_BY(wire_mu_);
  net::TcpServer::Handler wire_handler_ GUARDED_BY(wire_mu_);
  std::atomic<uint16_t> wire_port_{0};
};

}  // namespace couchkv::cluster

#endif  // COUCHKV_CLUSTER_NODE_H_
