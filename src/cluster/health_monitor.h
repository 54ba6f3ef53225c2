// Heartbeat failure detection and orchestrated auto-failover (paper §4.3.1:
// the cluster manager "monitors the health of the cluster" and, past a
// configurable timeout, fails the node over automatically).
//
// Every cluster member periodically pings its peers THROUGH the cluster's
// net::Transport — a FaultyTransport partition, delay, or one-way link is
// exactly what the detector sees; no code here reads Node::healthy() across
// the wire or any other omniscient flag. Each (observer, peer) pair runs the
// state machine
//
//     healthy -> suspect -> confirmed_down
//
// where a peer turns suspect on the first failed ping and confirmed_down
// once pings have failed continuously for auto_failover_timeout_ms. Any
// successful ping snaps the pair back to healthy (a flapping link therefore
// never confirms).
//
// Auto-failover is executed by the acting orchestrator with the paper's
// safeguards:
//   * quorum    — a peer is failed over only when a strict majority of all
//                 members confirms it down (opinions are gathered over the
//                 transport too, so a partitioned minority cannot see a
//                 quorum and split-brain);
//   * deference — an observer acts only if every lower-id member is itself
//                 confirmed down (orchestrator re-election: when the
//                 orchestrator dies, the next-lowest healthy node acts);
//   * budget    — at most max_auto_failovers until ResetFailoverBudget(),
//                 so a cascade cannot eat the whole cluster;
//   * data      — Cluster::Failover(kAuto) refuses when a vBucket would
//                 drop to zero copies.
#ifndef COUCHKV_CLUSTER_HEALTH_MONITOR_H_
#define COUCHKV_CLUSTER_HEALTH_MONITOR_H_

#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/lockdep.h"
#include "common/synchronization.h"
#include "stats/registry.h"

namespace couchkv::cluster {

enum class PeerHealth { kHealthy, kSuspect, kConfirmedDown };

const char* PeerHealthName(PeerHealth s);

struct HealthMonitorOptions {
  // Period of the background detection round (Start()'s thread). TickOnce()
  // can also be driven manually for deterministic tests.
  uint64_t heartbeat_interval_ms = 100;
  // How long a peer must fail pings continuously before an observer
  // confirms it down. Measured on the cluster's Clock.
  uint64_t auto_failover_timeout_ms = 1000;
  // Auto-failovers allowed before an operator resets the budget.
  int max_auto_failovers = 1;
  // When false the detector still runs (states, gauges) but never executes
  // a failover.
  bool auto_failover_enabled = true;
};

class HealthMonitor {
 public:
  // `cluster` must outlive the monitor; call Stop() (or destroy the
  // monitor) before tearing the cluster down.
  explicit HealthMonitor(Cluster* cluster, HealthMonitorOptions opts = {});
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Background detection thread running TickOnce() every
  // heartbeat_interval_ms. Idempotent.
  void Start();
  void Stop();

  // One full detection round: ping phase (every member probes every peer
  // over the transport), detector update, then the acting orchestrator
  // gathers opinions (over the transport) and executes at most one
  // quorum-confirmed auto-failover.
  void TickOnce();

  // What `observer` currently believes about `peer`. Unknown pairs (never
  // probed, or pruned after a membership change) read healthy.
  PeerHealth Opinion(NodeId observer, NodeId peer) const;

  // Monotonic count of auto-failovers this monitor executed. Not affected
  // by ResetFailoverBudget(). The registry counts every auto-failover, by
  // any monitor, as cluster.failover.auto_total.
  int failovers_executed() const;
  // Re-arms the auto-failover budget (the operator acknowledging the
  // previous failovers, as Couchbase requires before the next one).
  void ResetFailoverBudget();

 private:
  struct PeerState {
    PeerHealth state = PeerHealth::kHealthy;
    // Clock ms of the last successful ping; initialized to the first
    // observation so a freshly added pair gets a full timeout of grace.
    uint64_t last_success_ms = 0;
  };
  // (observer, peer), observer != peer.
  using PairKey = std::pair<NodeId, NodeId>;

  // Ping every peer on behalf of every live member; returns each pair's
  // success/failure for this round.
  std::map<PairKey, bool> ProbeAll(const std::vector<NodeId>& members);
  void UpdateDetector(const std::vector<NodeId>& members,
                      const std::map<PairKey, bool>& results);
  // Runs the orchestration rule for this round; executes at most one
  // failover. Returns true if one was executed.
  bool RunOrchestration(const std::vector<NodeId>& members);
  // `observer`'s current confirmed-down set as seen from its own state.
  std::vector<NodeId> ConfirmedDownBy(NodeId observer,
                                      const std::vector<NodeId>& members) const;

  void ThreadMain();

  Cluster* cluster_;
  const HealthMonitorOptions opts_;

  std::shared_ptr<stats::Scope> scope_;  // "health"
  stats::Counter* probes_sent_ = nullptr;
  stats::Counter* probe_failures_ = nullptr;
  stats::Counter* budget_denials_ = nullptr;
  Histogram* probe_rtt_ns_ = nullptr;
  stats::Gauge* pairs_suspect_ = nullptr;
  stats::Gauge* pairs_confirmed_down_ = nullptr;

  mutable Mutex mu_{"cluster.health"};
  std::map<PairKey, PeerState> peers_ GUARDED_BY(mu_);
  // Lifetime total (reported by failovers_executed()) and the portion of
  // it charged against opts_.max_auto_failovers since the last budget
  // reset.
  int failovers_ GUARDED_BY(mu_) = 0;
  int budget_used_ GUARDED_BY(mu_) = 0;

  // ThreadMain (probe rounds + orchestration) runs only on the monitor's
  // ticker thread; TickOnce alone is also driven directly by tests, so the
  // assert guards the loop, not the tick.
  COUCHKV_AFFINE_TO("cluster.health.ticker",
                    lockdep::Domain::kClusterHealth);
  Mutex thread_mu_{"cluster.health.thread"};
  CondVar thread_cv_;
  bool stop_ GUARDED_BY(thread_mu_) = false;
  bool running_ GUARDED_BY(thread_mu_) = false;
  std::thread thread_;
};

}  // namespace couchkv::cluster

#endif  // COUCHKV_CLUSTER_HEALTH_MONITOR_H_
