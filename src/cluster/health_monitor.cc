#include "cluster/health_monitor.h"

#include <algorithm>
#include <chrono>

#include "common/lockdep.h"
#include "common/logging.h"
#include "net/transport.h"

namespace couchkv::cluster {

const char* PeerHealthName(PeerHealth s) {
  switch (s) {
    case PeerHealth::kHealthy:
      return "healthy";
    case PeerHealth::kSuspect:
      return "suspect";
    case PeerHealth::kConfirmedDown:
      return "confirmed_down";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(Cluster* cluster, HealthMonitorOptions opts)
    : cluster_(cluster), opts_(opts) {
  scope_ = stats::Registry::Global().GetScope("health");
  probes_sent_ = scope_->GetCounter("probes_sent");
  probe_failures_ = scope_->GetCounter("probe_failures");
  budget_denials_ = scope_->GetCounter("failover_budget_denials");
  probe_rtt_ns_ = scope_->GetHistogram("probe_rtt_ns");
  pairs_suspect_ = scope_->GetGauge("pairs_suspect");
  pairs_confirmed_down_ = scope_->GetGauge("pairs_confirmed_down");
}

HealthMonitor::~HealthMonitor() { Stop(); }

void HealthMonitor::Start() {
  UniqueLock lock(thread_mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] {
    lockdep::ScopedDomain domain(lockdep::Domain::kClusterHealth);
    ThreadMain();
  });
}

void HealthMonitor::Stop() {
  {
    UniqueLock lock(thread_mu_);
    if (!running_) return;
    stop_ = true;
    thread_cv_.NotifyAll();
  }
  thread_.join();
  UniqueLock lock(thread_mu_);
  running_ = false;
}

void HealthMonitor::ThreadMain() {
  COUCHKV_ASSERT_AFFINE();
  for (;;) {
    {
      UniqueLock lock(thread_mu_);
      if (stop_) return;
    }
    TickOnce();
    UniqueLock lock(thread_mu_);
    if (stop_) return;
    // Spurious wakeups only shorten one interval; the next round re-reads
    // stop_, so there is no missed-signal window.
    thread_cv_.WaitFor(
        lock, std::chrono::milliseconds(opts_.heartbeat_interval_ms));
  }
}

void HealthMonitor::TickOnce() {
  std::vector<NodeId> members = cluster_->member_ids();
  if (members.size() < 2) return;
  std::map<PairKey, bool> results = ProbeAll(members);
  UpdateDetector(members, results);
  // Best-effort per round: denial reasons (quorum, budget, veto) are
  // counted, and the next tick re-evaluates from fresh probes.
  if (opts_.auto_failover_enabled) RunOrchestration(members);
}

std::map<HealthMonitor::PairKey, bool> HealthMonitor::ProbeAll(
    const std::vector<NodeId>& members) {
  std::map<PairKey, bool> results;
  net::Transport* transport = cluster_->transport();
  Clock* clock = cluster_->clock();
  for (NodeId observer : members) {
    Node* on = cluster_->node(observer);
    // A dead process sends no heartbeats (it has opinions about no one).
    if (on == nullptr || !on->healthy()) continue;
    for (NodeId peer : members) {
      if (peer == observer) continue;
      Node* pn = cluster_->node(peer);
      uint64_t t0 = clock->NowNanos();
      // The ping is an ordinary two-leg RPC: a blocked, lossy, or one-way
      // link and a crashed peer all surface as a failed probe — the
      // detector knows nothing the network does not tell it.
      Status st = net::Call(
          transport, net::Endpoint::Node(observer), net::Endpoint::Node(peer),
          [&] {
            return (pn != nullptr && pn->healthy())
                       ? Status::OK()
                       : Status::TempFail("node is down");
          });
      probes_sent_->Add();
      if (st.ok()) {
        probe_rtt_ns_->Record(clock->NowNanos() - t0);
      } else {
        probe_failures_->Add();
      }
      results[{observer, peer}] = st.ok();
    }
  }
  return results;
}

void HealthMonitor::UpdateDetector(const std::vector<NodeId>& members,
                                   const std::map<PairKey, bool>& results) {
  const uint64_t now_ms = cluster_->clock()->NowMillis();
  LockGuard lock(mu_);
  // Prune pairs that reference ex-members so a failed-over node's stale
  // entries can't linger (and a later re-add starts with fresh grace).
  for (auto it = peers_.begin(); it != peers_.end();) {
    bool keep = std::find(members.begin(), members.end(), it->first.first) !=
                    members.end() &&
                std::find(members.begin(), members.end(), it->first.second) !=
                    members.end();
    it = keep ? std::next(it) : peers_.erase(it);
  }
  for (const auto& [pair, ok] : results) {
    auto [it, inserted] = peers_.try_emplace(pair);
    PeerState& ps = it->second;
    if (inserted) ps.last_success_ms = now_ms;  // full timeout of grace
    if (ok) {
      // Any successful ping resets the pair: a flapping link keeps
      // re-earning its grace period and can never reach confirmed_down.
      ps.last_success_ms = now_ms;
      ps.state = PeerHealth::kHealthy;
    } else {
      ps.state = now_ms - ps.last_success_ms >= opts_.auto_failover_timeout_ms
                     ? PeerHealth::kConfirmedDown
                     : PeerHealth::kSuspect;
    }
  }
  int64_t suspect = 0;
  int64_t confirmed = 0;
  for (const auto& [pair, ps] : peers_) {
    suspect += ps.state == PeerHealth::kSuspect ? 1 : 0;
    confirmed += ps.state == PeerHealth::kConfirmedDown ? 1 : 0;
  }
  pairs_suspect_->Set(suspect);
  pairs_confirmed_down_->Set(confirmed);
}

std::vector<NodeId> HealthMonitor::ConfirmedDownBy(
    NodeId observer, const std::vector<NodeId>& members) const {
  std::vector<NodeId> down;
  LockGuard lock(mu_);
  for (NodeId peer : members) {
    if (peer == observer) continue;
    auto it = peers_.find({observer, peer});
    if (it != peers_.end() && it->second.state == PeerHealth::kConfirmedDown) {
      down.push_back(peer);
    }
  }
  return down;
}

bool HealthMonitor::RunOrchestration(const std::vector<NodeId>& members) {
  net::Transport* transport = cluster_->transport();
  for (NodeId actor : members) {
    Node* an = cluster_->node(actor);
    if (an == nullptr || !an->healthy()) continue;
    // Gather every member's confirmed-down set over the transport; an
    // unreachable member simply contributes no votes. The actor's own
    // opinion rides along (observer == actor short-circuits the network).
    std::map<NodeId, uint32_t> votes;
    for (NodeId observer : members) {
      Node* on = cluster_->node(observer);
      if (on == nullptr || !on->healthy()) continue;
      StatusOr<std::vector<NodeId>> opinion =
          observer == actor
              ? StatusOr<std::vector<NodeId>>(
                    ConfirmedDownBy(observer, members))
              : net::Call(transport, net::Endpoint::Node(actor),
                          net::Endpoint::Node(observer),
                          [&]() -> StatusOr<std::vector<NodeId>> {
                            return ConfirmedDownBy(observer, members);
                          });
      if (!opinion.ok()) continue;
      for (NodeId peer : opinion.value()) votes[peer] += 1;
    }
    // Quorum: a strict majority of ALL members (not just reachable ones)
    // must confirm a peer down. A partitioned minority can never assemble
    // one, so only one side of a split can ever act (no split-brain); an
    // exactly-even split means nobody acts.
    std::vector<NodeId> down;
    for (const auto& [peer, count] : votes) {
      if (static_cast<size_t>(count) * 2 > members.size()) down.push_back(peer);
    }
    // Deference (orchestrator election): the actor must believe every
    // lower-id member is down, otherwise that member is the orchestrator
    // and this node stays out of the way.
    bool defer = false;
    for (NodeId lower : members) {
      if (lower >= actor) break;
      if (std::find(down.begin(), down.end(), lower) == down.end()) {
        defer = true;
        break;
      }
    }
    if (defer || down.empty()) continue;
    {
      LockGuard lock(mu_);
      if (budget_used_ >= opts_.max_auto_failovers) {
        budget_denials_->Add();
        return false;
      }
    }
    // One failover per round: the victim with the lowest id goes first,
    // and the next round re-probes before anything else happens.
    NodeId victim = *std::min_element(down.begin(), down.end());
    Status st = cluster_->Failover(victim, FailoverMode::kAuto);
    if (st.ok()) {
      LockGuard lock(mu_);
      ++failovers_;
      ++budget_used_;
      return true;
    }
    // Vetoed (would lose data), already failed over by a concurrent actor,
    // or gone: all are terminal for this round. Cluster counts the vetoes.
    LOG_ERROR << "auto-failover of node " << victim
              << " not executed: " << st.ToString();
    return false;
  }
  return false;
}

PeerHealth HealthMonitor::Opinion(NodeId observer, NodeId peer) const {
  LockGuard lock(mu_);
  auto it = peers_.find({observer, peer});
  return it == peers_.end() ? PeerHealth::kHealthy : it->second.state;
}

int HealthMonitor::failovers_executed() const {
  LockGuard lock(mu_);
  return failovers_;
}

void HealthMonitor::ResetFailoverBudget() {
  LockGuard lock(mu_);
  budget_used_ = 0;
}

}  // namespace couchkv::cluster
