// The smart-client routing/retry loop (paper §4.1), shared by SmartClient
// (an attempt is an in-process call over the cluster transport) and
// WireClient (an attempt is a binary-protocol frame over TCP): hash the key
// to its vBucket, send the op to the active node of the cached cluster map,
// and on NotMyVBucket or TempFail refresh the map and retry with backoff.
#ifndef COUCHKV_CLIENT_ROUTER_H_
#define COUCHKV_CLIENT_ROUTER_H_

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "cluster/types.h"
#include "common/random.h"
#include "common/status.h"
#include "stats/registry.h"

namespace couchkv::client {

// How the client retries operations that fail transiently — NotMyVBucket
// after a topology change, TempFail from an overloaded/partitioned/down
// node, or a message lost by a faulty transport. Timeouts and semantic
// errors (NotFound, CAS mismatch, ...) are never retried.
struct RetryPolicy {
  int max_attempts = 64;
  // The first retry sleeps initial_backoff_us; each later sleep follows
  // NextBackoffUs, never above max_backoff_us.
  uint64_t initial_backoff_us = 50;
  uint64_t max_backoff_us = 2000;
};

// The sleep after one of `prev_us`: decorrelated jitter (AWS-style),
// min(cap, uniform[initial, prev * 3]), so clients retrying after a
// failover do not re-hit the cluster in phase. Exposed for tests.
uint64_t NextBackoffUs(const RetryPolicy& policy, uint64_t prev_us, Rng& rng);

// Where one attempt goes: the key's vBucket and its active node.
// node == kNoNode when no map is cached yet or the vBucket has no active.
struct Route {
  uint16_t vb = 0;
  cluster::NodeId node = cluster::kNoNode;
};

// Owns the retry policy, the backoff stream and the client.{retries,
// op_errors,map_refreshes,no_active_fail_fast} counters (scope "client",
// shared by every client in the process). One op at a time per Router.
class Router {
 public:
  // Give every client its own `backoff_seed`: no two back off in lockstep.
  Router(const RetryPolicy& policy, uint64_t backoff_seed);

  // Fetches a fresh map through `fetch` () -> Status, counted in
  // client.map_refreshes.
  template <typename Fetch>
  Status Refresh(Fetch&& fetch) {
    map_refreshes_->Add();
    return fetch();
  }

  // Runs one op routed by `key`. locate(key) -> Route reads the cached
  // map, fetch() -> Status replaces it, and attempt(const Route&) ->
  // Status or StatusOr<T> sends the op once to route.node.
  template <typename Locate, typename Fetch, typename Attempt>
  auto Run(std::string_view key, Locate&& locate, Fetch&& fetch,
           Attempt&& attempt) -> decltype(attempt(Route{}));

  stats::Scope* scope() const { return scope_.get(); }

 private:
  static const Status& StatusOf(const Status& s) { return s; }
  template <typename T>
  static const Status& StatusOf(const StatusOr<T>& s) {
    return s.status();
  }

  RetryPolicy policy_;
  Rng rng_;
  std::shared_ptr<stats::Scope> scope_;
  stats::Counter* retries_ = nullptr;
  stats::Counter* op_errors_ = nullptr;
  stats::Counter* map_refreshes_ = nullptr;
  stats::Counter* no_active_ = nullptr;
};

template <typename Locate, typename Fetch, typename Attempt>
auto Router::Run(std::string_view key, Locate&& locate, Fetch&& fetch,
                 Attempt&& attempt) -> decltype(attempt(Route{})) {
  Status last = Status::OK();  // no message: nothing allocated per op
  uint64_t backoff_us = policy_.initial_backoff_us;
  for (int i = 0; i < policy_.max_attempts; ++i) {
    if (i > 0) {
      retries_->Add();
      if (backoff_us > 0) {
        // justified: client retry backoff must really wait — spinning on
        // the clock would hammer a recovering node.
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      }
      backoff_us = NextBackoffUs(policy_, backoff_us, rng_);
    }
    Route route = locate(key);
    if (route.node == cluster::kNoNode) {
      // No map yet, or every copy of this vBucket was lost at failover.
      // Refresh once in case a recovery just republished the map, then
      // fail fast: no amount of retrying materializes an active, so
      // burning the backoff budget only delays the caller's error handling.
      Status st = Refresh(fetch);
      if (!st.ok()) {
        if (!st.IsTempFail()) return st;  // permanent, e.g. unknown bucket
        last = std::move(st);
        continue;
      }
      route = locate(key);
      if (route.node == cluster::kNoNode) {
        no_active_->Add();
        op_errors_->Add();
        return Status::TempFail("no active node for vbucket " +
                                std::to_string(route.vb) +
                                " (all copies failed over)");
      }
    }
    auto result = attempt(route);
    if (result.ok()) return result;
    last = StatusOf(result);
    if (!last.IsNotMyVBucket() && !last.IsTempFail()) return result;
    // Topology moved (rebalance/failover), the node is overloaded, down or
    // on a new port, or the transport lost a message: refresh and retry.
    // justified: best-effort; a stale map costs one more NotMyVBucket.
    (void)Refresh(fetch);
  }
  op_errors_->Add();
  return last.ok() ? Status::TempFail("no attempts made") : last;
}

}  // namespace couchkv::client

#endif  // COUCHKV_CLIENT_ROUTER_H_
