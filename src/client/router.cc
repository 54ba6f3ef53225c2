#include "client/router.h"

#include <algorithm>

namespace couchkv::client {

uint64_t NextBackoffUs(const RetryPolicy& policy, uint64_t prev_us, Rng& rng) {
  uint64_t lo = policy.initial_backoff_us;
  uint64_t hi = std::max(lo, prev_us * 3);
  return std::min(rng.UniformRange(lo, hi), policy.max_backoff_us);
}

Router::Router(const RetryPolicy& policy, uint64_t backoff_seed)
    : policy_(policy),
      rng_(backoff_seed),
      scope_(stats::Registry::Global().GetScope("client")),
      retries_(scope_->GetCounter("retries")),
      op_errors_(scope_->GetCounter("op_errors")),
      map_refreshes_(scope_->GetCounter("map_refreshes")),
      no_active_(scope_->GetCounter("no_active_fail_fast")) {}

}  // namespace couchkv::client
