// Process-wide transport instrumentation, shared by every Transport
// implementation: totals plus per-node link counters in the registry's
// global "transport" scope. Node::Stats() serves each node its own slice
// ("transport.node.<id>.*"), so STATS shows per-link deliveries, drops and
// blocks the way the paper's monitoring channel shows replication-link health.
#ifndef COUCHKV_NET_TRANSPORT_METRICS_H_
#define COUCHKV_NET_TRANSPORT_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/synchronization.h"
#include "net/transport.h"
#include "stats/registry.h"

namespace couchkv::net {

class TransportMetrics {
 public:
  static TransportMetrics& Instance();

  // One call per admission decision. `latency_us` is the injected delay
  // (FaultyTransport) or 0.
  void OnDelivered(const Endpoint& src, const Endpoint& dst,
                   uint64_t latency_us);
  void OnDropped(const Endpoint& src, const Endpoint& dst);
  void OnBlocked(const Endpoint& src, const Endpoint& dst);

 private:
  // Per-node counters, published once via CAS so the hot path is a single
  // acquire load + relaxed adds (no lock after first touch of a node).
  struct NodeCounters {
    stats::Counter* delivered;
    stats::Counter* dropped;
    stats::Counter* blocked;
  };
  static constexpr uint32_t kMaxNodes = 64;

  TransportMetrics();
  NodeCounters* SlotFor(const Endpoint& src, const Endpoint& dst);

  std::shared_ptr<stats::Scope> scope_;
  stats::Counter* sent_;
  stats::Counter* delivered_;
  stats::Counter* dropped_;
  stats::Counter* blocked_;
  stats::Counter* injected_latency_us_;
  // Serializes slot publication only; slots_ itself is atomic so readers
  // stay lock-free (the CAS-publish pattern documented above).
  Mutex publish_mu_{"net.transport_metrics"};
  std::atomic<NodeCounters*> slots_[kMaxNodes] = {};
};

}  // namespace couchkv::net

#endif  // COUCHKV_NET_TRANSPORT_METRICS_H_
