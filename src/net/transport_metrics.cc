#include "net/transport_metrics.h"

#include <string>

namespace couchkv::net {

TransportMetrics& TransportMetrics::Instance() {
  static TransportMetrics* g = new TransportMetrics();  // leaked: see Registry
  return *g;
}

TransportMetrics::TransportMetrics() {
  scope_ = stats::Registry::Global().GetScope("transport");
  sent_ = scope_->GetCounter("sent");
  delivered_ = scope_->GetCounter("delivered");
  dropped_ = scope_->GetCounter("dropped");
  blocked_ = scope_->GetCounter("blocked");
  injected_latency_us_ = scope_->GetCounter("injected_latency_us");
}

TransportMetrics::NodeCounters* TransportMetrics::SlotFor(const Endpoint& src,
                                                          const Endpoint& dst) {
  // Attribute the message to the node it touches; node-to-node traffic
  // (replication) counts against the destination.
  uint32_t id;
  if (dst.is_node()) {
    id = dst.id;
  } else if (src.is_node()) {
    id = src.id;
  } else {
    return nullptr;
  }
  if (id >= kMaxNodes) return nullptr;
  NodeCounters* slot = slots_[id].load(std::memory_order_acquire);
  if (slot != nullptr) return slot;
  LockGuard lock(publish_mu_);
  slot = slots_[id].load(std::memory_order_acquire);
  if (slot != nullptr) return slot;
  auto* fresh = new NodeCounters();  // leaked with the process-wide scope
  std::string prefix = "node." + std::to_string(id) + ".";
  fresh->delivered = scope_->GetCounter(prefix + "delivered");
  fresh->dropped = scope_->GetCounter(prefix + "dropped");
  fresh->blocked = scope_->GetCounter(prefix + "blocked");
  slots_[id].store(fresh, std::memory_order_release);
  return fresh;
}

void TransportMetrics::OnDelivered(const Endpoint& src, const Endpoint& dst,
                                   uint64_t latency_us) {
  sent_->Add();
  delivered_->Add();
  if (latency_us > 0) injected_latency_us_->Add(latency_us);
  if (NodeCounters* slot = SlotFor(src, dst)) {
    slot->delivered->Add();
  }
}

void TransportMetrics::OnDropped(const Endpoint& src, const Endpoint& dst) {
  sent_->Add();
  dropped_->Add();
  if (NodeCounters* slot = SlotFor(src, dst)) {
    slot->dropped->Add();
  }
}

void TransportMetrics::OnBlocked(const Endpoint& src, const Endpoint& dst) {
  sent_->Add();
  blocked_->Add();
  if (NodeCounters* slot = SlotFor(src, dst)) {
    slot->blocked->Add();
  }
}

}  // namespace couchkv::net
