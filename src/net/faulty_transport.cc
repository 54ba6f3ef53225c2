#include "net/faulty_transport.h"

#include <chrono>
#include <thread>

#include "net/transport_metrics.h"

namespace couchkv::net {

namespace {

// How many decisions each link keeps as a readable log. Fingerprints cover
// the full history; the log is for test diagnostics.
constexpr size_t kMaxLogEntries = 8192;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t EndpointHash(const Endpoint& e) {
  return (static_cast<uint64_t>(e.kind) << 32) | e.id;
}

uint64_t LinkSeed(uint64_t seed, const Endpoint& src, const Endpoint& dst) {
  uint64_t h = seed;
  h = Mix(h, EndpointHash(src));
  h = Mix(h, EndpointHash(dst));
  return h;
}

}  // namespace

std::string Endpoint::ToString() const {
  switch (kind) {
    case Kind::kClient:
      return "client:" + std::to_string(id);
    case Kind::kNode:
      return "node:" + std::to_string(id);
    case Kind::kService:
      return "svc:" + std::to_string(id);
  }
  return "?";
}

void FaultyTransport::SetDefaultFaults(const LinkFaults& faults) {
  LockGuard lock(mu_);
  default_faults_ = faults;
}

void FaultyTransport::SetClientFaults(const LinkFaults& faults) {
  LockGuard lock(mu_);
  client_faults_ = faults;
  have_client_faults_ = true;
}

void FaultyTransport::SetLinkFaults(const Endpoint& src, const Endpoint& dst,
                                    const LinkFaults& faults) {
  LockGuard lock(mu_);
  link_faults_[{src, dst}] = faults;
}

void FaultyTransport::Block(const Endpoint& src, const Endpoint& dst) {
  LockGuard lock(mu_);
  blocked_links_.insert({src, dst});
}

void FaultyTransport::Unblock(const Endpoint& src, const Endpoint& dst) {
  LockGuard lock(mu_);
  blocked_links_.erase({src, dst});
}

void FaultyTransport::PartitionPair(const Endpoint& a, const Endpoint& b) {
  LockGuard lock(mu_);
  blocked_links_.insert({a, b});
  blocked_links_.insert({b, a});
}

void FaultyTransport::IsolateNode(uint32_t node_id) {
  LockGuard lock(mu_);
  isolated_nodes_.insert(node_id);
}

void FaultyTransport::HealNode(uint32_t node_id) {
  LockGuard lock(mu_);
  isolated_nodes_.erase(node_id);
}

void FaultyTransport::HealAll() {
  LockGuard lock(mu_);
  blocked_links_.clear();
  isolated_nodes_.clear();
}

void FaultyTransport::Reset() {
  LockGuard lock(mu_);
  blocked_links_.clear();
  isolated_nodes_.clear();
  link_faults_.clear();
  slow_nodes_.clear();
  default_faults_ = {};
  client_faults_ = {};
  have_client_faults_ = false;
}

void FaultyTransport::SetNodeSlowdown(uint32_t node_id, uint64_t extra_us) {
  LockGuard lock(mu_);
  if (extra_us == 0) {
    slow_nodes_.erase(node_id);
  } else {
    slow_nodes_[node_id] = extra_us;
  }
}

FaultyTransport::LinkState& FaultyTransport::StateFor(const LinkKey& key) {
  auto it = links_.find(key);
  if (it == links_.end()) {
    it = links_
             .emplace(key, std::make_unique<LinkState>(
                               LinkSeed(seed_, key.first, key.second)))
             .first;
  }
  return *it->second;
}

const LinkFaults& FaultyTransport::FaultsFor(const LinkKey& key) const {
  auto it = link_faults_.find(key);
  if (it != link_faults_.end()) return it->second;
  if (have_client_faults_ &&
      (key.first.is_client() || key.second.is_client())) {
    return client_faults_;
  }
  return default_faults_;
}

bool FaultyTransport::Blocked(const Endpoint& src, const Endpoint& dst) const {
  if (blocked_links_.count({src, dst})) return true;
  if (src.is_node() && isolated_nodes_.count(src.id)) return true;
  if (dst.is_node() && isolated_nodes_.count(dst.id)) return true;
  return false;
}

void FaultyTransport::Record(LinkState& state, const std::string& decision) {
  for (char c : decision) {
    state.fingerprint =
        state.fingerprint * 1099511628211ULL + static_cast<uint8_t>(c);
  }
  state.fingerprint = Mix(state.fingerprint, 0xD1CE);
  if (state.log.size() < kMaxLogEntries) state.log.push_back(decision);
}

Status FaultyTransport::Admit(const Endpoint& src, const Endpoint& dst,
                              uint64_t* sleep_us) {
  LockGuard lock(mu_);
  LinkKey key{src, dst};
  LinkState& state = StateFor(key);

  // Partitions are configuration, not chance: they consume no RNG draw, so
  // blocking and healing a link does not perturb its decision stream.
  if (Blocked(src, dst)) {
    Record(state, "BLOCKED");
    TransportMetrics::Instance().OnBlocked(src, dst);
    return Status::TempFail("link blocked: " + src.ToString() + "->" +
                            dst.ToString());
  }

  const LinkFaults& faults = FaultsFor(key);
  if (faults.drop > 0.0 && state.rng.NextDouble() < faults.drop) {
    Record(state, "DROP");
    TransportMetrics::Instance().OnDropped(src, dst);
    return Status::TempFail("message dropped: " + src.ToString() + "->" +
                            dst.ToString());
  }

  uint64_t delay = 0;
  if (faults.max_latency_us > faults.min_latency_us) {
    delay = state.rng.UniformRange(faults.min_latency_us,
                                   faults.max_latency_us);
  } else {
    delay = faults.min_latency_us;
  }
  if (src.is_node()) {
    auto slow = slow_nodes_.find(src.id);
    if (slow != slow_nodes_.end()) delay += slow->second;
  }
  if (dst.is_node()) {
    auto slow = slow_nodes_.find(dst.id);
    if (slow != slow_nodes_.end()) delay += slow->second;
  }

  Record(state, delay == 0 ? "DELIVER"
                           : "DELIVER+" + std::to_string(delay) + "us");
  TransportMetrics::Instance().OnDelivered(src, dst, delay);
  *sleep_us = delay;
  return Status::OK();
}

Status FaultyTransport::Request(const Endpoint& src, const Endpoint& dst) {
  uint64_t sleep_us = 0;
  Status st = Admit(src, dst, &sleep_us);
  if (sleep_us > 0) {
    // justified: injected link latency — the duration comes from the
    // seeded fault schedule, so the delay itself is deterministic.
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  }
  return st;
}

Status FaultyTransport::Reply(const Endpoint& src, const Endpoint& dst) {
  // The reply leg travels the reverse directed link, so a one-way partition
  // dst -> src kills acknowledgements of operations that executed.
  return Request(dst, src);
}

uint64_t FaultyTransport::ScheduleFingerprint() const {
  LockGuard lock(mu_);
  // Summation makes the combination order-independent across links while
  // each term stays order-dependent within its link.
  uint64_t fp = 0;
  for (const auto& [key, state] : links_) {
    fp += Mix(LinkSeed(seed_, key.first, key.second), state->fingerprint);
  }
  return fp;
}

std::vector<std::string> FaultyTransport::Schedule(const Endpoint& src,
                                                   const Endpoint& dst) const {
  LockGuard lock(mu_);
  auto it = links_.find({src, dst});
  if (it == links_.end()) return {};
  return it->second->log;
}

}  // namespace couchkv::net
