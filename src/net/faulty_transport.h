// Deterministic, seedable fault injection for the transport layer: per-link
// message drops, latency distributions, one-way partitions, slow nodes.
// Node crash/restart is orthogonal — the cluster layer owns process state
// (Cluster::CrashNode / RestartNode); this class only decides message fates.
//
// Determinism model: every *directed link* owns an independent RNG stream
// seeded from (seed, src, dst). The fate of the k-th message on a link is a
// pure function of the seed and k, regardless of how traffic on different
// links interleaves across threads. A workload whose per-link message
// sequences are driver-ordered therefore produces an identical fault
// schedule on every run with the same seed — the property the torture
// harness's determinism check asserts via ScheduleFingerprint().
#ifndef COUCHKV_NET_FAULTY_TRANSPORT_H_
#define COUCHKV_NET_FAULTY_TRANSPORT_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "net/transport.h"

namespace couchkv::net {

// Fault configuration for one directed link (or a class of links).
struct LinkFaults {
  // Probability that a message on this link is dropped, 0..1. Applied to
  // requests and (via the reverse link) replies independently.
  double drop = 0.0;
  // Injected latency, drawn uniformly from [min, max] microseconds per
  // admitted message. 0/0 = no delay and no RNG draw.
  uint64_t min_latency_us = 0;
  uint64_t max_latency_us = 0;
  // A blocked link delivers nothing until unblocked (one-way partition).
  bool blocked = false;
};

class FaultyTransport : public Transport {
 public:
  explicit FaultyTransport(uint64_t seed) : seed_(seed) {}

  // --- Fault configuration (precedence: exact link > client-side default >
  // global default; a perfect link is the initial state) ---
  void SetDefaultFaults(const LinkFaults& faults);
  // Applies to every link with a client endpoint on either side. These are
  // the links whose message order the workload driver controls, so faults
  // configured here keep the full schedule deterministic.
  void SetClientFaults(const LinkFaults& faults);
  void SetLinkFaults(const Endpoint& src, const Endpoint& dst,
                     const LinkFaults& faults);

  // --- Partitions ---
  // One-way: messages src -> dst (requests that way, and replies to calls
  // made dst -> src) stop being delivered.
  void Block(const Endpoint& src, const Endpoint& dst);
  void Unblock(const Endpoint& src, const Endpoint& dst);
  // Two-way partition between a pair of endpoints.
  void PartitionPair(const Endpoint& a, const Endpoint& b);
  // Isolates a node from all traffic in both directions.
  void IsolateNode(uint32_t node_id);
  void HealNode(uint32_t node_id);
  // Removes every partition (directed blocks and isolations). Probabilistic
  // faults (drop/latency) remain configured.
  void HealAll();
  // Forgets all fault configuration: back to a perfect network.
  void Reset();

  // A slow node adds a fixed extra delay to every message touching it.
  void SetNodeSlowdown(uint32_t node_id, uint64_t extra_us);

  // --- Transport ---
  Status Request(const Endpoint& src, const Endpoint& dst) override;
  Status Reply(const Endpoint& src, const Endpoint& dst) override;

  // --- Introspection ---
  // Message fates are counted only in the registry's "transport" scope
  // (delivered, dropped, blocked, injected_latency_us). The two below are
  // per-instance facts the registry does not hold.
  //
  // Order-independent combination of per-link decision fingerprints: equal
  // across two runs iff every link saw the identical decision sequence.
  uint64_t ScheduleFingerprint() const;
  // Human-readable decision log for one directed link (capped), e.g.
  // "DELIVER", "DROP", "BLOCKED", "DELIVER+120us".
  std::vector<std::string> Schedule(const Endpoint& src,
                                    const Endpoint& dst) const;

  uint64_t seed() const { return seed_; }

 private:
  struct LinkState {
    Rng rng;
    uint64_t fingerprint = 0;
    std::vector<std::string> log;
    explicit LinkState(uint64_t seed) : rng(seed) {}
  };
  using LinkKey = std::pair<Endpoint, Endpoint>;

  // Decides the fate of one message traveling src -> dst. Returns OK or the
  // fault status; sets *sleep_us to any injected latency (applied by the
  // caller outside the lock).
  Status Admit(const Endpoint& src, const Endpoint& dst, uint64_t* sleep_us)
      EXCLUDES(mu_);

  LinkState& StateFor(const LinkKey& key) REQUIRES(mu_);
  const LinkFaults& FaultsFor(const LinkKey& key) const REQUIRES(mu_);
  bool Blocked(const Endpoint& src, const Endpoint& dst) const REQUIRES(mu_);
  void Record(LinkState& state, const std::string& decision) REQUIRES(mu_);

  const uint64_t seed_;

  mutable Mutex mu_{"net.faulty_transport"};
  LinkFaults default_faults_ GUARDED_BY(mu_);
  LinkFaults client_faults_ GUARDED_BY(mu_);
  bool have_client_faults_ GUARDED_BY(mu_) = false;
  std::map<LinkKey, LinkFaults> link_faults_ GUARDED_BY(mu_);
  std::set<LinkKey> blocked_links_ GUARDED_BY(mu_);
  std::set<uint32_t> isolated_nodes_ GUARDED_BY(mu_);
  std::map<uint32_t, uint64_t> slow_nodes_ GUARDED_BY(mu_);
  std::map<LinkKey, std::unique_ptr<LinkState>> links_ GUARDED_BY(mu_);
};

}  // namespace couchkv::net

#endif  // COUCHKV_NET_FAULTY_TRANSPORT_H_
