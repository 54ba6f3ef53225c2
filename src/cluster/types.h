// Shared cluster-level types: service sets (multi-dimensional scaling),
// bucket configuration, vBucket states, durability requirements.
#ifndef COUCHKV_CLUSTER_TYPES_H_
#define COUCHKV_CLUSTER_TYPES_H_

#include <cstdint>
#include <string>

#include "kv/hash_table.h"

namespace couchkv::cluster {

using NodeId = uint32_t;
constexpr NodeId kNoNode = UINT32_MAX;

// Every Couchbase deployment uses exactly 1024 logical partitions (paper
// §4.1: "This is not a configurable number").
constexpr uint16_t kNumVBuckets = 1024;

// The services a node can run — the three dimensions of multi-dimensional
// scaling (paper §4.4). Combinable as a bitmask.
enum Service : uint32_t {
  kDataService = 1u << 0,
  kIndexService = 1u << 1,
  kQueryService = 1u << 2,
  kAllServices = kDataService | kIndexService | kQueryService,
};

// vBucket lifecycle states during normal operation and rebalance
// (paper §4.3.1: Active / Replica / Dead).
enum class VBucketState {
  kActive,   // serves all request types
  kReplica,  // accepts replication traffic only
  kPending,  // rebalance destination being built up (internal)
  kDead,     // not responsible for this partition
};

const char* VBucketStateName(VBucketState s);

// Per-bucket configuration.
struct BucketConfig {
  std::string name;
  uint32_t num_replicas = 1;  // up to 3 (paper §4.1.1)
  kv::EvictionPolicy eviction = kv::EvictionPolicy::kValueOnly;
  uint64_t memory_quota_bytes = 256ull << 20;
};

// Client-selected durability for a single mutation (paper §2.3.2
// "Durability guarantees": wait for replication and/or persistence on a
// per-mutation basis).
struct Durability {
  uint32_t replicate_to = 0;  // replicas that must hold the mutation
  uint32_t persist_to = 0;    // nodes that must have persisted it (0 or 1+)
  uint64_t timeout_ms = 2500;

  static Durability None() { return {}; }
  static Durability Replicate(uint32_t n) { return {n, 0, 2500}; }
  static Durability Persist(uint32_t n) { return {0, n, 2500}; }
};

}  // namespace couchkv::cluster

#endif  // COUCHKV_CLUSTER_TYPES_H_
