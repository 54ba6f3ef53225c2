// The "smart client" (paper §4.1): caches the cluster map, hashes each key
// with CRC32 to its vBucket, and talks directly to the node hosting the
// active copy. On NotMyVBucket (topology changed under it) it refreshes the
// map and retries — exactly the protocol Couchbase SDKs implement.
#ifndef COUCHKV_CLIENT_SMART_CLIENT_H_
#define COUCHKV_CLIENT_SMART_CLIENT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/router.h"
#include "cluster/cluster.h"
#include "json/value.h"
#include "net/transport.h"
#include "stats/registry.h"

namespace couchkv::client {

// Options for a single write.
struct WriteOptions {
  uint32_t flags = 0;
  uint32_t expiry = 0;  // absolute seconds, 0 = never
  uint64_t cas = 0;     // 0 = unconditional
  cluster::Durability durability;  // default: memory-ack only
};

// Server-reported timing for one op, parsed from the response's
// server-timing framed extra. All zeros when the server did not report
// (classic frames, or the in-process SmartClient which has no wire).
struct ServerTiming {
  uint64_t trace_id = 0;  // trace this op ran under (0 = untraced)
  uint32_t total_us = 0;
  uint32_t dispatch_us = 0;
  uint32_t engine_us = 0;
  uint32_t replicate_us = 0;
  uint32_t persist_us = 0;
  // The wire legs around the server's total, from the server's receive
  // stamp: the client's send to the server's recv return, and the response
  // being ready (that stamp plus total) to the client's recv return. Both 0
  // when the server sent no stamp (a node not on the real clock) or the
  // server's span falls outside the client's own send..recv window.
  uint32_t request_leg_us = 0;
  uint32_t reply_leg_us = 0;
};

// A fetched document plus its metadata.
struct GetReply {
  std::string key;
  std::string value;  // raw JSON text
  uint64_t cas = 0;
  uint32_t flags = 0;
  ServerTiming server;
};

// Result of a successful mutation.
struct MutateReply {
  uint64_t cas = 0;
  uint64_t seqno = 0;
  uint16_t vbucket = 0;
  ServerTiming server;
};

// One node's contribution to a cluster-wide STATS scatter/gather. A node
// that could not be reached (partitioned, crashed, message lost) is labeled
// unreachable with the error — never silently merged or dropped.
struct NodeStatsResult {
  cluster::NodeId node = 0;
  bool reachable = false;
  std::string error;
  stats::Snapshot stats;
};

struct ClusterStatsResult {
  std::vector<NodeStatsResult> nodes;
};

class SmartClient {
 public:
  // `client_id` names this client on the transport (its Endpoint); 0 means
  // auto-assign. Pass explicit ids when fault schedules must be
  // reproducible across runs — auto-assignment is a process-wide counter.
  SmartClient(cluster::Cluster* cluster, std::string bucket,
              RetryPolicy retry = {}, uint32_t client_id = 0);

  // --- KV API (access path 1 in §3.1) ---
  StatusOr<GetReply> Get(std::string_view key);
  StatusOr<MutateReply> Upsert(std::string_view key, std::string_view value,
                               const WriteOptions& opts = {});
  StatusOr<MutateReply> Insert(std::string_view key, std::string_view value,
                               const WriteOptions& opts = {});
  StatusOr<MutateReply> Replace(std::string_view key, std::string_view value,
                                const WriteOptions& opts = {});
  StatusOr<MutateReply> Remove(std::string_view key, uint64_t cas = 0,
                               const cluster::Durability& dur = {});
  // Convenience: store a JSON value.
  StatusOr<MutateReply> UpsertJson(std::string_view key,
                                   const json::Value& value,
                                   const WriteOptions& opts = {});
  // Convenience: fetch and parse.
  StatusOr<json::Value> GetJson(std::string_view key);

  // Pessimistic locking (paper §3.1.1 "stricter locking mechanism").
  StatusOr<GetReply> GetAndLock(std::string_view key, uint64_t lock_ms);
  Status Unlock(std::string_view key, uint64_t cas);
  Status Touch(std::string_view key, uint32_t expiry);

  // --- Sub-document operations (paper §3.2.2: "sub-document level lookups
  // and updates") ---
  // Reads a single path out of a document without shipping the whole value
  // to the application.
  StatusOr<json::Value> LookupIn(std::string_view key, std::string_view path);
  // Sets one path inside a document, retrying on concurrent modification
  // (CAS loop). Creates intermediate objects. NotFound if the doc is absent.
  StatusOr<MutateReply> MutateIn(std::string_view key, std::string_view path,
                                 const json::Value& value);
  // Removes one path inside a document (CAS loop).
  StatusOr<MutateReply> RemoveIn(std::string_view key, std::string_view path);

  // Atomic counter (memcached heritage): adds `delta` to a numeric
  // document, creating it at `initial` when absent. Returns the new value.
  StatusOr<int64_t> Increment(std::string_view key, int64_t delta,
                              int64_t initial = 0);

  // Memcached-style `STATS [group]` fanned out to every node in the
  // cluster. Each node's Stats() runs over the transport, so partitions and
  // crashes surface as unreachable entries with their error labeled —
  // partial results are never silently merged into a cluster total.
  ClusterStatsResult ClusterStats(const std::string& group = "");

  const std::string& bucket() const { return bucket_; }
  cluster::Cluster* cluster() { return cluster_; }
  const net::Endpoint& endpoint() const { return endpoint_; }

  // The vBucket a key routes to (exposed for tests / diagnostics).
  uint16_t VBucketFor(std::string_view key) const {
    return cluster::KeyToVBucket(key);
  }

 private:
  // Runs `op(vbucket, vb)` against the active node's copy of `key`'s
  // vBucket, through the node's KV gate and the shared routing/retry loop.
  template <typename Fn>
  auto WithRouting(std::string_view key, Fn&& op)
      -> decltype(op(std::declval<cluster::VBucket&>(), uint16_t{0}));

  // The one mutation path behind Upsert/Insert/Replace/Remove/Touch: runs
  // the store op, then waits for `dur`.
  StatusOr<MutateReply> Store(kv::StoreOp op, std::string_view key,
                              std::string_view value, uint32_t flags,
                              uint32_t expiry, uint64_t cas,
                              const cluster::Durability& dur);

  Status FetchMap();

  cluster::Cluster* cluster_;
  std::string bucket_;
  net::Endpoint endpoint_;
  Router router_;
  std::shared_ptr<const cluster::ClusterMap> map_;

  // End-to-end op latency including routing retries and backoff (scope
  // "client", shared by all clients in the process).
  Histogram* get_ns_ = nullptr;
  Histogram* mutate_ns_ = nullptr;
};

}  // namespace couchkv::client

#endif  // COUCHKV_CLIENT_SMART_CLIENT_H_
