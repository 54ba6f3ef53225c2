// A smart client that speaks the binary wire protocol over real TCP
// sockets: full KV payloads are serialized into frames, shipped to the
// active node's listener, and executed there — no in-process shortcut
// anywhere on the path. This is what the external load generator and the
// socket conformance tests drive.
//
// Routing is SmartClient's loop (client/router.h): the client bootstraps a
// cluster-map document (GET_CLUSTER_MAP) from any reachable node, hashes
// keys to vBuckets with the same CRC32 rule, and sends each op to the
// vBucket's active node. On NotMyVBucket, TempFail or a transport-level
// failure it refreshes the map (nodes reboot onto fresh ephemeral ports, so
// ports are re-learned too) and retries; semantic errors (NotFound, CAS
// mismatch, Locked, ...) and permanent map errors (an unknown bucket) are
// returned immediately.
#ifndef COUCHKV_CLIENT_WIRE_CLIENT_H_
#define COUCHKV_CLIENT_WIRE_CLIENT_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/smart_client.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "net/wire/wire.h"

namespace couchkv::client {

// One blocking request/response exchange against 127.0.0.1:`port` on a
// fresh connection (connect, send, read one frame, close). The raw building
// block conformance tests use to aim frames at a specific node —
// deliberately bypassing routing, e.g. to provoke NotMyVBucket.
StatusOr<net::wire::Message> RawRoundTrip(uint16_t port,
                                          const net::wire::Message& req,
                                          uint64_t timeout_ms = 5000);

// Pipelining primitive: writes ALL request frames back-to-back in one burst,
// then reads exactly reqs.size() response frames. Responses come back in
// request order (the server serves one connection in order).
StatusOr<std::vector<net::wire::Message>> RawPipeline(
    uint16_t port, const std::vector<net::wire::Message>& reqs,
    uint64_t timeout_ms = 5000);

class WireClient {
 public:
  // `bootstrap_ports` are listener ports to try (in order) for the first
  // cluster-map fetch; one live node is enough — the map names the rest.
  // `trace_seed` seeds the client's trace-id sequence; 0 picks a random
  // per-client base. Every dispatched op carries a trace-context framed
  // extra (one trace id per op, stable across its retries — an NMVB
  // redirect joins the same trace), so pass an explicit seed when a test
  // needs bit-identical flight-recorder dumps run after run.
  WireClient(std::vector<uint16_t> bootstrap_ports, std::string bucket,
             RetryPolicy retry = {}, uint64_t trace_seed = 0);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  // KV API over the wire. WriteOptions::durability rides a durability
  // framed extra: the server blocks the response until the requirement
  // holds (or times out), and the reply's `server` timing attributes the
  // wait to its replicate/persist phases.
  StatusOr<GetReply> Get(std::string_view key);
  StatusOr<MutateReply> Upsert(std::string_view key, std::string_view value,
                               const WriteOptions& opts = {});
  StatusOr<MutateReply> Insert(std::string_view key, std::string_view value,
                               const WriteOptions& opts = {});
  StatusOr<MutateReply> Replace(std::string_view key, std::string_view value,
                                const WriteOptions& opts = {});
  StatusOr<MutateReply> Remove(std::string_view key, uint64_t cas = 0,
                               const cluster::Durability& dur = {});
  StatusOr<GetReply> GetAndLock(std::string_view key, uint64_t lock_ms);
  Status Unlock(std::string_view key, uint64_t cas);
  Status Touch(std::string_view key, uint32_t expiry);
  // STATS [group] against the node hosting `key`'s vBucket; returns the
  // JSON snapshot text.
  StatusOr<std::string> StatsFor(std::string_view key,
                                 const std::string& group = "");
  // OBSERVE_TRACE against the node hosting `key`'s vBucket: that node's
  // flight-recorder dump as JSON, optionally filtered to one trace id.
  StatusOr<std::string> ObserveTraceFor(std::string_view key,
                                        uint64_t trace_id = 0);

  // Fetches a fresh cluster map immediately (ops do this lazily on demand).
  Status RefreshMap();

  // Drops every pooled connection; they re-establish on the next op.
  void DropConnections();

  const std::string& bucket() const { return bucket_; }
  // vBucket count learned from the map (0 before the first fetch).
  uint16_t num_vbuckets() const;
  // The port this client currently believes `node_id` listens on.
  uint16_t port_of(uint32_t node_id) const;

 private:
  struct Routing {
    uint64_t map_version = 0;
    uint16_t num_vbuckets = 0;
    // vbucket -> node id; UINT32_MAX = no active copy.
    std::vector<uint32_t> active;
    std::map<uint32_t, uint16_t> ports;  // node id -> wire port
  };

  // The client's own view of one exchange on the real clock: just before
  // its send, and the return of the recv that completed the response.
  struct Window {
    uint64_t sent_nanos = 0;
    uint64_t recv_nanos = 0;
  };

  // Sends `req` to node `node_id` over the pooled connection, reconnecting
  // once on a dead socket. Fills `resp` on any protocol-level answer
  // (including error statuses) and `window` with the last attempt's
  // stamps; returns non-OK only for transport failures.
  Status Exchange(uint32_t node_id, const net::wire::Message& req,
                  net::wire::Message* resp, Window* window);
  // Fetches the cluster map from any reachable node (no counting; the
  // router counts refreshes).
  Status FetchMap();
  // Routes one request by key through the shared routing/retry loop, each
  // attempt an Exchange. OK only for a kSuccess response, which lands in
  // `resp` with the vbucket used in `vb_out` and, in `timing_out`, the
  // trace id the op ran under, the server's report and the wire legs
  // (both optional); every other wire status comes back as its Status.
  Status Dispatch(std::string_view key, net::wire::Message req,
                  net::wire::Message* resp, uint16_t* vb_out = nullptr,
                  ServerTiming* timing_out = nullptr);
  // Dispatches a GET-family request and decodes the document reply.
  StatusOr<GetReply> Fetch(std::string_view key, net::wire::Message req);
  // Dispatches a mutation, attaching `dur` as a durability framed extra,
  // and decodes the mutation reply.
  StatusOr<MutateReply> Mutate(std::string_view key, net::wire::Message req,
                               const cluster::Durability& dur);

  const std::string bucket_;
  const std::vector<uint16_t> bootstrap_ports_;
  Router router_;
  std::atomic<uint64_t> next_trace_id_;

  mutable Mutex mu_{"client.wire_client"};
  Routing routing_ GUARDED_BY(mu_);
  std::map<uint32_t, int> conns_ GUARDED_BY(mu_);  // node id -> fd
};

}  // namespace couchkv::client

#endif  // COUCHKV_CLIENT_WIRE_CLIENT_H_
