// The per-node wire front-end: maps each decoded binary-protocol request to
// a vBucket op through the node's KV gate (Node::WithVBucket) and packs the
// result back into a response frame. One WireService instance backs one
// node's TcpServer; it is stateless beyond the cluster/node pointers and
// pre-resolved metric handles, so handler threads need no synchronization
// of their own (the gate and the vBucket ops are already thread-safe).
//
// Extras layouts (all big-endian, mirroring the memcached binary protocol):
//   SET/ADD/REPLACE request ... 8 bytes: flags u32, expiry u32
//   mutation response ......... 8 bytes: seqno u64
//   GET/GETL response ......... 4 bytes: flags u32
//   GETL request .............. 4 bytes: lock duration ms u32
//   TOUCH request ............. 4 bytes: expiry u32
// STAT carries the group filter in the key and returns the snapshot as a
// JSON object in the value. GET_CLUSTER_MAP carries the bucket name in the
// key and returns the routing document described in DESIGN.md.
// OBSERVE_TRACE carries an optional decimal trace-id filter in the key and
// returns this node's flight-recorder dump as JSON.
//
// Tracing: every request is timed against the node's Clock into a
// dispatch / engine / replicate / persist phase breakdown, recorded in the
// node's flight recorder, and — when the request was a flex frame — shipped
// back in one server-timing framed extra (which, on the real clock, also
// carries the receive stamp the client splits its wait by). A trace-id
// framed extra on the request tags the recorder entry and becomes the
// thread's ambient trace for the duration of the op (nested spans join it).
// A durability framed extra on a mutation blocks the response until the
// requirement holds, with the replicate and persist waits timed separately.
#ifndef COUCHKV_CLUSTER_WIRE_SERVICE_H_
#define COUCHKV_CLUSTER_WIRE_SERVICE_H_

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "net/tcp_server.h"
#include "net/wire/wire.h"
#include "stats/registry.h"

namespace couchkv::cluster {

class WireService {
 public:
  // `cluster` must outlive the service; `node_id` names the node this
  // service fronts (its ops execute there, NMVB and all). `bucket` is the
  // bucket this listener serves — one listener serves one bucket, the way a
  // classic memcached port maps to one bucket (GET_CLUSTER_MAP with an
  // empty key resolves to it).
  WireService(Cluster* cluster, NodeId node_id, std::string bucket);

  // The TcpServer handler: one request frame in, one response frame out.
  // Never throws and never blocks indefinitely; unknown opcodes come back
  // as kUnknownCommand rather than dropping the connection.
  net::wire::Message Handle(const net::wire::Message& req,
                            const net::RequestContext& ctx);

 private:
  // The opcode switch (the engine phase). Pure dispatch: no timing, no
  // durability — Handle wraps it with both. `n` is this service's node,
  // null once it has left the cluster.
  net::wire::Message DispatchOpcode(const net::wire::Message& req, Node* n);

  // GET and GETL.
  net::wire::Message HandleGet(const net::wire::Message& req, Node* n);
  // SET, ADD, REPLACE, DELETE and TOUCH: one kv::StoreOp each.
  net::wire::Message HandleStore(const net::wire::Message& req, Node* n);
  net::wire::Message HandleUnlock(const net::wire::Message& req, Node* n);
  net::wire::Message HandleStat(const net::wire::Message& req, Node* n);
  net::wire::Message HandleClusterMap(const net::wire::Message& req);
  net::wire::Message HandleObserveTrace(const net::wire::Message& req,
                                        Node* n);

  Cluster* cluster_;
  const NodeId node_id_;
  const std::string bucket_;

  // Per-node wire metrics, registered in the node's "node.<id>" scope so a
  // wire STAT (group "wire") returns them. The shared_ptr pins the scope's
  // storage even if the node object goes away mid-request.
  std::shared_ptr<stats::Scope> node_scope_;
  Histogram* h_server_ = nullptr;     // total server-side nanos; its count
                                      // is the node's wire op count
  Histogram* h_dispatch_ = nullptr;   // socket read -> engine call
  Histogram* h_engine_ = nullptr;     // KV engine
  // Recorded only for a mutation that waited on that durability phase.
  Histogram* h_replicate_ = nullptr;  // replicate-ack wait
  Histogram* h_persist_ = nullptr;    // persistence wait
};

}  // namespace couchkv::cluster

#endif  // COUCHKV_CLUSTER_WIRE_SERVICE_H_
