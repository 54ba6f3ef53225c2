#include "cluster/wire_service.h"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "common/logging.h"
#include "json/value.h"
#include "stats/flight_recorder.h"
#include "stats/registry.h"
#include "stats/trace.h"

namespace couchkv::cluster {

namespace wire = net::wire;

namespace {

// A response carrying only a status (and its human-readable cause in the
// value, the way memcached ships error text bodies).
wire::Message ErrorResp(const wire::Message& req, const Status& st) {
  wire::Message resp = wire::Message::Resp(req, wire::WireStatusFor(st.code()));
  resp.value = st.ToString();
  return resp;
}

bool IsMutationOpcode(uint8_t op) {
  switch (static_cast<wire::Opcode>(op)) {
    case wire::Opcode::kSet:
    case wire::Opcode::kAdd:
    case wire::Opcode::kReplace:
    case wire::Opcode::kDelete:
      return true;
    default:
      return false;
  }
}

// Nanosecond interval -> saturated u32 microseconds (the framed-extra field
// width; 71 minutes saturates, which is far beyond any served op).
uint32_t NanosToU32Micros(uint64_t nanos) {
  const uint64_t us = nanos / 1000;
  return us > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(us);
}

}  // namespace

WireService::WireService(Cluster* cluster, NodeId node_id, std::string bucket)
    : cluster_(cluster), node_id_(node_id), bucket_(std::move(bucket)) {
  // The node's scope exists for the node's whole lifetime; holding the
  // shared_ptr keeps the metric storage valid even across a crash (the
  // registry drops the scope from exposition only at ~Node).
  node_scope_ = stats::Registry::Global().GetScope(
      "node." + std::to_string(node_id_));
  h_server_ = node_scope_->GetHistogram("wire.server_ns");
  h_dispatch_ = node_scope_->GetHistogram("wire.dispatch_ns");
  h_engine_ = node_scope_->GetHistogram("wire.engine_ns");
  h_replicate_ = node_scope_->GetHistogram("wire.replicate_ns");
  h_persist_ = node_scope_->GetHistogram("wire.persist_ns");
}

wire::Message WireService::Handle(const wire::Message& req,
                                  const net::RequestContext& ctx) {
  Node* n = cluster_->node(node_id_);
  Clock* clock = n != nullptr ? n->clock() : Clock::Real();
  const uint64_t t_recv =
      ctx.received_nanos != 0 ? ctx.received_nanos : clock->NowNanos();

  // Adopt the caller's trace id (if any) as this thread's ambient trace:
  // nested engine spans tag themselves with it, so their slow-op lines join
  // the wire trace that suffered them.
  uint64_t trace_id = 0;
  wire::GetTraceFrame(req.framing, &trace_id);
  trace::ScopedTrace scoped(trace_id);

  stats::FlightRecorder* rec = n != nullptr ? n->flight_recorder() : nullptr;
  const uint64_t token =
      rec != nullptr ? rec->Begin(req.opcode, req.vbucket, trace_id, t_recv)
                     : 0;

  // Dispatch phase: everything between the socket read and the engine call
  // (frame decode plus in-order queueing behind earlier pipelined frames).
  const uint64_t t_dispatch_end = clock->NowNanos();
  wire::Message resp = DispatchOpcode(req, n);
  const uint64_t t_engine_end = clock->NowNanos();
  uint64_t t_replicate_end = t_engine_end;
  uint64_t t_persist_end = t_engine_end;
  bool waited_replicate = false;
  bool waited_persist = false;

  // Durability: a mutation carrying a durability framed extra blocks here
  // until the requirement holds. The replicate and persist waits run (and
  // are timed) separately against one shared deadline, so the response's
  // phase breakdown attributes the stall to the right machinery.
  wire::DurabilityFrame dur;
  if (resp.status == wire::kSuccess && IsMutationOpcode(req.opcode) &&
      wire::GetDurabilityFrame(req.framing, &dur) &&
      (dur.replicate_to > 0 || dur.persist_to > 0)) {
    uint64_t seqno = 0;
    if (!wire::GetU64BE(resp.extras, 0, &seqno)) {
      resp = ErrorResp(req, Status::Internal(
                                "durable mutation response carries no seqno"));
    } else {
      const uint64_t timeout_ms =
          dur.timeout_ms != 0 ? dur.timeout_ms : Durability{}.timeout_ms;
      Status st = Status::OK();
      if (dur.replicate_to > 0) {
        Durability replicate_only;
        replicate_only.replicate_to = dur.replicate_to;
        replicate_only.persist_to = 0;
        replicate_only.timeout_ms = timeout_ms;
        st = cluster_->WaitForDurability(bucket_, req.vbucket, seqno,
                                         replicate_only);
        waited_replicate = true;
      }
      t_replicate_end = clock->NowNanos();
      t_persist_end = t_replicate_end;
      if (st.ok() && dur.persist_to > 0) {
        const uint64_t spent_ms = (t_replicate_end - t_recv) / 1'000'000;
        Durability persist_only;
        persist_only.replicate_to = 0;
        persist_only.persist_to = dur.persist_to;
        persist_only.timeout_ms =
            timeout_ms > spent_ms ? timeout_ms - spent_ms : 1;
        st = cluster_->WaitForDurability(bucket_, req.vbucket, seqno,
                                         persist_only);
        t_persist_end = clock->NowNanos();
        waited_persist = true;
      }
      // The mutation itself succeeded; a failed durability wait reports the
      // ambiguous outcome (typically Timeout) — the write may exist, its
      // durability requirement was not met in time.
      if (!st.ok()) resp = ErrorResp(req, st);
    }
  }

  const uint64_t t_done = clock->NowNanos();
  // The op's one timing record: the response's framed extra, the flight
  // recorder entry and the slow-op line all read it.
  wire::ServerTimingFrame timing;
  timing.total_us = NanosToU32Micros(t_done - t_recv);
  timing.dispatch_us = NanosToU32Micros(t_dispatch_end - t_recv);
  timing.engine_us = NanosToU32Micros(t_engine_end - t_dispatch_end);
  timing.replicate_us = NanosToU32Micros(t_replicate_end - t_engine_end);
  timing.persist_us = NanosToU32Micros(t_persist_end - t_replicate_end);
  // Only flex requesters understand flex responses; a classic client gets
  // the exact frames it always got. The receive stamp goes out only on the
  // real clock, the one time base a client process shares with this node.
  if (req.is_flex()) {
    if (clock == Clock::Real()) timing.recv_nanos = t_recv;
    wire::PutServerTimingFrame(&resp.framing, timing);
  }

  h_server_->Record(t_done - t_recv);
  h_dispatch_->Record(t_dispatch_end - t_recv);
  h_engine_->Record(t_engine_end - t_dispatch_end);
  if (waited_replicate) h_replicate_->Record(t_replicate_end - t_engine_end);
  if (waited_persist) h_persist_->Record(t_persist_end - t_replicate_end);

  if (rec != nullptr) {
    stats::OpRecord r;
    r.trace_id = trace_id;
    r.start_nanos = t_recv;
    r.key_hash = Crc32(req.key);
    r.total_us = timing.total_us;
    r.dispatch_us = timing.dispatch_us;
    r.engine_us = timing.engine_us;
    r.replicate_us = timing.replicate_us;
    r.persist_us = timing.persist_us;
    r.vbucket = req.vbucket;
    r.status = resp.status;
    r.opcode = req.opcode;
    rec->Complete(token, r);
  }

  const uint64_t threshold_us = trace::SlowOpThresholdUs();
  if (threshold_us != 0 && timing.total_us >= threshold_us &&
      COUCHKV_LOG_ENABLED(kWarn)) {
    std::ostringstream msg;
    msg << "slow wire op " << wire::OpcodeName(req.opcode) << " on node "
        << node_id_ << " took " << timing.total_us
        << "us (dispatch=" << timing.dispatch_us
        << "us engine=" << timing.engine_us
        << "us replicate=" << timing.replicate_us
        << "us persist=" << timing.persist_us << "us)";
    if (trace_id != 0) msg << " trace=" << trace_id;
    if (rec != nullptr) {
      msg << " flight-recorder tail: " << rec->ToJson(t_done, 4);
    }
    LOG_WARN << msg.str();
  }
  return resp;
}

wire::Message WireService::DispatchOpcode(const wire::Message& req,
                                          Node* n) {
  const auto op = static_cast<wire::Opcode>(req.opcode);
  if (!wire::IsKnownOpcode(req.opcode)) {
    wire::Message resp = wire::Message::Resp(req, wire::kUnknownCommand);
    resp.value = "unknown opcode";
    return resp;
  }
  // The cluster map is the cluster's; every other op runs on this node.
  if (op == wire::Opcode::kGetClusterMap) return HandleClusterMap(req);
  if (n == nullptr) return ErrorResp(req, Status::TempFail("node is gone"));
  switch (op) {
    case wire::Opcode::kGet:
    case wire::Opcode::kGetLocked:
      return HandleGet(req, n);
    case wire::Opcode::kSet:
    case wire::Opcode::kAdd:
    case wire::Opcode::kReplace:
    case wire::Opcode::kDelete:
    case wire::Opcode::kTouch:
      return HandleStore(req, n);
    case wire::Opcode::kUnlockKey:
      return HandleUnlock(req, n);
    case wire::Opcode::kStat:
      return HandleStat(req, n);
    case wire::Opcode::kObserveTrace:
      return HandleObserveTrace(req, n);
    default:
      break;
  }
  // Only NOOP is left, the liveness probe: an unhealthy-but-listening node
  // answers TempFail, so a prober sees it exactly as it would a dead
  // process, just with a crisper error.
  if (!n->healthy()) return ErrorResp(req, Status::TempFail("node is down"));
  return wire::Message::Resp(req, wire::kSuccess);
}

wire::Message WireService::HandleGet(const wire::Message& req, Node* n) {
  const bool lock =
      req.opcode == static_cast<uint8_t>(wire::Opcode::kGetLocked);
  uint32_t lock_ms = 0;
  if (req.key.empty()) {
    return ErrorResp(req, Status::InvalidArgument("GET requires a key"));
  }
  if (!lock && !req.extras.empty()) {
    return ErrorResp(req, Status::InvalidArgument("GET takes no extras"));
  }
  if (lock && (req.extras.size() != 4 ||
               !wire::GetU32BE(req.extras, 0, &lock_ms))) {
    return ErrorResp(
        req, Status::InvalidArgument("GETL requires 4-byte lock duration"));
  }
  StatusOr<kv::GetResult> r =
      n->WithVBucket(bucket_, req.vbucket, [&](VBucket& v) {
        return lock ? v.GetAndLock(req.key, lock_ms) : v.Get(req.key);
      });
  if (!r.ok()) return ErrorResp(req, r.status());
  wire::Message resp = wire::Message::Resp(req, wire::kSuccess);
  resp.cas = r->doc.meta.cas;
  wire::PutU32BE(&resp.extras, r->doc.meta.flags);
  resp.value = r->doc.value.view();
  return resp;
}

wire::Message WireService::HandleStore(const wire::Message& req, Node* n) {
  // The opcode picks the store op and its argument rule; SET is the
  // default.
  uint32_t flags = 0;
  uint32_t expiry = 0;
  uint64_t cas = req.cas;
  kv::StoreOp op = kv::StoreOp::kSet;
  bool args_ok = wire::GetMutationExtras(req.extras, &flags, &expiry);
  const char* rule = "requires a key and 8-byte extras";
  switch (static_cast<wire::Opcode>(req.opcode)) {
    case wire::Opcode::kAdd:
      op = kv::StoreOp::kAdd;
      args_ok = args_ok && req.cas == 0;
      rule = "requires a key and 8-byte extras, and takes no cas";
      break;
    case wire::Opcode::kReplace:
      op = kv::StoreOp::kReplace;
      break;
    case wire::Opcode::kDelete:
      op = kv::StoreOp::kDelete;
      args_ok = req.extras.empty();
      rule = "takes a key, no extras";
      break;
    case wire::Opcode::kTouch:
      op = kv::StoreOp::kTouch;
      args_ok =
          req.extras.size() == 4 && wire::GetU32BE(req.extras, 0, &expiry);
      cas = 0;  // TOUCH carries no cas condition
      rule = "requires a key and 4-byte expiry";
      break;
    default:
      break;
  }
  if (!args_ok || req.key.empty()) {
    return ErrorResp(req, Status::InvalidArgument(
                              std::string(wire::OpcodeName(req.opcode)) +
                              " " + rule));
  }
  StatusOr<kv::DocMeta> r =
      n->WithVBucket(bucket_, req.vbucket, [&](VBucket& v) {
        return v.Store(op, req.key, req.value, flags, expiry, cas);
      });
  if (!r.ok()) return ErrorResp(req, r.status());
  wire::Message resp = wire::Message::Resp(req, wire::kSuccess);
  resp.cas = r->cas;
  wire::PutU64BE(&resp.extras, r->seqno);
  return resp;
}

wire::Message WireService::HandleUnlock(const wire::Message& req, Node* n) {
  if (req.key.empty() || req.cas == 0) {
    return ErrorResp(
        req, Status::InvalidArgument("UNLOCK requires a key and the lock cas"));
  }
  Status st = n->WithVBucket(bucket_, req.vbucket, [&](VBucket& v) {
    return v.Unlock(req.key, req.cas);
  });
  if (!st.ok()) return ErrorResp(req, st);
  return wire::Message::Resp(req, wire::kSuccess);
}

wire::Message WireService::HandleStat(const wire::Message& req, Node* n) {
  StatusOr<stats::Snapshot> snap = n->Stats(req.key);
  if (!snap.ok()) return ErrorResp(req, snap.status());
  wire::Message resp = wire::Message::Resp(req, wire::kSuccess);
  resp.value = stats::ToJson(*snap);
  return resp;
}

wire::Message WireService::HandleClusterMap(const wire::Message& req) {
  const std::string& bucket = req.key.empty() ? bucket_ : req.key;
  std::shared_ptr<const ClusterMap> map = cluster_->map(bucket);
  if (map == nullptr) {
    return ErrorResp(req, Status::NotFound("no such bucket: " + bucket));
  }
  json::Value::Object doc;
  doc["bucket"] = json::Value::Str(bucket);
  doc["num_vbuckets"] = json::Value::Int(kNumVBuckets);
  doc["map_version"] = json::Value::Int(static_cast<int64_t>(map->version));
  json::Value::Array nodes;
  for (NodeId id : cluster_->node_ids()) {
    json::Value::Object entry;
    entry["id"] = json::Value::Int(id);
    entry["port"] = json::Value::Int(cluster_->wire_port(id));
    nodes.push_back(json::Value::MakeObject(std::move(entry)));
  }
  doc["nodes"] = json::Value::MakeArray(std::move(nodes));
  json::Value::Array active;
  active.reserve(map->entries.size());
  for (const VBucketEntry& e : map->entries) {
    // kNoNode serializes as -1: JSON numbers are doubles and UINT32_MAX
    // would silently round.
    active.push_back(json::Value::Int(
        e.active == kNoNode ? -1 : static_cast<int64_t>(e.active)));
  }
  doc["active"] = json::Value::MakeArray(std::move(active));
  wire::Message resp = wire::Message::Resp(req, wire::kSuccess);
  resp.value = json::Value::MakeObject(std::move(doc)).ToJson();
  return resp;
}

wire::Message WireService::HandleObserveTrace(const wire::Message& req,
                                              Node* n) {
  if (!n->healthy()) return ErrorResp(req, Status::TempFail("node is down"));
  // Key: empty = whole recorder; otherwise a decimal trace id to filter by.
  uint64_t filter = 0;
  if (!req.key.empty()) {
    char* end = nullptr;
    filter = std::strtoull(req.key.c_str(), &end, 10);
    if (end == req.key.c_str() || *end != '\0' || filter == 0) {
      return ErrorResp(req, Status::InvalidArgument(
                                "OBSERVE_TRACE key must be a decimal "
                                "trace id (or empty for all)"));
    }
  }
  const std::string dump = n->flight_recorder()->ToJson(
      n->clock()->NowNanos(), /*max_records=*/0, filter);
  wire::Message resp = wire::Message::Resp(req, wire::kSuccess);
  // Splice the node id into the recorder's {"completed":... object.
  resp.value =
      "{\"node\":" + std::to_string(node_id_) + "," + dump.substr(1);
  return resp;
}

}  // namespace couchkv::cluster
