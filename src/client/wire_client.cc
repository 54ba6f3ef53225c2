#include "client/wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "cluster/vbucket_map.h"
#include "common/clock.h"
#include "json/value.h"
#include "stats/registry.h"

namespace couchkv::client {

namespace wire = net::wire;

namespace {

// Client-side opaque source, process-wide: responses are correlated per
// connection, the counter only needs to not repeat quickly.
std::atomic<uint32_t> g_next_opaque{1};

bool SendAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    off += static_cast<size_t>(w);
  }
  return true;
}

int ConnectPort(uint16_t port, uint64_t timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Parses the server-timing framed extra (if any) out of a response. The
// trace id is the one the client itself attached (the frame does not echo
// it back); `sent_nanos`..`recv_nanos` is the client's own window on the
// real clock, from just before its send to the return of the recv that
// completed the response. The server's response was ready at its receive
// stamp plus its total; a stamp of 0 (a node off the real clock) gives no
// legs.
ServerTiming TimingFromResp(const wire::Message& resp, uint64_t trace_id,
                            uint64_t sent_nanos, uint64_t recv_nanos) {
  ServerTiming out;
  out.trace_id = trace_id;
  wire::ServerTimingFrame t;
  if (!wire::GetServerTimingFrame(resp.framing, &t)) return out;
  out.total_us = t.total_us;
  out.dispatch_us = t.dispatch_us;
  out.engine_us = t.engine_us;
  out.replicate_us = t.replicate_us;
  out.persist_us = t.persist_us;
  const uint64_t ready_nanos = t.recv_nanos + uint64_t{t.total_us} * 1000;
  // ready_nanos < t.recv_nanos only when a bogus stamp wrapped the sum.
  if (t.recv_nanos != 0 && sent_nanos <= t.recv_nanos &&
      t.recv_nanos <= ready_nanos && ready_nanos <= recv_nanos) {
    out.request_leg_us =
        static_cast<uint32_t>((t.recv_nanos - sent_nanos) / 1000);
    out.reply_leg_us = static_cast<uint32_t>((recv_nanos - ready_nanos) / 1000);
  }
  return out;
}

// How long a reader polls its socket before it sleeps in recv(2). Most
// replies come back within this, and a thread that is still running takes
// them without the cross-vCPU wake-up a sleeping one costs (DESIGN.md
// "Waiting for a reply").
constexpr uint64_t kSpinBudgetNanos = 50'000;

// What the polling costs, in the process-wide "wire" scope: resolved once,
// then two relaxed adds per poll.
struct SpinCounters {
  std::shared_ptr<stats::Scope> scope;
  stats::Counter* hits;    // the poll ended on a byte, EOF or an error
  stats::Counter* misses;  // the budget ran out: the thread slept in recv
  stats::Counter* nanos;   // time spent polling
};

const SpinCounters& Spin() {
  static const SpinCounters counters = [] {
    SpinCounters c;
    c.scope = stats::Registry::Global().GetScope("wire");
    c.hits = c.scope->GetCounter("client.spin_hits");
    c.misses = c.scope->GetCounter("client.spin_misses");
    c.nanos = c.scope->GetCounter("client.spin_ns");
    return c;
  }();
  return counters;
}

// A non-blocking recv(2) that failed with `err` found nothing to read yet
// (or was interrupted): keep polling.
bool NothingYet(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

// recv(2) that first polls: non-blocking reads with the CPU yielded
// between them, until a byte, EOF or an error comes back or the budget runs
// out, and only then the blocking call (so SO_RCVTIMEO still bounds the
// wait). The yield lets a server thread or another client on this vCPU run
// while the reply is on its way.
ssize_t SpinThenRecv(int fd, char* buf, size_t len) {
  const SpinCounters& spin = Spin();
  Clock* clock = Clock::Real();
  const uint64_t start = clock->NowNanos();
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, MSG_DONTWAIT);
    const int err = errno;
    const uint64_t spent = clock->NowNanos() - start;
    if (n >= 0 || !NothingYet(err)) {
      spin.hits->Add();
      spin.nanos->Add(spent);
      errno = err;
      return n;
    }
    if (spent >= kSpinBudgetNanos) {
      spin.misses->Add();
      spin.nanos->Add(spent);
      return ::recv(fd, buf, len, 0);
    }
    sched_yield();
  }
}

// Reads exactly one response frame from `fd` into `out` through `decoder`.
// Only the first wait of a frame polls; the rest of a frame that arrives in
// pieces is already on its way.
Status ReadFrame(int fd, wire::FrameDecoder* decoder, wire::Message* out) {
  char buf[4096];
  bool polled = false;
  for (;;) {
    Status err = Status::OK();
    auto r = decoder->Next(out, &err);
    if (r == wire::FrameDecoder::Result::kFrame) return Status::OK();
    if (r == wire::FrameDecoder::Result::kError) return err;
    ssize_t n = polled ? ::recv(fd, buf, sizeof(buf), 0)
                       : SpinThenRecv(fd, buf, sizeof(buf));
    polled = true;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::TempFail("wire client: read timed out");
    }
    if (n <= 0) return Status::TempFail("wire client: connection closed");
    decoder->Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

}  // namespace

StatusOr<wire::Message> RawRoundTrip(uint16_t port, const wire::Message& req,
                                     uint64_t timeout_ms) {
  auto resps = RawPipeline(port, {req}, timeout_ms);
  if (!resps.ok()) return resps.status();
  return std::move((*resps)[0]);
}

StatusOr<std::vector<wire::Message>> RawPipeline(
    uint16_t port, const std::vector<wire::Message>& reqs,
    uint64_t timeout_ms) {
  if (port == 0) return Status::TempFail("wire client: no listener");
  std::string bytes;
  for (const wire::Message& req : reqs) {
    COUCHKV_RETURN_IF_ERROR(wire::Encode(req, &bytes));
  }
  int fd = ConnectPort(port, timeout_ms);
  if (fd < 0) {
    return Status::TempFail(std::string("wire client: connect 127.0.0.1:") +
                            std::to_string(port) + ": " +
                            std::strerror(errno));
  }
  Status st = Status::OK();
  std::vector<wire::Message> resps;
  if (!SendAll(fd, bytes.data(), bytes.size())) {
    st = Status::TempFail("wire client: send failed");
  } else {
    wire::FrameDecoder decoder(wire::kMagicResponse);
    resps.resize(reqs.size());
    for (wire::Message& resp : resps) {
      st = ReadFrame(fd, &decoder, &resp);
      if (!st.ok()) break;
    }
  }
  ::close(fd);
  if (!st.ok()) return st;
  return resps;
}

WireClient::WireClient(std::vector<uint16_t> bootstrap_ports,
                       std::string bucket, RetryPolicy retry,
                       uint64_t trace_seed)
    : bucket_(std::move(bucket)),
      bootstrap_ports_(std::move(bootstrap_ports)),
      // Seed from the opaque counter so concurrent clients never share a
      // jitter stream.
      router_(retry, 0x5bd1e995u + g_next_opaque.fetch_add(1)),
      // Trace ids count up from the seed; an auto seed spreads clients far
      // apart (golden-ratio mix of the process-wide counter) so their
      // sequences cannot collide in practice.
      next_trace_id_(trace_seed != 0
                         ? trace_seed
                         : 0x9e3779b97f4a7c15ull *
                               (g_next_opaque.fetch_add(1) + 0x100)) {}

WireClient::~WireClient() { DropConnections(); }

void WireClient::DropConnections() {
  LockGuard lock(mu_);
  for (auto& [id, fd] : conns_) {
    if (fd >= 0) ::close(fd);
  }
  conns_.clear();
}

uint16_t WireClient::num_vbuckets() const {
  LockGuard lock(mu_);
  return routing_.num_vbuckets;
}

uint16_t WireClient::port_of(uint32_t node_id) const {
  LockGuard lock(mu_);
  auto it = routing_.ports.find(node_id);
  return it == routing_.ports.end() ? 0 : it->second;
}

Status WireClient::RefreshMap() {
  return router_.Refresh([this] { return FetchMap(); });
}

Status WireClient::FetchMap() {
  // Candidate ports: everything the current map names, then the bootstrap
  // list. Any one live node can serve the map.
  std::vector<uint16_t> candidates;
  {
    LockGuard lock(mu_);
    for (auto& [id, port] : routing_.ports) {
      if (port != 0) candidates.push_back(port);
    }
  }
  candidates.insert(candidates.end(), bootstrap_ports_.begin(),
                    bootstrap_ports_.end());
  Status last = Status::TempFail("wire client: no bootstrap ports");
  for (uint16_t port : candidates) {
    wire::Message req = wire::Message::Req(wire::Opcode::kGetClusterMap);
    req.key = bucket_;
    auto resp = RawRoundTrip(port, req);
    if (!resp.ok()) {
      last = resp.status();
      continue;
    }
    if (resp->status != wire::kSuccess) {
      last = wire::StatusFromWire(resp->status, resp->value);
      continue;
    }
    auto doc = json::Parse(resp->value);
    if (!doc.ok()) {
      last = doc.status();
      continue;
    }
    if (!doc->Field("num_vbuckets").is_number() ||
        !doc->Field("nodes").is_array() || !doc->Field("active").is_array()) {
      last = Status::ParseError("wire client: malformed cluster map");
      continue;
    }
    Routing fresh;
    if (doc->Field("map_version").is_number()) {
      fresh.map_version =
          static_cast<uint64_t>(doc->Field("map_version").AsInt());
    }
    fresh.num_vbuckets =
        static_cast<uint16_t>(doc->Field("num_vbuckets").AsInt());
    if (fresh.num_vbuckets == 0) {
      last = Status::ParseError("wire client: map with zero vbuckets");
      continue;
    }
    for (const json::Value& n : doc->Field("nodes").AsArray()) {
      if (!n.Field("id").is_number() || !n.Field("port").is_number()) continue;
      fresh.ports[static_cast<uint32_t>(n.Field("id").AsInt())] =
          static_cast<uint16_t>(n.Field("port").AsInt());
    }
    const json::Value::Array& active = doc->Field("active").AsArray();
    fresh.active.reserve(active.size());
    for (const json::Value& a : active) {
      int64_t id = a.is_number() ? a.AsInt() : -1;
      fresh.active.push_back(id < 0 ? UINT32_MAX
                                    : static_cast<uint32_t>(id));
    }
    if (fresh.active.size() != fresh.num_vbuckets) {
      last = Status::ParseError("wire client: truncated active list");
      continue;
    }
    LockGuard lock(mu_);
    // Connections to nodes whose port moved are stale; drop them so the
    // next op reconnects to the new listener.
    for (auto it = conns_.begin(); it != conns_.end();) {
      auto p = fresh.ports.find(it->first);
      auto old = routing_.ports.find(it->first);
      bool moved = p == fresh.ports.end() || old == routing_.ports.end() ||
                   p->second != old->second;
      if (moved) {
        if (it->second >= 0) ::close(it->second);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    routing_ = std::move(fresh);
    return Status::OK();
  }
  return last;
}

Status WireClient::Exchange(uint32_t node_id, const wire::Message& req,
                            wire::Message* resp, Window* window) {
  std::string bytes;
  COUCHKV_RETURN_IF_ERROR(wire::Encode(req, &bytes));
  LockGuard lock(mu_);
  auto pit = routing_.ports.find(node_id);
  if (pit == routing_.ports.end() || pit->second == 0) {
    return Status::TempFail("wire client: node " + std::to_string(node_id) +
                            " has no known listener");
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto cit = conns_.find(node_id);
    bool fresh_conn = false;
    if (cit == conns_.end()) {
      int fd = ConnectPort(pit->second, 5000);
      if (fd < 0) {
        return Status::TempFail(
            std::string("wire client: connect 127.0.0.1:") +
            std::to_string(pit->second) + ": " + std::strerror(errno));
      }
      cit = conns_.emplace(node_id, fd).first;
      fresh_conn = true;
    }
    Status st = Status::OK();
    window->sent_nanos = Clock::Real()->NowNanos();
    if (!SendAll(cit->second, bytes.data(), bytes.size())) {
      st = Status::TempFail("wire client: send failed");
    } else {
      wire::FrameDecoder decoder(wire::kMagicResponse);
      st = ReadFrame(cit->second, &decoder, resp);
      window->recv_nanos = Clock::Real()->NowNanos();
      if (st.ok() && resp->opaque != req.opaque) {
        st = Status::TempFail("wire client: opaque mismatch");
      }
    }
    if (st.ok()) return Status::OK();
    ::close(cit->second);
    conns_.erase(cit);
    // A pooled connection may have died while idle (its node restarted);
    // one retry on a fresh connection. A fresh connection's failure is
    // real.
    if (fresh_conn) return st;
  }
  return Status::Internal("unreachable");
}

Status WireClient::Dispatch(std::string_view key, wire::Message req,
                            wire::Message* resp, uint16_t* vb_out,
                            ServerTiming* timing_out) {
  req.opaque = g_next_opaque.fetch_add(1, std::memory_order_relaxed);
  // One trace id for the whole dispatch: every retry (NMVB redirect, port
  // re-learn) is a leg of the same logical op and lands in the flight
  // recorder under the same id. Attaching the frame makes the request a
  // flex frame, which is also what asks the server for its timing report.
  uint64_t trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  if (trace_id == 0) {
    trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  wire::PutTraceFrame(&req.framing, trace_id);
  Window window;
  Status st = router_.Run(
      key,
      [this](std::string_view k) {
        Route route;
        LockGuard lock(mu_);
        if (routing_.num_vbuckets != 0) {
          route.vb = cluster::KeyToVBucket(k, routing_.num_vbuckets);
          route.node = routing_.active[route.vb];
        }
        return route;
      },
      [this] { return FetchMap(); },
      [&](const Route& route) {
        req.vbucket = route.vb;
        if (vb_out != nullptr) *vb_out = route.vb;
        // A transport failure is TempFail: the node may be down or rebooted
        // onto a new port, which the router's refresh re-learns.
        COUCHKV_RETURN_IF_ERROR(Exchange(route.node, req, resp, &window));
        if (resp->status == wire::kSuccess) return Status::OK();
        return wire::StatusFromWire(resp->status, resp->value);
      });
  if (st.ok() && timing_out != nullptr) {
    *timing_out = TimingFromResp(*resp, trace_id, window.sent_nanos,
                                 window.recv_nanos);
  }
  return st;
}

StatusOr<GetReply> WireClient::Fetch(std::string_view key, wire::Message req) {
  req.key = key;
  wire::Message resp;
  GetReply out;
  COUCHKV_RETURN_IF_ERROR(
      Dispatch(key, std::move(req), &resp, nullptr, &out.server));
  out.key = key;
  out.value = std::move(resp.value);
  out.cas = resp.cas;
  // justified: a success GET always carries flags extras; tolerate their
  // absence (flags stay 0) rather than failing a fetched value.
  (void)wire::GetU32BE(resp.extras, 0, &out.flags);
  return out;
}

StatusOr<MutateReply> WireClient::Mutate(std::string_view key,
                                         wire::Message req,
                                         const cluster::Durability& dur) {
  req.key = key;
  if (dur.replicate_to > 0 || dur.persist_to > 0) {
    wire::DurabilityFrame df;
    df.replicate_to = static_cast<uint8_t>(std::min(dur.replicate_to, 255u));
    df.persist_to = static_cast<uint8_t>(std::min(dur.persist_to, 255u));
    df.timeout_ms = static_cast<uint32_t>(
        std::min<uint64_t>(dur.timeout_ms, UINT32_MAX));
    wire::PutDurabilityFrame(&req.framing, df);
  }
  wire::Message resp;
  MutateReply out;
  COUCHKV_RETURN_IF_ERROR(
      Dispatch(key, std::move(req), &resp, &out.vbucket, &out.server));
  out.cas = resp.cas;
  // justified: mutation responses without seqno extras leave seqno 0.
  (void)wire::GetU64BE(resp.extras, 0, &out.seqno);
  return out;
}

namespace {
wire::Message WriteReq(wire::Opcode op, std::string_view value,
                       const WriteOptions& opts) {
  wire::Message req = wire::Message::Req(op);
  req.value = value;
  req.cas = opts.cas;
  wire::PutMutationExtras(&req.extras, opts.flags, opts.expiry);
  return req;
}
}  // namespace

StatusOr<GetReply> WireClient::Get(std::string_view key) {
  return Fetch(key, wire::Message::Req(wire::Opcode::kGet));
}

StatusOr<MutateReply> WireClient::Upsert(std::string_view key,
                                         std::string_view value,
                                         const WriteOptions& opts) {
  return Mutate(key, WriteReq(wire::Opcode::kSet, value, opts),
                opts.durability);
}

StatusOr<MutateReply> WireClient::Insert(std::string_view key,
                                         std::string_view value,
                                         const WriteOptions& opts) {
  return Mutate(key, WriteReq(wire::Opcode::kAdd, value, opts),
                opts.durability);
}

StatusOr<MutateReply> WireClient::Replace(std::string_view key,
                                          std::string_view value,
                                          const WriteOptions& opts) {
  return Mutate(key, WriteReq(wire::Opcode::kReplace, value, opts),
                opts.durability);
}

StatusOr<MutateReply> WireClient::Remove(std::string_view key, uint64_t cas,
                                         const cluster::Durability& dur) {
  wire::Message req = wire::Message::Req(wire::Opcode::kDelete);
  req.cas = cas;
  return Mutate(key, std::move(req), dur);
}

StatusOr<GetReply> WireClient::GetAndLock(std::string_view key,
                                          uint64_t lock_ms) {
  wire::Message req = wire::Message::Req(wire::Opcode::kGetLocked);
  wire::PutU32BE(&req.extras, static_cast<uint32_t>(lock_ms));
  return Fetch(key, std::move(req));
}

Status WireClient::Unlock(std::string_view key, uint64_t cas) {
  wire::Message req = wire::Message::Req(wire::Opcode::kUnlockKey);
  req.key = key;
  req.cas = cas;
  wire::Message resp;
  return Dispatch(key, std::move(req), &resp);
}

Status WireClient::Touch(std::string_view key, uint32_t expiry) {
  wire::Message req = wire::Message::Req(wire::Opcode::kTouch);
  req.key = key;
  wire::PutU32BE(&req.extras, expiry);
  wire::Message resp;
  return Dispatch(key, std::move(req), &resp);
}

StatusOr<std::string> WireClient::StatsFor(std::string_view key,
                                           const std::string& group) {
  wire::Message req = wire::Message::Req(wire::Opcode::kStat);
  req.key = group;
  wire::Message resp;
  COUCHKV_RETURN_IF_ERROR(Dispatch(key, std::move(req), &resp));
  return std::move(resp.value);
}

StatusOr<std::string> WireClient::ObserveTraceFor(std::string_view key,
                                                  uint64_t trace_id) {
  wire::Message req = wire::Message::Req(wire::Opcode::kObserveTrace);
  if (trace_id != 0) req.key = std::to_string(trace_id);
  wire::Message resp;
  COUCHKV_RETURN_IF_ERROR(Dispatch(key, std::move(req), &resp));
  return std::move(resp.value);
}

}  // namespace couchkv::client
