#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace couchkv::net {

namespace {

// listen(2) queue length for pending connections.
constexpr int kListenBacklog = 128;

// Writes the whole buffer, absorbing short writes and EINTR. MSG_NOSIGNAL:
// a peer that closed mid-response must surface as EPIPE, not kill the
// process with SIGPIPE.
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

}  // namespace

TcpServer::TcpServer(Handler handler, Options opts)
    : handler_(std::move(handler)), opts_(opts) {
  if (opts_.clock == nullptr) opts_.clock = Clock::Real();
  scope_ = stats::Registry::Global().GetScope("wire");
  stat_accepted_ = scope_->GetCounter("server.connections");
  stat_frames_ = scope_->GetCounter("server.frames");
  stat_protocol_errors_ = scope_->GetCounter("server.protocol_errors");
  stat_rx_bytes_ = scope_->GetCounter("rx_bytes");
  stat_tx_bytes_ = scope_->GetCounter("tx_bytes");
  stats::Counter* unknown = scope_->GetCounter("ops.UNKNOWN");
  for (int op = 0; op < 256; ++op) {
    const uint8_t code = static_cast<uint8_t>(op);
    stat_ops_[op] = wire::IsKnownOpcode(code)
                        ? scope_->GetCounter(std::string("ops.") +
                                             wire::OpcodeName(code))
                        : unknown;
  }
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("tcp server already running");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  // Deliberately no SO_REUSEADDR: binding a port that is still claimed must
  // fail here, not produce two listeners racing for accepts (the port-reuse
  // flake class this layer is designed out of). Ephemeral binds (port 0)
  // never contend anyway.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::IOError(std::string("bind 127.0.0.1:") +
                                std::to_string(opts_.port) + ": " +
                                std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, kListenBacklog) != 0) {
    Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status st =
        Status::IOError(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  listen_fd_.store(fd, std::memory_order_release);
  port_.store(ntohs(addr.sin_port), std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] {
    lockdep::ScopedDomain domain(lockdep::Domain::kNetAccept);
    AcceptLoop();
  });
  return Status::OK();
}

void TcpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // shutdown() wakes the blocked accept(2); close() alone does not on all
  // kernels.
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    LockGuard lock(mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    ::shutdown(c->fd, SHUT_RDWR);
  }
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
    ::close(c->fd);
  }
  port_.store(0, std::memory_order_release);
}

void TcpServer::ReapFinished() {
  LockGuard lock(mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpServer::AcceptLoop() {
  COUCHKV_ASSERT_AFFINE();
  while (!stopping_.load(std::memory_order_acquire)) {
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) break;  // Stop() retired the listener
    int fd = ::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop(), or fatal
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    stat_accepted_->Add();
    ReapFinished();
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    {
      LockGuard lock(mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {
      lockdep::ScopedDomain domain(lockdep::Domain::kNetConn);
      ConnLoop(raw);
    });
  }
}

void TcpServer::ConnLoop(Conn* conn) {
  conn_affine_.AssertAffine();
  wire::FrameDecoder decoder(wire::kMagicRequest);
  char buf[64 << 10];
  bool alive = true;
  while (alive && !stopping_.load(std::memory_order_acquire)) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: peer is gone
    stat_rx_bytes_->Add(static_cast<uint64_t>(n));
    RequestContext ctx;
    ctx.received_nanos = opts_.clock->NowNanos();
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    for (;;) {
      wire::Message req;
      Status err = Status::OK();
      auto r = decoder.Next(&req, &err);
      if (r == wire::FrameDecoder::Result::kNeedMore) break;
      if (r == wire::FrameDecoder::Result::kError) {
        // Malformed framing: answer with a protocol error (best effort —
        // we cannot know the intended opaque) and drop the connection;
        // resynchronizing inside a corrupt byte stream is guesswork.
        stat_protocol_errors_->Add();
        wire::Message resp;
        resp.magic = wire::kMagicResponse;
        resp.status = wire::WireStatusFor(err.code());
        resp.value = err.ToString();
        std::string bytes;
        if (wire::Encode(resp, &bytes).ok()) {
          // justified: best-effort error report on a connection being
          // closed for a framing violation; the close is the real signal.
          (void)SendAll(conn->fd, bytes.data(), bytes.size());
        }
        alive = false;
        break;
      }
      stat_ops_[req.opcode]->Add();
      wire::Message resp = handler_(req, ctx);
      resp.opaque = req.opaque;  // the handler never re-correlates frames
      stat_frames_->Add();
      std::string bytes;
      Status enc = wire::Encode(resp, &bytes);
      if (!enc.ok()) {
        LOG_ERROR << "wire: response encode failed: " << enc.ToString();
        alive = false;
        break;
      }
      if (!SendAll(conn->fd, bytes.data(), bytes.size())) {
        alive = false;
        break;
      }
      stat_tx_bytes_->Add(bytes.size());
    }
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

}  // namespace couchkv::net
