// A per-node TCP front-end speaking the binary wire protocol: accepts
// connections on 127.0.0.1, reads frames through wire::FrameDecoder (so
// partial reads and pipelined multi-op buffers are handled by the pure
// codec), dispatches each request to a handler, and writes the responses
// back in request order.
//
// Port policy: servers bind port 0 (kernel-assigned) unless a caller
// explicitly asks otherwise, and SO_REUSEADDR is deliberately NOT set — a
// double-bind must fail loudly instead of being masked into a latent "two
// listeners, one port" flake (tests assert this).
#ifndef COUCHKV_NET_TCP_SERVER_H_
#define COUCHKV_NET_TCP_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/lockdep.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "net/wire/wire.h"
#include "stats/registry.h"

namespace couchkv::net {

struct TcpServerOptions {
  // 0 = kernel-assigned ephemeral port (the default everywhere; fixed
  // ports collide across parallel test binaries). Read the result from
  // port() after Start().
  uint16_t port = 0;
  // Clock for request receive stamps (null = Clock::Real()). A node passes
  // its own clock so the handler's phase math and the receive stamp share
  // one time base (deterministic under ManualClock).
  Clock* clock = nullptr;
};

// Per-request server-side context handed to the handler alongside the
// decoded frame.
struct RequestContext {
  // Clock stamp of the recv(2) that completed this frame. For pipelined
  // bursts every frame in the burst shares the stamp of the read that
  // delivered it, so a frame's dispatch phase includes its in-order queueing
  // behind earlier frames on the same connection — real head-of-line time,
  // not just decode cost.
  uint64_t received_nanos = 0;
};

class TcpServer {
 public:
  // Maps one decoded request to its response. Runs on the connection's
  // thread; must be thread-safe across connections.
  using Handler =
      std::function<wire::Message(const wire::Message&, const RequestContext&)>;
  using Options = TcpServerOptions;

  explicit TcpServer(Handler handler, Options opts = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds 127.0.0.1:<opts.port>, listens, and spawns the accept loop.
  // IOError when the port is taken (no SO_REUSEADDR to paper over it).
  Status Start();

  // Closes the listener and every open connection, then joins all threads.
  // Idempotent. In-flight handler calls complete; blocked reads are woken
  // by shutdown(2).
  void Stop();

  // The bound port, valid after a successful Start(); 0 otherwise.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ConnLoop(Conn* conn);
  // Joins and drops finished connections (called from the accept loop so a
  // long-lived server does not accumulate dead thread objects).
  void ReapFinished() EXCLUDES(mu_);

  // The accept loop runs only on the listener thread; each ConnLoop runs
  // only on its connection's thread (one checker per loop — the macro form
  // owns the class's affine_checker_ slot, the second is a named member).
  COUCHKV_AFFINE_TO("net.tcp_server.accept_loop",
                    lockdep::Domain::kNetAccept);
  lockdep::Affine conn_affine_{"net.tcp_server.conn_loop",
                               lockdep::Domain::kNetConn};

  Handler handler_;
  Options opts_;

  std::atomic<uint16_t> port_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // Atomic: Stop() retires the fd while AcceptLoop is reading it.
  std::atomic<int> listen_fd_{-1};
  std::thread accept_thread_;

  Mutex mu_{"net.tcp_server"};
  std::vector<std::unique_ptr<Conn>> conns_ GUARDED_BY(mu_);

  // Scope "wire": server-side traffic counters shared by every listener in
  // the process (server.connections, server.frames,
  // server.protocol_errors); the registry is their only store.
  std::shared_ptr<stats::Scope> scope_;
  stats::Counter* stat_accepted_ = nullptr;
  stats::Counter* stat_frames_ = nullptr;
  stats::Counter* stat_protocol_errors_ = nullptr;
  // Byte totals (wire.rx_bytes/tx_bytes) plus one wire.ops.<NAME> counter
  // per opcode, resolved once at construction so the per-frame increment is
  // a single relaxed add. Unknown opcodes share the ops.UNKNOWN slot.
  stats::Counter* stat_rx_bytes_ = nullptr;
  stats::Counter* stat_tx_bytes_ = nullptr;
  stats::Counter* stat_ops_[256] = {};
};

}  // namespace couchkv::net

#endif  // COUCHKV_NET_TCP_SERVER_H_
