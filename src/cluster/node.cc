#include "cluster/node.h"

namespace couchkv::cluster {

Node::Node(NodeId id, uint32_t services, Clock* clock,
           std::unique_ptr<storage::Env> env)
    : id_(id),
      services_(services),
      clock_(clock),
      env_(env ? std::move(env) : storage::Env::NewMemEnv()),
      dispatcher_(std::make_unique<dcp::Dispatcher>()) {
  scope_ =
      stats::Registry::Global().GetScope("node." + std::to_string(id_));
  stat_scrapes_ = scope_->GetCounter("node.stat_scrapes");
  boots_ = scope_->GetCounter("node.boots");
  scope_->GetGauge("node.healthy")->Set(1);
}

Node::~Node() {
  // The wire listener goes first: its connection threads dispatch into
  // bucket state.
  StopWireServer();
  // Buckets must go before the dispatcher: their destructors unregister
  // producers.
  {
    LockGuard lock(mu_);
    buckets_.clear();
  }
  dispatcher_->Stop();
  stats::Registry::Global().DropScope(scope_->name());
}

void Node::Crash() {
  set_healthy(false);
  crashed_.store(true, std::memory_order_release);
  scope_->GetGauge("node.healthy")->Set(0);
  // Kill the wire listener before anything else: a crashed process has no
  // sockets, and the connection threads must be joined before the buckets
  // they dispatch into are destroyed.
  StopWireServer();
  // Stop the pump thread before freeing buckets: stream callbacks and
  // backfills on this dispatcher touch bucket state.
  dispatcher_->Stop();
  // A crashed process loses its flight recorder with the rest of its
  // memory; a rebooted node starts recording from an empty ring.
  flight_recorder_.Clear();
  LockGuard lock(mu_);
  for (auto& [name, b] : buckets_) b->Kill();
  buckets_.clear();
}

void Node::Boot() {
  LockGuard lock(mu_);
  buckets_.clear();
  dispatcher_ = std::make_unique<dcp::Dispatcher>();
  crashed_.store(false, std::memory_order_release);
  boots_->Add();
}

Status Node::CreateBucket(const BucketConfig& config) {
  if (!HasService(kDataService)) {
    return Status::Unsupported("node runs no data service");
  }
  LockGuard lock(mu_);
  if (buckets_.count(config.name)) {
    return Status::KeyExists("bucket exists: " + config.name);
  }
  buckets_[config.name] = std::make_shared<Bucket>(config, id_, env_.get(),
                                                   clock_, dispatcher_.get());
  return Status::OK();
}

std::shared_ptr<Bucket> Node::bucket(const std::string& name) {
  LockGuard lock(mu_);
  auto it = buckets_.find(name);
  return it == buckets_.end() ? nullptr : it->second;
}

StatusOr<std::shared_ptr<Bucket>> Node::Route(const std::string& bucket,
                                              uint16_t vb) {
  if (!healthy()) return Status::TempFail("node is down");
  if (!HasService(kDataService)) {
    return Status::Unsupported("no data service on node");
  }
  std::shared_ptr<Bucket> b = this->bucket(bucket);
  if (b == nullptr) return Status::NotFound("no such bucket: " + bucket);
  if (vb >= kNumVBuckets) return Status::InvalidArgument("bad vbucket");
  return b;
}

Status Node::StartWireServer(net::TcpServer::Handler handler) {
  LockGuard lock(wire_mu_);
  if (wire_server_ != nullptr) {
    return Status::InvalidArgument("wire server already running");
  }
  wire_handler_ = std::move(handler);
  net::TcpServerOptions opts;
  opts.clock = clock_;  // receive stamps share the node's time base
  auto server = std::make_unique<net::TcpServer>(wire_handler_, opts);
  COUCHKV_RETURN_IF_ERROR(server->Start());
  wire_port_.store(server->port(), std::memory_order_release);
  wire_server_ = std::move(server);
  return Status::OK();
}

Status Node::RestartWireServer() {
  LockGuard lock(wire_mu_);
  // No handler = wire serving was never enabled; already running = the node
  // was partitioned, not crashed, and its listener survived. Both are fine.
  if (wire_handler_ == nullptr || wire_server_ != nullptr) {
    return Status::OK();
  }
  net::TcpServerOptions opts;
  opts.clock = clock_;
  auto server = std::make_unique<net::TcpServer>(wire_handler_, opts);
  COUCHKV_RETURN_IF_ERROR(server->Start());
  wire_port_.store(server->port(), std::memory_order_release);
  wire_server_ = std::move(server);
  return Status::OK();
}

void Node::StopWireServer() {
  std::unique_ptr<net::TcpServer> server;
  {
    LockGuard lock(wire_mu_);
    server = std::move(wire_server_);
    wire_port_.store(0, std::memory_order_release);
  }
  // Stop (and join connection threads) outside wire_mu_: handlers may call
  // back into this node, and keeping the lock across the join invites
  // ordering bugs if a handler ever needs wire state.
  if (server != nullptr) server->Stop();
}

StatusOr<stats::Snapshot> Node::Stats(const std::string& group) {
  if (!healthy()) return Status::TempFail("node is down");
  stat_scrapes_->Add();
  // Pin buckets so a concurrent crash cannot free them mid-scrape.
  std::vector<std::shared_ptr<Bucket>> pinned;
  {
    LockGuard lock(mu_);
    pinned.reserve(buckets_.size());
    for (auto& [name, b] : buckets_) pinned.push_back(b);
  }
  stats::Snapshot out;
  for (auto& b : pinned) {
    b->UpdateScrapeGauges();
    b->stats_scope()->Collect(&out, group);
  }
  scope_->Collect(&out, group);
  // The process-wide wire scope: listener byte/frame/per-opcode counters
  // (every in-process TcpServer shares it, so an external poller sees the
  // process total — the per-node phase histograms live in scope_ above).
  stats::Registry::Global().GetScope("wire")->Collect(&out, group);
  // This node's slice of the process-wide transport scope: the metrics
  // keyed by destination node carry our id.
  stats::Snapshot transport;
  stats::Registry::Global().GetScope("transport")->Collect(&transport, group);
  const std::string prefix = "transport.node." + std::to_string(id_) + ".";
  for (auto& [name, v] : transport) {
    if (name.rfind(prefix, 0) == 0) out.emplace(name, v);
  }
  return out;
}

}  // namespace couchkv::cluster
