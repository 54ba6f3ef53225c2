#include "xdcr/xdcr.h"

#include <thread>

#include "common/logging.h"
#include "net/transport.h"

namespace couchkv::xdcr {

XdcrLink::XdcrLink(cluster::Cluster* source, cluster::Cluster* target,
                   XdcrSpec spec)
    : source_(source), target_(target), spec_(std::move(spec)) {
  if (!spec_.key_filter_regex.empty()) {
    filter_ = std::make_unique<std::regex>(spec_.key_filter_regex);
  }
}

Status XdcrLink::Start(const std::string& service_name) {
  if (source_->map(spec_.source_bucket) == nullptr) {
    return Status::NotFound("source bucket missing: " + spec_.source_bucket);
  }
  if (target_->map(spec_.target_bucket) == nullptr) {
    return Status::NotFound("target bucket missing: " + spec_.target_bucket);
  }
  if (feed_ != nullptr) return Status::InvalidArgument("already started");
  stats_scope_ =
      stats::Registry::Global().GetScope("xdcr." + service_name);
  docs_sent_ = stats_scope_->GetCounter("docs_sent");
  docs_filtered_ = stats_scope_->GetCounter("docs_filtered");
  docs_rejected_ = stats_scope_->GetCounter("docs_rejected");
  docs_retried_ = stats_scope_->GetCounter("docs_retried");
  feed_ = cluster::Feed::Open(
      source_, spec_.source_bucket, "xdcr:" + service_name,
      [this](cluster::NodeId, const cluster::ClusterMap&) -> dcp::MutationFn {
        return [this](const kv::Mutation& m) { return ShipMutation(m); };
      },
      // Streams resume from 0 on every (re)wire; conflict resolution makes
      // re-delivery idempotent (equal metadata never overwrites).
      [](cluster::NodeId, uint16_t) -> uint64_t { return 0; });
  return Status::OK();
}

Status XdcrLink::ShipMutation(const kv::Mutation& m) {
  if (filter_ != nullptr && !std::regex_search(m.doc.key, *filter_)) {
    docs_filtered_->Add();
    return Status::OK();
  }
  // Topology-aware routing: resolve the target's active node per shipment,
  // so destination failover/rebalance is picked up immediately (§4.6:
  // "XDCR is able to utilize the updated cluster topology information").
  Status last = Status::TempFail("xdcr: no attempts made");
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto target_map = target_->map(spec_.target_bucket);
    if (!target_map) return Status::OK();  // target bucket gone: drop
    cluster::NodeId active = target_map->ActiveFor(m.vbucket);
    cluster::Node* n = target_->node(active);
    std::shared_ptr<cluster::Bucket> b = (n != nullptr && n->healthy())
                                             ? n->bucket(spec_.target_bucket)
                                             : nullptr;
    Status st;
    if (b == nullptr) {
      // Target active is down or still booting: transient, retry.
      st = Status::TempFail("xdcr target node unavailable");
    } else {
      // One shipment = one message on the xdcr-service -> target-node link
      // of the TARGET cluster's transport.
      st = net::Call(target_->transport(),
                     net::Endpoint::Service(net::kServiceXdcr),
                     net::Endpoint::Node(active),
                     [&] { return b->vbucket(m.vbucket)->ApplyXdcr(m.doc); });
    }
    if (st.ok()) {
      docs_sent_->Add();
      n->dispatcher()->Notify();
      return Status::OK();
    }
    if (st.IsKeyExists()) {
      docs_rejected_->Add();
      return Status::OK();  // local version won; both sides already agree
    }
    if (st.IsNotMyVBucket() || st.IsTempFail()) {
      docs_retried_->Add();
      last = st;
      std::this_thread::yield();
      continue;  // stale routing / dropped message: re-read the target map
    }
    LOG_WARN << "xdcr apply failed: " << st.ToString();
    return st;
  }
  // Exhausted: stall the stream; the dispatcher re-delivers later.
  return last;
}

uint64_t XdcrLink::backlog() const {
  return feed_ != nullptr ? feed_->Backlog() : 0;
}

}  // namespace couchkv::xdcr
