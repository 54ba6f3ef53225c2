// Cross-datacenter replication (paper §4.6): per-bucket, optionally
// key-filtered, topology-aware replication from a source cluster to a
// destination cluster, implemented as a DCP consumer on every source node.
// Conflicts are resolved deterministically (revno, then CAS) so that both
// clusters converge to the same winner (§4.6.1) — eventual consistency
// across clusters, CP within a cluster / AP across clusters.
#ifndef COUCHKV_XDCR_XDCR_H_
#define COUCHKV_XDCR_XDCR_H_

#include <memory>
#include <regex>
#include <string>

#include "cluster/cluster.h"
#include "cluster/feed.h"
#include "stats/registry.h"

namespace couchkv::xdcr {

struct XdcrSpec {
  std::string source_bucket;
  std::string target_bucket;
  // Filtered replication: only keys matching this ECMAScript regex are
  // replicated ("filtered replication (based on a regular expression on the
  // document ID)"). Empty = replicate everything.
  std::string key_filter_regex;
};

// Thin view over the link's registry counters (scope "xdcr.<service_name>",
// created by Start()). All zeros before Start().
struct XdcrStats {
  uint64_t docs_sent = 0;       // mutations shipped to the target
  uint64_t docs_filtered = 0;   // dropped by the key filter
  uint64_t docs_rejected = 0;   // lost conflict resolution at the target
  uint64_t docs_retried = 0;    // re-routed after target topology changes
  uint64_t backlog = 0;         // source mutations not yet shipped (XDCR lag)
};

// One directional replication link. For bidirectional XDCR create two links
// (one per direction); conflict resolution keeps them convergent.
class XdcrLink {
 public:
  XdcrLink(cluster::Cluster* source, cluster::Cluster* target, XdcrSpec spec);
  ~XdcrLink() {
    if (feed_ != nullptr) feed_->Close();  // before the members it uses go
  }

  // Opens the link's DCP feed on the source, which follows source topology
  // changes until the link is destroyed. `service_name` names the feed and
  // the stats scope, so it must be unique per link. Once per link.
  Status Start(const std::string& service_name);

  XdcrStats stats() const;

 private:
  // Ships one mutation to the target cluster through its transport.
  // Returns non-OK (stalling the source DCP stream for retry) when the
  // target is unreachable; re-delivery is idempotent thanks to conflict
  // resolution.
  Status ShipMutation(const kv::Mutation& m);

  cluster::Cluster* source_;
  cluster::Cluster* target_;
  XdcrSpec spec_;
  std::unique_ptr<std::regex> filter_;

  // Registry-backed link counters, resolved by Start() into the scope
  // "xdcr.<service_name>" — null (reporting disabled) before Start().
  // The link owns no mutex: these pointers are written by Start() strictly
  // before Feed::Open registers the DCP streams whose callbacks read them
  // (the producer's stream-map lock publishes the writes), and the counters
  // themselves are internally atomic.
  std::shared_ptr<stats::Scope> stats_scope_;
  stats::Counter* docs_sent_ = nullptr;
  stats::Counter* docs_filtered_ = nullptr;
  stats::Counter* docs_rejected_ = nullptr;
  stats::Counter* docs_retried_ = nullptr;
  stats::Gauge* backlog_ = nullptr;
  std::shared_ptr<cluster::Feed> feed_;
};

}  // namespace couchkv::xdcr

#endif  // COUCHKV_XDCR_XDCR_H_
