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

  // Source mutations not yet shipped (the XDCR lag): the link's share of
  // the source bucket's dcp.backlog. 0 before Start().
  uint64_t backlog() const;

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

  // The link's counters, resolved by Start() into the registry scope
  // "xdcr.<service_name>": docs_sent (shipped to the target),
  // docs_filtered (dropped by the key filter), docs_rejected (lost conflict
  // resolution at the target) and docs_retried (re-routed after a target
  // topology change). Null before Start().
  // The link owns no mutex: these pointers are written by Start() strictly
  // before Feed::Open registers the DCP streams whose callbacks read them
  // (the producer's stream-map lock publishes the writes), and the counters
  // themselves are internally atomic.
  std::shared_ptr<stats::Scope> stats_scope_;
  stats::Counter* docs_sent_ = nullptr;
  stats::Counter* docs_filtered_ = nullptr;
  stats::Counter* docs_rejected_ = nullptr;
  stats::Counter* docs_retried_ = nullptr;
  std::shared_ptr<cluster::Feed> feed_;
};

}  // namespace couchkv::xdcr

#endif  // COUCHKV_XDCR_XDCR_H_
