// The index service (paper §4.3.4): manages global secondary indexes.
// The Projector (on each data node) evaluates DCP mutations against index
// definitions; the Router forwards the resulting key versions to the
// Indexer partitions hosted on index-service nodes; the Index Manager
// handles DDL (create/drop/list) and scans with configurable consistency.
#ifndef COUCHKV_GSI_INDEX_SERVICE_H_
#define COUCHKV_GSI_INDEX_SERVICE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/feed.h"
#include "common/synchronization.h"
#include "gsi/index_defs.h"
#include "gsi/indexer.h"
#include "stats/registry.h"

namespace couchkv::gsi {

// Evaluates the map from a document version to its secondary keys.
// Exposed for unit testing; the projector calls this per mutation.
std::vector<json::Value> ProjectKeys(const IndexDefinition& def,
                                     const std::string& doc_id,
                                     const json::Value* doc /*null=deleted*/);

struct IndexStats {
  std::string name;
  size_t num_entries = 0;
  uint32_t num_partitions = 1;
  uint64_t disk_bytes_written = 0;
};

class IndexService {
 public:
  explicit IndexService(cluster::Cluster* cluster) : cluster_(cluster) {
    stats_scope_ = stats::Registry::Global().GetScope("gsi");
    keys_projected_ = stats_scope_->GetCounter("keys_projected");
    routed_keys_ = stats_scope_->GetCounter("routed_keys");
    scans_ = stats_scope_->GetCounter("scans");
    scan_retries_ = stats_scope_->GetCounter("scan_retries");
    scan_ns_ = stats_scope_->GetHistogram("scan_ns");
  }

  // No-op: each index's feed follows topology changes by itself. Kept
  // while ledgerbench/main.cc still calls it.
  void Attach() {}

  // --- Index Manager: DDL ---
  Status CreateIndex(IndexDefinition def);
  Status DropIndex(const std::string& bucket, const std::string& name);
  std::vector<IndexDefinition> ListIndexes(const std::string& bucket) const;

  // --- Scans ---
  // Range scan with the requested consistency. The result merges all
  // partitions in key order (scatter/gather for partitioned GSI); a
  // primary index's entries carry ids only (see IndexEntry).
  StatusOr<std::vector<IndexEntry>> Scan(const std::string& bucket,
                                         const std::string& name,
                                         const ScanRange& range, size_t limit,
                                         ScanConsistency consistency);

  // Blocks until the index covers every mutation present at call time.
  Status WaitUntilCaughtUp(const std::string& bucket, const std::string& name,
                           uint64_t timeout_ms = 30000);

  IndexStats Stats(const std::string& bucket, const std::string& name) const;

 private:
  struct IndexState {
    IndexDefinition def;
    std::vector<std::shared_ptr<IndexPartition>> partitions;
    // Index nodes hosting each partition (for MDS bookkeeping).
    std::vector<cluster::NodeId> placement;
  };
  using Entry = cluster::Consumer<IndexState>;  // the feed runs the projector

  // The named index; both members null when there is none.
  Entry Find(const std::string& bucket, const std::string& name) const;
  // The projector on data node `node`: evaluates the secondary keys of
  // each mutation, and the router then broadcasts the key version to every
  // partition (each keeps only the keys it owns; see IndexPartition::Apply).
  // Each forward is a message from `node` to the partition's index node; a
  // lost forward returns non-OK, stalling the DCP stream so the key version
  // is re-delivered (Apply is idempotent).
  static dcp::MutationFn Projector(std::shared_ptr<IndexState> state,
                                   cluster::Cluster* cluster,
                                   cluster::NodeId node,
                                   stats::Counter* projected,
                                   stats::Counter* routed);

  cluster::Cluster* cluster_;

  // Service-wide observability (scope "gsi"): projector output volume,
  // router traffic, and scatter/gather scan latency across partitions.
  std::shared_ptr<stats::Scope> stats_scope_;
  stats::Counter* keys_projected_ = nullptr;
  stats::Counter* routed_keys_ = nullptr;
  stats::Counter* scans_ = nullptr;
  stats::Counter* scan_retries_ = nullptr;
  Histogram* scan_ns_ = nullptr;

  mutable Mutex mu_{"gsi.index_service"};
  // bucket -> index name -> entry. The state is shared so scans can run
  // without holding mu_.
  std::map<std::string, std::map<std::string, Entry>> indexes_
      GUARDED_BY(mu_);
};

}  // namespace couchkv::gsi

#endif  // COUCHKV_GSI_INDEX_SERVICE_H_
