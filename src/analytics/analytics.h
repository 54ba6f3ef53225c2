// The analytics service (paper §6.2 "Medium-term plans"): operational
// analytics over shadow copies of operational data, fed by DCP, "scaled
// either out or up independently with respect to other services, especially
// the data service (to provide performance isolation for the all-important
// front-end OLTP workloads)".
//
// Modeled on the planned AsterixDB-based service: each connected bucket
// gets a shadow dataset maintained from the in-memory change stream. The
// query engine runs the full N1QL dialect WITHOUT the OLTP restrictions —
// full scans need no primary index, and general join conditions
// (`JOIN b ON a.x = b.y`, forbidden in N1QL per §3.2.4) execute as hash
// joins. Analytics queries never touch the data service: reads are served
// entirely from the shadow dataset.
//
// The service supplies only the rows — a full dataset scan, or lookups for
// USE KEYS and ON KEYS — and the general joins. Every other SELECT stage is
// the one the N1QL query service runs (n1ql/exec_util.h), so a query both
// services accept gives the same rows, or the same error, on each.
#ifndef COUCHKV_ANALYTICS_ANALYTICS_H_
#define COUCHKV_ANALYTICS_ANALYTICS_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/feed.h"
#include "common/synchronization.h"
#include "json/value.h"
#include "n1ql/expr_eval.h"

namespace couchkv::analytics {

struct AnalyticsResult {
  std::vector<json::Value> rows;
  uint64_t elapsed_ns = 0;
  size_t scanned_docs = 0;
};

// A shadow copy of one bucket, kept up to date through DCP.
class ShadowDataset {
 public:
  void ApplyMutation(const kv::Mutation& m);

  // Runs `fn` over every document (id, parsed value). The shard layout
  // bounds lock hold times so ingestion continues during large scans.
  void ForEach(const std::function<void(const std::string&,
                                        const json::Value&)>& fn) const;

  // The document `id`, or nullopt when the dataset does not hold it.
  std::optional<json::Value> Get(const std::string& id) const;

  uint64_t processed_seqno(uint16_t vb) const {
    return processed_[vb].load(std::memory_order_acquire);
  }
  size_t num_docs() const;

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable SharedMutex mu{"analytics.dataset"};
    std::map<std::string, json::Value> docs GUARDED_BY(mu);
  };
  static size_t ShardOf(const std::string& key) {
    return std::hash<std::string>{}(key) % kShards;
  }

  std::array<Shard, kShards> shards_;
  std::array<std::atomic<uint64_t>, cluster::kNumVBuckets> processed_{};
};

class AnalyticsService {
 public:
  explicit AnalyticsService(cluster::Cluster* cluster) : cluster_(cluster) {}

  // Connects a bucket: creates the shadow dataset and starts ingesting its
  // change stream (initial load backfills via DCP from storage).
  Status ConnectBucket(const std::string& bucket);
  Status DisconnectBucket(const std::string& bucket);

  // Executes a SELECT over shadow datasets. The FROM keyspace names a
  // connected bucket. General joins, full scans, grouping and aggregation
  // are all allowed; DML and DDL are not (analytics is read-only).
  StatusOr<AnalyticsResult> Query(const std::string& text,
                                  const std::vector<json::Value>& params = {});

  // Blocks until the dataset covers every mutation present at call time
  // (test determinism; production analytics is eventually consistent).
  Status WaitCaughtUp(const std::string& bucket, uint64_t timeout_ms = 30000);

  const ShadowDataset* dataset(const std::string& bucket) const;

 private:
  using Entry = cluster::Consumer<ShadowDataset>;
  // The bucket's dataset; both members null when it is not connected.
  Entry Find(const std::string& bucket) const;

  cluster::Cluster* cluster_;
  mutable Mutex mu_{"analytics.service"};
  std::map<std::string, Entry> datasets_ GUARDED_BY(mu_);
};

}  // namespace couchkv::analytics

#endif  // COUCHKV_ANALYTICS_ANALYTICS_H_
