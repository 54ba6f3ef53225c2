// The local indexer (paper §4.3.4): stores one partition of a global
// secondary index as an ordered tree of (secondary key, doc id) pairs,
// applies key versions arriving from the router, and serves range scans.
//
// The standard storage mode writes every applied key version through to an
// append-only log on the index node's disk (what makes high mutation rates
// expensive); the memory-optimized mode (paper §6.1.1) skips the disk
// entirely.
#ifndef COUCHKV_GSI_INDEXER_H_
#define COUCHKV_GSI_INDEXER_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/types.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "gsi/index_defs.h"
#include "stats/registry.h"
#include "storage/env.h"

namespace couchkv::gsi {

class IndexPartition {
 public:
  // `log_file` is null in memory-optimized mode.
  IndexPartition(IndexDefinition def, uint32_t partition_id,
                 std::unique_ptr<storage::File> log_file)
      : def_(std::move(def)),
        partition_id_(partition_id),
        log_(std::move(log_file)) {
    stats_scope_ = stats::Registry::Global().GetScope("gsi");
    log_append_failures_ = stats_scope_->GetCounter("log_append_failures");
    log_sync_failures_ = stats_scope_->GetCounter("log_sync_failures");
  }

  const IndexDefinition& definition() const { return def_; }
  uint32_t partition_id() const { return partition_id_; }

  // True if `key` hashes to this partition.
  bool OwnsKey(const json::Value& key) const;

  // Applies one key version. The router broadcasts key versions to every
  // partition: each one drops the doc's stale entries it holds and inserts
  // the new keys it owns (this is how an insert can go to one indexer and a
  // delete to another when the partition key changes, §4.3.4).
  void Apply(const KeyVersion& kv);

  // Ordered range scan over this partition, at most `limit` entries. On a
  // primary index an entry carries the id alone (see IndexEntry).
  std::vector<IndexEntry> Scan(const ScanRange& range, size_t limit) const;

  uint64_t processed_seqno(uint16_t vb) const {
    return processed_[vb].load(std::memory_order_acquire);
  }

  size_t num_entries() const;
  uint64_t disk_bytes_written() const { return disk_bytes_.load(); }

 private:
  struct TreeKey {
    json::Value key;
    std::string doc_id;
    bool operator<(const TreeKey& other) const {
      int c = json::Value::Compare(key, other.key);
      if (c != 0) return c < 0;
      return doc_id < other.doc_id;
    }
  };

  void LogApply(const KeyVersion& kv) REQUIRES(mu_);

  IndexDefinition def_;
  uint32_t partition_id_;
  std::unique_ptr<storage::File> log_;  // written only by LogApply

  // Durability-path failure accounting (scope "gsi"): a dropped log write
  // or fsync is never silent — it is counted, logged, and the sync retried
  // on the next apply.
  std::shared_ptr<stats::Scope> stats_scope_;
  stats::Counter* log_append_failures_ = nullptr;
  stats::Counter* log_sync_failures_ = nullptr;

  mutable SharedMutex mu_{"gsi.indexer"};
  std::map<TreeKey, uint16_t> tree_ GUARDED_BY(mu_);  // value: owning vbucket
  // Back-index: doc_id -> keys currently indexed here (for removal).
  std::unordered_map<std::string, std::vector<json::Value>> back_
      GUARDED_BY(mu_);
  std::array<std::atomic<uint64_t>, cluster::kNumVBuckets> processed_{};
  std::atomic<uint64_t> disk_bytes_{0};
  uint64_t applies_since_sync_ GUARDED_BY(mu_) = 0;
};

}  // namespace couchkv::gsi

#endif  // COUCHKV_GSI_INDEXER_H_
