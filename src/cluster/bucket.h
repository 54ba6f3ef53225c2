// The node-local portion of a Couchbase bucket: 1024 VBucket objects (only
// those hosted here carry data), the bucket's DCP producer, the disk write
// queue and its flusher thread (paper Figure 6: mutations are acknowledged
// from memory and persisted asynchronously), and the compactor.
#ifndef COUCHKV_CLUSTER_BUCKET_H_
#define COUCHKV_CLUSTER_BUCKET_H_

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/types.h"
#include "cluster/vbucket.h"
#include "common/clock.h"
#include "common/lockdep.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "dcp/dcp.h"
#include "stats/registry.h"
#include "storage/env.h"

namespace couchkv::cluster {

class Bucket {
 public:
  Bucket(BucketConfig config, NodeId node_id, storage::Env* env, Clock* clock,
         dcp::Dispatcher* dispatcher);
  ~Bucket();

  Bucket(const Bucket&) = delete;
  Bucket& operator=(const Bucket&) = delete;

  // Disk-failure backpressure (the paper's §3.1.1 temporary failure):
  // while the flusher is in its retry loop (a SaveDocs/Commit failed and
  // the batch was re-enqueued) AND the disk write queue holds at least this
  // many docs, front-end mutations return TempFail instead of growing the
  // unpersistable backlog without bound. Reads are never throttled.
  static constexpr uint64_t kTempFailQueueDepth = 1u << 16;

  const BucketConfig& config() const { return config_; }
  NodeId node_id() const { return node_id_; }

  // The vBucket objects live as long as the bucket (a rollback resets one
  // in place), so callers may hold the pointer without a lock.
  VBucket* vbucket(uint16_t vb) { return vbuckets_[vb].get(); }
  dcp::Producer* producer() { return producer_.get(); }
  std::shared_ptr<dcp::Producer> producer_shared() { return producer_; }

  // Transitions a vBucket's state, opening its storage file if this node is
  // becoming responsible for it.
  Status SetVBucketState(uint16_t vb, VBucketState state);

  // Blocks until the disk write queue is empty and everything queued at call
  // time is committed.
  void FlushAll();

  // Warmup (node restart): repopulates the hash tables of all non-dead
  // vBuckets from their storage files, restoring seqno high-water marks.
  // Couchbase performs exactly this scan when a node rejoins. Returns the
  // number of documents loaded. On a scan failure (corruption past the last
  // good commit) the half-loaded vBucket is discarded and the error
  // propagates — a partially-warmed partition must never serve reads.
  StatusOr<uint64_t> Warmup();

  // Blocks until `seqno` of vBucket `vb` is persisted locally, or timeout.
  Status WaitForPersistence(uint16_t vb, uint64_t seqno, uint64_t timeout_ms);

  // Crash-stops the bucket: the flusher exits WITHOUT draining the disk
  // queue, possibly between writing a batch and committing it (the storage
  // layer's recovery then discards the torn tail). Everything still in
  // memory only is lost, exactly as in a process crash.
  void Kill();

  // Discards a vBucket's in-memory, change-log and on-disk state in place,
  // keeping its lifecycle state, so a DCP stream re-backfills it from
  // scratch. Used to roll back a replica that ran ahead of a crashed-and-
  // recovered active. Ops and stream callbacks racing the rollback stay
  // memory-safe; for the data to be exact, the caller re-creates the
  // partition's incoming stream afterwards (ApplyMap does).
  Status RollbackVBucket(uint16_t vb);

  // Runs one compaction sweep: compacts any hosted vBucket file that is
  // more than half stale data. Returns #compacted.
  size_t MaybeCompact();

  // Enforces the memory quota by evicting clean values (paper §4.3.3).
  // Returns bytes reclaimed.
  uint64_t EnforceQuota();

  uint64_t mem_used() const;

  // Refreshes the scope's point-in-time gauges (mem used, queue depth, DCP
  // backlog, fragmentation). Called by the STATS scrape path before Collect.
  void UpdateScrapeGauges();

  // The bucket's registry scope ("node.<id>.bucket.<name>").
  stats::Scope* stats_scope() const { return scope_.get(); }

  // Test hook: the disk write queue depth.
  size_t disk_queue_depth() const;

  // Test hook: the document queued (not yet being flushed) for `key`.
  std::optional<kv::Document> QueuedDoc(uint16_t vb, const std::string& key);

  // True while front-end mutations are rejected with TempFail because the
  // flusher cannot drain the queue (see kTempFailQueueDepth).
  bool backpressure_active() const {
    return backpressure_.load(std::memory_order_acquire);
  }

 private:
  void FlusherLoop();
  // Puts a failed flush batch back on the disk write queue, preserving
  // seqnos. A doc is NOT requeued if a newer version of the same key was
  // enqueued in the meantime (the newer write supersedes it). Returns the
  // number of docs requeued.
  size_t RequeueFailedBatch(uint16_t vb, std::vector<kv::Document>& docs);
  // Recomputes the TempFail backpressure flag from the disk-unhealthy state
  // and the current queue depth.
  void UpdateBackpressure();
  // Drops vBucket `vb`'s queued-but-unflushed writes.
  void PurgeQueued(uint16_t vb);
  void EnqueueForPersistence(uint16_t vb, const kv::Document& doc);
  std::string VBucketFilePath(uint16_t vb) const;
  Status EnsureStorage(uint16_t vb);

  BucketConfig config_;
  NodeId node_id_;
  storage::Env* env_;
  Clock* clock_;
  dcp::Dispatcher* dispatcher_;

  // Registry scope + instruments resolved once at construction; vBuckets,
  // files, and the producer hold raw pointers into the scope, which the
  // shared_ptr keeps alive (even past DropScope on destruction).
  std::shared_ptr<stats::Scope> scope_;
  OpInstruments op_inst_;
  kv::CacheCounters cache_counters_;
  storage::StorageCounters storage_counters_;
  dcp::DcpCounters dcp_counters_;
  stats::Counter* flush_batches_ = nullptr;
  stats::Counter* flush_docs_ = nullptr;
  stats::Counter* flush_fails_ = nullptr;    // SaveDocs/Commit failures
  stats::Counter* flush_retries_ = nullptr;  // docs re-enqueued after failure
  Histogram* flush_ns_ = nullptr;

  std::vector<std::unique_ptr<VBucket>> vbuckets_;
  std::shared_ptr<dcp::Producer> producer_;

  // Disk write queue: deduplicates by (vb, key) so repeated updates to a hot
  // document collapse into one write ("asynchrony ... provides an
  // opportunity for repeated updates to an object to be aggregated at the
  // level of persistence", paper §2.3.2). Sharded by vBucket so front-end
  // writers on different partitions do not contend on one mutex.
  static constexpr size_t kQueueShards = 16;
  struct QueueShard {
    Mutex mu{"cluster.flusher_shard"};
    std::map<std::pair<uint16_t, std::string>, kv::Document> items
        GUARDED_BY(mu);
  };
  std::array<QueueShard, kQueueShards> shards_;
  std::atomic<uint64_t> queued_{0};    // total items across shards

  mutable Mutex queue_mu_{"cluster.flusher_queue"};  // guards the flusher's cv + flags
  CondVar queue_cv_;
  std::atomic<bool> flushing_{false};  // a batch is being written right now
  CondVar flush_cv_;                   // signaled after each commit
  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_hard_{false};  // crash: exit without draining
  // Disk-failure state: set when a flush batch fails (the batch was
  // re-enqueued), cleared when a full pass commits cleanly. Feeds the
  // TempFail backpressure flag the vBuckets read on the mutation path.
  std::atomic<bool> disk_unhealthy_{false};
  std::atomic<bool> backpressure_{false};
  Mutex storage_mu_{"cluster.bucket.storage"};  // serializes lazy CouchFile creation
  // The flusher loop body (batch collection, SaveDocs, commit bookkeeping)
  // runs only on this bucket's flusher thread.
  COUCHKV_AFFINE_TO("cluster.bucket.flusher_loop",
                    lockdep::Domain::kStorageFlusher);
  std::thread flusher_;
};

}  // namespace couchkv::cluster

#endif  // COUCHKV_CLUSTER_BUCKET_H_
