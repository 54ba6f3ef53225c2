#include "cluster/bucket.h"

#include <algorithm>

#include "common/lockdep.h"

#include "common/logging.h"

namespace couchkv::cluster {

namespace {
// The compactor rewrites a vBucket file whose fragmentation exceeds this.
constexpr double kCompactionThreshold = 0.5;
}  // namespace

Bucket::Bucket(BucketConfig config, NodeId node_id, storage::Env* env,
               Clock* clock, dcp::Dispatcher* dispatcher)
    : config_(std::move(config)),
      node_id_(node_id),
      env_(env),
      clock_(clock),
      dispatcher_(dispatcher) {
  scope_ = stats::Registry::Global().GetScope(
      "node." + std::to_string(node_id_) + ".bucket." + config_.name);
  op_inst_ = OpInstruments::In(scope_.get());
  cache_counters_ = kv::CacheCounters::In(scope_.get());
  storage_counters_ = storage::StorageCounters::In(scope_.get());
  dcp_counters_ = dcp::DcpCounters::In(scope_.get());
  flush_batches_ = scope_->GetCounter("flusher.batches");
  flush_docs_ = scope_->GetCounter("flusher.batch_docs");
  flush_fails_ = scope_->GetCounter("flusher.flush_fails");
  flush_retries_ = scope_->GetCounter("flusher.flush_retries");
  flush_ns_ = scope_->GetHistogram("flusher.flush_ns");

  vbuckets_.reserve(kNumVBuckets);
  for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
    auto v = std::make_unique<VBucket>(vb, VBucketState::kDead, clock_,
                                       config_.eviction, &op_inst_,
                                       &cache_counters_);
    v->set_backpressure_flag(&backpressure_);
    v->set_sink([this, vb](const kv::Document& doc) {
      producer_->OnMutation(vb, doc);
      EnqueueForPersistence(vb, doc);
      dispatcher_->Notify();
    });
    vbuckets_.push_back(std::move(v));
  }
  // DCP backfill reads from the vBucket's storage file.
  producer_ = std::make_shared<dcp::Producer>(
      kNumVBuckets,
      [this](uint16_t vb, uint64_t since, const dcp::MutationFn& fn) {
        std::shared_ptr<storage::CouchFile> file = vbuckets_[vb]->file();
        if (file == nullptr) return Status::OK();
        return file->ChangesSince(since, [&](const kv::Document& doc) {
          kv::Mutation m;
          m.vbucket = vb;
          m.doc = doc;
          // A failed delivery aborts the backfill scan; the producer's
          // stall/retry logic decides what happens next.
          return fn(m);
        });
      },
      &dcp_counters_);
  dispatcher_->AddProducer(producer_);
  flusher_ = std::thread([this] {
    lockdep::ScopedDomain domain(lockdep::Domain::kStorageFlusher);
    FlusherLoop();
  });
}

Bucket::~Bucket() {
  stop_.store(true);
  queue_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
  dispatcher_->RemoveProducer(producer_);
  // Deregister from exposition; scope_ keeps the metric storage alive for
  // anything still holding pointers into it.
  stats::Registry::Global().DropScope(scope_->name());
}

std::string Bucket::VBucketFilePath(uint16_t vb) const {
  return config_.name + ".n" + std::to_string(node_id_) + ".vb" +
         std::to_string(vb) + ".couch";
}

Status Bucket::EnsureStorage(uint16_t vb) {
  LockGuard lock(storage_mu_);
  VBucket* v = vbuckets_[vb].get();
  if (v->file() != nullptr) return Status::OK();
  auto file_or =
      storage::CouchFile::Open(env_, VBucketFilePath(vb), &storage_counters_);
  if (!file_or.ok()) return file_or.status();
  std::shared_ptr<storage::CouchFile> file = std::move(file_or).value();
  v->set_file(std::move(file));
  return Status::OK();
}

Status Bucket::SetVBucketState(uint16_t vb, VBucketState state) {
  if (vb >= kNumVBuckets) return Status::InvalidArgument("bad vbucket");
  VBucket* v = vbuckets_[vb].get();
  if (state != VBucketState::kDead) {
    COUCHKV_RETURN_IF_ERROR(EnsureStorage(vb));
  }
  v->set_state(state);
  return Status::OK();
}

void Bucket::EnqueueForPersistence(uint16_t vb, const kv::Document& doc) {
  QueueShard& shard = shards_[vb % kQueueShards];
  bool inserted;
  {
    LockGuard lock(shard.mu);
    // Later write supersedes earlier (dedup aggregation).
    inserted = shard.items.insert_or_assign({vb, doc.key}, doc).second;
  }
  if (inserted && queued_.fetch_add(1) == 0) {
    queue_cv_.NotifyOne();
  }
  UpdateBackpressure();
}

size_t Bucket::RequeueFailedBatch(uint16_t vb, std::vector<kv::Document>& docs) {
  QueueShard& shard = shards_[vb % kQueueShards];
  size_t requeued = 0;
  {
    LockGuard lock(shard.mu);
    for (kv::Document& doc : docs) {
      // try_emplace: if the key was re-enqueued by a front-end write while
      // this batch was failing, that newer version wins; re-inserting the
      // old one would persist stale data over it.
      if (shard.items.try_emplace({vb, doc.key}, std::move(doc)).second) {
        ++requeued;
      }
    }
  }
  if (requeued > 0) queued_.fetch_add(requeued);
  flush_retries_->Add(requeued);
  return requeued;
}

void Bucket::UpdateBackpressure() {
  bool want = disk_unhealthy_.load(std::memory_order_acquire) &&
              queued_.load(std::memory_order_acquire) >= kTempFailQueueDepth;
  backpressure_.store(want, std::memory_order_release);
}

void Bucket::FlusherLoop() {
  COUCHKV_ASSERT_AFFINE();
  // Retry backoff after a failed pass: doubles up to the cap, resets on a
  // clean pass, so a dead disk is retried at a bounded rate instead of in a
  // hot loop, and a transient fault converges quickly.
  std::chrono::milliseconds backoff(0);
  constexpr std::chrono::milliseconds kMaxBackoff(64);
  for (;;) {
    if (stop_hard_.load()) return;  // crash: abandon the queue
    std::map<std::pair<uint16_t, std::string>, kv::Document> batch;
    {
      UniqueLock lock(queue_mu_);
      // The deadline bounds the flush latency even if a notify is lost (the
      // enqueue fast path deliberately avoids taking queue_mu_).
      auto deadline = std::chrono::steady_clock::now() +
                      std::max(backoff, std::chrono::milliseconds(1));
      while (!stop_.load() && queued_.load() == 0) {
        if (!queue_cv_.WaitUntil(lock, deadline)) break;
      }
      if (backoff.count() > 0 && !stop_.load() && !stop_hard_.load()) {
        // A failed pass re-enqueued its docs, so queued_ > 0 and the wait
        // above returned immediately; honor the backoff before retrying.
        while (std::chrono::steady_clock::now() < deadline &&
               !stop_.load() && !stop_hard_.load()) {
          if (!queue_cv_.WaitUntil(lock, deadline)) break;
        }
      }
    }
    if (stop_hard_.load()) return;
    if (queued_.load() == 0) {
      if (stop_.load()) return;
      continue;
    }
    flushing_.store(true);
    uint64_t flush_start_ns = Clock::Real()->NowNanos();
    for (QueueShard& shard : shards_) {
      LockGuard lock(shard.mu);
      batch.merge(shard.items);
      shard.items.clear();
    }
    queued_.fetch_sub(batch.size());
    flush_batches_->Add();
    flush_docs_->Add(batch.size());
    // Group the batch by vBucket: one SaveDocs + Commit per file, so a
    // flush cycle is a small number of sequential writes + fsyncs.
    std::map<uint16_t, std::vector<kv::Document>> by_vb;
    for (auto& [key, doc] : batch) {
      by_vb[key.first].push_back(std::move(doc));
    }
    bool pass_failed = false;
    for (auto& [vb, docs] : by_vb) {
      if (stop_hard_.load()) {
        flushing_.store(false);
        return;  // crash between per-vBucket batches
      }
      VBucket* v = vbuckets_[vb].get();
      // One locked pointer read per vBucket; the reference keeps the file
      // alive for the SaveDocs/Commit sequence even if a rollback swaps it.
      std::shared_ptr<storage::CouchFile> file = v->file();
      Status st = Status::OK();
      if (file == nullptr) {
        st = EnsureStorage(vb);
        if (st.ok()) file = v->file();
      }
      if (st.ok()) st = file->SaveDocs(docs);
      if (stop_hard_.load()) {
        // Crash between the batch write and its commit record: the torn
        // tail is discarded by recovery on the next open.
        flushing_.store(false);
        return;
      }
      if (st.ok()) st = file->Commit();
      if (!st.ok()) {
        // Acknowledged-from-memory writes must not be dropped on a disk
        // fault: put the batch back on the queue (newer enqueued versions
        // win) so the flusher retries until the disk recovers, and flag the
        // disk unhealthy so the front end sheds write load once the queue
        // passes the TempFail threshold. PersistTo waiters keep waiting —
        // they time out honestly instead of acking an unpersisted write.
        flush_fails_->Add();
        size_t requeued = RequeueFailedBatch(vb, docs);
        pass_failed = true;
        LOG_WARN << "flush failed for vb " << vb << ": " << st.ToString()
                 << "; re-enqueued " << requeued << "/" << docs.size()
                 << " docs for retry";
        continue;
      }
      for (const kv::Document& doc : docs) {
        v->hash_table().MarkClean(doc.key, doc.meta.seqno);
      }
    }
    disk_unhealthy_.store(pass_failed, std::memory_order_release);
    UpdateBackpressure();
    backoff = pass_failed
                  ? std::min(std::max(backoff * 2, std::chrono::milliseconds(1)),
                             kMaxBackoff)
                  : std::chrono::milliseconds(0);
    flush_ns_->Record(Clock::Real()->NowNanos() - flush_start_ns);
    {
      LockGuard lock(queue_mu_);
      flushing_.store(false);
    }
    flush_cv_.NotifyAll();
  }
}

StatusOr<uint64_t> Bucket::Warmup() {
  uint64_t loaded = 0;
  for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
    VBucket* v = vbuckets_[vb].get();
    if (v->state() == VBucketState::kDead) continue;
    COUCHKV_RETURN_IF_ERROR(EnsureStorage(vb));
    // ChangesSince streams in seqno order, which both Restore and the DCP
    // change log require.
    Status st = v->file()->ChangesSince(0, [&](const kv::Document& doc) {
      if (!doc.meta.deleted) {
        v->hash_table().Restore(doc);
        ++loaded;
      }
      // Re-seed the DCP change log so consumers attaching later can stream
      // history without a storage backfill.
      producer_->OnMutation(vb, doc);
      return Status::OK();
    });
    if (!st.ok()) {
      // Corruption mid-scan: a partially-warmed partition would serve a
      // stale subset of its documents as if complete. Discard the
      // half-loaded vBucket (state resets to dead, no file) and propagate,
      // so the caller aborts the node bring-up instead of half-serving.
      v->set_state(VBucketState::kDead);
      COUCHKV_RETURN_IF_ERROR(
          v->Reset([&]() -> StatusOr<std::shared_ptr<storage::CouchFile>> {
            producer_->ResetLog(vb);
            return std::shared_ptr<storage::CouchFile>();
          }));
      return st;
    }
  }
  dispatcher_->Notify();
  return loaded;
}

void Bucket::FlushAll() {
  UniqueLock lock(queue_mu_);
  queue_cv_.NotifyAll();
  while (queued_.load() > 0 || flushing_.load()) {
    flush_cv_.Wait(lock);
  }
}

void Bucket::Kill() {
  stop_hard_.store(true);
  stop_.store(true);
  queue_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
  flush_cv_.NotifyAll();
}

void Bucket::PurgeQueued(uint16_t vb) {
  QueueShard& shard = shards_[vb % kQueueShards];
  LockGuard lock(shard.mu);
  size_t purged = 0;
  for (auto it = shard.items.begin(); it != shard.items.end();) {
    if (it->first.first == vb) {
      it = shard.items.erase(it);
      ++purged;
    } else {
      ++it;
    }
  }
  if (purged > 0) queued_.fetch_sub(purged);
}

Status Bucket::RollbackVBucket(uint16_t vb) {
  if (vb >= kNumVBuckets) return Status::InvalidArgument("bad vbucket");
  VBucket* v = vbuckets_[vb].get();
  // Purge queued-but-unflushed writes for this partition so the flusher
  // cannot resurrect the discarded state into the fresh file, and let any
  // in-flight flush batch (snapshotted before the purge) land in the old
  // file before it is replaced.
  PurgeQueued(vb);
  {
    UniqueLock lock(queue_mu_);
    while (flushing_.load()) flush_cv_.Wait(lock);
  }
  return v->Reset([&]() -> StatusOr<std::shared_ptr<storage::CouchFile>> {
    // Under the op lock: drop what slipped in before it, and the change
    // log, whose seqnos the partition is about to reuse.
    PurgeQueued(vb);
    producer_->ResetLog(vb);
    if (v->state() == VBucketState::kDead) {
      return std::shared_ptr<storage::CouchFile>();
    }
    std::string path = VBucketFilePath(vb);
    LockGuard lock(storage_mu_);
    if (env_->Exists(path)) COUCHKV_RETURN_IF_ERROR(env_->Remove(path));
    auto file_or = storage::CouchFile::Open(env_, path, &storage_counters_);
    if (!file_or.ok()) return file_or.status();
    return std::shared_ptr<storage::CouchFile>(std::move(file_or).value());
  });
}

Status Bucket::WaitForPersistence(uint16_t vb, uint64_t seqno,
                                  uint64_t timeout_ms) {
  VBucket* v = vbuckets_[vb].get();
  UniqueLock lock(queue_mu_);
  queue_cv_.NotifyAll();
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (v->persisted_seqno() < seqno) {
    if (!flush_cv_.WaitUntil(lock, deadline)) break;
  }
  return v->persisted_seqno() >= seqno ? Status::OK()
                                       : Status::Timeout("persistence wait");
}

size_t Bucket::MaybeCompact() {
  size_t compacted = 0;
  for (auto& v : vbuckets_) {
    std::shared_ptr<storage::CouchFile> file = v->file();
    if (file == nullptr || v->state() == VBucketState::kDead) continue;
    if (file->Fragmentation() > kCompactionThreshold) {
      Status st = file->Compact();
      if (st.ok()) {
        ++compacted;
      } else {
        LOG_WARN << "compaction failed: " << st.ToString();
      }
    }
  }
  return compacted;
}

uint64_t Bucket::EnforceQuota() {
  uint64_t used = mem_used();
  if (used <= config_.memory_quota_bytes) return 0;
  // Evict proportionally from every hosted vBucket.
  uint64_t reclaimed = 0;
  uint64_t target_per_vb = config_.memory_quota_bytes / kNumVBuckets;
  for (auto& v : vbuckets_) {
    if (v->state() == VBucketState::kDead) continue;
    reclaimed += v->hash_table().EvictTo(target_per_vb);
  }
  return reclaimed;
}

uint64_t Bucket::mem_used() const {
  uint64_t total = 0;
  for (const auto& v : vbuckets_) total += v->hash_table().mem_used();
  return total;
}

size_t Bucket::disk_queue_depth() const { return queued_.load(); }

std::optional<kv::Document> Bucket::QueuedDoc(uint16_t vb,
                                              const std::string& key) {
  QueueShard& shard = shards_[vb % kQueueShards];
  LockGuard lock(shard.mu);
  auto it = shard.items.find({vb, key});
  if (it == shard.items.end()) return std::nullopt;
  return it->second;
}

void Bucket::UpdateScrapeGauges() {
  scope_->GetGauge("bucket.mem_used")->Set(static_cast<int64_t>(mem_used()));
  scope_->GetGauge("bucket.disk_queue_depth")
      ->Set(static_cast<int64_t>(disk_queue_depth()));
  scope_->GetGauge("dcp.backlog")
      ->Set(static_cast<int64_t>(producer_->Backlog()));
  // Worst fragmentation across hosted vBucket files, in basis points (the
  // §4.3.3 compaction trigger input).
  double worst_frag = 0.0;
  uint64_t items = 0, non_resident = 0;
  for (const auto& v : vbuckets_) {
    if (v->state() == VBucketState::kDead) continue;
    if (auto file = v->file(); file != nullptr) {
      double f = file->Fragmentation();
      if (f > worst_frag) worst_frag = f;
    }
    auto hs = v->hash_table().stats();
    items += hs.num_items;
    non_resident += hs.num_non_resident;
  }
  scope_->GetGauge("storage.fragmentation_bp")
      ->Set(static_cast<int64_t>(worst_frag * 10000));
  scope_->GetGauge("kv.curr_items")->Set(static_cast<int64_t>(items));
  scope_->GetGauge("kv.non_resident_items")
      ->Set(static_cast<int64_t>(non_resident));
}

}  // namespace couchkv::cluster
