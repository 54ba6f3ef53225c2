// A vBucket: one of the 1024 logical partitions of a bucket, as hosted on a
// particular node. Combines the object-managed cache (HashTable) with the
// append-only store (CouchFile) and funnels every mutation into the bucket's
// DCP producer and disk-write queue via the mutation sink.
//
// Front-end operations are serialized per vBucket (op mutex); this is what
// guarantees DCP sees seqnos in order.
#ifndef COUCHKV_CLUSTER_VBUCKET_H_
#define COUCHKV_CLUSTER_VBUCKET_H_

#include <atomic>
#include <functional>
#include <memory>

#include "cluster/types.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "kv/hash_table.h"
#include "stats/registry.h"
#include "storage/couch_file.h"

namespace couchkv::trace {
class Span;
}  // namespace couchkv::trace

namespace couchkv::cluster {

// Front-end op accounting shared by all vBuckets of a bucket: op counts plus
// the latency histograms per-op trace::Spans record into.
struct OpInstruments {
  stats::Counter* ops_get = nullptr;
  stats::Counter* ops_mutate = nullptr;  // every Store
  Histogram* get_ns = nullptr;
  Histogram* mutate_ns = nullptr;

  // Resolves the "kv.ops_*"/"kv.*_ns" metrics in `scope`.
  static OpInstruments In(stats::Scope* scope);
};

class VBucket {
 public:
  // Invoked (under the op lock) for every locally-originated or replicated
  // mutation; the Bucket wires this to DCP + the disk write queue.
  using MutationSink = std::function<void(const kv::Document&)>;

  // `instruments` and `cache_counters`, when given, must outlive the vBucket
  // (the bucket's stats scope keeps them alive).
  VBucket(uint16_t id, VBucketState state, Clock* clock,
          kv::EvictionPolicy eviction,
          const OpInstruments* instruments = nullptr,
          const kv::CacheCounters* cache_counters = nullptr)
      : id_(id),
        inst_(instruments != nullptr ? *instruments : OpInstruments{}),
        state_(state),
        ht_(clock, eviction, cache_counters) {}

  uint16_t id() const { return id_; }

  VBucketState state() const { return state_.load(std::memory_order_acquire); }
  // May be called inside WithOpLock (the rebalance switchover does this).
  void set_state(VBucketState s) {
    state_.store(s, std::memory_order_release);
  }

  void set_sink(MutationSink sink) EXCLUDES(op_mu_) {
    LockGuard lock(op_mu_);
    sink_ = std::move(sink);
  }
  // Wires the bucket's disk-failure backpressure flag: while `flag` is true,
  // front-end mutations fail with TempFail before touching the cache (the
  // paper's §3.1.1 temporary-failure condition — the client backs off and
  // retries). Reads are unaffected. `flag` must outlive the vBucket.
  void set_backpressure_flag(const std::atomic<bool>* flag) {
    backpressure_ = flag;
  }
  void set_file(std::shared_ptr<storage::CouchFile> file) EXCLUDES(file_mu_) {
    LockGuard lock(file_mu_);
    file_ = std::move(file);
  }
  // The pointer read is locked (the flusher races EnsureStorage and Reset
  // here); the returned reference keeps the file alive across a Reset that
  // swaps it, and the CouchFile is internally synchronized. file_ sits
  // under its own leaf mutex — NOT op_mu_ — because DCP backfill reads it
  // while the rebalance switchover pumps the producer inside WithOpLock;
  // routing it through op_mu_ would self-deadlock that path.
  std::shared_ptr<storage::CouchFile> file() const EXCLUDES(file_mu_) {
    LockGuard lock(file_mu_);
    return file_;
  }
  kv::HashTable& hash_table() { return ht_; }
  const kv::HashTable& hash_table() const { return ht_; }

  // --- Front-end (active-state) operations ---
  // All return NotMyVBucket unless the vBucket is active. Get, GetAndLock
  // and a kTouch Store read an evicted value back from storage first
  // (paper §4.3.3); a failed read returns the storage error and changes
  // nothing.

  StatusOr<kv::GetResult> Get(std::string_view key) EXCLUDES(op_mu_);
  StatusOr<kv::GetResult> GetAndLock(std::string_view key, uint64_t lock_ms)
      EXCLUDES(op_mu_);
  Status Unlock(std::string_view key, uint64_t cas) EXCLUDES(op_mu_);
  // The one front-end mutation (kv::HashTable::Store): applies it and emits
  // the resulting document to the sink. Disk-failure backpressure refuses
  // it with TempFail. `value` is read by kSet/kAdd/kReplace only.
  StatusOr<kv::DocMeta> Store(kv::StoreOp op, std::string_view key,
                              std::string_view value, uint32_t flags,
                              uint32_t expiry, uint64_t cas) EXCLUDES(op_mu_);

  // --- Replication-state operations ---

  // Applies a mutation received over DCP (replica / rebalance apply path).
  // Feeds the sink so the mutation persists and re-streams. `doc` comes
  // from another node, so its value is copied into this node's own buffer.
  void ApplyReplicated(const kv::Document& doc) EXCLUDES(op_mu_);

  // Applies a document arriving over XDCR, running conflict resolution
  // (paper §4.6.1). Returns KeyExists if the local version wins. Allowed in
  // active state only. Like ApplyReplicated, copies the value once.
  Status ApplyXdcr(const kv::Document& doc) EXCLUDES(op_mu_);

  // Rolls the vBucket back in place. Under the op lock it runs `fresh_file`
  // (the bucket drops the partition's queued writes and change log and
  // opens a new file, or returns null for none), then empties the hash
  // table, resets the seqnos and installs the file. If `fresh_file` fails,
  // the table and file stay as they were. The object stays put, so the raw
  // pointers front-end ops, services and stream callbacks hold stay valid.
  using FileFactory =
      std::function<StatusOr<std::shared_ptr<storage::CouchFile>>()>;
  Status Reset(const FileFactory& fresh_file) EXCLUDES(op_mu_);

  // --- Common ---
  uint64_t high_seqno() const { return ht_.high_seqno(); }
  uint64_t persisted_seqno() const { return ht_.persisted_seqno(); }

  // Runs `fn` with the op lock held — used for the atomic rebalance
  // switchover (paper §4.3.1).
  void WithOpLock(const std::function<void()>& fn) EXCLUDES(op_mu_) {
    LockGuard lock(op_mu_);
    fn();
  }

 private:
  Status CheckActive() const REQUIRES(op_mu_);
  // CheckActive + disk-failure backpressure; gate for every front-end
  // mutation (Store). Replication applies bypass it: refusing those would
  // stall DCP, not shed load.
  Status CheckWritable() const REQUIRES(op_mu_);
  // Runs the cache lookup `find(true)`. When it finds the value evicted,
  // reads the document back from storage into the cache, marks `span`'s
  // "disk" phase and runs `find(false)`: the read-through is one cache
  // miss, so the second lookup counts no cache event. A failed read returns
  // the storage error before the second lookup, so a GETL takes no lock.
  template <typename Find>
  StatusOr<kv::GetResult> FindResident(std::string_view key, Find find,
                                       trace::Span& span) REQUIRES(op_mu_);
  void Emit(const kv::Document& doc) REQUIRES(op_mu_) {
    if (sink_) sink_(doc);
  }
  // Builds the Document for a just-applied mutation so it can be emitted;
  // it shares `value` with the hash-table entry.
  kv::Document MakeDoc(std::string_view key, kv::Blob value,
                       const kv::DocMeta& meta) const;

  const uint16_t id_;
  OpInstruments inst_;  // null members = reporting disabled
  mutable Mutex op_mu_{"cluster.vbucket.op"};
  // Leaf lock under op_mu_: guards only the file pointer, held only for the
  // accessor-sized critical sections above, so file() stays callable from
  // code running inside WithOpLock (DCP backfill during rebalance).
  mutable Mutex file_mu_ ACQUIRED_AFTER(op_mu_){"cluster.vbucket.file"};
  std::atomic<VBucketState> state_;
  // Bucket-owned disk-failure flag (null = no throttle); read-only here.
  const std::atomic<bool>* backpressure_ = nullptr;
  kv::HashTable ht_;  // internally synchronized
  std::shared_ptr<storage::CouchFile> file_ GUARDED_BY(file_mu_);
  MutationSink sink_ GUARDED_BY(op_mu_);
};

}  // namespace couchkv::cluster

#endif  // COUCHKV_CLUSTER_VBUCKET_H_
