// The object-managed cache (paper §4.3.3): one HashTable per vBucket holding
// StoredValues. Provides the memcached-level semantics the paper describes —
// optimistic CAS, hard locks with timeout (GETL), TTL expiry, and value
// eviction with keys+metadata kept resident.
#ifndef COUCHKV_KV_HASH_TABLE_H_
#define COUCHKV_KV_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "kv/doc.h"
#include "stats/registry.h"

namespace couchkv::kv {

// Eviction policy for a bucket (paper §4.3.3 "Object Managed Cache").
enum class EvictionPolicy {
  kValueOnly,  // evict values; keys + metadata stay resident (default)
  kFull,       // evict keys and metadata too
};

// A resident entry in the cache.
struct StoredValue {
  DocMeta meta;
  Blob value;             // shared with the DCP log and the flush queue
  bool resident = true;   // false once the value has been evicted
  bool dirty = true;      // true until persisted by the flusher
  bool referenced = true; // NRU bit, set on access, cleared by the evictor
  uint64_t locked_until_ns = 0;  // GETL hard-lock deadline (0 = unlocked)
};

// Result of a cache lookup.
struct GetResult {
  Document doc;
  bool resident = true;  // false means value must be fetched from storage
};

// The cache-event counters a HashTable reports into. All tables in a bucket
// share the bucket's counters (one set per bucket scope); standalone tables
// resolve a private unregistered scope so the accounting code is identical.
struct CacheCounters {
  stats::Counter* hits = nullptr;
  stats::Counter* misses = nullptr;  // not-found, expired, or value evicted
  stats::Counter* evictions = nullptr;
  stats::Counter* expirations = nullptr;
  stats::Counter* cas_mismatches = nullptr;
  stats::Counter* lock_conflicts = nullptr;  // mutations rejected with Locked
  stats::Counter* lock_timeouts = nullptr;   // GETL locks that expired unused

  // Resolves the "kv.*" counters in `scope`.
  static CacheCounters In(stats::Scope* scope);
};

// What a walk of the table finds. Cache events (hits, misses, evictions,
// CAS mismatches, ...) are counted only in the registry (CacheCounters) and
// memory in mem_used(); this holds the facts no counter keeps.
struct HashTableStats {
  uint64_t num_items = 0;
  uint64_t num_non_resident = 0;
  uint64_t num_tombstones = 0;
};

// Thread-safe per-vBucket hash table.
//
// Sequence numbers: the table owns the vBucket's monotonically increasing
// seqno (paper §4.2: "When a document is written, a sequence number is
// generated ... The maximum sequence number per vBucket is also tracked").
class HashTable {
 public:
  // `counters`, when given, must outlive the table (the bucket's scope keeps
  // them alive). Without it the table resolves counters in a private,
  // unregistered scope — standalone tables (tests) need no registry setup.
  explicit HashTable(Clock* clock = Clock::Real(),
                     EvictionPolicy policy = EvictionPolicy::kValueOnly,
                     const CacheCounters* counters = nullptr);

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

  // --- Front-end operations (memcached-style semantics) ---

  // Fetches a document. NotFound for absent/expired/tombstoned keys. If the
  // value has been evicted, result.resident is false and doc.value is empty;
  // the caller (VBucket) re-reads from storage. `count` false counts no
  // cache event: the lookup after such a read-through, whose miss the
  // first lookup already counted.
  StatusOr<GetResult> Get(std::string_view key, bool count = true)
      EXCLUDES(mu_);

  // The one front-end mutation (see StoreOp). cas==0 is unconditional;
  // cas!=0 requires a match (KeyExists on mismatch — the paper's optimistic-
  // locking path, §3.1.1). A GETL-locked document takes only its lock CAS
  // (Locked otherwise) and the mutation releases the lock. Returns the new
  // metadata. The entry takes `flags`, `expiry` and a reference to `value`,
  // except that kDelete stores no value and kTouch takes only `expiry`,
  // keeping the entry's value (resident or not) and flags.
  StatusOr<DocMeta> Store(StoreOp op, std::string_view key, Blob value,
                          uint32_t flags, uint32_t expiry, uint64_t cas)
      EXCLUDES(mu_);

  // GETL: fetch and hard-lock for `lock_ms` (auto-released on timeout to
  // avoid deadlocks, §3.1.1). While locked, mutations without the lock CAS
  // fail with Locked. An evicted value is not locked: the result comes back
  // non-resident, and the caller reads the value back (Restore) and asks
  // again with `count` false. Counts cache events exactly as Get does.
  StatusOr<GetResult> GetAndLock(std::string_view key, uint64_t lock_ms,
                                 bool count = true) EXCLUDES(mu_);

  // Releases a GETL lock; requires the CAS returned by GetAndLock.
  Status Unlock(std::string_view key, uint64_t cas) EXCLUDES(mu_);

  // --- Back-end operations ---

  // Loads a document from storage (warmup or non-resident read-through).
  // Never bumps seqno; keeps the entry clean.
  void Restore(const Document& doc) EXCLUDES(mu_);

  // Marks a key clean after the flusher persisted seqno `seqno`. No-op if
  // the entry was mutated again in the meantime.
  void MarkClean(std::string_view key, uint64_t seqno) EXCLUDES(mu_);

  // Applies a replicated/DCP mutation as-is (no new seqno generated); used
  // by replica vBuckets.
  void ApplyRemote(const Document& doc) EXCLUDES(mu_);

  // XDCR target apply with conflict resolution (paper §4.6.1): the incoming
  // document wins if it has more updates (higher revno), with the CAS as
  // the metadata tiebreaker. On a win the value and conflict metadata are
  // taken from the remote doc but a NEW local seqno is assigned. Returns
  // the new meta, or KeyExists when the local document wins.
  StatusOr<DocMeta> SetWithMeta(const Document& doc) EXCLUDES(mu_);

  // Evicts clean resident values until mem_used <= target_bytes or nothing
  // more can be evicted, dropping the table's reference to each value (the
  // DCP log may still hold its own). Returns bytes reclaimed.
  uint64_t EvictTo(uint64_t target_bytes) EXCLUDES(mu_);

  // Drops every entry and resets the seqno high-water marks and mem_used:
  // the table is as new. Used to roll a vBucket back in place.
  void Clear() EXCLUDES(mu_);

  // Removes expired entries and (policy permitting) tombstones older than
  // `purge_before_seqno`. Returns number purged.
  uint64_t Purge(uint64_t purge_before_seqno) EXCLUDES(mu_);

  // Iterates over all live (non-deleted, non-expired) documents. Values of
  // non-resident entries are delivered empty; `resident` tells the caller.
  void ForEach(const std::function<void(const Document&, bool resident)>& fn)
      const EXCLUDES(mu_);

  // --- Introspection ---
  HashTableStats stats() const EXCLUDES(mu_);
  uint64_t high_seqno() const { return high_seqno_.load(); }
  uint64_t mem_used() const { return mem_used_.load(); }

  // Highest seqno persisted so far (set via MarkClean); used by durability
  // waits (persist_to) and by the storage snapshot logic.
  uint64_t persisted_seqno() const { return persisted_seqno_.load(); }

 private:
  // Transparent hashing: lookups take the caller's string_view, so a key
  // past the small-string buffer costs no allocation to look up.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };
  using Map =
      std::unordered_map<std::string, StoredValue, KeyHash, std::equal_to<>>;

  uint64_t NextCas();
  uint64_t NextSeqno() { return high_seqno_.fetch_add(1) + 1; }
  // The entry helpers receive references into map_, so they require mu_ even
  // though they never touch the map directly.
  bool IsExpired(const StoredValue& sv) const REQUIRES(mu_);
  bool IsLockedNow(const StoredValue& sv) const REQUIRES(mu_);
  void AccountAdd(const std::string& key, const StoredValue& sv)
      REQUIRES(mu_);
  void AccountRemove(const std::string& key, const StoredValue& sv)
      REQUIRES(mu_);
  static size_t EntryFootprint(const std::string& key, const StoredValue& sv);

  // The front-end reads' shared lookup: the live entry for `key`, or
  // map_.end() for an absent, deleted or expired one. With `count` it
  // counts the cache event: an absent or deleted key is a kv.misses, an
  // expired one a kv.expirations and a kv.misses, a live entry a kv.hits
  // when resident and a kv.misses when not.
  Map::iterator FindLive(std::string_view key, bool count) REQUIRES(mu_);
  // Fills a GetResult from a live entry and marks it referenced.
  GetResult MakeGetResult(Map::iterator it) REQUIRES(mu_);

  Clock* clock_;
  EvictionPolicy policy_;

  // Private scope backing a standalone table's counters; null when the
  // counters are shared (bucket-owned).
  std::shared_ptr<stats::Scope> own_scope_;
  CacheCounters c_;

  mutable Mutex mu_{"kv.hash_table", lockdep::kHotPath};
  Map map_ GUARDED_BY(mu_);

  std::atomic<uint64_t> high_seqno_{0};
  std::atomic<uint64_t> persisted_seqno_{0};
  std::atomic<uint64_t> cas_counter_{0};
  std::atomic<uint64_t> mem_used_{0};
};

}  // namespace couchkv::kv

#endif  // COUCHKV_KV_HASH_TABLE_H_
