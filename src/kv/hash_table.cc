#include "kv/hash_table.h"

namespace couchkv::kv {

CacheCounters CacheCounters::In(stats::Scope* scope) {
  CacheCounters c;
  c.hits = scope->GetCounter("kv.hits");
  c.misses = scope->GetCounter("kv.misses");
  c.evictions = scope->GetCounter("kv.evictions");
  c.expirations = scope->GetCounter("kv.expirations");
  c.cas_mismatches = scope->GetCounter("kv.cas_mismatches");
  c.lock_conflicts = scope->GetCounter("kv.lock_conflicts");
  c.lock_timeouts = scope->GetCounter("kv.lock_timeouts");
  return c;
}

HashTable::HashTable(Clock* clock, EvictionPolicy policy,
                     const CacheCounters* counters)
    : clock_(clock), policy_(policy) {
  if (counters != nullptr) {
    c_ = *counters;
  } else {
    own_scope_ = std::make_shared<stats::Scope>("");
    c_ = CacheCounters::In(own_scope_.get());
  }
}

uint64_t HashTable::NextCas() {
  // CAS tokens must be unique and monotonically increasing per node; a
  // counter is sufficient (real Couchbase uses an HLC, which this mimics).
  return cas_counter_.fetch_add(1) + 1;
}

bool HashTable::IsExpired(const StoredValue& sv) const {
  return sv.meta.expiry != 0 && clock_->NowSeconds() >= sv.meta.expiry;
}

bool HashTable::IsLockedNow(const StoredValue& sv) const {
  return sv.locked_until_ns != 0 && clock_->NowNanos() < sv.locked_until_ns;
}

size_t HashTable::EntryFootprint(const std::string& key,
                                 const StoredValue& sv) {
  // The fixed part is what an entry cost when StoredValue held its value
  // inline (an 88-byte StoredValue plus 64 bytes of map node). It stays
  // pinned so a quota evicts at the same point with the shared buffer.
  constexpr size_t kEntryOverhead = 152;
  return key.capacity() + sv.value.capacity() + kEntryOverhead;
}

void HashTable::AccountAdd(const std::string& key, const StoredValue& sv) {
  mem_used_.fetch_add(EntryFootprint(key, sv));
}

void HashTable::AccountRemove(const std::string& key, const StoredValue& sv) {
  mem_used_.fetch_sub(EntryFootprint(key, sv));
}

GetResult HashTable::MakeGetResult(Map::iterator it) {
  StoredValue& sv = it->second;
  sv.referenced = true;
  GetResult r;
  r.doc.key = it->first;
  r.doc.meta = sv.meta;
  r.doc.value = sv.value;
  r.resident = sv.resident;
  return r;
}

HashTable::Map::iterator HashTable::FindLive(std::string_view key,
                                             bool count) {
  auto it = map_.find(key);
  if (it == map_.end() || it->second.meta.deleted) {
    if (count) c_.misses->Add();
    return map_.end();
  }
  if (IsExpired(it->second)) {
    if (count) {
      c_.expirations->Add();
      c_.misses->Add();
    }
    return map_.end();
  }
  // A non-resident entry is a cache miss in the paper's sense: metadata is
  // here but the value must be read back from disk.
  if (count) (it->second.resident ? c_.hits : c_.misses)->Add();
  return it;
}

StatusOr<GetResult> HashTable::Get(std::string_view key, bool count) {
  LockGuard lock(mu_);
  auto it = FindLive(key, count);
  if (it == map_.end()) return Status::NotFound();
  return MakeGetResult(it);
}

StatusOr<DocMeta> HashTable::Store(StoreOp op, std::string_view key,
                                   Blob value, uint32_t flags,
                                   uint32_t expiry, uint64_t cas) {
  LockGuard lock(mu_);
  auto it = map_.find(key);
  bool live = it != map_.end() && !it->second.meta.deleted &&
              !IsExpired(it->second);

  if (op == StoreOp::kAdd && live) {
    return Status::KeyExists("key already exists");
  }
  if (!live && (op == StoreOp::kReplace || op == StoreOp::kDelete ||
                op == StoreOp::kTouch)) {
    return Status::NotFound();
  }

  if (live) {
    StoredValue& sv = it->second;
    if (IsLockedNow(sv)) {
      // A locked document can only be mutated by presenting the lock CAS.
      if (cas != sv.meta.cas) {
        c_.lock_conflicts->Add();
        return Status::Locked();
      }
    } else {
      if (sv.locked_until_ns != 0) {
        // The GETL lock expired before the holder came back (§3.1.1's
        // auto-release); this mutation proceeds past it.
        c_.lock_timeouts->Add();
      }
      if (cas != 0 && cas != sv.meta.cas) {
        c_.cas_mismatches->Add();
        return Status::KeyExists("CAS mismatch");
      }
    }
  } else if (cas != 0) {
    // CAS given for a non-existent document.
    return Status::NotFound();
  }

  DocMeta meta;
  if (it != map_.end()) meta = it->second.meta;
  meta.cas = NextCas();
  meta.revno += 1;
  meta.seqno = NextSeqno();
  meta.expiry = expiry;
  meta.deleted = op == StoreOp::kDelete;

  StoredValue sv;
  if (op == StoreOp::kTouch) {
    sv.value = it->second.value;  // TOUCH keeps the value and flags
    sv.resident = it->second.resident;
  } else {
    meta.flags = flags;
    if (op != StoreOp::kDelete) sv.value = std::move(value);
  }
  sv.meta = meta;
  sv.dirty = true;
  sv.referenced = true;
  sv.locked_until_ns = 0;  // mutation releases any lock

  if (it != map_.end()) {
    AccountRemove(it->first, it->second);
    it->second = std::move(sv);
    AccountAdd(it->first, it->second);
  } else {
    auto [pos, inserted] = map_.emplace(std::string(key), std::move(sv));
    (void)inserted;
    AccountAdd(pos->first, pos->second);
  }
  return meta;
}

StatusOr<GetResult> HashTable::GetAndLock(std::string_view key,
                                          uint64_t lock_ms, bool count) {
  LockGuard lock(mu_);
  auto it = FindLive(key, count);
  if (it == map_.end()) return Status::NotFound();
  StoredValue& sv = it->second;
  if (IsLockedNow(sv)) {
    c_.lock_conflicts->Add();
    return Status::Locked();
  }
  if (!sv.resident) return MakeGetResult(it);  // read back first, then lock
  // Locking changes the CAS so that pre-lock CAS holders cannot mutate.
  sv.meta.cas = NextCas();
  sv.locked_until_ns = clock_->NowNanos() + lock_ms * 1000000ULL;
  return MakeGetResult(it);
}

Status HashTable::Unlock(std::string_view key, uint64_t cas) {
  LockGuard lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || it->second.meta.deleted) return Status::NotFound();
  StoredValue& sv = it->second;
  if (!IsLockedNow(sv)) return Status::TempFail("not locked");
  if (cas != sv.meta.cas) return Status::Locked("wrong unlock CAS");
  sv.locked_until_ns = 0;
  return Status::OK();
}

void HashTable::Restore(const Document& doc) {
  LockGuard lock(mu_);
  auto it = map_.find(doc.key);
  if (it != map_.end()) {
    StoredValue& sv = it->second;
    // Only fill in a non-resident value; never clobber a newer mutation.
    if (!sv.resident && sv.meta.seqno == doc.meta.seqno) {
      AccountRemove(it->first, sv);
      sv.value = doc.value;
      sv.resident = true;
      AccountAdd(it->first, sv);
    }
    return;
  }
  StoredValue sv;
  sv.meta = doc.meta;
  sv.value = doc.value;
  sv.resident = true;
  sv.dirty = false;
  auto [pos, inserted] = map_.emplace(doc.key, std::move(sv));
  (void)inserted;
  AccountAdd(pos->first, pos->second);
  // Warmup must also restore the seqno high-water marks.
  uint64_t seqno = doc.meta.seqno;
  uint64_t cur = high_seqno_.load();
  while (seqno > cur && !high_seqno_.compare_exchange_weak(cur, seqno)) {
  }
  uint64_t pers = persisted_seqno_.load();
  while (seqno > pers && !persisted_seqno_.compare_exchange_weak(pers, seqno)) {
  }
}

void HashTable::MarkClean(std::string_view key, uint64_t seqno) {
  LockGuard lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end() && it->second.meta.seqno == seqno) {
    it->second.dirty = false;
  }
  uint64_t cur = persisted_seqno_.load();
  while (seqno > cur && !persisted_seqno_.compare_exchange_weak(cur, seqno)) {
  }
}

StatusOr<DocMeta> HashTable::SetWithMeta(const Document& doc) {
  LockGuard lock(mu_);
  auto it = map_.find(doc.key);
  if (it != map_.end()) {
    const DocMeta& local = it->second.meta;
    // "the document with the most updates is considered the winner. If both
    // clusters have the same number of updates ... additional metadata
    // fields are used to pick the winner" (§4.6.1).
    bool remote_wins = doc.meta.revno > local.revno ||
                       (doc.meta.revno == local.revno &&
                        doc.meta.cas > local.cas);
    if (!remote_wins) {
      return Status::KeyExists("local document wins conflict resolution");
    }
  }
  StoredValue sv;
  sv.meta = doc.meta;
  sv.meta.seqno = NextSeqno();  // new local seqno; conflict meta preserved
  sv.value = doc.value;
  sv.dirty = true;
  if (it != map_.end()) {
    AccountRemove(it->first, it->second);
    it->second = std::move(sv);
    AccountAdd(it->first, it->second);
    return it->second.meta;
  }
  auto [pos, inserted] = map_.emplace(doc.key, std::move(sv));
  (void)inserted;
  AccountAdd(pos->first, pos->second);
  return pos->second.meta;
}

void HashTable::ApplyRemote(const Document& doc) {
  LockGuard lock(mu_);
  auto it = map_.find(doc.key);
  if (it != map_.end()) {
    AccountRemove(it->first, it->second);
    StoredValue& sv = it->second;
    sv.meta = doc.meta;
    sv.value = doc.value;
    sv.resident = true;
    sv.dirty = true;
    sv.locked_until_ns = 0;
    AccountAdd(it->first, sv);
  } else {
    StoredValue sv;
    sv.meta = doc.meta;
    sv.value = doc.value;
    sv.dirty = true;
    auto [pos, inserted] = map_.emplace(doc.key, std::move(sv));
    (void)inserted;
    AccountAdd(pos->first, pos->second);
  }
  uint64_t seqno = doc.meta.seqno;
  uint64_t cur = high_seqno_.load();
  while (seqno > cur && !high_seqno_.compare_exchange_weak(cur, seqno)) {
  }
}

uint64_t HashTable::EvictTo(uint64_t target_bytes) {
  LockGuard lock(mu_);
  uint64_t reclaimed = 0;
  // Two NRU passes: first evict unreferenced clean values, then clear
  // reference bits so a subsequent pass can make progress.
  for (int pass = 0; pass < 2 && mem_used_.load() > target_bytes; ++pass) {
    for (auto it = map_.begin();
         it != map_.end() && mem_used_.load() > target_bytes;) {
      StoredValue& sv = it->second;
      bool evictable = sv.resident && !sv.dirty && !sv.meta.deleted &&
                       !IsLockedNow(sv) && !sv.value.empty();
      if (evictable && (!sv.referenced || pass == 1)) {
        size_t before = EntryFootprint(it->first, sv);
        if (policy_ == EvictionPolicy::kFull) {
          mem_used_.fetch_sub(before);
          reclaimed += before;
          it = map_.erase(it);
          c_.evictions->Add();
          continue;
        }
        sv.value = Blob();
        sv.resident = false;
        size_t after = EntryFootprint(it->first, sv);
        mem_used_.fetch_sub(before - after);
        reclaimed += before - after;
        c_.evictions->Add();
      } else {
        sv.referenced = false;
      }
      ++it;
    }
  }
  return reclaimed;
}

void HashTable::Clear() {
  LockGuard lock(mu_);
  map_.clear();
  high_seqno_.store(0);
  persisted_seqno_.store(0);
  mem_used_.store(0);
}

uint64_t HashTable::Purge(uint64_t purge_before_seqno) {
  LockGuard lock(mu_);
  uint64_t purged = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    StoredValue& sv = it->second;
    bool is_dead_tombstone = sv.meta.deleted && !sv.dirty &&
                             sv.meta.seqno < purge_before_seqno;
    bool expired = IsExpired(sv) && !sv.dirty;
    if (is_dead_tombstone || expired) {
      AccountRemove(it->first, sv);
      it = map_.erase(it);
      ++purged;
      if (expired) c_.expirations->Add();
    } else {
      ++it;
    }
  }
  return purged;
}

void HashTable::ForEach(
    const std::function<void(const Document&, bool resident)>& fn) const {
  LockGuard lock(mu_);
  for (const auto& [key, sv] : map_) {
    if (sv.meta.deleted || IsExpired(sv)) continue;
    Document doc;
    doc.key = key;
    doc.meta = sv.meta;
    doc.value = sv.value;
    fn(doc, sv.resident);
  }
}

HashTableStats HashTable::stats() const {
  LockGuard lock(mu_);
  HashTableStats s;
  for (const auto& [key, sv] : map_) {
    (void)key;
    if (sv.meta.deleted) {
      ++s.num_tombstones;
      continue;
    }
    ++s.num_items;
    if (!sv.resident) ++s.num_non_resident;
  }
  return s;
}

}  // namespace couchkv::kv
