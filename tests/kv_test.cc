// Unit tests for the object-managed cache: CAS semantics, GETL locks, TTL,
// eviction, seqno generation, memory accounting.
#include <array>
#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "kv/hash_table.h"
#include "stats/registry.h"

namespace couchkv::kv {
namespace {

class HashTableTest : public ::testing::Test {
 protected:
  ManualClock clock_{1'000'000'000};  // start at t=1s
  // The table counts cache events into this scope, as a bucket's tables
  // count into the bucket's.
  stats::Scope scope_{"kv_test"};
  const CacheCounters counters_ = CacheCounters::In(&scope_);
  HashTable ht_{&clock_, EvictionPolicy::kValueOnly, &counters_};
};

TEST_F(HashTableTest, GetMissing) {
  EXPECT_TRUE(ht_.Get("nope").status().IsNotFound());
}

TEST_F(HashTableTest, SetThenGet) {
  auto meta = ht_.Store(StoreOp::kSet, "k", "{\"v\":1}", 0, 0, 0);
  ASSERT_TRUE(meta.ok());
  EXPECT_GT(meta->cas, 0u);
  EXPECT_EQ(meta->seqno, 1u);
  EXPECT_EQ(meta->revno, 1u);

  auto r = ht_.Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->doc.value, "{\"v\":1}");
  EXPECT_EQ(r->doc.meta.cas, meta->cas);
  EXPECT_TRUE(r->resident);
}

TEST_F(HashTableTest, SeqnosMonotonic) {
  uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    auto meta =
        ht_.Store(StoreOp::kSet, "k" + std::to_string(i % 7), "v", 0, 0, 0);
    ASSERT_TRUE(meta.ok());
    EXPECT_GT(meta->seqno, prev);
    prev = meta->seqno;
  }
  EXPECT_EQ(ht_.high_seqno(), 100u);
}

TEST_F(HashTableTest, CasMatchSucceeds) {
  auto m1 = ht_.Store(StoreOp::kSet, "k", "v1", 0, 0, 0);
  auto m2 = ht_.Store(StoreOp::kSet, "k", "v2", 0, 0, m1->cas);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(ht_.Get("k")->doc.value, "v2");
  EXPECT_EQ(m2->revno, 2u);
}

TEST_F(HashTableTest, CasMismatchFails) {
  // The paper's optimistic-locking flow (§3.1.1): a concurrent mutation
  // bumps the CAS, so the original client's conditional update fails.
  auto m1 = ht_.Store(StoreOp::kSet, "k", "v1", 0, 0, 0);
  // A concurrent writer.
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "v2", 0, 0, 0).ok());
  auto r = ht_.Store(StoreOp::kSet, "k", "v3", 0, 0, m1->cas);
  EXPECT_TRUE(r.status().IsKeyExists());
  EXPECT_EQ(ht_.Get("k")->doc.value, "v2");
  EXPECT_EQ(scope_.GetCounter("kv.cas_mismatches")->Value(), 1u);
  // Re-read and re-submit with the fresh CAS succeeds.
  auto fresh = ht_.Get("k");
  EXPECT_TRUE(
      ht_.Store(StoreOp::kSet, "k", "v3", 0, 0, fresh->doc.meta.cas).ok());
}

TEST_F(HashTableTest, CasOnMissingKeyIsNotFound) {
  EXPECT_TRUE(
      ht_.Store(StoreOp::kSet, "nope", "v", 0, 0, 12345).status().IsNotFound());
}

TEST_F(HashTableTest, AddOnlyInsertsOnce) {
  EXPECT_TRUE(ht_.Store(StoreOp::kAdd, "k", "v1", 0, 0, 0).ok());
  EXPECT_TRUE(
      ht_.Store(StoreOp::kAdd, "k", "v2", 0, 0, 0).status().IsKeyExists());
}

TEST_F(HashTableTest, AddSucceedsAfterDelete) {
  ASSERT_TRUE(ht_.Store(StoreOp::kAdd, "k", "v1", 0, 0, 0).ok());
  ASSERT_TRUE(ht_.Store(StoreOp::kDelete, "k", {}, 0, 0, 0).ok());
  EXPECT_TRUE(ht_.Store(StoreOp::kAdd, "k", "v2", 0, 0, 0).ok());
}

TEST_F(HashTableTest, ReplaceRequiresExistence) {
  EXPECT_TRUE(
      ht_.Store(StoreOp::kReplace, "k", "v", 0, 0, 0).status().IsNotFound());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "v1", 0, 0, 0).ok());
  EXPECT_TRUE(ht_.Store(StoreOp::kReplace, "k", "v2", 0, 0, 0).ok());
  EXPECT_EQ(ht_.Get("k")->doc.value, "v2");
}

TEST_F(HashTableTest, RemoveLeavesTombstoneWithSeqno) {
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "v", 0, 0, 0).ok());
  auto meta = ht_.Store(StoreOp::kDelete, "k", {}, 0, 0, 0);
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->deleted);
  EXPECT_EQ(meta->seqno, 2u);
  EXPECT_TRUE(ht_.Get("k").status().IsNotFound());
  EXPECT_EQ(ht_.stats().num_tombstones, 1u);
}

TEST_F(HashTableTest, RemoveMissingIsNotFound) {
  EXPECT_TRUE(
      ht_.Store(StoreOp::kDelete, "k", {}, 0, 0, 0).status().IsNotFound());
}

TEST_F(HashTableTest, RemoveWithStaleCasFails) {
  auto m1 = ht_.Store(StoreOp::kSet, "k", "v1", 0, 0, 0);
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "v2", 0, 0, 0).ok());
  EXPECT_TRUE(ht_.Store(StoreOp::kDelete, "k", {}, 0, 0,
                        m1->cas).status().IsKeyExists());
}

// --- GETL hard locks (§3.1.1) ---

TEST_F(HashTableTest, LockBlocksForeignWrites) {
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "v", 0, 0, 0).ok());
  auto locked = ht_.GetAndLock("k", 15000);
  ASSERT_TRUE(locked.ok());
  // A writer without the lock CAS is refused.
  EXPECT_TRUE(
      ht_.Store(StoreOp::kSet, "k", "other", 0, 0, 0).status().IsLocked());
  // The lock holder can write using the returned CAS.
  EXPECT_TRUE(
      ht_.Store(StoreOp::kSet, "k", "mine", 0, 0, locked->doc.meta.cas).ok());
  EXPECT_EQ(ht_.Get("k")->doc.value, "mine");
  // The mutation released the lock.
  EXPECT_TRUE(ht_.Store(StoreOp::kSet, "k", "again", 0, 0, 0).ok());
}

TEST_F(HashTableTest, LockExpiresAfterTimeout) {
  // "This lock will be released after a certain timeout to avoid
  // deadlocks" (§3.1.1).
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "v", 0, 0, 0).ok());
  ASSERT_TRUE(ht_.GetAndLock("k", 15000).ok());
  EXPECT_TRUE(ht_.Store(StoreOp::kSet, "k", "x", 0, 0, 0).status().IsLocked());
  clock_.AdvanceMillis(15001);
  EXPECT_TRUE(ht_.Store(StoreOp::kSet, "k", "x", 0, 0, 0).ok());
}

TEST_F(HashTableTest, DoubleLockRefused) {
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "v", 0, 0, 0).ok());
  ASSERT_TRUE(ht_.GetAndLock("k", 15000).ok());
  EXPECT_TRUE(ht_.GetAndLock("k", 15000).status().IsLocked());
}

TEST_F(HashTableTest, UnlockRequiresLockCas) {
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "v", 0, 0, 0).ok());
  auto locked = ht_.GetAndLock("k", 15000);
  EXPECT_TRUE(ht_.Unlock("k", 1).IsLocked());
  EXPECT_TRUE(ht_.Unlock("k", locked->doc.meta.cas).ok());
  EXPECT_TRUE(ht_.Store(StoreOp::kSet, "k", "x", 0, 0, 0).ok());
}

TEST_F(HashTableTest, LockInvalidatesOldCas) {
  auto m = ht_.Store(StoreOp::kSet, "k", "v", 0, 0, 0);
  ASSERT_TRUE(ht_.GetAndLock("k", 15000).ok());
  // Pre-lock CAS no longer works even after expiry.
  clock_.AdvanceMillis(15001);
  EXPECT_TRUE(
      ht_.Store(StoreOp::kSet, "k", "x", 0, 0, m->cas).status().IsKeyExists());
}

TEST_F(HashTableTest, GetlCountsCacheEventsAsGetDoes) {
  auto count = [&](const char* name) {
    return scope_.GetCounter(name)->Value();
  };
  const uint32_t now = static_cast<uint32_t>(clock_.NowSeconds());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "live", "v", 0, 0, 0).ok());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "gone", "v", 0, 0, 0).ok());
  ASSERT_TRUE(ht_.Store(StoreOp::kDelete, "gone", {}, 0, 0, 0).ok());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "old", "v", 0, now + 10, 0).ok());
  clock_.AdvanceSeconds(11);

  // A resident key is a hit.
  ASSERT_TRUE(ht_.GetAndLock("live", 15000).ok());
  EXPECT_EQ(count("kv.hits"), 1u);
  EXPECT_EQ(count("kv.misses"), 0u);
  // An absent or deleted key is a miss.
  EXPECT_TRUE(ht_.GetAndLock("absent", 15000).status().IsNotFound());
  EXPECT_TRUE(ht_.GetAndLock("gone", 15000).status().IsNotFound());
  EXPECT_EQ(count("kv.misses"), 2u);
  // An expired key is an expiration and a miss.
  EXPECT_TRUE(ht_.GetAndLock("old", 15000).status().IsNotFound());
  EXPECT_EQ(count("kv.expirations"), 1u);
  EXPECT_EQ(count("kv.misses"), 3u);
  EXPECT_EQ(count("kv.hits"), 1u);
}

// --- TTL ---

TEST_F(HashTableTest, ExpiryHidesDocument) {
  uint32_t now = static_cast<uint32_t>(clock_.NowSeconds());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "v", 0, now + 10, 0).ok());
  EXPECT_TRUE(ht_.Get("k").ok());
  clock_.AdvanceSeconds(11);
  EXPECT_TRUE(ht_.Get("k").status().IsNotFound());
}

TEST_F(HashTableTest, TouchExtendsExpiry) {
  uint32_t now = static_cast<uint32_t>(clock_.NowSeconds());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "v", 0, now + 10, 0).ok());
  clock_.AdvanceSeconds(8);
  ASSERT_TRUE(
      ht_.Store(StoreOp::kTouch, "k", {}, 0,
                static_cast<uint32_t>(clock_.NowSeconds()) + 10, 0).ok());
  clock_.AdvanceSeconds(8);
  EXPECT_TRUE(ht_.Get("k").ok());
}

// TOUCH is a mutation like any other: new CAS, revno and seqno, so DCP
// carries it; only the value and flags stay.
TEST_F(HashTableTest, TouchTakesANewCasRevnoAndSeqno) {
  auto set = ht_.Store(StoreOp::kSet, "k", "v", 7, 0, 0);
  ASSERT_TRUE(set.ok());
  auto touched = ht_.Store(StoreOp::kTouch, "k", "ignored", 9, 4000000000u, 0);
  ASSERT_TRUE(touched.ok());
  EXPECT_GT(touched->cas, set->cas);
  EXPECT_EQ(touched->revno, set->revno + 1);
  EXPECT_GT(touched->seqno, set->seqno);
  EXPECT_EQ(touched->expiry, 4000000000u);
  auto r = ht_.Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->doc.value, "v");
  EXPECT_EQ(r->doc.meta.flags, 7u);
  EXPECT_EQ(r->doc.meta.seqno, touched->seqno);
  EXPECT_TRUE(ht_.Store(StoreOp::kTouch, "absent", {}, 0, 1, 0)
                  .status()
                  .IsNotFound());
}

TEST_F(HashTableTest, SetOnExpiredKeyBehavesLikeInsert) {
  uint32_t now = static_cast<uint32_t>(clock_.NowSeconds());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "v", 0, now + 1, 0).ok());
  clock_.AdvanceSeconds(2);
  EXPECT_TRUE(ht_.Store(StoreOp::kAdd, "k", "v2", 0, 0, 0).ok());
}

TEST_F(HashTableTest, PurgeDropsExpiredAndOldTombstones) {
  uint32_t now = static_cast<uint32_t>(clock_.NowSeconds());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "expired", "v", 0, now + 1, 0).ok());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "deleted", "v", 0, 0, 0).ok());
  ASSERT_TRUE(ht_.Store(StoreOp::kDelete, "deleted", {}, 0, 0, 0).ok());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "live", "v", 0, 0, 0).ok());
  // Mark everything clean so purge may discard it.
  ht_.MarkClean("expired", 1);
  ht_.MarkClean("deleted", 3);
  ht_.MarkClean("live", 4);
  clock_.AdvanceSeconds(2);
  uint64_t purged = ht_.Purge(/*purge_before_seqno=*/100);
  EXPECT_EQ(purged, 2u);
  EXPECT_TRUE(ht_.Get("live").ok());
}

// --- Eviction / memory accounting ---

TEST_F(HashTableTest, EvictionKeepsMetadataByDefault) {
  for (int i = 0; i < 50; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(
        ht_.Store(StoreOp::kSet, key, std::string(1000, 'x'), 0, 0, 0).ok());
    ht_.MarkClean(key, static_cast<uint64_t>(i + 1));  // persisted
  }
  uint64_t before = ht_.mem_used();
  uint64_t reclaimed = ht_.EvictTo(0);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(ht_.mem_used(), before);
  auto s = ht_.stats();
  EXPECT_EQ(s.num_items, 50u);          // keys+metadata stay resident
  EXPECT_GT(s.num_non_resident, 0u);
  // A Get on an evicted key reports non-resident (read-through happens at
  // the VBucket layer).
  bool saw_nonresident = false;
  for (int i = 0; i < 50; ++i) {
    auto r = ht_.Get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    if (!r->resident) saw_nonresident = true;
  }
  EXPECT_TRUE(saw_nonresident);
}

TEST_F(HashTableTest, DirtyValuesAreNotEvicted) {
  // Never persisted, so the value is dirty and pinned in memory.
  ASSERT_TRUE(
      ht_.Store(StoreOp::kSet, "dirty", std::string(1000, 'x'), 0, 0, 0).ok());
  ht_.EvictTo(0);
  auto r = ht_.Get("dirty");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->resident);
}

TEST_F(HashTableTest, FullEvictionRemovesEntries) {
  HashTable full(&clock_, EvictionPolicy::kFull);
  for (int i = 0; i < 20; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(
        full.Store(StoreOp::kSet, key, std::string(500, 'y'), 0, 0, 0).ok());
    full.MarkClean(key, static_cast<uint64_t>(i + 1));
  }
  full.EvictTo(0);
  EXPECT_LT(full.stats().num_items, 20u);
}

TEST_F(HashTableTest, RestoreFillsNonResidentValue) {
  ASSERT_TRUE(
      ht_.Store(StoreOp::kSet, "k", std::string(100, 'z'), 0, 0, 0).ok());
  ht_.MarkClean("k", 1);
  ht_.EvictTo(0);
  ht_.EvictTo(0);  // second pass clears reference bits then evicts
  auto r = ht_.Get("k");
  ASSERT_TRUE(r.ok());
  if (!r->resident) {
    Document doc = r->doc;
    doc.value = std::string(100, 'z');
    ht_.Restore(doc);
    auto r2 = ht_.Get("k");
    EXPECT_TRUE(r2->resident);
    EXPECT_EQ(r2->doc.value, std::string(100, 'z'));
  }
}

TEST_F(HashTableTest, MemAccountingReturnsToBaseline) {
  uint64_t base = ht_.mem_used();
  ASSERT_TRUE(
      ht_.Store(StoreOp::kSet, "k", std::string(4096, 'a'), 0, 0, 0).ok());
  EXPECT_GT(ht_.mem_used(), base + 4000);
  ASSERT_TRUE(ht_.Store(StoreOp::kDelete, "k", {}, 0, 0, 0).ok());
  ht_.MarkClean("k", 2);
  ht_.Purge(100);
  EXPECT_EQ(ht_.mem_used(), base);
}

// --- The shared value buffer ---

TEST_F(HashTableTest, EntryKeepsTheMutationsBufferAndGetSharesIt) {
  Blob value(std::string(1000, 'v'));
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", value, 0, 0, 0).ok());
  auto a = ht_.Get("k");
  auto b = ht_.Get("k");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->doc.value.data(), value.data());
  EXPECT_EQ(b->doc.value.data(), value.data());
  EXPECT_EQ(a->doc.value, std::string(1000, 'v'));
}

TEST_F(HashTableTest, EvictionDropsOnlyTheTablesReference) {
  Blob value(std::string(1000, 'e'));  // a second holder, as the DCP log is
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", value, 0, 0, 0).ok());
  ht_.MarkClean("k", 1);
  ht_.EvictTo(0);
  ht_.EvictTo(0);  // second pass clears reference bits then evicts
  auto r = ht_.Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->resident);
  EXPECT_TRUE(r->doc.value.empty());
  EXPECT_EQ(value, std::string(1000, 'e'));
}

TEST_F(HashTableTest, ClearResetsEntriesSeqnosAndMemory) {
  ASSERT_TRUE(
      ht_.Store(StoreOp::kSet, "a", std::string(100, 'a'), 0, 0, 0).ok());
  ASSERT_TRUE(
      ht_.Store(StoreOp::kSet, "b", std::string(100, 'b'), 0, 0, 0).ok());
  ht_.MarkClean("b", 2);
  ht_.Clear();
  EXPECT_TRUE(ht_.Get("a").status().IsNotFound());
  EXPECT_EQ(ht_.high_seqno(), 0u);
  EXPECT_EQ(ht_.persisted_seqno(), 0u);
  EXPECT_EQ(ht_.mem_used(), 0u);
  auto meta = ht_.Store(StoreOp::kSet, "a", "again", 0, 0, 0);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->seqno, 1u);
}

// --- Replication-side operations ---

TEST_F(HashTableTest, ApplyRemotePreservesMetadata) {
  Document doc;
  doc.key = "r";
  doc.value = "vvv";
  doc.meta.cas = 777;
  doc.meta.revno = 3;
  doc.meta.seqno = 42;
  ht_.ApplyRemote(doc);
  auto r = ht_.Get("r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->doc.meta.cas, 777u);
  EXPECT_EQ(r->doc.meta.revno, 3u);
  EXPECT_EQ(ht_.high_seqno(), 42u);
}

TEST_F(HashTableTest, MarkCleanAdvancesPersistedSeqno) {
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "a", "1", 0, 0, 0).ok());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "b", "2", 0, 0, 0).ok());
  EXPECT_EQ(ht_.persisted_seqno(), 0u);
  ht_.MarkClean("a", 1);
  EXPECT_EQ(ht_.persisted_seqno(), 1u);
  ht_.MarkClean("b", 2);
  EXPECT_EQ(ht_.persisted_seqno(), 2u);
}

TEST_F(HashTableTest, ForEachSkipsTombstonesAndExpired) {
  uint32_t now = static_cast<uint32_t>(clock_.NowSeconds());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "live", "v", 0, 0, 0).ok());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "dead", "v", 0, 0, 0).ok());
  ASSERT_TRUE(ht_.Store(StoreOp::kDelete, "dead", {}, 0, 0, 0).ok());
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "exp", "v", 0, now + 1, 0).ok());
  clock_.AdvanceSeconds(2);
  int count = 0;
  ht_.ForEach([&](const Document& doc, bool) {
    EXPECT_EQ(doc.key, "live");
    ++count;
  });
  EXPECT_EQ(count, 1);
}

// --- Concurrency (ctest label: kv) ---
//
// The hash table is the innermost shared structure in the data path; these
// tests hammer it from real threads so the TSan/ASan CI jobs exercise the
// lock discipline the annotations promise.

TEST_F(HashTableTest, GetlContentionSingleHolder) {
  // N threads race GETL on one key. The lock is a hard mutual exclusion:
  // at most one holder at a time, everyone else sees IsLocked (§3.1.1).
  ASSERT_TRUE(ht_.Store(StoreOp::kSet, "k", "0", 0, 0, 0).ok());
  constexpr int kThreads = 8;
  constexpr int kAcquisitionsPerThread = 50;

  std::atomic<int> holders{0};
  std::atomic<int> total_acquired{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      int acquired = 0;
      while (acquired < kAcquisitionsPerThread) {
        auto locked = ht_.GetAndLock("k", 15000);
        if (!locked.ok()) {
          // The only acceptable contention outcome is "someone else holds
          // the lock"; anything else is a bug.
          if (!locked.status().IsLocked()) violation.store(true);
          std::this_thread::yield();
          continue;
        }
        if (holders.fetch_add(1) != 0) violation.store(true);
        // Critical section: mutate with the lock CAS (which releases) or
        // plain Unlock, alternating to cover both release paths.
        holders.fetch_sub(1);
        if (acquired % 2 == 0) {
          auto w = ht_.Store(StoreOp::kSet, "k", std::to_string(t), 0, 0,
                             locked->doc.meta.cas);
          if (!w.ok()) violation.store(true);
        } else {
          if (!ht_.Unlock("k", locked->doc.meta.cas).ok()) {
            violation.store(true);
          }
        }
        ++acquired;
        total_acquired.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(violation.load());
  EXPECT_EQ(total_acquired.load(), kThreads * kAcquisitionsPerThread);
  // All locks were released, so an outsider can lock and write again.
  auto final_lock = ht_.GetAndLock("k", 15000);
  ASSERT_TRUE(final_lock.ok());
  EXPECT_TRUE(ht_.Store(StoreOp::kSet, "k", "done", 0, 0,
                        final_lock->doc.meta.cas).ok());
  EXPECT_EQ(ht_.Get("k")->doc.value, "done");
}

TEST_F(HashTableTest, CasUnderConcurrentEviction) {
  // Optimistic writers (read-CAS-write loops) race a flusher/pager thread
  // that persists values to a shadow "disk" map and then evicts them.
  // Writers restore evicted values read-through style. Every CAS failure
  // must be one of the defined outcomes, every successful CAS must count
  // exactly once, and a restore must never resurrect a stale value
  // (Restore is seqno-checked, so a racing mutation wins).
  constexpr int kWriters = 4;
  constexpr int kIncrementsPerWriter = 50;
  constexpr int kKeys = 4;
  auto key_name = [](int k) { return "k" + std::to_string(k); };
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(ht_.Store(StoreOp::kSet, key_name(k), "0", 0, 0, 0).ok());
  }

  // Shadow of what the flusher has persisted, keyed by document key. The
  // per-doc seqno decides whether a disk copy may be restored.
  std::mutex disk_mu;
  std::map<std::string, Document> disk;

  std::atomic<bool> stop_pager{false};
  std::atomic<bool> violation{false};

  std::thread pager([&] {
    while (!stop_pager.load()) {
      for (int k = 0; k < kKeys; ++k) {
        auto r = ht_.Get(key_name(k));
        if (!r.ok() || !r->resident) continue;
        // Persist-then-clean, as the real flusher does. MarkClean no-ops
        // if a writer raced past this seqno, so only values that made it
        // to "disk" ever become evictable.
        {
          std::lock_guard<std::mutex> lock(disk_mu);
          disk[r->doc.key] = r->doc;
        }
        ht_.MarkClean(r->doc.key, r->doc.meta.seqno);
      }
      ht_.EvictTo(0);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  std::array<std::atomic<int>, kKeys> per_key_increments{};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      int done = 0;
      while (done < kIncrementsPerWriter) {
        int ki = (w + done) % kKeys;
        std::string key = key_name(ki);
        auto r = ht_.Get(key);
        if (!r.ok()) {
          violation.store(true);
          break;
        }
        if (!r->resident) {
          // Read-through: page the persisted copy back in. The seqno guard
          // (ours and Restore's own) rejects stale disk copies.
          std::lock_guard<std::mutex> lock(disk_mu);
          auto it = disk.find(key);
          if (it != disk.end() &&
              it->second.meta.seqno == r->doc.meta.seqno) {
            ht_.Restore(it->second);
          }
          continue;
        }
        int cur = std::stoi(std::string(r->doc.value));
        auto s = ht_.Store(StoreOp::kSet, key, std::to_string(cur + 1), 0, 0,
                           r->doc.meta.cas);
        if (s.ok()) {
          per_key_increments[ki].fetch_add(1);
          ++done;
        } else if (!s.status().IsKeyExists() && !s.status().IsLocked() &&
                   !s.status().IsNotFound()) {
          violation.store(true);
          break;
        }
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : writers) th.join();
  stop_pager.store(true);
  pager.join();

  EXPECT_FALSE(violation.load());
  // Each key's final value equals the number of CAS successes on it: no
  // lost updates, no double counting, even with eviction racing the reads.
  for (int k = 0; k < kKeys; ++k) {
    std::string key = key_name(k);
    auto r = ht_.Get(key);
    ASSERT_TRUE(r.ok()) << key;
    if (!r->resident) {
      // Evicted at the finish line: the persisted copy is the truth.
      std::lock_guard<std::mutex> lock(disk_mu);
      ASSERT_TRUE(disk.count(key)) << key;
      ASSERT_EQ(disk[key].meta.seqno, r->doc.meta.seqno) << key;
      ht_.Restore(disk[key]);
      r = ht_.Get(key);
      ASSERT_TRUE(r.ok() && r->resident) << key;
    }
    EXPECT_EQ(std::stoi(std::string(r->doc.value)),
              per_key_increments[k].load())
        << key;
  }
}

}  // namespace
}  // namespace couchkv::kv
