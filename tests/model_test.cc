// Property-based model tests: long random operation sequences are applied
// both to the real component and to a trivially-correct in-memory model,
// then the observable behaviour is compared. Failure injection (crash =
// drop uncommitted tail; compaction at random points) is interleaved.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/random.h"
#include "kv/hash_table.h"
#include "storage/couch_file.h"

namespace couchkv {
namespace {

// --- Storage engine vs model ----------------------------------------------

struct StorageModelParams {
  uint64_t seed;
  bool posix;  // MemEnv vs posix-like behaviours are identical; vary anyway
};

class StorageModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageModelTest, RandomOpsWithCrashesAndCompaction) {
  Rng rng(GetParam());
  auto env = storage::Env::NewMemEnv();
  auto file = storage::CouchFile::Open(env.get(), "model.couch").value();

  // The model: committed state and the pending (uncommitted) delta.
  std::map<std::string, std::optional<std::string>> committed;  // nullopt=del
  std::map<std::string, std::optional<std::string>> pending;
  uint64_t seqno = 0;

  auto apply_pending = [&] {
    for (auto& [k, v] : pending) committed[k] = v;
    pending.clear();
  };

  for (int step = 0; step < 2000; ++step) {
    int action = static_cast<int>(rng.Uniform(100));
    if (action < 55) {  // write
      std::string key = "k" + std::to_string(rng.Uniform(40));
      std::string value = "v" + std::to_string(rng.Next() % 100000);
      kv::Document doc;
      doc.key = key;
      doc.value = value;
      doc.meta.seqno = ++seqno;
      ASSERT_TRUE(file->SaveDocs({doc}).ok());
      pending[key] = value;
    } else if (action < 70) {  // delete
      std::string key = "k" + std::to_string(rng.Uniform(40));
      kv::Document doc;
      doc.key = key;
      doc.meta.seqno = ++seqno;
      doc.meta.deleted = true;
      ASSERT_TRUE(file->SaveDocs({doc}).ok());
      pending[key] = std::nullopt;
    } else if (action < 85) {  // commit
      ASSERT_TRUE(file->Commit().ok());
      apply_pending();
    } else if (action < 93) {  // crash + recover: uncommitted tail vanishes
      file.reset();
      file = storage::CouchFile::Open(env.get(), "model.couch").value();
      pending.clear();
      // seqno keeps increasing; the model continues from the survivor.
      seqno = std::max(seqno, file->high_seqno());
    } else if (action < 98) {  // compaction preserves committed+pending state
      ASSERT_TRUE(file->Commit().ok());
      apply_pending();
      ASSERT_TRUE(file->Compact().ok());
    } else {  // verify everything
      auto expected_view = committed;
      for (auto& [k, v] : pending) expected_view[k] = v;
      for (auto& [key, expected] : expected_view) {
        auto actual = file->Get(key);
        if (expected.has_value()) {
          ASSERT_TRUE(actual.ok())
              << "step " << step << " key " << key << " missing";
          EXPECT_EQ(actual->value, *expected) << "step " << step;
        } else {
          EXPECT_TRUE(actual.status().IsNotFound())
              << "step " << step << " key " << key << " should be deleted";
        }
      }
    }
  }

  // Final full verification after one more crash/recover cycle.
  ASSERT_TRUE(file->Commit().ok());
  apply_pending();
  file.reset();
  file = storage::CouchFile::Open(env.get(), "model.couch").value();
  size_t live = 0;
  for (auto& [key, expected] : committed) {
    auto actual = file->Get(key);
    if (expected.has_value()) {
      ++live;
      ASSERT_TRUE(actual.ok()) << key;
      EXPECT_EQ(actual->value, *expected);
    } else {
      EXPECT_TRUE(actual.status().IsNotFound()) << key;
    }
  }
  EXPECT_EQ(file->stats().num_live_docs, live);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- HashTable vs model -----------------------------------------------------

class HashTableModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashTableModelTest, RandomOpsMatchModel) {
  Rng rng(GetParam());
  ManualClock clock(1'000'000'000ULL);
  kv::HashTable ht(&clock);

  struct ModelDoc {
    std::string value;
    uint64_t cas;
    uint32_t expiry;
  };
  std::map<std::string, ModelDoc> model;

  auto expire_sweep = [&] {
    for (auto it = model.begin(); it != model.end();) {
      if (it->second.expiry != 0 && clock.NowSeconds() >= it->second.expiry) {
        it = model.erase(it);
      } else {
        ++it;
      }
    }
  };

  for (int step = 0; step < 4000; ++step) {
    std::string key = "k" + std::to_string(rng.Uniform(25));
    int action = static_cast<int>(rng.Uniform(100));
    expire_sweep();
    if (action < 35) {  // unconditional set
      uint32_t expiry = rng.OneIn(8) ? static_cast<uint32_t>(
                                           clock.NowSeconds() + rng.Uniform(5))
                                     : 0;
      std::string value = "v" + std::to_string(step);
      auto m = ht.Store(kv::StoreOp::kSet, key, value, 0, expiry, 0);
      ASSERT_TRUE(m.ok());
      model[key] = ModelDoc{value, m->cas, expiry};
    } else if (action < 50) {  // CAS set (sometimes stale)
      auto it = model.find(key);
      uint64_t cas = it != model.end() && !rng.OneIn(4)
                         ? it->second.cas
                         : rng.Next() | 1;  // usually valid, sometimes junk
      std::string value = "c" + std::to_string(step);
      auto m = ht.Store(kv::StoreOp::kSet, key, value, 0, 0, cas);
      bool model_ok = it != model.end() && cas == it->second.cas;
      EXPECT_EQ(m.ok(), model_ok) << "step " << step;
      if (m.ok()) model[key] = ModelDoc{value, m->cas, 0};
    } else if (action < 62) {  // add
      auto m = ht.Store(kv::StoreOp::kAdd, key, "a", 0, 0, 0);
      EXPECT_EQ(m.ok(), model.count(key) == 0) << "step " << step;
      if (m.ok()) model[key] = ModelDoc{"a", m->cas, 0};
    } else if (action < 72) {  // replace
      auto m = ht.Store(kv::StoreOp::kReplace, key, "r", 0, 0, 0);
      EXPECT_EQ(m.ok(), model.count(key) == 1) << "step " << step;
      if (m.ok()) model[key] = ModelDoc{"r", m->cas, 0};
    } else if (action < 82) {  // remove
      auto m = ht.Store(kv::StoreOp::kDelete, key, {}, 0, 0, 0);
      EXPECT_EQ(m.ok(), model.count(key) == 1) << "step " << step;
      model.erase(key);
    } else if (action < 90) {  // advance time (triggers TTL expiry)
      clock.AdvanceSeconds(rng.Uniform(3));
    } else {  // read + compare
      auto r = ht.Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(r.status().IsNotFound()) << "step " << step;
      } else {
        ASSERT_TRUE(r.ok()) << "step " << step << " key " << key;
        EXPECT_EQ(r->doc.value, it->second.value) << "step " << step;
        EXPECT_EQ(r->doc.meta.cas, it->second.cas) << "step " << step;
      }
    }
  }

  // Final sweep: every model entry matches; expired/removed are gone.
  expire_sweep();
  for (const auto& [key, doc] : model) {
    auto r = ht.Get(key);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_EQ(r->doc.value, doc.value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashTableModelTest,
                         ::testing::Values(7, 11, 17, 23, 29, 41));

}  // namespace
}  // namespace couchkv
