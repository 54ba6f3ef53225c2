// Unit tests for the append-only storage engine: persistence, crash
// recovery (torn tails), compaction, fragmentation, and both Env backends.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "stats/registry.h"
#include "storage/couch_file.h"
#include "storage/env.h"
#include "storage/faulty_env.h"

namespace couchkv::storage {
namespace {

using namespace std::string_view_literals;

kv::Document MakeDoc(const std::string& key, const std::string& value,
                     uint64_t seqno, bool deleted = false) {
  kv::Document doc;
  doc.key = key;
  doc.value = value;
  doc.meta.seqno = seqno;
  doc.meta.cas = seqno * 10;
  doc.meta.revno = 1;
  doc.meta.deleted = deleted;
  return doc;
}

class CouchFileTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      dir_ = ::testing::TempDir() + "/couchkv_storage_test";
      std::filesystem::create_directories(dir_);
      env_owned_.reset();
      env_ = Env::Posix();
      // Unique path per test case: parallel ctest runs must not collide.
      // Parameterized test names contain '/', which is not path-safe.
      const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
      std::string name = info->name();
      for (char& c : name) {
        if (c == '/') c = '_';
      }
      path_ = dir_ + "/" + name + ".couch";
      // justified: best-effort cleanup of a prior run's files; NotFound is fine.
      (void)env_->Remove(path_);
      (void)env_->Remove(path_ + ".compact");  // justified: see above.
    } else {
      env_owned_ = Env::NewMemEnv();
      env_ = env_owned_.get();
      path_ = "vb0.couch";
    }
  }

  std::unique_ptr<Env> env_owned_;
  Env* env_ = nullptr;
  std::string dir_;
  std::string path_;
};

INSTANTIATE_TEST_SUITE_P(Backends, CouchFileTest, ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Posix" : "Mem";
                         });

TEST_P(CouchFileTest, SaveCommitGet) {
  auto cf = CouchFile::Open(env_, path_).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v1", 1), MakeDoc("b", "v2", 2)}).ok());
  ASSERT_TRUE(cf->Commit().ok());
  auto doc = cf->Get("a");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->value, "v1");
  EXPECT_EQ(doc->meta.seqno, 1u);
  EXPECT_TRUE(cf->Get("zzz").status().IsNotFound());
  EXPECT_EQ(cf->high_seqno(), 2u);
}

TEST_P(CouchFileTest, UpdatesSupersede) {
  auto cf = CouchFile::Open(env_, path_).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v1", 1)}).ok());
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v2", 2)}).ok());
  ASSERT_TRUE(cf->Commit().ok());
  EXPECT_EQ(cf->Get("a")->value, "v2");
  EXPECT_EQ(cf->stats().num_live_docs, 1u);
}

TEST_P(CouchFileTest, DeleteLeavesTombstone) {
  auto cf = CouchFile::Open(env_, path_).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v1", 1)}).ok());
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "", 2, /*deleted=*/true)}).ok());
  ASSERT_TRUE(cf->Commit().ok());
  EXPECT_TRUE(cf->Get("a").status().IsNotFound());
  EXPECT_EQ(cf->stats().num_tombstones, 1u);
}

TEST_P(CouchFileTest, ReopenRecoversCommittedState) {
  {
    auto cf = CouchFile::Open(env_, path_).value();
    ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v1", 1), MakeDoc("b", "v2", 2)}).ok());
    ASSERT_TRUE(cf->Commit().ok());
    ASSERT_TRUE(cf->SaveDocs({MakeDoc("c", "v3", 3)}).ok());
    // No commit for c: it must vanish on reopen (crash semantics).
  }
  auto cf = CouchFile::Open(env_, path_).value();
  EXPECT_EQ(cf->Get("a")->value, "v1");
  EXPECT_EQ(cf->Get("b")->value, "v2");
  EXPECT_TRUE(cf->Get("c").status().IsNotFound());
  EXPECT_EQ(cf->high_seqno(), 2u);
}

TEST_P(CouchFileTest, RecoveryTruncatesTornTail) {
  {
    auto cf = CouchFile::Open(env_, path_).value();
    ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v1", 1)}).ok());
    ASSERT_TRUE(cf->Commit().ok());
  }
  // Simulate a torn write: append garbage bytes.
  {
    auto f = env_->Open(path_).value();
    ASSERT_TRUE(f->Append("GARBAGE-PARTIAL-RECORD").ok());
  }
  auto cf = CouchFile::Open(env_, path_).value();
  EXPECT_EQ(cf->Get("a")->value, "v1");
  // Further writes after recovery work.
  EXPECT_TRUE(cf->SaveDocs({MakeDoc("b", "v2", 2)}).ok());
  EXPECT_TRUE(cf->Commit().ok());
  EXPECT_EQ(cf->Get("b")->value, "v2");
}

TEST_P(CouchFileTest, ChangesSinceStreamsInSeqnoOrder) {
  auto cf = CouchFile::Open(env_, path_).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "1", 1), MakeDoc("b", "2", 2),
                MakeDoc("c", "3", 3), MakeDoc("a", "4", 4)}).ok());
  ASSERT_TRUE(cf->Commit().ok());
  std::vector<uint64_t> seqnos;
  ASSERT_TRUE(cf->ChangesSince(1, [&](const kv::Document& d) {
                  seqnos.push_back(d.meta.seqno);
                  return Status::OK();
                }).ok());
  // seqno 1 was superseded by 4 (same key); only latest versions stream.
  EXPECT_EQ(seqnos, (std::vector<uint64_t>{2, 3, 4}));
}

TEST_P(CouchFileTest, CompactionShrinksFile) {
  auto cf = CouchFile::Open(env_, path_).value();
  std::string big(512, 'x');
  for (uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(cf->SaveDocs({MakeDoc("hot", big + std::to_string(i), i)}).ok());
  }
  ASSERT_TRUE(cf->Commit().ok());
  double frag_before = cf->Fragmentation();
  uint64_t size_before = cf->stats().file_size;
  EXPECT_GT(frag_before, 0.9);
  ASSERT_TRUE(cf->Compact().ok());
  EXPECT_LT(cf->stats().file_size, size_before / 10);
  EXPECT_LT(cf->Fragmentation(), 0.1);
  // Data survives compaction.
  EXPECT_EQ(cf->Get("hot")->value, big + "100");
  EXPECT_EQ(cf->high_seqno(), 100u);
}

TEST_P(CouchFileTest, CompactionPurgesOldTombstones) {
  auto cf = CouchFile::Open(env_, path_).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v", 1)}).ok());
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "", 2, true)}).ok());
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("b", "v", 3)}).ok());
  ASSERT_TRUE(cf->Commit().ok());
  ASSERT_TRUE(cf->Compact(/*purge_before_seqno=*/3).ok());
  EXPECT_EQ(cf->stats().num_tombstones, 0u);
  EXPECT_EQ(cf->stats().num_live_docs, 1u);
}

TEST_P(CouchFileTest, ReopenAfterCompaction) {
  {
    auto cf = CouchFile::Open(env_, path_).value();
    for (uint64_t i = 1; i <= 10; ++i) {
      ASSERT_TRUE(cf->SaveDocs({MakeDoc("k" + std::to_string(i), "v", i)}).ok());
    }
    ASSERT_TRUE(cf->Commit().ok());
    ASSERT_TRUE(cf->Compact().ok());
  }
  auto cf = CouchFile::Open(env_, path_).value();
  EXPECT_EQ(cf->stats().num_live_docs, 10u);
  EXPECT_EQ(cf->Get("k7")->value, "v");
}

TEST_P(CouchFileTest, ForEachLiveVisitsAllLiveDocs) {
  auto cf = CouchFile::Open(env_, path_).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "1", 1), MakeDoc("b", "2", 2),
                MakeDoc("b", "", 3, true)}).ok());
  ASSERT_TRUE(cf->Commit().ok());
  int count = 0;
  ASSERT_TRUE(cf->ForEachLive([&](const kv::Document& d) {
                  EXPECT_EQ(d.key, "a");
                  ++count;
                  return Status::OK();
                }).ok());
  EXPECT_EQ(count, 1);
}

TEST_P(CouchFileTest, EmptyFileHasNoFragmentation) {
  auto cf = CouchFile::Open(env_, path_).value();
  EXPECT_DOUBLE_EQ(cf->Fragmentation(), 0.0);
  EXPECT_EQ(cf->high_seqno(), 0u);
}

TEST_P(CouchFileTest, LargeValuesRoundTrip) {
  auto cf = CouchFile::Open(env_, path_).value();
  std::string huge(1 << 20, 'q');
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("big", huge, 1)}).ok());
  ASSERT_TRUE(cf->Commit().ok());
  EXPECT_EQ(cf->Get("big")->value, huge);
}

// The on-disk record format, byte for byte: a doc record, a tombstone and
// commit records as existing files hold them. A change here means files
// already on disk no longer recover.
constexpr std::string_view kGoldenDoc =
    "\x01\x37\x00\x00\x00\x95\x3d\x6d\x4a\x07\x00\x00"
    "\x00\x75\x73\x65\x72\x3a\x3a\x31\x88\x77\x66\x55"
    "\x44\x33\x22\x11\x03\x00\x00\x00\x00\x00\x00\x00"
    "\x2a\x00\x00\x00\x00\x00\x00\x00\xef\xbe\xad\xde"
    "\x07\x00\x00\x00\x00\x07\x00\x00\x00\x7b\x22\x61"
    "\x22\x3a\x31\x7d"sv;
constexpr std::string_view kGoldenTombstone =
    "\x01\x2d\x00\x00\x00\xed\x28\x5f\x9e\x04\x00\x00"
    "\x00\x67\x6f\x6e\x65\x09\x00\x00\x00\x00\x00\x00"
    "\x00\x02\x00\x00\x00\x00\x00\x00\x00\x2b\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x01\x00\x00\x00\x00"sv;
// Commit record: high seqno 43, live bytes 118 (both records above).
constexpr std::string_view kGoldenCommit =
    "\x02\x10\x00\x00\x00\x7c\x5b\x32\xd4\x2b\x00\x00"
    "\x00\x00\x00\x00\x00\x76\x00\x00\x00\x00\x00\x00"
    "\x00"sv;
// Commit record written by Compact(44): high seqno 43, live bytes 64 (the
// tombstone is purged).
constexpr std::string_view kGoldenCompactedCommit =
    "\x02\x10\x00\x00\x00\x72\x4f\x21\xee\x2b\x00\x00"
    "\x00\x00\x00\x00\x00\x40\x00\x00\x00\x00\x00\x00"
    "\x00"sv;

kv::Document GoldenDoc() {
  kv::Document d;
  d.key = "user::1";
  d.value = std::string(R"({"a":1})");
  d.meta.cas = 0x1122334455667788ull;
  d.meta.revno = 3;
  d.meta.seqno = 42;
  d.meta.flags = 0xDEADBEEF;
  d.meta.expiry = 7;
  return d;
}

kv::Document GoldenTombstone() {
  kv::Document t;
  t.key = "gone";
  t.meta.cas = 9;
  t.meta.revno = 2;
  t.meta.seqno = 43;
  t.meta.deleted = true;
  return t;
}

std::string ReadWholeFile(Env* env, const std::string& path) {
  auto f = env->Open(path).value();
  std::string all;
  EXPECT_TRUE(f->Read(0, f->Size(), &all).ok());
  return all;
}

// Replaces the file's contents through a second handle (same size, so the
// open CouchFile's handle keeps a valid size).
void OverwriteFile(Env* env, const std::string& path,
                   const std::string& contents) {
  auto f = env->Open(path).value();
  ASSERT_TRUE(f->Truncate(0).ok());
  ASSERT_TRUE(f->Append(contents).ok());
}

TEST_P(CouchFileTest, RecordBytesMatchGolden) {
  auto cf = CouchFile::Open(env_, path_).value();
  ASSERT_TRUE(cf->SaveDocs({GoldenDoc(), GoldenTombstone()}).ok());
  ASSERT_TRUE(cf->Commit().ok());
  EXPECT_EQ(ReadWholeFile(env_, path_),
            std::string(kGoldenDoc) + std::string(kGoldenTombstone) +
                std::string(kGoldenCommit));

  ASSERT_TRUE(cf->Compact(/*purge_before_seqno=*/44).ok());
  EXPECT_EQ(ReadWholeFile(env_, path_),
            std::string(kGoldenDoc) + std::string(kGoldenCompactedCommit));
}

TEST_P(CouchFileTest, GoldenFileRecovers) {
  {
    auto f = env_->Open(path_).value();
    ASSERT_TRUE(f->Append(std::string(kGoldenDoc) +
                          std::string(kGoldenTombstone) +
                          std::string(kGoldenCommit))
                    .ok());
  }
  auto cf = CouchFile::Open(env_, path_).value();
  EXPECT_EQ(cf->high_seqno(), 43u);
  EXPECT_TRUE(cf->Get("gone").status().IsNotFound());
  auto doc = cf->Get("user::1");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const kv::Document want = GoldenDoc();
  EXPECT_EQ(doc->value, want.value.view());
  EXPECT_EQ(doc->meta.cas, want.meta.cas);
  EXPECT_EQ(doc->meta.revno, want.meta.revno);
  EXPECT_EQ(doc->meta.seqno, want.meta.seqno);
  EXPECT_EQ(doc->meta.flags, want.meta.flags);
  EXPECT_EQ(doc->meta.expiry, want.meta.expiry);
  EXPECT_FALSE(doc->meta.deleted);
}

// Compaction copies each verified live record unchanged: the same docs come
// back, and the new file is exactly the live records plus one commit record.
TEST_P(CouchFileTest, CompactionKeepsDocsAndRecordSizes) {
  auto cf = CouchFile::Open(env_, path_).value();
  for (uint64_t i = 1; i <= 40; ++i) {
    std::string key = "k" + std::to_string(i % 13);
    ASSERT_TRUE(cf->SaveDocs({MakeDoc(key, std::string(i * 7, 'v'), i,
                                      /*deleted=*/i % 11 == 0)})
                    .ok());
  }
  ASSERT_TRUE(cf->Commit().ok());
  auto snapshot = [&] {
    std::vector<std::string> docs;
    EXPECT_TRUE(cf->ChangesSince(0, [&](const kv::Document& d) {
                    docs.push_back(d.key + "|" + std::string(d.value.view()) +
                                   "|" + std::to_string(d.meta.seqno) + "|" +
                                   std::to_string(d.meta.cas) + "|" +
                                   (d.meta.deleted ? "del" : "live"));
                    return Status::OK();
                  }).ok());
    return docs;
  };
  const std::vector<std::string> before = snapshot();
  const CouchFileStats stats_before = cf->stats();
  ASSERT_TRUE(cf->Compact().ok());
  EXPECT_EQ(snapshot(), before);
  const CouchFileStats stats_after = cf->stats();
  EXPECT_EQ(stats_after.num_live_docs, stats_before.num_live_docs);
  EXPECT_EQ(stats_after.num_tombstones, stats_before.num_tombstones);
  // Before compaction live_bytes sums the size of every indexed record,
  // tombstones included; the compacted file holds exactly those records
  // plus one commit record (9-byte header + 16-byte payload).
  EXPECT_EQ(stats_after.file_size, stats_before.live_bytes + 25);
  // The same contents report the same live bytes however they were reached:
  // written, compacted (tombstones kept), or recovered.
  EXPECT_EQ(stats_after.live_bytes, stats_before.live_bytes);
  cf.reset();
  cf = CouchFile::Open(env_, path_).value();
  EXPECT_EQ(snapshot(), before);
  EXPECT_EQ(cf->stats().live_bytes, stats_before.live_bytes);
}

// A live record whose CRC no longer matches fails compaction with
// Corruption; the original file and index stay in place and readable.
TEST_P(CouchFileTest, CompactionOfCorruptRecordFailsAndKeepsOriginal) {
  stats::Scope scope("storage_test");
  const StorageCounters counters = StorageCounters::In(&scope);
  auto cf = CouchFile::Open(env_, path_, &counters).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "alpha-value", 1),
                            MakeDoc("b", "bravo-value", 2),
                            MakeDoc("c", "charlie-value", 3)})
                  .ok());
  ASSERT_TRUE(cf->Commit().ok());
  std::string contents = ReadWholeFile(env_, path_);
  const size_t at = contents.find("bravo-value");
  ASSERT_NE(at, std::string::npos);
  contents[at] = 'B';
  OverwriteFile(env_, path_, contents);
  const uint64_t size_before = cf->stats().file_size;

  Status st = cf->Compact();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_FALSE(env_->Exists(path_ + ".compact"));
  EXPECT_EQ(cf->stats().file_size, size_before);
  EXPECT_EQ(scope.GetCounter("storage.compactions")->Value(), 0u);
  EXPECT_EQ(ReadWholeFile(env_, path_), contents);
  EXPECT_EQ(cf->Get("a")->value, "alpha-value");
  EXPECT_EQ(cf->Get("c")->value, "charlie-value");
  EXPECT_TRUE(cf->Get("b").status().IsCorruption());
}

TEST(EnvTest, MemEnvRename) {
  auto env = Env::NewMemEnv();
  auto f = env->Open("a").value();
  ASSERT_TRUE(f->Append("data").ok());
  ASSERT_TRUE(env->Rename("a", "b").ok());
  EXPECT_FALSE(env->Exists("a"));
  EXPECT_TRUE(env->Exists("b"));
  std::string out;
  ASSERT_TRUE(env->Open("b").value()->Read(0, 4, &out).ok());
  EXPECT_EQ(out, "data");
}

TEST(EnvTest, MemEnvIsolation) {
  auto env1 = Env::NewMemEnv();
  auto env2 = Env::NewMemEnv();
  ASSERT_TRUE(env1->Open("f").value()->Append("x").ok());
  EXPECT_TRUE(env1->Exists("f"));
  EXPECT_FALSE(env2->Exists("f"));
}

TEST(EnvTest, ReadPastEofFails) {
  auto env = Env::NewMemEnv();
  auto f = env->Open("f").value();
  ASSERT_TRUE(f->Append("abc").ok());
  std::string out;
  EXPECT_FALSE(f->Read(1, 5, &out).ok());
  EXPECT_TRUE(f->Read(1, 2, &out).ok());
  EXPECT_EQ(out, "bc");
}

TEST(EnvTest, TruncateShrinks) {
  auto env = Env::NewMemEnv();
  auto f = env->Open("f").value();
  ASSERT_TRUE(f->Append("abcdef").ok());
  ASSERT_TRUE(f->Truncate(3).ok());
  EXPECT_EQ(f->Size(), 3u);
}

// --- Fault injection: the error paths [[nodiscard]] surfaces must WORK ---
//
// Every case drives CouchFile through a storage::FaultyEnv failure and
// asserts the two storage invariants: committed state never regresses, and
// a failed operation leaves the file usable (retry or recovery converges).

class FaultyCouchFileTest : public ::testing::Test {
 protected:
  FaultyCouchFileTest() : base_(Env::NewMemEnv()) {}

  // Opens a FaultyEnv over the shared MemEnv with the given options. The
  // MemEnv persists across FaultyEnv instances, so tests can "reboot the
  // disk controller" (fresh faults) over the same surviving bytes.
  std::unique_ptr<FaultyEnv> MakeFaulty(FaultyEnvOptions opts = {}) {
    return std::make_unique<FaultyEnv>(base_.get(), opts);
  }

  std::unique_ptr<Env> base_;
  std::string path_ = "vb0.couch";
};

TEST_F(FaultyCouchFileTest, EnospcMidSaveDocsKeepsCommittedStateReadable) {
  FaultyEnvOptions opts;
  opts.enospc_after_bytes = 4096;  // enough for the first batch, not a flood
  auto fenv = MakeFaulty(opts);
  auto cf = CouchFile::Open(fenv.get(), path_).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v1", 1), MakeDoc("b", "v2", 2)}).ok());
  ASSERT_TRUE(cf->Commit().ok());

  // Fill the disk: large docs until SaveDocs reports the ENOSPC IOError.
  // The injected failure is a SHORT WRITE (a prefix reaches the file), the
  // worst case recovery must cope with.
  std::string big(1024, 'x');
  Status st = Status::OK();
  uint64_t seq = 3;
  while (st.ok()) {
    st = cf->SaveDocs({MakeDoc("big" + std::to_string(seq), big, seq)});
    ++seq;
  }
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_GE(fenv->stats().appends_failed, 1u);

  // The pre-ENOSPC commit is untouched: still readable in place...
  EXPECT_EQ(cf->Get("a")->value, "v1");

  // ...and recoverable from the bytes on disk. Reopening runs recovery,
  // which truncates the short-written tail back to the last commit.
  cf.reset();
  auto reopened = CouchFile::Open(fenv.get(), path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Get("a")->value, "v1");
  EXPECT_EQ((*reopened)->Get("b")->value, "v2");
  EXPECT_GE((*reopened)->high_seqno(), 2u);
}

TEST_F(FaultyCouchFileTest, SyncFailureAtCommitIsRetryable) {
  auto fenv = MakeFaulty();
  auto cf = CouchFile::Open(fenv.get(), path_).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v1", 1)}).ok());

  fenv->FailNextSyncs(1);
  Status st = cf->Commit();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(fenv->stats().syncs_failed, 1u);

  // No durability barrier happened, so nothing may claim to be committed —
  // but the file must still be usable: the retried Commit succeeds and the
  // data is then recoverable.
  ASSERT_TRUE(cf->Commit().ok());
  cf.reset();
  auto reopened = CouchFile::Open(fenv.get(), path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Get("a")->value, "v1");
}

TEST_F(FaultyCouchFileTest, TornCommitFooterRecoversToLastGoodCommit) {
  auto fenv = MakeFaulty();
  auto cf = CouchFile::Open(fenv.get(), path_).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v1", 1)}).ok());
  ASSERT_TRUE(cf->Commit().ok());  // last good commit

  // Second batch lands, but its commit FOOTER is torn mid-append: only a
  // few bytes of the commit record reach the disk, then the "crash".
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v2", 2), MakeDoc("c", "v3", 3)}).ok());
  fenv->TearNextAppend(5);
  Status st = cf->Commit();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(fenv->stats().appends_torn, 1u);

  // Recovery must land exactly on the last good commit: the second batch
  // was never durable, so "a" rolls back to v1 and "c" never existed.
  cf.reset();
  auto reopened = CouchFile::Open(fenv.get(), path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Get("a")->value, "v1");
  EXPECT_TRUE((*reopened)->Get("c").status().IsNotFound());
  EXPECT_EQ((*reopened)->high_seqno(), 1u);
}

// The flusher retries a failed batch with another SaveDocs + Commit. A
// commit that lands after a torn record must still be reachable by
// recovery, which stops at the first bad record: otherwise a write acked
// with persist_to is lost on the next restart.
TEST_F(FaultyCouchFileTest, CommitAfterTornAppendSurvivesReopen) {
  auto fenv = MakeFaulty();
  auto cf = CouchFile::Open(fenv.get(), path_).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v1", 1)}).ok());
  ASSERT_TRUE(cf->Commit().ok());

  fenv->TearNextAppend(7);  // a doc record
  EXPECT_TRUE(cf->SaveDocs({MakeDoc("a", "v2", 2)}).IsIOError());
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v2", 2)}).ok());
  ASSERT_TRUE(cf->Commit().ok());

  ASSERT_TRUE(cf->SaveDocs({MakeDoc("b", "v3", 3)}).ok());
  fenv->TearNextAppend(5);  // the commit record
  EXPECT_TRUE(cf->Commit().IsIOError());
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("b", "v3", 3)}).ok());
  ASSERT_TRUE(cf->Commit().ok());
  EXPECT_EQ(cf->Get("a")->value, "v2");
  EXPECT_EQ(cf->Get("b")->value, "v3");

  cf.reset();
  auto reopened = CouchFile::Open(fenv.get(), path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Get("a")->value, "v2");
  EXPECT_EQ((*reopened)->Get("b")->value, "v3");
  EXPECT_EQ((*reopened)->high_seqno(), 3u);
}

// Cutting a torn record away reads nothing and touches no indexed record,
// so a read fault pending at the retry cannot drop committed keys from the
// index, and a compaction afterwards keeps them all.
TEST_F(FaultyCouchFileTest, TornAppendRepairKeepsCommittedKeysUnderReadFaults) {
  auto fenv = MakeFaulty();
  auto cf = CouchFile::Open(fenv.get(), path_).value();
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v1", 1), MakeDoc("b", "v2", 2)}).ok());
  ASSERT_TRUE(cf->Commit().ok());

  fenv->TearNextAppend(7);
  EXPECT_TRUE(cf->SaveDocs({MakeDoc("c", "v3", 3)}).IsIOError());
  fenv->FailNextReads(1);
  ASSERT_TRUE(cf->SaveDocs({MakeDoc("c", "v3", 3)}).ok());
  ASSERT_TRUE(cf->Commit().ok());
  EXPECT_TRUE(cf->Get("a").status().IsIOError());  // the still-pending fault
  EXPECT_EQ(cf->Get("a")->value, "v1");
  EXPECT_EQ(cf->Get("b")->value, "v2");

  ASSERT_TRUE(cf->Compact().ok());
  cf.reset();
  auto reopened = CouchFile::Open(fenv.get(), path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Get("a")->value, "v1");
  EXPECT_EQ((*reopened)->Get("b")->value, "v2");
  EXPECT_EQ((*reopened)->Get("c")->value, "v3");
  EXPECT_EQ((*reopened)->high_seqno(), 3u);
}

TEST_F(FaultyCouchFileTest, CompactFailureLeavesOriginalReadableAndRearmed) {
  auto fenv = MakeFaulty();
  auto cf = CouchFile::Open(fenv.get(), path_).value();
  // Build fragmentation: many superseded versions of the same keys.
  std::string filler(256, 'f');
  uint64_t seq = 1;
  for (int round = 0; round < 8; ++round) {
    std::vector<kv::Document> batch;
    for (int k = 0; k < 4; ++k) {
      batch.push_back(MakeDoc("k" + std::to_string(k), filler, seq++));
    }
    ASSERT_TRUE(cf->SaveDocs(batch).ok());
  }
  ASSERT_TRUE(cf->Commit().ok());
  double frag_before = cf->Fragmentation();
  ASSERT_GT(frag_before, 0.5);

  // The compaction's very first write into the temp file fails.
  fenv->FailNextAppends(1);
  Status st = cf->Compact();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();

  // Failure is safe: original file, index, and fragmentation untouched, so
  // the compactor's trigger re-fires on the next sweep...
  EXPECT_EQ(cf->Get("k0")->value, filler);
  EXPECT_DOUBLE_EQ(cf->Fragmentation(), frag_before);

  // ...and the retried compaction succeeds and actually shrinks the file.
  uint64_t size_before = cf->stats().file_size;
  ASSERT_TRUE(cf->Compact().ok());
  EXPECT_LT(cf->stats().file_size, size_before);
  EXPECT_EQ(cf->Get("k0")->value, filler);
  EXPECT_EQ(cf->high_seqno(), seq - 1);
}

TEST_F(FaultyCouchFileTest, ReadFailureDuringRecoveryPropagatesNotTruncates) {
  // Commit real data through a healthy disk first.
  auto fenv = MakeFaulty();
  {
    auto cf = CouchFile::Open(fenv.get(), path_).value();
    ASSERT_TRUE(cf->SaveDocs({MakeDoc("a", "v1", 1)}).ok());
    ASSERT_TRUE(cf->Commit().ok());
  }

  // A bad sector during recovery is NOT a torn tail: warmup must fail loudly
  // (Open propagates the IOError) instead of truncating at the unreadable
  // region and silently discarding the committed data behind it.
  fenv->FailNextReads(1);
  auto failed = CouchFile::Open(fenv.get(), path_);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_EQ(fenv->stats().reads_failed, 1u);

  // Once the transient error clears, recovery sees the full commit.
  auto reopened = CouchFile::Open(fenv.get(), path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Get("a")->value, "v1");
}

TEST_F(FaultyCouchFileTest, ProbabilisticFaultsAreDeterministicPerSeed) {
  // Same seed + same operation sequence = same injection schedule: torture
  // failures replay from their seed alone.
  auto run = [&](uint64_t seed) {
    auto base = Env::NewMemEnv();
    FaultyEnvOptions opts;
    opts.seed = seed;
    opts.append_fail_prob = 0.2;
    opts.sync_fail_prob = 0.2;
    FaultyEnv fenv(base.get(), opts);
    auto cf = CouchFile::Open(&fenv, "vb.couch").value();
    std::vector<uint64_t> outcome;
    for (uint64_t s = 1; s <= 40; ++s) {
      // A failed save/commit here is an expected injected fault; the test
      // compares the ok/fail schedule across runs, not individual results.
      bool saved = cf->SaveDocs({MakeDoc("k" + std::to_string(s % 5),
                                         "v" + std::to_string(s), s)})
                       .ok();
      bool committed = s % 4 == 0 ? cf->Commit().ok() : true;
      outcome.push_back((saved ? 1u : 0u) | (committed ? 2u : 0u));
    }
    FaultyEnvStats st = fenv.stats();
    outcome.push_back(st.appends_failed);
    outcome.push_back(st.syncs_failed);
    return outcome;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // and the seed actually matters
}

}  // namespace
}  // namespace couchkv::storage
