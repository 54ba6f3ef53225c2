// Unit tests for the Database Change Protocol: change logs, streams,
// backfill from storage, multiple consumers, dispatcher quiesce.
#include <gtest/gtest.h>

#include "dcp/dcp.h"
#include "storage/couch_file.h"

namespace couchkv::dcp {
namespace {

kv::Document Doc(const std::string& key, const std::string& value,
                 uint64_t seqno) {
  kv::Document doc;
  doc.key = key;
  doc.value = value;
  doc.meta.seqno = seqno;
  return doc;
}

TEST(ChangeLogTest, AppendAndRead) {
  ChangeLog log;
  log.Append(Doc("a", "1", 1));
  log.Append(Doc("b", "2", 2));
  log.Append(Doc("c", "3", 3));
  std::vector<kv::Document> out;
  log.ReadSince(1, 100, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, "b");
  EXPECT_EQ(out[1].key, "c");
  EXPECT_EQ(log.high_seqno(), 3u);
}

TEST(ChangeLogTest, ReadRespectsMax) {
  ChangeLog log;
  for (uint64_t i = 1; i <= 10; ++i) log.Append(Doc("k", "v", i));
  std::vector<kv::Document> out;
  log.ReadSince(0, 4, &out);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].meta.seqno, 1u);
}

TEST(ChangeLogTest, WindowTrimsOldest) {
  ChangeLog log(/*max_items=*/5);
  for (uint64_t i = 1; i <= 10; ++i) log.Append(Doc("k", "v", i));
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.start_seqno(), 6u);
  std::vector<kv::Document> out;
  uint64_t start = log.ReadSince(0, 100, &out);
  EXPECT_EQ(start, 6u);
  EXPECT_EQ(out.size(), 5u);
}

TEST(ChangeLogTest, ReadSinceSharesTheLoggedValues) {
  ChangeLog log;
  kv::Document doc = Doc("a", std::string(1000, 'x'), 1);
  const char* bytes = doc.value.data();
  log.Append(doc);
  std::vector<kv::Document> first, second;
  log.ReadSince(0, 10, &first);
  log.ReadSince(0, 10, &second);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].value.data(), bytes);
  EXPECT_EQ(second[0].value.data(), bytes);
}

TEST(ChangeLogTest, ClearDropsEntriesAndHighSeqno) {
  ChangeLog log;
  log.Append(Doc("a", "1", 1));
  log.Append(Doc("b", "2", 2));
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.high_seqno(), 0u);
  // A rolled-back vBucket reuses its seqnos from 1.
  log.Append(Doc("a", "again", 1));
  std::vector<kv::Document> out;
  EXPECT_EQ(log.ReadSince(0, 10, &out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, "again");
}

TEST(ProducerTest, StreamReceivesMutationsInOrder) {
  Producer p(4, nullptr);
  std::vector<uint64_t> seen;
  ASSERT_TRUE(p.AddStream("test", 2, 0, [&](const kv::Mutation& m) {
                 EXPECT_EQ(m.vbucket, 2);
                 seen.push_back(m.doc.meta.seqno);
                 return Status::OK();
               }).ok());
  p.OnMutation(2, Doc("a", "1", 1));
  p.OnMutation(2, Doc("b", "2", 2));
  p.OnMutation(3, Doc("x", "9", 1));  // different vbucket: not delivered
  p.Drain();
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
}

TEST(ProducerTest, StreamFromMidpoint) {
  Producer p(1, nullptr);
  for (uint64_t i = 1; i <= 10; ++i) p.OnMutation(0, Doc("k", "v", i));
  std::vector<uint64_t> seen;
  ASSERT_TRUE(p.AddStream("mid", 0, 7, [&](const kv::Mutation& m) {
                 seen.push_back(m.doc.meta.seqno);
                 return Status::OK();
               }).ok());
  p.Drain();
  EXPECT_EQ(seen, (std::vector<uint64_t>{8, 9, 10}));
}

TEST(ProducerTest, MultipleConsumersIndependent) {
  Producer p(1, nullptr);
  int a = 0, b = 0;
  ASSERT_TRUE(p.AddStream("a", 0, 0, [&](const kv::Mutation&) {
                 ++a;
                 return Status::OK();
               }).ok());
  p.OnMutation(0, Doc("k", "1", 1));
  p.Drain();
  ASSERT_TRUE(p.AddStream("b", 0, 0, [&](const kv::Mutation&) {
                 ++b;
                 return Status::OK();
               }).ok());
  p.OnMutation(0, Doc("k", "2", 2));
  p.Drain();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 2);  // b started from 0 and caught up
}

TEST(ProducerTest, RemoveStreamStopsDelivery) {
  Producer p(1, nullptr);
  int count = 0;
  uint64_t id =
      p.AddStream("x", 0, 0, [&](const kv::Mutation&) {
         ++count;
         return Status::OK();
       }).value();
  p.OnMutation(0, Doc("k", "1", 1));
  p.Drain();
  p.RemoveStream(id);
  p.OnMutation(0, Doc("k", "2", 2));
  p.Drain();
  EXPECT_EQ(count, 1);
}

TEST(ProducerTest, RemoveStreamsNamed) {
  Producer p(2, nullptr);
  int count = 0;
  auto counter = [&](const kv::Mutation&) {
    ++count;
    return Status::OK();
  };
  ASSERT_TRUE(p.AddStream("repl", 0, 0, counter).ok());
  ASSERT_TRUE(p.AddStream("repl", 1, 0, counter).ok());
  ASSERT_TRUE(p.AddStream("other", 0, 0, [](const kv::Mutation&) {
                 return Status::OK();
               }).ok());
  p.RemoveStreamsNamed("repl");
  p.OnMutation(0, Doc("k", "1", 1));
  p.Drain();
  EXPECT_EQ(count, 0);
}

TEST(ProducerTest, StreamSeqnoTracksAcks) {
  Producer p(1, nullptr);
  ASSERT_TRUE(p.AddStream("idx", 0, 0, [](const kv::Mutation&) {
                 return Status::OK();
               }).ok());
  EXPECT_EQ(p.StreamSeqno("idx", 0), 0u);
  p.OnMutation(0, Doc("k", "1", 1));
  p.OnMutation(0, Doc("k", "2", 2));
  p.Drain();
  EXPECT_EQ(p.StreamSeqno("idx", 0), 2u);
  EXPECT_EQ(p.StreamSeqno("missing", 0), UINT64_MAX);
}

// One backlog formula: Backlog(name) is Σ (high seqno − acked) over that
// consumer's streams, and Backlog("") the same sum over every stream.
TEST(ProducerTest, BacklogSumsPerStreamLagByName) {
  Producer p(2, nullptr);
  auto ok = [](const kv::Mutation&) { return Status::OK(); };
  auto stalled = [](const kv::Mutation&) { return Status::TempFail("down"); };
  ASSERT_TRUE(p.AddStream("idx", 0, 2, ok).ok());
  ASSERT_TRUE(p.AddStream("idx", 1, 1, ok).ok());
  ASSERT_TRUE(p.AddStream("repl", 0, 4, stalled).ok());
  for (uint64_t s = 1; s <= 5; ++s) p.OnMutation(0, Doc("a", "v", s));
  for (uint64_t s = 1; s <= 3; ++s) p.OnMutation(1, Doc("b", "v", s));

  auto per_stream_sum = [&](const std::string& name) {
    uint64_t sum = 0;
    for (uint16_t vb = 0; vb < p.num_vbuckets(); ++vb) {
      const uint64_t acked = p.StreamSeqno(name, vb);
      if (acked != UINT64_MAX) sum += p.high_seqno(vb) - acked;
    }
    return sum;
  };
  EXPECT_EQ(p.Backlog("idx"), 5u);  // (5 - 2) + (3 - 1)
  EXPECT_EQ(p.Backlog("idx"), per_stream_sum("idx"));
  EXPECT_EQ(p.Backlog("repl"), 1u);
  EXPECT_EQ(p.Backlog("repl"), per_stream_sum("repl"));
  EXPECT_EQ(p.Backlog("missing"), 0u);
  EXPECT_EQ(p.Backlog(""), 6u);

  // Delivery drains idx; the stalled repl stream keeps its lag.
  p.Drain();
  EXPECT_EQ(p.Backlog("idx"), 0u);
  EXPECT_EQ(p.Backlog("repl"), 1u);
  EXPECT_EQ(p.Backlog(), 1u);
}

TEST(ProducerTest, BackfillFromStorageCoversTrimmedWindow) {
  // Build a storage file holding the full history.
  auto env = storage::Env::NewMemEnv();
  auto cf = storage::CouchFile::Open(env.get(), "vb0").value();
  std::vector<kv::Document> docs;
  for (uint64_t i = 1; i <= 100; ++i) {
    docs.push_back(Doc("key" + std::to_string(i), "v", i));
  }
  ASSERT_TRUE(cf->SaveDocs(docs).ok());
  ASSERT_TRUE(cf->Commit().ok());

  Producer p(1, [&](uint16_t vb, uint64_t since, const MutationFn& fn) {
    return cf->ChangesSince(since, [&](const kv::Document& d) {
      kv::Mutation m;
      m.vbucket = vb;
      m.doc = d;
      return fn(m);
    });
  });
  // Tiny in-memory window: only the last few mutations are in the log.
  // (Producer's internal logs have a large default; emulate the trimmed
  // state by feeding only the tail through OnMutation.)
  for (uint64_t i = 95; i <= 100; ++i) {
    p.OnMutation(0, Doc("key" + std::to_string(i), "v", i));
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(p.AddStream("warm", 0, 0, [&](const kv::Mutation& m) {
                 seen.push_back(m.doc.meta.seqno);
                 return Status::OK();
               }).ok());
  p.Drain();
  // Backfill supplies 1..94 from storage, the window supplies 95..100.
  ASSERT_EQ(seen.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(DispatcherTest, DeliversAsynchronously) {
  auto p = std::make_shared<Producer>(1, nullptr);
  std::atomic<int> count{0};
  ASSERT_TRUE(p->AddStream("async", 0, 0, [&](const kv::Mutation&) {
                 count.fetch_add(1);
                 return Status::OK();
               }).ok());
  Dispatcher d;
  d.AddProducer(p);
  for (uint64_t i = 1; i <= 50; ++i) {
    p->OnMutation(0, Doc("k", "v", i));
    d.Notify();
  }
  // Wait for async delivery.
  for (int spin = 0; spin < 10000 && count.load() < 50; ++spin) {
    std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 50);
  d.Stop();
}

TEST(DispatcherTest, QuiesceDrainsSynchronously) {
  auto p = std::make_shared<Producer>(1, nullptr);
  int count = 0;
  ASSERT_TRUE(p->AddStream("q", 0, 0, [&](const kv::Mutation&) {
                 ++count;
                 return Status::OK();
               }).ok());
  Dispatcher d;
  d.AddProducer(p);
  d.Stop();  // kill the async thread; quiesce still works
  for (uint64_t i = 1; i <= 5; ++i) p->OnMutation(0, Doc("k", "v", i));
  d.Quiesce();
  EXPECT_EQ(count, 5);
}

}  // namespace
}  // namespace couchkv::dcp
