// Whole-system integration tests: the Figure-6 asynchronous flow (memory →
// disk / replicas / views / GSI / XDCR), warmup after restart, topology
// changes under live query traffic, and cross-service consistency.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>

#include "client/smart_client.h"
#include "harness/registry_counter.h"
#include "n1ql/query_service.h"
#include "storage/faulty_env.h"
#include "xdcr/xdcr.h"

namespace couchkv {
namespace {

using json::Value;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    gsi_ = std::make_shared<gsi::IndexService>(&cluster_);
    views_ = std::make_shared<views::ViewEngine>(&cluster_);
    queries_ = std::make_unique<n1ql::QueryService>(&cluster_, gsi_, views_);
    client_ = std::make_unique<client::SmartClient>(&cluster_, "default");
  }

  cluster::Cluster cluster_;
  std::shared_ptr<gsi::IndexService> gsi_;
  std::shared_ptr<views::ViewEngine> views_;
  std::unique_ptr<n1ql::QueryService> queries_;
  std::unique_ptr<client::SmartClient> client_;
};

TEST_F(IntegrationTest, OneWriteReachesEveryComponent) {
  // Set up every derived consumer first.
  ASSERT_TRUE(queries_
                  ->Execute("CREATE INDEX by_kind ON `default`(kind) USING GSI")
                  .ok());
  views::ViewDefinition vdef;
  vdef.name = "by_kind_view";
  vdef.map.key_paths = {"kind"};
  ASSERT_TRUE(views_->CreateView("default", vdef).ok());

  // One durable write.
  client::WriteOptions opts;
  opts.durability = {1, 1, 10000};  // replicate to 1 AND persist to 1
  auto m = client_->Upsert("probe", R"({"kind":"canary"})", opts);
  ASSERT_TRUE(m.ok());
  uint16_t vb = client_->VBucketFor("probe");
  auto map = cluster_.map("default");
  cluster::NodeId active = map->ActiveFor(vb);
  std::shared_ptr<cluster::Bucket> ab = cluster_.node(active)->bucket("default");

  // 1. Persisted on the active node (durability already guaranteed it).
  EXPECT_GE(ab->vbucket(vb)->persisted_seqno(), m->seqno);
  EXPECT_EQ(ab->vbucket(vb)->file()->Get("probe")->value,
            R"({"kind":"canary"})");
  // 2. Replicated.
  cluster::NodeId replica = map->ReplicasFor(vb)[0];
  auto rep = cluster_.node(replica)
                 ->bucket("default")
                 ->vbucket(vb)
                 ->hash_table()
                 .Get("probe");
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->doc.meta.cas, m->cas);
  // 3. Visible to a request_plus N1QL query via GSI.
  n1ql::QueryOptions qopts;
  qopts.consistency = gsi::ScanConsistency::kRequestPlus;
  auto qr = queries_->Execute(
      "SELECT META(d).id AS id FROM `default` d WHERE kind = 'canary'", qopts);
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();
  ASSERT_EQ(qr->rows.size(), 1u);
  EXPECT_EQ(qr->rows[0].Field("id").AsString(), "probe");
  // 4. Visible to a stale=false view query.
  views::ViewQueryOptions vopts;
  vopts.key = Value::Str("canary");
  auto vr = views_->Query("default", "by_kind_view", vopts,
                          views::Staleness::kFalse);
  ASSERT_TRUE(vr.ok());
  EXPECT_EQ(vr->rows.size(), 1u);
}

TEST_F(IntegrationTest, DeleteDisappearsEverywhere) {
  ASSERT_TRUE(
      queries_->Execute("CREATE INDEX by_kind ON `default`(kind) USING GSI")
          .ok());
  ASSERT_TRUE(client_->Upsert("gone", R"({"kind":"temp"})").ok());
  ASSERT_TRUE(client_->Remove("gone").ok());
  n1ql::QueryOptions qopts;
  qopts.consistency = gsi::ScanConsistency::kRequestPlus;
  auto qr = queries_->Execute(
      "SELECT META(d).id FROM `default` d WHERE kind = 'temp'", qopts);
  ASSERT_TRUE(qr.ok());
  EXPECT_TRUE(qr->rows.empty());
  cluster_.Quiesce();
  uint16_t vb = client_->VBucketFor("gone");
  cluster::NodeId replica = cluster_.map("default")->ReplicasFor(vb)[0];
  EXPECT_TRUE(cluster_.node(replica)
                  ->bucket("default")
                  ->vbucket(vb)
                  ->hash_table()
                  .Get("gone")
                  .status()
                  .IsNotFound());
}

TEST_F(IntegrationTest, WarmupRestoresBucketFromStorage) {
  // Simulated node restart: write + flush through one Bucket instance,
  // destroy it, then warm a fresh Bucket up from the same "disk".
  auto env = storage::Env::NewMemEnv();
  ManualClock clock;
  cluster::BucketConfig cfg;
  cfg.name = "restartable";
  {
    dcp::Dispatcher dispatcher;
    cluster::Bucket before(cfg, /*node_id=*/9, env.get(), &clock,
                           &dispatcher);
    ASSERT_TRUE(before.SetVBucketState(0, cluster::VBucketState::kActive).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(before.vbucket(0)
                      ->Store(kv::StoreOp::kSet, "k" + std::to_string(i),
                              "v" + std::to_string(i), 0, 0, 0)
                      .ok());
    }
    ASSERT_TRUE(
        before.vbucket(0)->Store(kv::StoreOp::kDelete, "k7", {}, 0, 0, 0).ok());
    before.FlushAll();
  }  // "crash"
  dcp::Dispatcher dispatcher;
  cluster::Bucket after(cfg, 9, env.get(), &clock, &dispatcher);
  ASSERT_TRUE(after.SetVBucketState(0, cluster::VBucketState::kActive).ok());
  auto loaded = after.Warmup();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 49u);  // 50 writes, 1 deleted
  auto r = after.vbucket(0)->Get("k3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->doc.value, "v3");
  EXPECT_TRUE(after.vbucket(0)->Get("k7").status().IsNotFound());
  // Seqno high-water marks survive the restart: new mutations continue on.
  auto m = after.vbucket(0)->Store(kv::StoreOp::kSet, "new", "nv", 0, 0, 0);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m->seqno, 50u);
}

// --- One copy per mutation ---

// A standalone bucket hosting vBucket 0 as active on a disk that can be made
// to fail every append.
struct OneBucket {
  std::unique_ptr<storage::Env> mem = storage::Env::NewMemEnv();
  storage::FaultyEnv disk{mem.get(), [] {
                            storage::FaultyEnvOptions o;
                            o.append_fail_prob = 1.0;
                            return o;
                          }()};
  dcp::Dispatcher dispatcher;
  std::unique_ptr<cluster::Bucket> bucket;

  OneBucket() {
    disk.set_faults_enabled(false);
    cluster::BucketConfig cfg;
    cfg.name = "onecopy";
    bucket = std::make_unique<cluster::Bucket>(cfg, /*node_id=*/9, &disk,
                                               Clock::Real(), &dispatcher);
    EXPECT_TRUE(
        bucket->SetVBucketState(0, cluster::VBucketState::kActive).ok());
  }
  ~OneBucket() {
    disk.set_faults_enabled(false);  // lets the flusher drain and stop
    bucket.reset();
  }

  cluster::VBucket* vb() { return bucket->vbucket(0); }

  // Every mutation of vBucket 0 a stream from seqno 0 delivers now.
  std::vector<kv::Document> StreamFromZero() {
    std::vector<kv::Document> out;
    auto id = bucket->producer()->AddStream(
        "probe", 0, 0, [&](const kv::Mutation& m) {
          out.push_back(m.doc);
          return Status::OK();
        });
    EXPECT_TRUE(id.ok());
    bucket->producer()->Drain();
    bucket->producer()->RemoveStream(*id);  // barrier: delivery is done
    return out;
  }
};

TEST(OneCopyTest, ActiveSetSharesOneBufferAcrossTableLogAndFlushQueue) {
  OneBucket one;
  one.disk.set_faults_enabled(true);  // the write stays on the flush queue
  const std::string value(1100, 'v');
  ASSERT_TRUE(one.vb()->Store(kv::StoreOp::kSet, "k", value, 0, 0, 0).ok());

  auto entry = one.vb()->hash_table().Get("k");
  ASSERT_TRUE(entry.ok());
  const char* bytes = entry->doc.value.data();
  EXPECT_NE(bytes, value.data());  // the one copy of the caller's bytes
  EXPECT_EQ(entry->doc.value, value);

  std::vector<kv::Document> logged = one.StreamFromZero();
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0].value.data(), bytes);

  // The flusher keeps re-queuing the failed write; catch it on the queue.
  std::optional<kv::Document> queued;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!queued && std::chrono::steady_clock::now() < deadline) {
    queued = one.bucket->QueuedDoc(0, "k");
    if (!queued) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->value.data(), bytes);
}

TEST(OneCopyTest, SecondSetLeavesTheLoggedFirstVersionIntact) {
  OneBucket one;
  const std::string v1(1000, '1'), v2(1000, '2');
  ASSERT_TRUE(one.vb()->Store(kv::StoreOp::kSet, "k", v1, 0, 0, 0).ok());
  ASSERT_TRUE(one.vb()->Store(kv::StoreOp::kSet, "k", v2, 0, 0, 0).ok());

  std::vector<kv::Document> logged = one.StreamFromZero();
  ASSERT_EQ(logged.size(), 2u);
  EXPECT_EQ(logged[0].value, v1);
  EXPECT_EQ(logged[1].value, v2);
  EXPECT_NE(logged[0].value.data(), logged[1].value.data());
  auto entry = one.vb()->hash_table().Get("k");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->doc.value.data(), logged[1].value.data());
}

TEST(OneCopyTest, EvictionLeavesTheLoggedValueAndReadsThrough) {
  OneBucket one;
  const std::string value(1000, 'e');
  ASSERT_TRUE(one.vb()->Store(kv::StoreOp::kSet, "k", value, 0, 0, 0).ok());
  one.bucket->FlushAll();
  one.vb()->hash_table().EvictTo(0);
  one.vb()->hash_table().EvictTo(0);  // second pass evicts referenced values
  auto evicted = one.vb()->hash_table().Get("k");
  ASSERT_TRUE(evicted.ok());
  ASSERT_FALSE(evicted->resident);

  // The change log kept its own reference: a new stream gets the value.
  std::vector<kv::Document> logged = one.StreamFromZero();
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0].value, value);
  // A front-end read goes through to storage.
  auto read = one.vb()->Get("k");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->resident);
  EXPECT_EQ(read->doc.value, value);
}

// --- Read-through and the store ops ---

// Writes `value` under `key`, persists it and evicts it again, so the next
// read of it must go to storage.
void WriteAndEvict(OneBucket& one, const std::string& key,
                   const std::string& value) {
  ASSERT_TRUE(one.vb()->Store(kv::StoreOp::kSet, key, value, 0, 0, 0).ok());
  one.bucket->FlushAll();
  one.vb()->hash_table().EvictTo(0);
  one.vb()->hash_table().EvictTo(0);  // second pass evicts referenced values
  auto evicted = one.vb()->hash_table().Get(key);
  ASSERT_TRUE(evicted.ok());
  ASSERT_FALSE(evicted->resident);
}

TEST(ReadThroughTest, ReadOfAnEvictedValueIsOneMissAndNoHit) {
  OneBucket one;
  const std::string value(1000, 'm');
  ASSERT_NO_FATAL_FAILURE(WriteAndEvict(one, "k", value));
  const std::string scope = "node.9.bucket.onecopy";
  harness::CounterDelta misses(scope, "kv.misses");
  harness::CounterDelta hits(scope, "kv.hits");

  auto read = one.vb()->Get("k");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->doc.value, value);
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 0u);

  // The value is resident again: the next read is a plain hit.
  ASSERT_TRUE(one.vb()->Get("k").ok());
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 1u);
}

TEST(ReadThroughTest, GetlWhoseReadFailsTakesNoLock) {
  OneBucket one;
  const std::string value(1000, 'l');
  ASSERT_NO_FATAL_FAILURE(WriteAndEvict(one, "k", value));
  const uint64_t cas =
      one.vb()->hash_table().Get("k", /*count=*/false)->doc.meta.cas;
  const std::string scope = "node.9.bucket.onecopy";
  harness::CounterDelta misses(scope, "kv.misses");
  harness::CounterDelta hits(scope, "kv.hits");

  one.disk.FailNextReads(1);
  auto failed = one.vb()->GetAndLock("k", 15000);
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_EQ(one.vb()->hash_table().Get("k", false)->doc.meta.cas, cas);
  EXPECT_EQ(misses(), 1u);

  // A GETL read-through counts as a GET's does: one miss for the evicted
  // value, nothing for the lookup after the read-back.
  auto locked = one.vb()->GetAndLock("k", 15000);
  ASSERT_TRUE(locked.ok()) << locked.status().ToString();
  EXPECT_EQ(locked->doc.value, value);
  EXPECT_NE(locked->doc.meta.cas, cas);
  EXPECT_EQ(misses(), 2u);
  EXPECT_EQ(hits(), 0u);
}

TEST(ReadThroughTest, TouchOfAnEvictedValueKeepsTheValueOnDisk) {
  OneBucket one;
  const std::string value(1000, 't');
  ASSERT_NO_FATAL_FAILURE(WriteAndEvict(one, "k", value));

  const uint32_t expiry =
      static_cast<uint32_t>(Clock::Real()->NowSeconds()) + 3600;
  ASSERT_TRUE(
      one.vb()->Store(kv::StoreOp::kTouch, "k", {}, 0, expiry, 0).ok());
  one.bucket->FlushAll();
  one.vb()->hash_table().EvictTo(0);
  one.vb()->hash_table().EvictTo(0);

  auto read = one.vb()->Get("k");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->doc.value, value);
  EXPECT_EQ(read->doc.meta.expiry, expiry);
}

TEST_F(IntegrationTest, TouchReachesTheReplicaUnderANewSeqno) {
  auto put = client_->Upsert("touched", R"({"v":1})");
  ASSERT_TRUE(put.ok());
  cluster_.Quiesce();
  const uint32_t expiry = 4000000000u;
  ASSERT_TRUE(client_->Touch("touched", expiry).ok());
  cluster_.Quiesce();

  const uint16_t vb = client_->VBucketFor("touched");
  auto map = cluster_.map("default");
  std::shared_ptr<cluster::Bucket> active =
      cluster_.node(map->ActiveFor(vb))->bucket("default");
  auto on_active = active->vbucket(vb)->hash_table().Get("touched");
  auto on_replica = cluster_.node(map->ReplicasFor(vb)[0])
                        ->bucket("default")
                        ->vbucket(vb)
                        ->hash_table()
                        .Get("touched");
  ASSERT_TRUE(on_active.ok() && on_replica.ok());
  EXPECT_EQ(on_active->doc.meta.expiry, expiry);
  EXPECT_EQ(on_replica->doc.meta.expiry, on_active->doc.meta.expiry);
  EXPECT_GT(on_active->doc.meta.seqno, put->seqno);
  EXPECT_EQ(on_replica->doc.meta.seqno, on_active->doc.meta.seqno);

  // The active's change log carries each seqno once.
  std::vector<uint64_t> seqnos;
  auto id = active->producer()->AddStream(
      "probe", vb, 0, [&](const kv::Mutation& m) {
        seqnos.push_back(m.doc.meta.seqno);
        return Status::OK();
      });
  ASSERT_TRUE(id.ok());
  active->producer()->Drain();
  active->producer()->RemoveStream(*id);  // barrier: delivery is done
  ASSERT_FALSE(seqnos.empty());
  for (size_t i = 1; i < seqnos.size(); ++i) {
    EXPECT_LT(seqnos[i - 1], seqnos[i]);
  }
}

// Disk-failure backpressure (§3.1.1's temporary failure): once the flusher
// is failing and the disk write queue holds the TempFail depth, every store
// op is refused with TempFail while reads still succeed; a healed disk
// drains the queue and lifts it.
TEST(BackpressureTest, FailingDiskTempFailsEveryStoreOpButNotReads) {
  OneBucket one;
  ASSERT_TRUE(
      one.vb()->Store(kv::StoreOp::kSet, "held", "v", 0, 0, 0).ok());
  one.bucket->FlushAll();
  one.disk.set_faults_enabled(true);
  for (uint64_t i = 0; i < cluster::Bucket::kTempFailQueueDepth; ++i) {
    ASSERT_TRUE(one.vb()
                    ->Store(kv::StoreOp::kSet, "q" + std::to_string(i), "v",
                            0, 0, 0)
                    .ok())
        << i;
  }
  // The flag is set when a failed flush pass puts the whole queue back.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!one.bucket->backpressure_active() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(one.bucket->backpressure_active());

  auto store = [&](kv::StoreOp op, const std::string& key) {
    return one.vb()->Store(op, key, "w", 0, 0, 0).status();
  };
  EXPECT_TRUE(store(kv::StoreOp::kSet, "new").IsTempFail());
  EXPECT_TRUE(store(kv::StoreOp::kAdd, "new").IsTempFail());
  EXPECT_TRUE(store(kv::StoreOp::kReplace, "held").IsTempFail());
  EXPECT_TRUE(store(kv::StoreOp::kTouch, "held").IsTempFail());
  EXPECT_TRUE(store(kv::StoreOp::kDelete, "held").IsTempFail());
  auto read = one.vb()->Get("held");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->doc.value, "v");

  one.disk.set_faults_enabled(false);
  one.bucket->FlushAll();
  EXPECT_FALSE(one.bucket->backpressure_active());
  EXPECT_TRUE(store(kv::StoreOp::kSet, "new").ok());
  EXPECT_TRUE(store(kv::StoreOp::kAdd, "added").ok());
  EXPECT_TRUE(store(kv::StoreOp::kReplace, "held").ok());
  EXPECT_TRUE(store(kv::StoreOp::kTouch, "held").ok());
  EXPECT_TRUE(store(kv::StoreOp::kDelete, "held").ok());
}

// A node boundary copies: the replica's value is its own buffer, so it
// outlives the active node's memory.
TEST_F(IntegrationTest, ReplicaOwnsItsValuesAndServesThemAfterActiveCrash) {
  std::map<std::string, std::string> written;
  for (int i = 0; i < 64; ++i) {
    std::string key = "own" + std::to_string(i);
    written[key] = "{\"n\":" + std::to_string(i) + ",\"pad\":\"" +
                   std::string(500, 'p') + "\"}";
    ASSERT_TRUE(client_->Upsert(key, written[key]).ok());
  }
  cluster_.Quiesce();
  auto map = cluster_.map("default");
  for (const auto& [key, value] : written) {
    uint16_t vb = client_->VBucketFor(key);
    auto active = cluster_.node(map->ActiveFor(vb))
                      ->bucket("default")
                      ->vbucket(vb)
                      ->hash_table()
                      .Get(key);
    auto replica = cluster_.node(map->ReplicasFor(vb)[0])
                       ->bucket("default")
                       ->vbucket(vb)
                       ->hash_table()
                       .Get(key);
    ASSERT_TRUE(active.ok() && replica.ok()) << key;
    EXPECT_EQ(replica->doc.value, value);
    EXPECT_NE(replica->doc.value.data(), active->doc.value.data()) << key;
  }

  cluster::NodeId victim = map->ActiveFor(client_->VBucketFor("own0"));
  ASSERT_TRUE(cluster_.CrashNode(victim).ok());
  ASSERT_TRUE(cluster_.Failover(victim).ok());
  for (const auto& [key, value] : written) {
    auto r = client_->Get(key);
    ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
    EXPECT_EQ(r->value, value);
  }
}

// The shared buffer leaves the cache's accounting where it was: the same
// writes charge the buckets the same mem_used as when each entry held its
// value inline (figure measured on that implementation).
TEST_F(IntegrationTest, MemUsedMatchesTheInlineValueAccounting) {
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 200; ++i) {
      std::string key = "mem::" + std::to_string(i * 7919);
      std::string value(64 + 5 * i, static_cast<char>('a' + round));
      ASSERT_TRUE(client_->Upsert(key, value).ok());
    }
  }
  cluster_.Quiesce();
  uint64_t total = 0;
  for (cluster::NodeId id = 0; id < 4; ++id) {
    total += cluster_.node(id)->bucket("default")->mem_used();
  }
  EXPECT_EQ(total, 291400u);
}

TEST_F(IntegrationTest, QueriesKeepWorkingThroughRebalance) {
  ASSERT_TRUE(
      queries_->Execute("CREATE INDEX by_n ON `default`(n) USING GSI").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("d" + std::to_string(i),
                             R"({"n":)" + std::to_string(i) + "}")
                    .ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_queries{0}, failed_queries{0};
  std::thread querier([&] {
    while (!stop.load()) {
      auto r = queries_->Execute("SELECT n FROM `default` WHERE n = 42");
      if (r.ok()) {
        ok_queries.fetch_add(1);
      } else {
        failed_queries.fetch_add(1);
      }
    }
  });
  cluster_.AddNode();
  ASSERT_TRUE(cluster_.Rebalance().ok());
  stop.store(true);
  querier.join();
  EXPECT_GT(ok_queries.load(), 0u);
  EXPECT_EQ(failed_queries.load(), 0u);
  // Post-rebalance, request_plus still returns exactly the right answer.
  n1ql::QueryOptions qopts;
  qopts.consistency = gsi::ScanConsistency::kRequestPlus;
  auto r = queries_->Execute("SELECT n FROM `default` WHERE n = 42", qopts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
}

TEST_F(IntegrationTest, N1qlDmlFlowsToXdcrTarget) {
  cluster::Cluster dr;
  for (int i = 0; i < 2; ++i) dr.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 0;
  ASSERT_TRUE(dr.CreateBucket(cfg).ok());
  xdcr::XdcrSpec spec;
  spec.source_bucket = spec.target_bucket = "default";
  auto link = std::make_shared<xdcr::XdcrLink>(&cluster_, &dr, spec);
  ASSERT_TRUE(link->Start("to-dr").ok());

  // Mutations created through N1QL DML must replicate like any others.
  ASSERT_TRUE(queries_
                  ->Execute(R"(INSERT INTO `default` (KEY, VALUE)
                               VALUES ("dml::1", {"from": "n1ql"}))")
                  .ok());
  for (int i = 0; i < 4; ++i) {
    cluster_.Quiesce();
    dr.Quiesce();
  }
  client::SmartClient dr_client(&dr, "default");
  auto r = dr_client.GetJson("dml::1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Field("from").AsString(), "n1ql");
}

TEST_F(IntegrationTest, MdsTopologyDataIndexQuerySeparated) {
  // A cluster where each service runs on its own nodes (paper §4.4).
  cluster::Cluster mds;
  mds.AddNode(cluster::kDataService);
  mds.AddNode(cluster::kDataService);
  mds.AddNode(cluster::kIndexService);
  mds.AddNode(cluster::kQueryService);
  cluster::BucketConfig cfg;
  cfg.name = "b";
  cfg.num_replicas = 1;
  ASSERT_TRUE(mds.CreateBucket(cfg).ok());
  auto g = std::make_shared<gsi::IndexService>(&mds);
  auto v = std::make_shared<views::ViewEngine>(&mds);
  n1ql::QueryService qs(&mds, g, v);
  client::SmartClient c(&mds, "b");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        c.Upsert("k" + std::to_string(i), R"({"x":)" + std::to_string(i) + "}")
            .ok());
  }
  ASSERT_TRUE(qs.Execute("CREATE INDEX by_x ON b(x) USING GSI").ok());
  n1ql::QueryOptions qopts;
  qopts.consistency = gsi::ScanConsistency::kRequestPlus;
  auto r = qs.Execute("SELECT x FROM b WHERE x >= 15", qopts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 5u);
}

TEST_F(IntegrationTest, EndToEndPaperExampleProfileStory) {
  // The running example of the paper: the profile document from §3.1.2
  // accessed by key, by view, and by N1QL.
  ASSERT_TRUE(
      client_
          ->Upsert("borkar123",
                   R"({"name":"Dipti","email":"Dipti@couchbase.com"})")
          .ok());
  // Key access.
  auto kv_doc = client_->GetJson("borkar123");
  EXPECT_EQ(kv_doc->Field("name").AsString(), "Dipti");
  // View access: emit(doc.name, doc.email), key="Dipti", stale=false.
  views::ViewDefinition def;
  def.name = "profile";
  def.map.filter_exists_path = "name";
  def.map.key_paths = {"name"};
  def.map.value_path = "email";
  ASSERT_TRUE(views_->CreateView("default", def).ok());
  views::ViewQueryOptions vopts;
  vopts.key = Value::Str("Dipti");
  auto vr =
      views_->Query("default", "profile", vopts, views::Staleness::kFalse);
  ASSERT_TRUE(vr.ok());
  ASSERT_EQ(vr->rows.size(), 1u);
  EXPECT_EQ(vr->rows[0].value.AsString(), "Dipti@couchbase.com");
  // N1QL access with USE KEYS.
  auto qr = queries_->Execute(
      "SELECT email FROM `default` USE KEYS 'borkar123'");
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->rows[0].Field("email").AsString(), "Dipti@couchbase.com");
}

}  // namespace
}  // namespace couchkv
