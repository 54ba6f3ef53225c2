// Tests for the smart client: routing, CAS workflow, durability options,
// locks, JSON helpers, and transparent re-routing across topology changes;
// plus the routing/retry loop both SmartClient and WireClient share.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <type_traits>

#include "client/smart_client.h"
#include "client/wire_client.h"
#include "stats/registry.h"

namespace couchkv::client {
namespace {

class SmartClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    client_ = std::make_unique<SmartClient>(&cluster_, "default");
  }

  cluster::Cluster cluster_;
  std::unique_ptr<SmartClient> client_;
};

TEST_F(SmartClientTest, UpsertGetRoundTrip) {
  auto m = client_->Upsert("profile::1", R"({"name":"Dipti"})");
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m->cas, 0u);
  auto r = client_->Get("profile::1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value, R"({"name":"Dipti"})");
  EXPECT_EQ(r->cas, m->cas);
}

TEST_F(SmartClientTest, GetMissingIsNotFound) {
  EXPECT_TRUE(client_->Get("nope").status().IsNotFound());
}

TEST_F(SmartClientTest, InsertTwiceFails) {
  ASSERT_TRUE(client_->Insert("k", "v").ok());
  EXPECT_TRUE(client_->Insert("k", "v").status().IsKeyExists());
}

TEST_F(SmartClientTest, ReplaceMissingFails) {
  EXPECT_TRUE(client_->Replace("k", "v").status().IsNotFound());
}

TEST_F(SmartClientTest, OptimisticCasWorkflow) {
  auto m1 = client_->Upsert("k", "v1");
  // Another client sneaks in.
  ASSERT_TRUE(client_->Upsert("k", "v2").ok());
  WriteOptions opts;
  opts.cas = m1->cas;
  EXPECT_TRUE(client_->Replace("k", "v3", opts).status().IsKeyExists());
  // Re-read, retry.
  auto fresh = client_->Get("k");
  opts.cas = fresh->cas;
  EXPECT_TRUE(client_->Replace("k", "v3", opts).ok());
  EXPECT_EQ(client_->Get("k")->value, "v3");
}

TEST_F(SmartClientTest, RemoveThenGetNotFound) {
  ASSERT_TRUE(client_->Upsert("k", "v").ok());
  ASSERT_TRUE(client_->Remove("k").ok());
  EXPECT_TRUE(client_->Get("k").status().IsNotFound());
}

TEST_F(SmartClientTest, JsonHelpers) {
  json::Value doc = json::Value::MakeObject();
  doc["name"] = json::Value::Str("Gerald");
  doc["age"] = json::Value::Int(42);
  ASSERT_TRUE(client_->UpsertJson("p1", doc).ok());
  auto round = client_->GetJson("p1");
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->Field("name").AsString(), "Gerald");
  EXPECT_EQ(round->Field("age").AsInt(), 42);
}

TEST_F(SmartClientTest, DurabilityOptionsSucceed) {
  WriteOptions opts;
  opts.durability = cluster::Durability::Replicate(1);
  EXPECT_TRUE(client_->Upsert("r", "v", opts).ok());
  opts.durability = cluster::Durability::Persist(1);
  EXPECT_TRUE(client_->Upsert("p", "v", opts).ok());
  opts.durability.replicate_to = 1;
  opts.durability.persist_to = 2;  // active + replica persistence
  EXPECT_TRUE(client_->Upsert("rp", "v", opts).ok());
}

TEST_F(SmartClientTest, LockWorkflow) {
  ASSERT_TRUE(client_->Upsert("k", "v").ok());
  auto locked = client_->GetAndLock("k", 15000);
  ASSERT_TRUE(locked.ok());
  EXPECT_TRUE(client_->Upsert("k", "steal").status().IsLocked());
  WriteOptions opts;
  opts.cas = locked->cas;
  EXPECT_TRUE(client_->Upsert("k", "mine", opts).ok());
}

TEST_F(SmartClientTest, UnlockReleases) {
  ASSERT_TRUE(client_->Upsert("k", "v").ok());
  auto locked = client_->GetAndLock("k", 15000);
  ASSERT_TRUE(client_->Unlock("k", locked->cas).ok());
  EXPECT_TRUE(client_->Upsert("k", "free").ok());
}

TEST_F(SmartClientTest, SurvivesRebalance) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        client_->Upsert("key" + std::to_string(i), "v" + std::to_string(i))
            .ok());
  }
  cluster_.AddNode();
  ASSERT_TRUE(cluster_.Rebalance().ok());
  // The client's cached map is stale; it must re-route transparently.
  for (int i = 0; i < 100; ++i) {
    auto r = client_->Get("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->value, "v" + std::to_string(i));
  }
  EXPECT_TRUE(client_->Upsert("new-key", "nv").ok());
}

TEST_F(SmartClientTest, SurvivesFailover) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client_->Upsert("key" + std::to_string(i), "v").ok());
  }
  cluster_.Quiesce();  // let replication catch up before the crash
  ASSERT_TRUE(cluster_.Failover(3).ok());
  for (int i = 0; i < 100; ++i) {
    auto r = client_->Get("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST_F(SmartClientTest, ConcurrentClientsNoLostUpdates) {
  // Each thread increments a counter field under CAS; the total must equal
  // the number of successful increments.
  ASSERT_TRUE(client_->Upsert("counter", R"({"n":0})").ok());
  constexpr int kThreads = 8;
  constexpr int kIncrPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SmartClient local(&cluster_, "default");
      for (int i = 0; i < kIncrPerThread; ++i) {
        for (;;) {  // CAS retry loop
          auto cur = local.Get("counter");
          ASSERT_TRUE(cur.ok());
          auto doc = json::Parse(cur->value).value();
          doc["n"] = json::Value::Int(doc.Field("n").AsInt() + 1);
          WriteOptions opts;
          opts.cas = cur->cas;
          auto st = local.Replace("counter", doc.ToJson(), opts);
          if (st.ok()) break;
          ASSERT_TRUE(st.status().IsKeyExists() || st.status().IsLocked());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  auto final_doc = client_->GetJson("counter");
  EXPECT_EQ(final_doc->Field("n").AsInt(), kThreads * kIncrPerThread);
}

TEST_F(SmartClientTest, SubdocLookupIn) {
  ASSERT_TRUE(client_->Upsert("doc", R"({"a":{"b":[10,20]},"name":"X"})").ok());
  auto v = client_->LookupIn("doc", "a.b[1]");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 20);
  EXPECT_TRUE(client_->LookupIn("doc", "a.zzz")->is_missing());
  EXPECT_TRUE(client_->LookupIn("gone", "a").status().IsNotFound());
}

TEST_F(SmartClientTest, SubdocMutateIn) {
  ASSERT_TRUE(client_->Upsert("doc", R"({"profile":{"age":30}})").ok());
  ASSERT_TRUE(client_->MutateIn("doc", "profile.city",
                                json::Value::Str("SF")).ok());
  ASSERT_TRUE(
      client_->MutateIn("doc", "profile.age", json::Value::Int(31)).ok());
  auto round = client_->GetJson("doc");
  EXPECT_EQ(round->GetPath("profile.city").AsString(), "SF");
  EXPECT_EQ(round->GetPath("profile.age").AsInt(), 31);
}

TEST_F(SmartClientTest, SubdocRemoveIn) {
  ASSERT_TRUE(client_->Upsert("doc", R"({"keep":1,"drop":2})").ok());
  ASSERT_TRUE(client_->RemoveIn("doc", "drop").ok());
  EXPECT_TRUE(client_->RemoveIn("doc", "drop").status().IsNotFound());
  auto round = client_->GetJson("doc");
  EXPECT_TRUE(round->Field("drop").is_missing());
  EXPECT_EQ(round->Field("keep").AsInt(), 1);
}

TEST_F(SmartClientTest, SubdocMutateInConcurrent) {
  ASSERT_TRUE(client_->Upsert("doc", R"({"counters":{}})").ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      SmartClient local(&cluster_, "default");
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(local
                        .MutateIn("doc",
                                  "counters.t" + std::to_string(t) + "_" +
                                      std::to_string(i),
                                  json::Value::Int(i))
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  auto round = client_->GetJson("doc");
  EXPECT_EQ(round->Field("counters").AsObject().size(), 80u);
}

TEST_F(SmartClientTest, IncrementCreatesAndCounts) {
  auto v = client_->Increment("hits", 1, /*initial=*/100);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 101);
  EXPECT_EQ(*client_->Increment("hits", 5), 106);
  EXPECT_EQ(*client_->Increment("hits", -6), 100);
}

TEST_F(SmartClientTest, IncrementConcurrentNoLostCounts) {
  constexpr int kThreads = 6, kPerThread = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SmartClient local(&cluster_, "default");
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(local.Increment("ctr", 1).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  auto final_value = client_->GetJson("ctr");
  EXPECT_EQ(final_value->AsInt(), kThreads * kPerThread);
}

TEST_F(SmartClientTest, IncrementOnNonNumberFails) {
  ASSERT_TRUE(client_->Upsert("text", R"("hello")").ok());
  EXPECT_FALSE(client_->Increment("text", 1).ok());
}

TEST_F(SmartClientTest, VBucketForIsStable) {
  EXPECT_EQ(client_->VBucketFor("abc"), client_->VBucketFor("abc"));
  EXPECT_LT(client_->VBucketFor("abc"), cluster::kNumVBuckets);
}

// --- Retry backoff policy ---

TEST(SmartClientBackoffTest, DecorrelatedJitterStaysInBoundsAndVaries) {
  RetryPolicy p;
  p.initial_backoff_us = 50;
  p.max_backoff_us = 2000;
  Rng rng(42);
  uint64_t prev = p.initial_backoff_us;
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    uint64_t next = NextBackoffUs(p, prev, rng);
    ASSERT_GE(next, p.initial_backoff_us);
    ASSERT_LE(next, p.max_backoff_us);
    ASSERT_LE(next, std::max(p.initial_backoff_us, prev * 3));
    seen.insert(next);
    prev = next;
  }
  // Decorrelated: the sequence actually varies instead of locking into the
  // deterministic doubling ladder that synchronizes client retry storms.
  EXPECT_GT(seen.size(), 10u);
}

// --- Routing shared by both clients (client/router.h) ---
//
// The same cases run against SmartClient (in-process calls) and WireClient
// (binary protocol over TCP): both delegate to one routing/retry loop, so
// both must produce the same client.* counter deltas.

// With this policy a full retry burn would sleep ~63 * 5ms = 315ms.
RetryPolicy SlowFixedBackoff() {
  RetryPolicy p;
  p.max_attempts = 64;
  p.initial_backoff_us = 5000;
  p.max_backoff_us = 5000;
  return p;
}

template <typename C>
std::unique_ptr<C> MakeClient(cluster::Cluster* cluster,
                              const std::string& bucket, RetryPolicy retry) {
  if constexpr (std::is_same_v<C, SmartClient>) {
    return std::make_unique<SmartClient>(cluster, bucket, retry);
  } else {
    std::vector<uint16_t> ports;
    for (cluster::NodeId id : cluster->node_ids()) {
      ports.push_back(cluster->wire_port(id));
    }
    return std::make_unique<WireClient>(ports, bucket, retry);
  }
}

// client.<name> counter delta since `before`.
uint64_t ClientDelta(const stats::Snapshot& before, const std::string& name) {
  stats::Snapshot d =
      stats::Delta(before, stats::Registry::Global().Collect("client"));
  auto it = d.find("client." + name);
  return it == d.end() ? 0 : it->second.counter;
}

template <typename C>
class ClientRoutingTest : public ::testing::Test {};
using Clients = ::testing::Types<SmartClient, WireClient>;
TYPED_TEST_SUITE(ClientRoutingTest, Clients);

TYPED_TEST(ClientRoutingTest, OpsOnLostVBucketFailFastWithoutRetryBurn) {
  cluster::Cluster cluster;
  cluster.AddNode();
  cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "b";
  cfg.num_replicas = 0;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());
  ASSERT_TRUE(cluster.StartWireServers("b").ok());
  // Manual failover of a node with zero replicas orphans its vBuckets.
  ASSERT_TRUE(cluster.Failover(0, cluster::FailoverMode::kManual).ok());

  auto map = cluster.map("b");
  std::string lost, alive;
  for (int i = 0; (lost.empty() || alive.empty()) && i < 10000; ++i) {
    std::string cand = "key" + std::to_string(i);
    if (map->ActiveFor(cluster::KeyToVBucket(cand)) == cluster::kNoNode) {
      if (lost.empty()) lost = cand;
    } else if (alive.empty()) {
      alive = cand;
    }
  }
  ASSERT_FALSE(lost.empty());
  ASSERT_FALSE(alive.empty());

  auto client = MakeClient<TypeParam>(&cluster, "b", SlowFixedBackoff());
  // Keys whose vBucket still has an active are unaffected.
  ASSERT_TRUE(client->Upsert(alive, "v").ok());
  EXPECT_EQ(client->Get(alive)->value, "v");

  stats::Snapshot before = stats::Registry::Global().Collect("client");
  auto t0 = std::chrono::steady_clock::now();
  auto r = client->Get(lost);
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_TRUE(r.status().IsTempFail()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("no active"), std::string::npos)
      << r.status().ToString();
  EXPECT_LT(elapsed_ms, 100);
  EXPECT_EQ(ClientDelta(before, "no_active_fail_fast"), 1u);
  EXPECT_EQ(ClientDelta(before, "retries"), 0u);
  EXPECT_EQ(ClientDelta(before, "map_refreshes"), 1u);
}

TYPED_TEST(ClientRoutingTest, RebalanceRedirectRefreshesAndRetries) {
  cluster::Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());
  cluster.AddNode();  // joins at the rebalance below
  ASSERT_TRUE(cluster.StartWireServers("default").ok());

  auto client = MakeClient<TypeParam>(&cluster, "default", RetryPolicy{});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client->Upsert("key" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(cluster.Rebalance().ok());

  // The cached map is stale: the first op aimed at a moved vBucket gets
  // NotMyVBucket, refreshes the map and retries on the new active.
  stats::Snapshot before = stats::Registry::Global().Collect("client");
  for (int i = 0; i < 100; ++i) {
    auto r = client->Get("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->value, "v");
  }
  EXPECT_GE(ClientDelta(before, "retries"), 1u);
  EXPECT_GE(ClientDelta(before, "map_refreshes"), 1u);
  EXPECT_EQ(ClientDelta(before, "no_active_fail_fast"), 0u);
  EXPECT_EQ(ClientDelta(before, "op_errors"), 0u);
}

// An unknown bucket is a permanent map error: returned at once, not retried
// through the whole backoff budget.
TEST(WireClientRoutingTest, UnknownBucketFailsWithoutRetryBurn) {
  cluster::Cluster cluster;
  cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());
  ASSERT_TRUE(cluster.StartWireServers("default").ok());

  WireClient client({cluster.wire_port(0)}, "no-such-bucket",
                    SlowFixedBackoff());
  auto t0 = std::chrono::steady_clock::now();
  auto r = client.Get("k");
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
  EXPECT_LT(elapsed_ms, 100);
}

}  // namespace
}  // namespace couchkv::client
