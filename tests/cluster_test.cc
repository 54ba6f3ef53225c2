// Tests for the cluster layer: vBucket mapping, bucket/flusher behaviour,
// replication, durability, orchestrator election, rebalance, failover.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/smart_client.h"
#include "cluster/cluster.h"
#include "cluster/health_monitor.h"
#include "cluster/vbucket.h"
#include "cluster/vbucket_map.h"
#include "common/clock.h"
#include "harness/registry_counter.h"
#include "net/faulty_transport.h"

namespace couchkv::cluster {
namespace {

// KV ops aimed at one node through its data-service gate, bypassing the
// smart client's routing (so a test can hit a replica or a wrong node).
StatusOr<kv::DocMeta> SetOn(Node* n, const std::string& bucket, uint16_t vb,
                            std::string_view key, std::string_view value) {
  return n->WithVBucket(bucket, vb, [&](VBucket& v) {
    return v.Store(kv::StoreOp::kSet, key, value, 0, 0, 0);
  });
}

StatusOr<kv::GetResult> GetOn(Node* n, const std::string& bucket, uint16_t vb,
                              std::string_view key) {
  return n->WithVBucket(bucket, vb, [&](VBucket& v) { return v.Get(key); });
}

// --- VBucketMap ---

TEST(VBucketMapTest, KeyHashingMatchesCrc32) {
  EXPECT_EQ(KeyToVBucket("user::123"), Crc32("user::123") % kNumVBuckets);
}

TEST(VBucketMapTest, BalancedMapCoversAllVBuckets) {
  ClusterMap map = BuildBalancedMap({0, 1, 2, 3}, 1, 1);
  for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
    const auto& e = map.entries[vb];
    EXPECT_NE(e.active, kNoNode);
    ASSERT_EQ(e.replicas.size(), 1u);
    EXPECT_NE(e.replicas[0], e.active);
  }
}

TEST(VBucketMapTest, BalancedMapIsEven) {
  ClusterMap map = BuildBalancedMap({0, 1, 2, 3}, 1, 1);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(map.CountActive(n), kNumVBuckets / 4);
  }
}

TEST(VBucketMapTest, ReplicaCountClampedToNodes) {
  ClusterMap map = BuildBalancedMap({0, 1}, 3, 1);
  EXPECT_EQ(map.entries[0].replicas.size(), 1u);  // only 1 other node
}

TEST(VBucketMapTest, ThreeReplicasDistinctNodes) {
  ClusterMap map = BuildBalancedMap({0, 1, 2, 3, 4}, 3, 1);
  for (uint16_t vb = 0; vb < kNumVBuckets; vb += 97) {
    const auto& e = map.entries[vb];
    std::set<NodeId> owners(e.replicas.begin(), e.replicas.end());
    owners.insert(e.active);
    EXPECT_EQ(owners.size(), 4u);
  }
}

// --- VBucket ---

// Regression: the rebalance switchover drains the last deltas by pumping the
// DCP producer inside WithOpLock, and the producer's backfill callback reads
// the stream's vBucket file via file(). file() must therefore never acquire
// op_mu_ — an earlier rewrite routed it through the op lock and the
// switchover self-deadlocked whenever a stream still needed backfill. With
// the pointer on its own leaf lock this returns; before, it hung forever.
TEST(VBucketTest, FileIsReadableWhileOpLockHeld) {
  VBucket vb(0, VBucketState::kActive, Clock::Real(),
             kv::EvictionPolicy::kValueOnly);
  storage::CouchFile* seen = reinterpret_cast<storage::CouchFile*>(1);
  vb.WithOpLock([&] { seen = vb.file().get(); });
  EXPECT_EQ(seen, nullptr);  // no file attached; the point is it returned
}

// --- Cluster fixture ---

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) cluster_.AddNode();
    BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
  }

  // Writes through the data service directly (no smart client).
  StatusOr<kv::DocMeta> Write(const std::string& key,
                              const std::string& value) {
    uint16_t vb = KeyToVBucket(key);
    NodeId active = cluster_.map("default")->ActiveFor(vb);
    return SetOn(cluster_.node(active), "default", vb, key, value);
  }

  StatusOr<kv::GetResult> Read(const std::string& key) {
    uint16_t vb = KeyToVBucket(key);
    NodeId active = cluster_.map("default")->ActiveFor(vb);
    return GetOn(cluster_.node(active), "default", vb, key);
  }

  Cluster cluster_;
};

TEST_F(ClusterTest, WriteAndReadThroughActiveNode) {
  ASSERT_TRUE(Write("k1", "{\"a\":1}").ok());
  auto r = Read("k1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->doc.value, "{\"a\":1}");
}

TEST_F(ClusterTest, WrongNodeReturnsNotMyVBucket) {
  uint16_t vb = KeyToVBucket("k1");
  NodeId active = cluster_.map("default")->ActiveFor(vb);
  NodeId wrong = (active + 1) % 4;
  // The wrong node hosts this vb as replica or dead, never active.
  auto r = SetOn(cluster_.node(wrong), "default", vb, "k1", "v");
  EXPECT_TRUE(r.status().IsNotMyVBucket());
}

TEST_F(ClusterTest, OrchestratorIsLowestHealthyNode) {
  EXPECT_EQ(cluster_.orchestrator(), 0u);
  cluster_.node(0)->set_healthy(false);
  EXPECT_EQ(cluster_.orchestrator(), 1u);
  cluster_.node(0)->set_healthy(true);
  EXPECT_EQ(cluster_.orchestrator(), 0u);
}

TEST_F(ClusterTest, MutationsReplicateAsynchronously) {
  ASSERT_TRUE(Write("k1", "v1").ok());
  cluster_.Quiesce();
  uint16_t vb = KeyToVBucket("k1");
  auto map = cluster_.map("default");
  NodeId replica = map->ReplicasFor(vb)[0];
  std::shared_ptr<Bucket> rb = cluster_.node(replica)->bucket("default");
  auto r = rb->vbucket(vb)->hash_table().Get("k1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->doc.value, "v1");
}

TEST_F(ClusterTest, ReplicaRejectsFrontEndOps) {
  uint16_t vb = KeyToVBucket("k1");
  NodeId replica = cluster_.map("default")->ReplicasFor(vb)[0];
  auto r = GetOn(cluster_.node(replica), "default", vb, "k1");
  EXPECT_TRUE(r.status().IsNotMyVBucket());
}

TEST_F(ClusterTest, FlusherPersistsAsynchronously) {
  auto meta = Write("k1", "v1");
  ASSERT_TRUE(meta.ok());
  cluster_.Quiesce();
  uint16_t vb = KeyToVBucket("k1");
  NodeId active = cluster_.map("default")->ActiveFor(vb);
  std::shared_ptr<Bucket> b = cluster_.node(active)->bucket("default");
  EXPECT_GE(b->vbucket(vb)->persisted_seqno(), meta->seqno);
  // The document is now on "disk".
  auto doc = b->vbucket(vb)->file()->Get("k1");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->value, "v1");
}

TEST_F(ClusterTest, DurabilityReplicateTo) {
  auto meta = Write("k1", "v1");
  ASSERT_TRUE(meta.ok());
  Status st = cluster_.WaitForDurability("default", KeyToVBucket("k1"),
                                         meta->seqno, Durability::Replicate(1));
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_F(ClusterTest, DurabilityPersistTo) {
  auto meta = Write("k1", "v1");
  ASSERT_TRUE(meta.ok());
  Status st = cluster_.WaitForDurability("default", KeyToVBucket("k1"),
                                         meta->seqno, Durability::Persist(1));
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_F(ClusterTest, DurabilityTimesOutWhenImpossible) {
  auto meta = Write("k1", "v1");
  ASSERT_TRUE(meta.ok());
  Durability dur;
  dur.replicate_to = 3;  // only 1 replica configured
  dur.timeout_ms = 50;
  Status st = cluster_.WaitForDurability("default", KeyToVBucket("k1"),
                                         meta->seqno, dur);
  EXPECT_TRUE(st.IsTimeout());
}

TEST_F(ClusterTest, FailoverPromotesReplicas) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Write("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  cluster_.Quiesce();

  NodeId victim = 2;
  ASSERT_TRUE(cluster_.Failover(victim).ok());
  auto map = cluster_.map("default");
  // No vBucket is active on the failed node.
  for (uint16_t vb = 0; vb < kNumVBuckets; ++vb) {
    EXPECT_NE(map->ActiveFor(vb), victim);
    EXPECT_NE(map->ActiveFor(vb), kNoNode);
  }
  // All data remains readable from promoted replicas.
  for (int i = 0; i < 200; ++i) {
    auto r = Read("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << "key" << i;
    EXPECT_EQ(r->doc.value, "v" + std::to_string(i));
  }
}

TEST_F(ClusterTest, FailedNodeRefusesRequests) {
  ASSERT_TRUE(cluster_.Failover(1).ok());
  auto r = GetOn(cluster_.node(1), "default", 0, "k");
  EXPECT_TRUE(r.status().IsTempFail());
}

TEST_F(ClusterTest, RebalanceAfterAddNodeMovesVBuckets) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(Write("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  cluster_.Quiesce();

  NodeId n4 = cluster_.AddNode();
  ASSERT_TRUE(cluster_.Rebalance().ok());
  EXPECT_GT(cluster_.total_vbucket_moves(), 0u);

  auto map = cluster_.map("default");
  // The new node now owns ~1/5 of the active partitions.
  size_t on_new = map->CountActive(n4);
  EXPECT_NEAR(static_cast<double>(on_new), kNumVBuckets / 5.0,
              kNumVBuckets / 20.0);
  // All data survives and routes correctly.
  for (int i = 0; i < 300; ++i) {
    auto r = Read("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << "key" << i << ": " << r.status().ToString();
    EXPECT_EQ(r->doc.value, "v" + std::to_string(i));
  }
}

TEST_F(ClusterTest, RebalanceKeepsReplicationWorking) {
  cluster_.AddNode();
  ASSERT_TRUE(cluster_.Rebalance().ok());
  ASSERT_TRUE(Write("post-rebalance", "v").ok());
  cluster_.Quiesce();
  uint16_t vb = KeyToVBucket("post-rebalance");
  auto map = cluster_.map("default");
  ASSERT_FALSE(map->ReplicasFor(vb).empty());
  NodeId replica = map->ReplicasFor(vb)[0];
  auto r = cluster_.node(replica)
               ->bucket("default")
               ->vbucket(vb)
               ->hash_table()
               .Get("post-rebalance");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->doc.value, "v");
}

TEST_F(ClusterTest, MapVersionIncreasesOnTopologyChange) {
  uint64_t v0 = cluster_.map("default")->version;
  cluster_.AddNode();
  ASSERT_TRUE(cluster_.Rebalance().ok());
  EXPECT_GT(cluster_.map("default")->version, v0);
}

TEST_F(ClusterTest, MdsNodeWithoutDataServiceHostsNoBuckets) {
  Cluster c;
  c.AddNode(kDataService);
  NodeId query_only = c.AddNode(kQueryService);
  BucketConfig cfg;
  cfg.name = "b";
  cfg.num_replicas = 0;
  ASSERT_TRUE(c.CreateBucket(cfg).ok());
  EXPECT_EQ(c.node(query_only)->bucket("b"), nullptr);
  auto r = GetOn(c.node(query_only), "b", 0, "k");
  EXPECT_FALSE(r.ok());
}

TEST_F(ClusterTest, CompactionReducesFragmentation) {
  // Hammer one key so its vBucket file is nearly all stale versions. Each
  // write waits for persistence so the disk-queue dedup cannot collapse the
  // versions into a single disk write.
  std::string key = "hot";
  uint16_t vb = KeyToVBucket(key);
  NodeId active = cluster_.map("default")->ActiveFor(vb);
  std::shared_ptr<Bucket> b = cluster_.node(active)->bucket("default");
  for (int i = 0; i < 50; ++i) {
    auto meta = Write(key, std::string(256, 'x') + std::to_string(i));
    ASSERT_TRUE(meta.ok());
    ASSERT_TRUE(b->WaitForPersistence(vb, meta->seqno, 5000).ok());
  }
  cluster_.Quiesce();
  EXPECT_GT(b->vbucket(vb)->file()->Fragmentation(), 0.5);
  size_t compacted = b->MaybeCompact();
  EXPECT_GE(compacted, 1u);
  EXPECT_LT(b->vbucket(vb)->file()->Fragmentation(), 0.5);
  auto r = Read(key);
  ASSERT_TRUE(r.ok());
}

TEST_F(ClusterTest, QuotaEnforcementEvicts) {
  Cluster c;
  c.AddNode();
  BucketConfig cfg;
  cfg.name = "small";
  cfg.num_replicas = 0;
  cfg.memory_quota_bytes = 1 << 20;  // 1 MiB
  ASSERT_TRUE(c.CreateBucket(cfg).ok());
  std::shared_ptr<Bucket> b = c.node(0)->bucket("small");
  for (int i = 0; i < 2000; ++i) {
    std::string key = "k" + std::to_string(i);
    uint16_t vb = KeyToVBucket(key);
    ASSERT_TRUE(
        SetOn(c.node(0), "small", vb, key, std::string(2048, 'v')).ok());
  }
  c.Quiesce();  // persist so values are clean and evictable
  ASSERT_GT(b->mem_used(), cfg.memory_quota_bytes);
  uint64_t reclaimed = b->EnforceQuota();
  EXPECT_GT(reclaimed, 0u);
}

TEST_F(ClusterTest, CrashNodeRefusesRequestsUntilRestart) {
  ASSERT_TRUE(Write("k1", "v1").ok());
  cluster_.Quiesce();  // persist + replicate before the crash
  uint16_t vb = KeyToVBucket("k1");
  NodeId active = cluster_.map("default")->ActiveFor(vb);

  ASSERT_TRUE(cluster_.CrashNode(active).ok());
  auto r = GetOn(cluster_.node(active), "default", vb, "k1");
  EXPECT_TRUE(r.status().IsTempFail()) << r.status().ToString();
  // Unlike Failover, the map still names the crashed node as active.
  EXPECT_EQ(cluster_.map("default")->ActiveFor(vb), active);

  ASSERT_TRUE(cluster_.RestartNode(active).ok());
  auto after = Read("k1");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->doc.value, "v1");
}

TEST_F(ClusterTest, RestartedNodeRecoversOnlyCommittedWrites) {
  // Persisted write -> survives. Memory-only write -> lost by the crash,
  // and the replica that received it over DCP is rolled back to match.
  ASSERT_TRUE(Write("durable", "kept").ok());
  cluster_.Quiesce();
  uint16_t vb = KeyToVBucket("durable");
  NodeId active = cluster_.map("default")->ActiveFor(vb);
  ASSERT_TRUE(cluster_.CrashNode(active).ok());
  ASSERT_TRUE(cluster_.RestartNode(active).ok());
  cluster_.Quiesce();

  auto r = Read("durable");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->doc.value, "kept");
  // Replica converged on the recovered active.
  NodeId replica = cluster_.map("default")->ReplicasFor(vb)[0];
  auto rr = cluster_.node(replica)->bucket("default")->vbucket(vb)
                ->hash_table().Get("durable");
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->doc.value, "kept");
}

TEST_F(ClusterTest, RebalanceUnderFaultyTransport) {
  // Clients keep writing and reading while a node joins and the cluster
  // rebalances over a lossy, laggy network. NOT_MY_VBUCKET answers and
  // dropped messages are retried by the smart client; when the dust
  // settles, every acknowledged key must be reachable.
  net::FaultyTransport transport(12345);
  net::LinkFaults lossy;
  lossy.drop = 0.05;
  lossy.max_latency_us = 30;
  transport.SetDefaultFaults(lossy);
  harness::CounterDelta dropped("transport", "dropped");
  cluster_.set_transport(&transport);

  std::atomic<bool> stop{false};
  std::atomic<int> write_failures{0};
  std::vector<std::vector<std::string>> acked(3);
  std::vector<std::thread> workers;
  for (int c = 0; c < 3; ++c) {
    workers.emplace_back([&, c] {
      client::SmartClient client(&cluster_, "default", {},
                                 /*client_id=*/100 + c);
      // At least one full pass over this client's 40 keys, then keep the
      // load up until the rebalance finishes.
      for (int i = 0; i < 40 || !stop.load(); ++i) {
        std::string key = "rb-c" + std::to_string(c) + "-" +
                          std::to_string(i % 40);
        if (client.Upsert(key, "v" + std::to_string(i)).ok()) {
          if (i < 40) acked[c].push_back(key);
        } else {
          write_failures.fetch_add(1);
        }
        (void)client.Get(key);
      }
    });
  }

  NodeId added = cluster_.AddNode();
  Status st = cluster_.Rebalance();
  stop.store(true);
  for (auto& w : workers) w.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(cluster_.map("default")->CountActive(added), 0u);
  EXPECT_GT(dropped(), 0u);

  // Settle on a clean network, then verify reachability of every key that
  // was acked during the storm: zero unreachable keys.
  transport.Reset();
  cluster_.Quiesce();
  client::SmartClient checker(&cluster_, "default", {}, /*client_id=*/99);
  int unreachable = 0;
  for (const auto& keys : acked) {
    for (const std::string& key : keys) {
      if (!checker.Get(key).ok()) ++unreachable;
    }
  }
  EXPECT_EQ(unreachable, 0);
  cluster_.set_transport(nullptr);
}

// --- Failover semantics (paper §4.3.1) ---

TEST_F(ClusterTest, FailoverIsIdempotent) {
  ASSERT_TRUE(cluster_.Failover(2).ok());
  EXPECT_TRUE(cluster_.failed_over(2));
  Status again = cluster_.Failover(2);
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument) << again.ToString();
  // The duplicate call changed nothing: still exactly one failed-over node.
  EXPECT_TRUE(cluster_.failed_over(2));
  EXPECT_EQ(cluster_.member_ids().size(), 3u);
}

TEST_F(ClusterTest, FailoverPromotesFreshestReplicaBySeqno) {
  BucketConfig cfg;
  cfg.name = "wide";
  cfg.num_replicas = 2;
  ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());

  const std::string key = "seqno-key";
  uint16_t vb = KeyToVBucket(key);
  NodeId active = cluster_.map("wide")->ActiveFor(vb);
  std::vector<NodeId> replicas = cluster_.map("wide")->ReplicasFor(vb);
  ASSERT_EQ(replicas.size(), 2u);

  // Baseline write reaches both replicas over a clean network.
  ASSERT_TRUE(SetOn(cluster_.node(active), "wide", vb, key, "v1").ok());
  cluster_.Quiesce();

  // Stall replication to the chain-first replica only; the chain-second
  // replica keeps receiving and ends up with the higher seqno.
  net::FaultyTransport transport(7);
  cluster_.set_transport(&transport);
  transport.Block(net::Endpoint::Node(active),
                  net::Endpoint::Node(replicas[0]));
  StatusOr<kv::DocMeta> last = Status::NotFound("no write yet");
  for (int i = 2; i <= 5; ++i) {
    last = SetOn(cluster_.node(active), "wide", vb, key,
                 "v" + std::to_string(i));
    ASSERT_TRUE(last.ok());
  }
  ASSERT_TRUE(cluster_
                  .WaitForDurability("wide", vb, last->seqno,
                                     Durability::Replicate(1))
                  .ok());

  // Chain order would promote replicas[0] (stuck at v1). Seqno-aware
  // promotion must pick the replica that actually holds the acked writes.
  ASSERT_TRUE(cluster_.Failover(active).ok());
  EXPECT_EQ(cluster_.map("wide")->ActiveFor(vb), replicas[1]);
  auto r = GetOn(cluster_.node(replicas[1]), "wide", vb, key);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->doc.value, "v5");

  // Drain the catch-up replication before the transport goes out of scope:
  // a DCP pump caught mid-Call must not outlive it.
  transport.HealAll();
  cluster_.Quiesce();
  cluster_.set_transport(nullptr);
}

TEST_F(ClusterTest, AutoFailoverVetoedWhenLastCopyWouldVanish) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(Write("av" + std::to_string(i), "v").ok());
  }
  cluster_.Quiesce();
  // First failover empties the replica chain of every vBucket the victim
  // replicated: their new actives are now the last copies.
  ASSERT_TRUE(cluster_.Failover(3).ok());
  auto map = cluster_.map("default");
  NodeId last_copy = kNoNode;
  for (uint16_t vb = 0; vb < kNumVBuckets && last_copy == kNoNode; ++vb) {
    const auto& e = map->entries[vb];
    if (e.replicas.empty() && e.active != kNoNode) last_copy = e.active;
  }
  ASSERT_NE(last_copy, kNoNode);

  harness::CounterDelta vetoed("cluster", "failover.vetoed");
  uint64_t version0 = map->version;
  Status st = cluster_.Failover(last_copy, FailoverMode::kAuto);
  EXPECT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
  EXPECT_EQ(vetoed(), 1u);
  // The veto left the cluster untouched: node still a healthy member, map
  // unchanged.
  EXPECT_FALSE(cluster_.failed_over(last_copy));
  EXPECT_TRUE(cluster_.node(last_copy)->healthy());
  EXPECT_EQ(cluster_.map("default")->version, version0);
}

TEST_F(ClusterTest, ManualFailoverToZeroCopiesThenRecoverNodeResurrects) {
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(Write("rz" + std::to_string(i), "val" + std::to_string(i))
                    .ok());
  }
  cluster_.Quiesce();
  ASSERT_TRUE(cluster_.Failover(3).ok());

  // Find a key whose vBucket now has a single remaining copy.
  auto map = cluster_.map("default");
  std::string key;
  uint16_t vb = 0;
  NodeId owner = kNoNode;
  for (int i = 0; i < 80 && owner == kNoNode; ++i) {
    std::string cand = "rz" + std::to_string(i);
    const auto& e = map->entries[KeyToVBucket(cand)];
    if (e.replicas.empty() && e.active != kNoNode) {
      key = cand;
      vb = KeyToVBucket(cand);
      owner = e.active;
    }
  }
  ASSERT_NE(owner, kNoNode);

  // Manual failover honors the admin's judgment and accepts the loss: the
  // vBucket drops to zero copies.
  ASSERT_TRUE(cluster_.Failover(owner, FailoverMode::kManual).ok());
  EXPECT_EQ(cluster_.map("default")->ActiveFor(vb), kNoNode);

  // Delta recovery resurrects the orphaned vBucket with its data intact —
  // the failed-over node never lost its copy.
  ASSERT_TRUE(cluster_.RecoverNode(owner).ok());
  EXPECT_FALSE(cluster_.failed_over(owner));
  cluster_.Quiesce();
  EXPECT_NE(cluster_.map("default")->ActiveFor(vb), kNoNode);
  auto r = Read(key);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->doc.value, "val" + key.substr(2));
}

TEST_F(ClusterTest, OrchestratorAdvancesWhenLowestNodeFailsOver) {
  ASSERT_EQ(cluster_.orchestrator(), 0u);
  ASSERT_TRUE(cluster_.Failover(0).ok());
  // The next-lowest healthy member takes over master services.
  EXPECT_EQ(cluster_.orchestrator(), 1u);
  EXPECT_EQ(cluster_.map("default")->CountActive(0), 0u);
  // Cluster services keep working under the new orchestrator: client
  // traffic routes and a topology change still succeeds.
  client::SmartClient client(&cluster_, "default", {}, /*client_id=*/501);
  for (int i = 0; i < 20; ++i) {
    std::string k = "orch" + std::to_string(i);
    ASSERT_TRUE(client.Upsert(k, "v" + std::to_string(i)).ok());
    auto g = client.Get(k);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_EQ(g->value, "v" + std::to_string(i));
  }
  ASSERT_TRUE(cluster_.Rebalance().ok());
}

// --- Delta node recovery (paper §4.3.1) ---

TEST_F(ClusterTest, RecoverNodeRejectsInvalidTargets) {
  EXPECT_TRUE(cluster_.RecoverNode(99).IsNotFound());
  Status st = cluster_.RecoverNode(1);  // healthy member, not failed over
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST_F(ClusterTest, DeltaRecoveryReintegratesFailedOverNode) {
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(Write("pre" + std::to_string(i), "v" + std::to_string(i))
                    .ok());
  }
  cluster_.Quiesce();
  harness::CounterDelta delta_recoveries("cluster", "recovery.delta_total");
  harness::CounterDelta rollbacks("cluster", "recovery.rollback_vbuckets");

  ASSERT_TRUE(cluster_.Failover(2).ok());
  // The cluster keeps taking writes while node 2 is out.
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(Write("post" + std::to_string(i), "w" + std::to_string(i))
                    .ok());
  }
  cluster_.Quiesce();

  ASSERT_TRUE(cluster_.RecoverNode(2).ok());
  EXPECT_FALSE(cluster_.failed_over(2));
  EXPECT_EQ(delta_recoveries(), 1u);
  // The failover was quiesced, so nothing on node 2 diverged: recovery is
  // pure delta catch-up, no vBucket rollback.
  EXPECT_EQ(rollbacks(), 0u);
  cluster_.Quiesce();

  // Rebalance (run by RecoverNode) handed active vBuckets back to node 2,
  // and every write — before and during the outage — is still readable.
  EXPECT_GT(cluster_.map("default")->CountActive(2), 0u);
  for (int i = 0; i < 150; ++i) {
    auto pre = Read("pre" + std::to_string(i));
    ASSERT_TRUE(pre.ok()) << "pre" << i << ": " << pre.status().ToString();
    EXPECT_EQ(pre->doc.value, "v" + std::to_string(i));
    auto post = Read("post" + std::to_string(i));
    ASSERT_TRUE(post.ok()) << "post" << i << ": "
                           << post.status().ToString();
    EXPECT_EQ(post->doc.value, "w" + std::to_string(i));
  }
}

// RecoverNode rolls back a copy that ran past the promotion point. The
// rollback resets the vBucket in place, so a front-end reader, a service
// reading high_seqno and a replica stream holding the raw VBucket pointer
// all keep working through it. Replacing the object instead raced every one
// of them (a data race on the owning pointer and a use-after-free of the
// old vBucket, which TSan and ASan report).
TEST_F(ClusterTest, RollbackResetsVBucketInPlaceUnderConcurrentUse) {
  const std::string key = "rollback-key";
  uint16_t vb = KeyToVBucket(key);
  NodeId active = cluster_.map("default")->ActiveFor(vb);
  NodeId replica = cluster_.map("default")->ReplicasFor(vb)[0];
  ASSERT_TRUE(
      SetOn(cluster_.node(active), "default", vb, key, "v1").ok());
  cluster_.Quiesce();

  // Writes the replica never sees: the active's copy runs ahead, so the
  // promotion point (seqno 1) is below it.
  net::FaultyTransport transport(11);
  cluster_.set_transport(&transport);
  transport.Block(net::Endpoint::Node(active), net::Endpoint::Node(replica));
  for (int i = 2; i <= 5; ++i) {
    ASSERT_TRUE(SetOn(cluster_.node(active), "default", vb, key,
                      "v" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(cluster_.Failover(active).ok());
  ASSERT_EQ(cluster_.map("default")->ActiveFor(vb), replica);
  transport.HealAll();

  std::shared_ptr<Bucket> b = cluster_.node(active)->bucket("default");
  VBucket* held = b->vbucket(vb);  // as a replica stream callback holds it
  auto promoted = GetOn(cluster_.node(replica), "default", vb, key);
  ASSERT_TRUE(promoted.ok());
  const kv::Document first = promoted->doc;  // v1 at seqno 1
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)b->vbucket(vb)->Get(key);
      (void)b->vbucket(vb)->high_seqno();
      std::this_thread::yield();
    }
  });
  std::thread replicator([&] {
    while (!stop.load()) {
      held->ApplyReplicated(first);  // idempotent: the promoted state
      std::this_thread::yield();
    }
  });
  harness::CounterDelta rollbacks("cluster", "recovery.rollback_vbuckets");
  Status recovered = cluster_.RecoverNode(active);
  stop.store(true);
  reader.join();
  replicator.join();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(rollbacks(), 1u);
  EXPECT_EQ(b->vbucket(vb), held);

  // The discarded tail (v2..v5) is gone everywhere; the promoted state won.
  cluster_.Quiesce();
  auto r = Read(key);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->doc.value, "v1");
  cluster_.set_transport(nullptr);
}

// --- HealthMonitor detector + orchestration, on a manual clock ---

class HealthMonitorTest : public ::testing::Test {
 protected:
  HealthMonitorTest()
      : clock_(1'000'000'000ULL), transport_(/*seed=*/99), cluster_(Opts()) {}

  ClusterOptions Opts() {
    ClusterOptions o;
    o.clock = &clock_;
    return o;
  }

  void SetUp() override {
    for (int i = 0; i < 5; ++i) cluster_.AddNode();
    BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 2;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    cluster_.set_transport(&transport_);
  }

  void TearDown() override { cluster_.set_transport(nullptr); }

  ManualClock clock_;
  net::FaultyTransport transport_;
  Cluster cluster_;
};

TEST_F(HealthMonitorTest, DetectorConfirmsDownExactlyAtTimeout) {
  HealthMonitorOptions opts;
  opts.auto_failover_timeout_ms = 500;
  opts.auto_failover_enabled = false;  // detector only
  HealthMonitor monitor(&cluster_, opts);
  monitor.TickOnce();
  EXPECT_EQ(monitor.Opinion(0, 4), PeerHealth::kHealthy);

  transport_.IsolateNode(4);
  monitor.TickOnce();  // failing, but not yet for auto_failover_timeout_ms
  EXPECT_EQ(monitor.Opinion(0, 4), PeerHealth::kSuspect);
  clock_.AdvanceMillis(499);
  monitor.TickOnce();
  EXPECT_EQ(monitor.Opinion(0, 4), PeerHealth::kSuspect);
  clock_.AdvanceMillis(1);
  monitor.TickOnce();
  EXPECT_EQ(monitor.Opinion(0, 4), PeerHealth::kConfirmedDown);

  // One successful round fully clears the verdict — there is no sticky
  // failure state a flapping link could accumulate.
  transport_.HealNode(4);
  monitor.TickOnce();
  EXPECT_EQ(monitor.Opinion(0, 4), PeerHealth::kHealthy);
  EXPECT_FALSE(cluster_.failed_over(4));
}

TEST_F(HealthMonitorTest, QuorumConfirmationTriggersAutoFailover) {
  HealthMonitorOptions opts;
  opts.auto_failover_timeout_ms = 300;
  HealthMonitor monitor(&cluster_, opts);
  monitor.TickOnce();

  transport_.IsolateNode(4);
  monitor.TickOnce();
  ASSERT_FALSE(cluster_.failed_over(4));  // suspect is not enough
  clock_.AdvanceMillis(300);
  monitor.TickOnce();
  EXPECT_TRUE(cluster_.failed_over(4));
  EXPECT_EQ(monitor.failovers_executed(), 1);
  EXPECT_EQ(cluster_.map("default")->CountActive(4), 0u);
}

TEST_F(HealthMonitorTest, FailoverBudgetStopsCascadesUntilReset) {
  HealthMonitorOptions opts;
  opts.auto_failover_timeout_ms = 200;
  opts.max_auto_failovers = 1;
  HealthMonitor monitor(&cluster_, opts);
  monitor.TickOnce();

  transport_.IsolateNode(4);
  clock_.AdvanceMillis(200);
  monitor.TickOnce();
  ASSERT_TRUE(cluster_.failed_over(4));

  // A second node dies, but the budget is spent: the monitor confirms it
  // down yet refuses to act until an operator resets the budget.
  transport_.IsolateNode(3);
  clock_.AdvanceMillis(400);
  monitor.TickOnce();
  monitor.TickOnce();
  EXPECT_EQ(monitor.Opinion(0, 3), PeerHealth::kConfirmedDown);
  EXPECT_FALSE(cluster_.failed_over(3));
  EXPECT_EQ(monitor.failovers_executed(), 1);

  monitor.ResetFailoverBudget();
  monitor.TickOnce();
  EXPECT_TRUE(cluster_.failed_over(3));
  EXPECT_EQ(monitor.failovers_executed(), 2);
}

}  // namespace
}  // namespace couchkv::cluster
