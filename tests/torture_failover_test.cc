// Failover torture: the HealthMonitor detects FaultyTransport-induced
// failures through its own transport-routed heartbeats — NO test here calls
// Failover() on a live fault or touches set_healthy(); topology changes only
// because the detector, quorum, and orchestrator machinery decided them.
// Scenarios: partition -> auto-failover with zero replicate-acked writes
// lost; flapping and one-way links -> zero failovers; orchestrator death ->
// re-election; heal + RecoverNode -> full convergence; same-seed
// determinism.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "cluster/health_monitor.h"
#include "harness/registry_counter.h"
#include "harness/torture.h"
#include "net/faulty_transport.h"

namespace couchkv {
namespace {

using cluster::HealthMonitor;
using cluster::HealthMonitorOptions;
using cluster::NodeId;
using cluster::PeerHealth;

// Polls until `pred` holds or `timeout_ms` of wall clock passed.
bool WaitUntil(const std::function<bool()>& pred, uint64_t timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

class TortureFailoverTest : public ::testing::TestWithParam<uint64_t> {};

// A node partitioned away mid-workload is confirmed down by heartbeat
// quorum and failed over by the monitor's own orchestrator, within the
// configured timeout (plus scheduling slack), losing no replicate-acked
// write.
TEST_P(TortureFailoverTest, AutoFailoverDuringTrafficLosesNoDurableWrite) {
  const uint64_t seed = GetParam();
  cluster::Cluster cluster;
  for (int i = 0; i < 4; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());

  net::FaultyTransport transport(seed);
  cluster.set_transport(&transport);

  HealthMonitorOptions hm;
  hm.heartbeat_interval_ms = 10;
  hm.auto_failover_timeout_ms = 250;
  hm.max_auto_failovers = 1;
  HealthMonitor monitor(&cluster, hm);

  harness::TortureOptions opts;
  opts.seed = seed;
  opts.num_clients = 4;
  opts.ops_per_client = 100;
  opts.keys_per_client = 20;
  opts.persist_every = 0;
  opts.durable_every = 4;  // every 4th write needs replicate_to+persist_to=1
  opts.durability_timeout_ms = 300;
  harness::TortureDriver driver(&cluster, "default", opts);
  driver.NoteFailover();  // the floor for this test is replicate-acked

  harness::CounterDelta auto_failovers("cluster", "failover.auto_total");
  harness::CounterDelta blocked("transport", "blocked");
  const NodeId victim = 2;

  monitor.Start();
  std::thread workload([&] { driver.Run(); });
  // Let some clean traffic through, then cut the victim off completely
  // (node links AND client links — no ack can land on it afterwards).
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto cut = std::chrono::steady_clock::now();
  transport.IsolateNode(victim);

  bool failed_over = WaitUntil([&] { return cluster.failed_over(victim); },
                               /*timeout_ms=*/8000);
  const auto detected = std::chrono::steady_clock::now();
  workload.join();
  monitor.Stop();

  ASSERT_TRUE(failed_over) << "monitor never failed the partitioned node over";
  // Detection cannot beat the timeout; it should not lag it by much more
  // than a few heartbeat rounds either. The bound is generous because
  // sanitizer builds run the pinger an order of magnitude slower.
  const auto took =
      std::chrono::duration_cast<std::chrono::milliseconds>(detected - cut);
  // The last successful ping can predate the cut by up to one heartbeat
  // round, so detection may land that much before cut + timeout.
  EXPECT_GE(took.count() + 3 * static_cast<int64_t>(hm.heartbeat_interval_ms),
            static_cast<int64_t>(hm.auto_failover_timeout_ms));
  EXPECT_LE(took.count(), 5000);
  EXPECT_EQ(auto_failovers(), 1u);
  EXPECT_EQ(monitor.failovers_executed(), 1);
  EXPECT_GT(blocked(), 0u);
  // The failed-over node must be fully out of the published map.
  auto m = cluster.map("default");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->CountActive(victim), 0u);

  driver.Settle();
  EXPECT_TRUE(driver.CheckAckedWritesDurable());
  EXPECT_TRUE(driver.CheckReplicaConvergence());
  EXPECT_TRUE(driver.CheckAllKeysReachable());
  cluster.set_transport(nullptr);
}

// A link that drops out and recovers before the timeout — over and over —
// must never mature to confirmed_down; a one-way link gives only one
// observer a confirmed opinion, which can never reach quorum. Either way:
// zero failovers. ManualClock makes the aging exact.
TEST_P(TortureFailoverTest, FlappingAndOneWayLinksProduceZeroFailovers) {
  const uint64_t seed = GetParam();
  ManualClock clock(1'000'000'000ULL);
  cluster::ClusterOptions copts;
  copts.clock = &clock;
  cluster::Cluster cluster(copts);
  for (int i = 0; i < 4; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());

  net::FaultyTransport transport(seed);
  cluster.set_transport(&transport);

  HealthMonitorOptions hm;
  hm.auto_failover_timeout_ms = 200;
  hm.max_auto_failovers = 4;  // permissive: the detector must not even ask
  HealthMonitor monitor(&cluster, hm);

  harness::CounterDelta auto_failovers("cluster", "failover.auto_total");
  harness::CounterDelta vetoed("cluster", "failover.vetoed");
  const uint64_t version_before = cluster.map("default")->version;

  // Flapping: 150ms of outage, then one good ping, ten times over. The
  // successful ping re-arms the grace period every cycle.
  for (int cycle = 0; cycle < 10; ++cycle) {
    transport.IsolateNode(2);
    for (int i = 0; i < 3; ++i) {
      monitor.TickOnce();
      clock.AdvanceMillis(50);
    }
    EXPECT_EQ(monitor.Opinion(0, 2), PeerHealth::kSuspect);
    transport.HealNode(2);
    monitor.TickOnce();
    EXPECT_EQ(monitor.Opinion(0, 2), PeerHealth::kHealthy);
  }
  // One-way link: 0 can't talk to 2 (and 2's replies to 0 die on the same
  // directed link). Both ends may confirm each other down; neither opinion
  // can reach a 3-of-4 quorum.
  transport.Block(net::Endpoint::Node(0), net::Endpoint::Node(2));
  for (int i = 0; i < 10; ++i) {
    monitor.TickOnce();
    clock.AdvanceMillis(100);
  }
  EXPECT_EQ(monitor.Opinion(0, 2), PeerHealth::kConfirmedDown);
  EXPECT_EQ(monitor.Opinion(1, 2), PeerHealth::kHealthy);

  EXPECT_EQ(auto_failovers(), 0u);
  EXPECT_EQ(vetoed(), 0u);
  EXPECT_EQ(monitor.failovers_executed(), 0);
  EXPECT_FALSE(cluster.failed_over(0));
  EXPECT_FALSE(cluster.failed_over(2));
  // No failover means no map surgery at all.
  EXPECT_EQ(cluster.map("default")->version, version_before);
  cluster.set_transport(nullptr);
}

// When the orchestrator (lowest-id member) itself is the dead node, the
// next-lowest healthy member must take over orchestration and execute the
// failover — and the cluster keeps serving afterwards.
TEST_P(TortureFailoverTest, OrchestratorDeathTriggersReelectionAndFailover) {
  const uint64_t seed = GetParam();
  ManualClock clock(1'000'000'000ULL);
  cluster::ClusterOptions copts;
  copts.clock = &clock;
  cluster::Cluster cluster(copts);
  for (int i = 0; i < 4; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());

  net::FaultyTransport transport(seed);
  cluster.set_transport(&transport);

  client::SmartClient client(&cluster, "default", {}, 900);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        client.Upsert("pre-" + std::to_string(i), "\"v\"").ok());
  }
  cluster.Quiesce();

  HealthMonitorOptions hm;
  hm.auto_failover_timeout_ms = 200;
  HealthMonitor monitor(&cluster, hm);

  ASSERT_EQ(cluster.orchestrator(), 0u);
  transport.IsolateNode(0);
  for (int i = 0; i < 5 && !cluster.failed_over(0); ++i) {
    monitor.TickOnce();
    clock.AdvanceMillis(100);
  }
  EXPECT_TRUE(cluster.failed_over(0));
  EXPECT_EQ(monitor.failovers_executed(), 1);
  // Node 1 is the new orchestrator, and the data service still works: every
  // partition has a live active (promotions replaced node 0 everywhere).
  EXPECT_EQ(cluster.orchestrator(), 1u);
  auto m = cluster.map("default");
  EXPECT_EQ(m->CountActive(0), 0u);
  for (int i = 0; i < 32; ++i) {
    std::string key = "post-" + std::to_string(i);
    ASSERT_TRUE(client.Upsert(key, "\"w\"").ok()) << key;
    ASSERT_TRUE(client.Get(key).ok()) << key;
  }
  // Drain replication of the post-failover writes before the transport goes
  // out of scope: a DCP pump caught mid-Call must not outlive it.
  cluster.Quiesce();
  cluster.set_transport(nullptr);
}

// After the partition heals, RecoverNode() reintegrates the failed-over
// node by delta: divergent vBuckets roll back, the rest catch up via DCP,
// and a rebalance hands actives back. The cluster fully converges.
TEST_P(TortureFailoverTest, PartitionHealThenRecoverNodeConverges) {
  const uint64_t seed = GetParam();
  cluster::Cluster cluster;
  for (int i = 0; i < 4; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());

  net::FaultyTransport transport(seed);
  cluster.set_transport(&transport);

  HealthMonitorOptions hm;
  hm.heartbeat_interval_ms = 10;
  hm.auto_failover_timeout_ms = 150;
  HealthMonitor monitor(&cluster, hm);

  harness::TortureOptions opts;
  opts.seed = seed;
  opts.num_clients = 3;
  opts.ops_per_client = 90;
  opts.keys_per_client = 18;
  opts.persist_every = 0;
  opts.durable_every = 5;
  opts.durability_timeout_ms = 300;
  harness::TortureDriver driver(&cluster, "default", opts);
  driver.NoteFailover();

  harness::CounterDelta recoveries("cluster", "recovery.delta_total");
  const NodeId victim = 3;

  monitor.Start();
  std::thread workload([&] { driver.Run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  transport.IsolateNode(victim);
  ASSERT_TRUE(WaitUntil([&] { return cluster.failed_over(victim); },
                        /*timeout_ms=*/8000));
  workload.join();
  monitor.Stop();

  // Heal and reintegrate. Recovery streams the delta from the current
  // actives; the victim's divergent partitions (writes it took after the
  // isolate but before clients noticed) roll back first.
  transport.HealAll();
  ASSERT_TRUE(cluster.RecoverNode(victim).ok());
  EXPECT_FALSE(cluster.failed_over(victim));
  EXPECT_EQ(recoveries(), 1u);

  driver.Settle();
  // The node is a full member again: the rebalance gave it actives back.
  auto m = cluster.map("default");
  ASSERT_NE(m, nullptr);
  EXPECT_GT(m->CountActive(victim), 0u);
  EXPECT_TRUE(driver.CheckAckedWritesDurable());
  EXPECT_TRUE(driver.CheckReplicaConvergence());
  EXPECT_TRUE(driver.CheckAllKeysReachable());
  cluster.set_transport(nullptr);
}

// The whole detect -> quorum -> failover -> recover cycle is a function of
// the seed: two runs produce byte-identical final KV state.
TEST_P(TortureFailoverTest, SameSeedSameFailoverAndRecoveryState) {
  const uint64_t seed = GetParam();
  auto run_once = [&]() -> uint64_t {
    ManualClock clock(1'000'000'000ULL);
    cluster::ClusterOptions copts;
    copts.clock = &clock;
    cluster::Cluster cluster(copts);
    for (int i = 0; i < 4; ++i) cluster.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    EXPECT_TRUE(cluster.CreateBucket(cfg).ok());

    net::FaultyTransport transport(seed);
    cluster.set_transport(&transport);

    // Phase 1: clean-network workload, fully settled. Block-only faults
    // later consume no RNG draws, so the fault schedule cannot diverge.
    harness::TortureOptions opts;
    opts.seed = seed;
    opts.num_clients = 3;
    opts.ops_per_client = 60;
    opts.keys_per_client = 12;
    opts.persist_every = 0;
    opts.durable_every = 0;
    harness::TortureDriver driver(&cluster, "default", opts);
    driver.Run();
    driver.Settle();

    // Phase 2: partition -> heartbeat confirmation -> auto-failover, with
    // no concurrent traffic (the workload already finished), so which tick
    // fires the failover is exact.
    HealthMonitorOptions hm;
    hm.auto_failover_timeout_ms = 100;
    HealthMonitor monitor(&cluster, hm);
    transport.IsolateNode(1);
    for (int i = 0; i < 5 && !cluster.failed_over(1); ++i) {
      monitor.TickOnce();
      clock.AdvanceMillis(60);
    }
    EXPECT_TRUE(cluster.failed_over(1));

    // Phase 3: heal, delta-recover, settle, fingerprint.
    transport.HealAll();
    EXPECT_TRUE(cluster.RecoverNode(1).ok());
    driver.Settle();
    uint64_t fp = driver.StateFingerprint();
    cluster.set_transport(nullptr);
    return fp;
  };
  uint64_t first = run_once();
  uint64_t second = run_once();
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureFailoverTest,
                         ::testing::Values(11, 4242, 0xdecafbad),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace couchkv
