// Socket-level torture: the crash / partition / failover scenarios from the
// existing torture suites, replayed with every node listening on the wire,
// so the TortureDriver's workers are WireClients: each KV payload and
// durability requirement is a binary-protocol frame over a real TCP
// connection to the active node's listener. The durability and convergence
// invariants must hold over actual sockets — reconnects, kernel buffering,
// ephemeral-port reassignment after a restart and all — and each test
// proves the writes really crossed the wire via the server's wire.ops.SET
// counter. Node-to-node links (DCP replication) stay in-process, under the
// cluster transport. Seeds are reduced relative to the in-process suites:
// every op costs a kernel round-trip.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "harness/registry_counter.h"
#include "harness/torture.h"
#include "net/faulty_transport.h"

namespace couchkv {
namespace {

class TortureWireTest : public ::testing::TestWithParam<uint64_t> {};

// The crash-torture scenario over sockets: kill a node mid-workload (its
// listener dies with it), restart it onto a FRESH ephemeral port, and
// require every persist-acked write back. Workers re-learn ports from the
// cluster map, so recovery hinges on re-resolution actually working.
TEST_P(TortureWireTest, PersistAckedWritesSurviveCrashOverSockets) {
  const uint64_t seed = GetParam();
  cluster::Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());
  ASSERT_TRUE(cluster.StartWireServers("default").ok());

  // SET frames served by every listener in the process.
  harness::CounterDelta wire_sets("wire", "ops.SET");

  harness::TortureOptions opts;
  opts.seed = seed;
  opts.num_clients = 3;
  opts.ops_per_client = 80;
  opts.keys_per_client = 12;
  opts.write_fraction = 0.9;
  opts.persist_every = 4;
  harness::TortureDriver driver(&cluster, "default", opts);

  std::thread crasher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(cluster.CrashNode(0).ok());
    driver.NoteCrash();
  });
  driver.Run();
  crasher.join();

  // While down, the node's map entry has port 0 ("no listener"): ops to it
  // failed at connect, exactly like a dead process on a real network.
  ASSERT_TRUE(cluster.RestartNode(0).ok());
  EXPECT_NE(cluster.wire_port(0), 0);
  driver.Settle();

  EXPECT_TRUE(driver.CheckAckedWritesDurable());
  EXPECT_TRUE(driver.CheckReplicaConvergence());
  EXPECT_TRUE(driver.CheckAllKeysReachable());
  // Proof the workload crossed the kernel, not an in-process shortcut.
  EXPECT_GT(wire_sets(), 0u);
}

// The partition scenario over sockets: client ops travel over TCP while
// FaultyTransport's seeded schedule governs the node-to-node links — the
// deterministic fault model and the real wire coexist.
TEST_P(TortureWireTest, IsolatedNodeCatchesUpAfterHealOverSockets) {
  const uint64_t seed = GetParam();
  cluster::Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());
  ASSERT_TRUE(cluster.StartWireServers("default").ok());

  net::FaultyTransport faults(seed);
  net::LinkFaults lossy;
  lossy.drop = 0.02;
  lossy.max_latency_us = 30;
  faults.SetDefaultFaults(lossy);
  cluster.set_transport(&faults);
  // SET frames served by every listener in the process.
  harness::CounterDelta wire_sets("wire", "ops.SET");

  harness::TortureOptions opts;
  opts.seed = seed;
  opts.num_clients = 3;
  opts.ops_per_client = 60;
  opts.keys_per_client = 12;
  opts.persist_every = 0;
  harness::TortureDriver driver(&cluster, "default", opts);

  // Cut node 2 off from node-to-node traffic: clients still reach it over
  // their sockets, but replication in and out of it stalls until the heal.
  harness::CounterDelta blocked("transport", "blocked");
  faults.Block(net::Endpoint::Node(0), net::Endpoint::Node(2));
  faults.Block(net::Endpoint::Node(1), net::Endpoint::Node(2));
  faults.Block(net::Endpoint::Node(2), net::Endpoint::Node(0));
  faults.Block(net::Endpoint::Node(2), net::Endpoint::Node(1));
  driver.Run();
  EXPECT_GT(blocked(), 0u);

  // Checks observe a fault-free (but still socket-backed) network.
  faults.Reset();
  driver.Settle();

  EXPECT_TRUE(driver.CheckAckedWritesDurable());
  EXPECT_TRUE(driver.CheckReplicaConvergence());
  EXPECT_TRUE(driver.CheckAllKeysReachable());
  EXPECT_GT(wire_sets(), 0u);
  cluster.set_transport(nullptr);
}

// Crash + manual failover + delta recovery, all over sockets: the failed
// node leaves the map, is rebooted and reintegrated by RecoverNode — which
// must also bring its wire listener back (on a fresh port) or the recovered
// actives would be unreachable over the wire.
TEST_P(TortureWireTest, FailoverThenRecoverNodeConvergesOverSockets) {
  const uint64_t seed = GetParam();
  cluster::Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());
  ASSERT_TRUE(cluster.StartWireServers("default").ok());

  // SET frames served by every listener in the process.
  harness::CounterDelta wire_sets("wire", "ops.SET");

  harness::TortureOptions opts;
  opts.seed = seed;
  opts.num_clients = 3;
  opts.ops_per_client = 70;
  opts.keys_per_client = 12;
  opts.persist_every = 0;
  opts.durable_every = 4;  // replicate-acked writes are the survival floor
  opts.durability_timeout_ms = 500;
  harness::TortureDriver driver(&cluster, "default", opts);
  driver.NoteCrash();
  driver.NoteFailover();

  std::thread failer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(cluster.CrashNode(1).ok());
    ASSERT_TRUE(cluster.Failover(1).ok());
  });
  driver.Run();
  failer.join();

  ASSERT_TRUE(cluster.RecoverNode(1).ok());
  EXPECT_NE(cluster.wire_port(1), 0);  // the listener came back with it
  driver.Settle();

  // The node is a full member again: the recovery rebalance gave it
  // actives, and they are being served over its fresh listener.
  auto m = cluster.map("default");
  ASSERT_NE(m, nullptr);
  EXPECT_GT(m->CountActive(1), 0u);
  EXPECT_TRUE(driver.CheckAckedWritesDurable());
  EXPECT_TRUE(driver.CheckReplicaConvergence());
  EXPECT_TRUE(driver.CheckAllKeysReachable());
  EXPECT_GT(wire_sets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureWireTest,
                         ::testing::Values(1, 20260808),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace couchkv
