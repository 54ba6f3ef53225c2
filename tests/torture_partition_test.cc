// Partition torture: one-way network partitions stall DCP replication
// mid-workload; after the partition heals, replicas must converge on their
// actives with no acked write lost (stall-don't-skip delivery). Also
// exercises XDCR across a lossy inter-cluster network.
#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster.h"
#include "harness/registry_counter.h"
#include "harness/torture.h"
#include "net/faulty_transport.h"
#include "xdcr/xdcr.h"

namespace couchkv {
namespace {

class TorturePartitionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TorturePartitionTest, ReplicasConvergeAfterOneWayPartitionHeals) {
  const uint64_t seed = GetParam();
  cluster::Cluster cluster;
  for (int i = 0; i < 4; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());

  net::FaultyTransport transport(seed);
  cluster.set_transport(&transport);
  harness::CounterDelta blocked("transport", "blocked");

  // Cut replication node 0 -> node 1 one way mid-workload. Front-end writes
  // keep succeeding (clients reach every node); the affected DCP streams
  // stall and retry rather than skipping mutations.
  transport.Block(net::Endpoint::Node(0), net::Endpoint::Node(1));

  harness::TortureOptions opts;
  opts.seed = seed;
  opts.num_clients = 4;
  opts.ops_per_client = 120;
  opts.keys_per_client = 20;
  opts.persist_every = 0;  // plain memory-acked writes; no crash here
  harness::TortureDriver driver(&cluster, "default", opts);
  driver.Run();

  // While partitioned, at least the node0->node1 links show refused traffic
  // if any vBucket replicates that way (with 4 nodes and a balanced map,
  // some do).
  EXPECT_GT(blocked(), 0u);

  transport.HealAll();
  driver.Settle();

  EXPECT_TRUE(driver.CheckAckedWritesDurable());
  EXPECT_TRUE(driver.CheckReplicaConvergence());
  EXPECT_TRUE(driver.CheckAllKeysReachable());
  cluster.set_transport(nullptr);
}

TEST_P(TorturePartitionTest, IsolatedNodeCatchesUpAfterHeal) {
  const uint64_t seed = GetParam();
  cluster::Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());

  net::FaultyTransport transport(seed);
  cluster.set_transport(&transport);

  harness::TortureOptions opts;
  opts.seed = seed;
  opts.num_clients = 3;
  opts.ops_per_client = 80;
  opts.keys_per_client = 16;
  opts.persist_every = 0;
  harness::TortureDriver driver(&cluster, "default", opts);

  // Isolate node 2 from node-to-node traffic only: clients can still reach
  // it (its active partitions keep taking writes), but replication in and
  // out of it stalls until the heal.
  transport.Block(net::Endpoint::Node(0), net::Endpoint::Node(2));
  transport.Block(net::Endpoint::Node(1), net::Endpoint::Node(2));
  transport.Block(net::Endpoint::Node(2), net::Endpoint::Node(0));
  transport.Block(net::Endpoint::Node(2), net::Endpoint::Node(1));
  driver.Run();
  transport.HealAll();
  driver.Settle();

  EXPECT_TRUE(driver.CheckAckedWritesDurable());
  EXPECT_TRUE(driver.CheckReplicaConvergence());
  EXPECT_TRUE(driver.CheckAllKeysReachable());
  cluster.set_transport(nullptr);
}

TEST_P(TorturePartitionTest, XdcrDeliversEverythingOverLossyLink) {
  const uint64_t seed = GetParam();
  cluster::Cluster source, target;
  for (int i = 0; i < 2; ++i) source.AddNode();
  for (int i = 0; i < 2; ++i) target.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(source.CreateBucket(cfg).ok());
  ASSERT_TRUE(target.CreateBucket(cfg).ok());

  // The inter-cluster hop goes through the *target* cluster's transport
  // (the shipper calls into the destination). Make it lossy.
  net::FaultyTransport wan(seed);
  net::LinkFaults lossy;
  lossy.drop = 0.2;
  wan.SetDefaultFaults(lossy);
  target.set_transport(&wan);

  auto link = std::make_shared<xdcr::XdcrLink>(
      &source, &target, xdcr::XdcrSpec{"default", "default", ""});
  harness::CounterDelta docs_sent("xdcr.xdcr-torture", "docs_sent");
  ASSERT_TRUE(link->Start("xdcr-torture").ok());

  harness::TortureOptions opts;
  opts.seed = seed;
  opts.num_clients = 2;
  opts.ops_per_client = 60;
  opts.keys_per_client = 12;
  opts.persist_every = 0;
  harness::TortureDriver driver(&source, "default", opts);
  driver.Run();

  // Drain the pipeline: source DCP -> shipper (retrying through drops) ->
  // target apply -> target replication.
  for (int i = 0; i < 5; ++i) {
    source.Quiesce();
    target.Quiesce();
  }
  wan.Reset();
  source.Quiesce();
  target.Quiesce();

  // Every key present at the source must have arrived at the target with
  // the same value (shipping is at-least-once; conflict resolution makes
  // re-delivery idempotent).
  client::SmartClient src_client(&source, "default", {}, 501);
  client::SmartClient dst_client(&target, "default", {}, 502);
  for (const auto& [key, hist] : driver.history()) {
    auto s = src_client.Get(key);
    if (!s.ok()) continue;  // never written
    auto d = dst_client.Get(key);
    ASSERT_TRUE(d.ok()) << key << " missing at XDCR target: "
                        << d.status().ToString();
    EXPECT_EQ(d.value().value, s.value().value) << "divergence on " << key;
  }
  EXPECT_GT(docs_sent(), 0u);
  target.set_transport(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TorturePartitionTest,
                         ::testing::Values(3, 777, 0xfeedface),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace couchkv
