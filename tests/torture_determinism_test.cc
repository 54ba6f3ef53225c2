// Determinism torture: the same seed must produce the identical fault
// schedule AND the identical final KV state across two independent runs —
// the property that makes torture-test failures reproducible. Holds because
// every directed link owns an RNG stream seeded from (seed, src, dst), and
// faults are configured only on links whose message order the workload
// controls (client links; each worker client owns its endpoint id and its
// keys).
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "harness/registry_counter.h"
#include "harness/torture.h"
#include "net/faulty_transport.h"

namespace couchkv {
namespace {

struct RunResult {
  uint64_t state_fp = 0;
  uint64_t schedule_fp = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
};

RunResult RunOnce(uint64_t seed) {
  cluster::Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  EXPECT_TRUE(cluster.CreateBucket(cfg).ok());

  net::FaultyTransport transport(seed);
  net::LinkFaults lossy;
  lossy.drop = 0.05;
  lossy.max_latency_us = 20;
  // Client links only: their per-link message order is driver-ordered (one
  // worker per endpoint), so fault decisions replay identically. Node-node
  // replication links stay perfect — their cross-thread interleaving is
  // not controlled, but perfect links make identical decisions regardless.
  transport.SetClientFaults(lossy);
  harness::CounterDelta delivered("transport", "delivered");
  harness::CounterDelta dropped("transport", "dropped");
  cluster.set_transport(&transport);

  harness::TortureOptions opts;
  opts.seed = seed;
  opts.num_clients = 3;
  opts.ops_per_client = 100;
  opts.keys_per_client = 16;
  opts.persist_every = 4;
  harness::TortureDriver driver(&cluster, "default", opts);
  driver.Run();
  driver.Settle();

  RunResult r;
  r.state_fp = driver.StateFingerprint();
  r.schedule_fp = transport.ScheduleFingerprint();
  r.delivered = delivered();
  r.dropped = dropped();
  cluster.set_transport(nullptr);
  return r;
}

class TortureDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TortureDeterminismTest, SameSeedSameScheduleAndSameFinalState) {
  RunResult a = RunOnce(GetParam());
  RunResult b = RunOnce(GetParam());
  EXPECT_EQ(a.schedule_fp, b.schedule_fp)
      << "fault schedules diverged: " << a.delivered << "/" << a.dropped
      << " vs " << b.delivered << "/" << b.dropped << " delivered/dropped";
  EXPECT_EQ(a.state_fp, b.state_fp) << "final KV state diverged";
  EXPECT_EQ(a.dropped, b.dropped);
}

TEST_P(TortureDeterminismTest, DifferentSeedDifferentSchedule) {
  RunResult a = RunOnce(GetParam());
  RunResult b = RunOnce(GetParam() + 1);
  // With thousands of per-message coin flips, distinct seeds colliding on
  // the full schedule fingerprint would be astronomically unlucky.
  EXPECT_NE(a.schedule_fp, b.schedule_fp);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureDeterminismTest,
                         ::testing::Values(11, 4242, 0xabcdef),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace couchkv
