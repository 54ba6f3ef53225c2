// Unit tests for the net::Transport layer: DirectTransport pass-through,
// FaultyTransport determinism / drop rates / partitions / fingerprints, and
// the two-leg semantics of net::Call (lost request = op never ran, lost
// reply = op ran but the caller can't know).
#include <gtest/gtest.h>

#include <vector>

#include "harness/registry_counter.h"
#include "net/faulty_transport.h"
#include "net/transport.h"

namespace couchkv::net {
namespace {

const Endpoint kC = Endpoint::Client(7);
const Endpoint kN0 = Endpoint::Node(0);
const Endpoint kN1 = Endpoint::Node(1);

TEST(DirectTransportTest, DeliversEverything) {
  DirectTransport t;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(t.Request(kC, kN0).ok());
    EXPECT_TRUE(t.Reply(kC, kN0).ok());
  }
}

TEST(FaultyTransportTest, PerfectByDefault) {
  FaultyTransport t(1);
  harness::CounterDelta delivered("transport", "delivered");
  harness::CounterDelta dropped("transport", "dropped");
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(t.Request(kC, kN0).ok());
  EXPECT_EQ(delivered(), 100u);
  EXPECT_EQ(dropped(), 0u);
}

TEST(FaultyTransportTest, DropRateIsRoughlyHonored) {
  FaultyTransport t(42);
  LinkFaults f;
  f.drop = 0.3;
  t.SetDefaultFaults(f);
  int dropped = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!t.Request(kC, kN0).ok()) ++dropped;
  }
  // 2000 draws at p=0.3: expect ~600, allow a wide band.
  EXPECT_GT(dropped, 450);
  EXPECT_LT(dropped, 750);
}

TEST(FaultyTransportTest, DropsSurfaceAsTempFail) {
  FaultyTransport t(7);
  LinkFaults f;
  f.drop = 1.0;
  t.SetDefaultFaults(f);
  Status s = t.Request(kC, kN0);
  ASSERT_FALSE(s.ok());
  // Retry layers must treat link faults as transient, never as Timeout
  // (durability timeouts are surfaced un-retried).
  EXPECT_TRUE(s.IsTempFail());
}

TEST(FaultyTransportTest, SameSeedSameSchedule) {
  // The fate of the k-th message on a link is a pure function of (seed, k).
  for (uint64_t seed : {1ULL, 99ULL, 0xdeadbeefULL}) {
    FaultyTransport a(seed), b(seed);
    LinkFaults f;
    f.drop = 0.5;
    a.SetDefaultFaults(f);
    b.SetDefaultFaults(f);
    for (int i = 0; i < 500; ++i) {
      EXPECT_EQ(a.Request(kC, kN0).ok(), b.Request(kC, kN0).ok());
      EXPECT_EQ(a.Request(kN0, kN1).ok(), b.Request(kN0, kN1).ok());
    }
    EXPECT_EQ(a.ScheduleFingerprint(), b.ScheduleFingerprint());
  }
}

TEST(FaultyTransportTest, DifferentSeedsDiverge) {
  FaultyTransport a(1), b(2);
  LinkFaults f;
  f.drop = 0.5;
  a.SetDefaultFaults(f);
  b.SetDefaultFaults(f);
  for (int i = 0; i < 200; ++i) {
    (void)a.Request(kC, kN0);
    (void)b.Request(kC, kN0);
  }
  EXPECT_NE(a.ScheduleFingerprint(), b.ScheduleFingerprint());
}

TEST(FaultyTransportTest, LinksHaveIndependentStreams) {
  // Interleaving traffic on link B must not perturb link A's decisions.
  FaultyTransport a(5), b(5);
  LinkFaults f;
  f.drop = 0.5;
  a.SetDefaultFaults(f);
  b.SetDefaultFaults(f);
  std::vector<bool> fates_a, fates_b;
  for (int i = 0; i < 300; ++i) fates_a.push_back(a.Request(kC, kN0).ok());
  for (int i = 0; i < 300; ++i) {
    (void)b.Request(kN0, kN1);  // extra traffic on an unrelated link
    fates_b.push_back(b.Request(kC, kN0).ok());
  }
  EXPECT_EQ(fates_a, fates_b);
}

TEST(FaultyTransportTest, BlockIsOneWay) {
  FaultyTransport t(1);
  t.Block(kN0, kN1);
  EXPECT_FALSE(t.Request(kN0, kN1).ok());
  EXPECT_TRUE(t.Request(kN1, kN0).ok());  // reverse direction unaffected
  t.Unblock(kN0, kN1);
  EXPECT_TRUE(t.Request(kN0, kN1).ok());
}

// A name means one thing at both levels: a blocked message counts as
// blocked per node and process-wide, a dropped one as dropped at both.
TEST(FaultyTransportTest, BlockedAndDroppedCountUnderTheirOwnNames) {
  FaultyTransport t(3);
  harness::CounterDelta dropped("transport", "dropped");
  harness::CounterDelta blocked("transport", "blocked");
  harness::CounterDelta node_dropped("transport", "node.0.dropped");
  harness::CounterDelta node_blocked("transport", "node.0.blocked");
  t.Block(kC, kN0);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(t.Request(kC, kN0).ok());
  t.Unblock(kC, kN0);
  LinkFaults f;
  f.drop = 1.0;
  t.SetDefaultFaults(f);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(t.Request(kC, kN0).ok());
  EXPECT_EQ(blocked(), 5u);
  EXPECT_EQ(node_blocked(), 5u);
  EXPECT_EQ(dropped(), 3u);
  EXPECT_EQ(node_dropped(), 3u);
}

TEST(FaultyTransportTest, BlockedLinksConsumeNoRandomness) {
  // A block must not advance the link RNG, or healing a partition would
  // desynchronize the schedule relative to a run without the partition's
  // blocked traffic.
  FaultyTransport a(9), b(9);
  LinkFaults f;
  f.drop = 0.5;
  a.SetDefaultFaults(f);
  b.SetDefaultFaults(f);
  b.Block(kC, kN0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(b.Request(kC, kN0).ok());
  b.Unblock(kC, kN0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.Request(kC, kN0).ok(), b.Request(kC, kN0).ok());
  }
}

TEST(FaultyTransportTest, PartitionPairBlocksBothWays) {
  FaultyTransport t(1);
  t.PartitionPair(kN0, kN1);
  EXPECT_FALSE(t.Request(kN0, kN1).ok());
  EXPECT_FALSE(t.Request(kN1, kN0).ok());
  EXPECT_TRUE(t.Request(kC, kN0).ok());  // other links unaffected
  t.HealAll();
  EXPECT_TRUE(t.Request(kN0, kN1).ok());
}

TEST(FaultyTransportTest, IsolateNodeCutsAllTraffic) {
  FaultyTransport t(1);
  t.IsolateNode(0);
  EXPECT_FALSE(t.Request(kC, kN0).ok());
  EXPECT_FALSE(t.Request(kN0, kN1).ok());
  EXPECT_FALSE(t.Reply(kC, kN0).ok());
  EXPECT_TRUE(t.Request(kC, kN1).ok());
  t.HealNode(0);
  EXPECT_TRUE(t.Request(kC, kN0).ok());
}

TEST(FaultyTransportTest, ReplyUsesReverseLink) {
  // Replies to calls made src -> dst travel the dst -> src link, so a
  // one-way block of dst -> src loses replies but not requests.
  FaultyTransport t(1);
  t.Block(kN0, kC);
  EXPECT_TRUE(t.Request(kC, kN0).ok());
  EXPECT_FALSE(t.Reply(kC, kN0).ok());
}

TEST(FaultyTransportTest, LatencyIsInjected) {
  FaultyTransport t(1);
  LinkFaults f;
  f.min_latency_us = 200;
  f.max_latency_us = 400;
  t.SetLinkFaults(kC, kN0, f);
  harness::CounterDelta latency_us("transport", "injected_latency_us");
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(t.Request(kC, kN0).ok());
  EXPECT_GE(latency_us(), 5u * 200u);
  EXPECT_LE(latency_us(), 5u * 400u);
}

TEST(FaultyTransportTest, ExactLinkFaultsOverrideDefaults) {
  FaultyTransport t(1);
  LinkFaults everything;
  everything.drop = 1.0;
  t.SetDefaultFaults(everything);
  t.SetLinkFaults(kC, kN0, LinkFaults{});  // this link stays perfect
  EXPECT_TRUE(t.Request(kC, kN0).ok());
  EXPECT_FALSE(t.Request(kC, kN1).ok());
}

TEST(FaultyTransportTest, ClientFaultsApplyToClientLinksOnly) {
  FaultyTransport t(1);
  LinkFaults f;
  f.drop = 1.0;
  t.SetClientFaults(f);
  EXPECT_FALSE(t.Request(kC, kN0).ok());   // client -> node
  EXPECT_FALSE(t.Reply(kC, kN0).ok());     // node -> client
  EXPECT_TRUE(t.Request(kN0, kN1).ok());   // node -> node unaffected
}

TEST(FaultyTransportTest, ResetRestoresPerfectNetwork) {
  FaultyTransport t(1);
  LinkFaults f;
  f.drop = 1.0;
  t.SetDefaultFaults(f);
  t.IsolateNode(0);
  t.Reset();
  EXPECT_TRUE(t.Request(kC, kN0).ok());
  EXPECT_TRUE(t.Request(kN0, kN1).ok());
}

TEST(NetCallTest, LostRequestMeansOpNeverRan) {
  FaultyTransport t(1);
  t.Block(kC, kN0);
  int ran = 0;
  Status s = Call(&t, kC, kN0, [&] {
    ++ran;
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(ran, 0);
}

TEST(NetCallTest, LostReplyMeansOpRanButCallerSeesFailure) {
  FaultyTransport t(1);
  t.Block(kN0, kC);  // reply leg only
  int ran = 0;
  Status s = Call(&t, kC, kN0, [&] {
    ++ran;
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(ran, 1);  // the ambiguous-outcome case
}

TEST(NetCallTest, CleanLinkReturnsOpResult) {
  DirectTransport t;
  StatusOr<int> r = Call(&t, kC, kN0, [] { return StatusOr<int>(41 + 1); });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

}  // namespace
}  // namespace couchkv::net
