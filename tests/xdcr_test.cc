// Tests for cross-datacenter replication: basic replication, filtering,
// conflict resolution, bidirectional convergence, topology awareness on both
// the target and the source side.
#include <gtest/gtest.h>

#include "client/smart_client.h"
#include "harness/registry_counter.h"
#include "xdcr/xdcr.h"

namespace couchkv::xdcr {
namespace {

class XdcrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 2; ++i) {
      east_.AddNode();
      west_.AddNode();
    }
    cluster::BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    ASSERT_TRUE(east_.CreateBucket(cfg).ok());
    ASSERT_TRUE(west_.CreateBucket(cfg).ok());
    east_client_ = std::make_unique<client::SmartClient>(&east_, "default");
    west_client_ = std::make_unique<client::SmartClient>(&west_, "default");
  }

  std::shared_ptr<XdcrLink> Link(cluster::Cluster* src, cluster::Cluster* dst,
                                 const std::string& name,
                                 const std::string& filter = "") {
    XdcrSpec spec;
    spec.source_bucket = "default";
    spec.target_bucket = "default";
    spec.key_filter_regex = filter;
    auto link = std::make_shared<XdcrLink>(src, dst, spec);
    EXPECT_TRUE(link->Start(name).ok());
    return link;
  }

  void QuiesceBoth() {
    // XDCR shipping happens inside DCP delivery, so draining both clusters
    // repeatedly settles the cross-cluster traffic too.
    for (int i = 0; i < 4; ++i) {
      east_.Quiesce();
      west_.Quiesce();
    }
  }

  cluster::Cluster east_, west_;
  std::unique_ptr<client::SmartClient> east_client_;
  std::unique_ptr<client::SmartClient> west_client_;
};

TEST_F(XdcrTest, ReplicatesDocuments) {
  harness::CounterDelta docs_sent("xdcr.east-west", "docs_sent");
  auto link = Link(&east_, &west_, "east-west");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(east_client_
                    ->Upsert("doc" + std::to_string(i),
                             R"({"v":)" + std::to_string(i) + "}")
                    .ok());
  }
  QuiesceBoth();
  for (int i = 0; i < 50; ++i) {
    auto r = west_client_->Get("doc" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << "doc" << i;
  }
  EXPECT_GE(docs_sent(), 50u);
}

TEST_F(XdcrTest, ReplicatesDeletes) {
  auto link = Link(&east_, &west_, "east-west");
  ASSERT_TRUE(east_client_->Upsert("k", "{\"a\":1}").ok());
  QuiesceBoth();
  ASSERT_TRUE(west_client_->Get("k").ok());
  ASSERT_TRUE(east_client_->Remove("k").ok());
  QuiesceBoth();
  EXPECT_TRUE(west_client_->Get("k").status().IsNotFound());
}

TEST_F(XdcrTest, FilteredReplication) {
  // Per the paper: filtering "based on a regular expression on the
  // document ID".
  harness::CounterDelta docs_filtered("xdcr.east-west", "docs_filtered");
  auto link = Link(&east_, &west_, "east-west", "^replicate:");
  ASSERT_TRUE(east_client_->Upsert("replicate:1", "{}").ok());
  ASSERT_TRUE(east_client_->Upsert("local:1", "{}").ok());
  QuiesceBoth();
  EXPECT_TRUE(west_client_->Get("replicate:1").ok());
  EXPECT_TRUE(west_client_->Get("local:1").status().IsNotFound());
  EXPECT_GE(docs_filtered(), 1u);
}

TEST_F(XdcrTest, ConflictResolutionMostUpdatesWins) {
  // §4.6.1: "the document with the most updates is considered the winner".
  ASSERT_TRUE(east_client_->Upsert("k", R"({"site":"east"})").ok());
  // West's copy sees three updates (higher revno).
  ASSERT_TRUE(west_client_->Upsert("k", R"({"site":"west","v":1})").ok());
  ASSERT_TRUE(west_client_->Upsert("k", R"({"site":"west","v":2})").ok());
  ASSERT_TRUE(west_client_->Upsert("k", R"({"site":"west","v":3})").ok());

  auto e2w = Link(&east_, &west_, "east-west");
  auto w2e = Link(&west_, &east_, "west-east");
  QuiesceBoth();
  QuiesceBoth();

  auto east_doc = east_client_->GetJson("k");
  auto west_doc = west_client_->GetJson("k");
  ASSERT_TRUE(east_doc.ok());
  ASSERT_TRUE(west_doc.ok());
  // Both clusters converge on the same winner: the thrice-updated west doc.
  EXPECT_EQ(east_doc->Field("site").AsString(), "west");
  EXPECT_EQ(west_doc->Field("site").AsString(), "west");
  EXPECT_EQ(east_doc->Field("v").AsInt(), 3);
}

TEST_F(XdcrTest, BidirectionalConvergesWithoutLoops) {
  harness::CounterDelta e2w_rejected("xdcr.east-west", "docs_rejected");
  harness::CounterDelta w2e_rejected("xdcr.west-east", "docs_rejected");
  auto e2w = Link(&east_, &west_, "east-west");
  auto w2e = Link(&west_, &east_, "west-east");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        east_client_->Upsert("east" + std::to_string(i), "{\"s\":1}").ok());
    ASSERT_TRUE(
        west_client_->Upsert("west" + std::to_string(i), "{\"s\":2}").ok());
  }
  QuiesceBoth();
  QuiesceBoth();
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(east_client_->Get("west" + std::to_string(i)).ok());
    EXPECT_TRUE(west_client_->Get("east" + std::to_string(i)).ok());
  }
  // Echo suppression: the reverse link rejects re-delivered docs instead of
  // ping-ponging forever.
  EXPECT_GT(w2e_rejected() + e2w_rejected(), 0u);
}

TEST_F(XdcrTest, TargetTopologyAwareness) {
  auto link = Link(&east_, &west_, "east-west");
  ASSERT_TRUE(east_client_->Upsert("pre", "{}").ok());
  QuiesceBoth();
  // Destination cluster failover: XDCR must keep replicating to the
  // promoted replicas ("cluster topology aware", §4.6).
  ASSERT_TRUE(west_.Failover(1).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(east_client_->Upsert("post" + std::to_string(i), "{}").ok());
  }
  QuiesceBoth();
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(west_client_->Get("post" + std::to_string(i)).ok())
        << "post" << i;
  }
}

TEST_F(XdcrTest, SourceFailoverAndRebalance) {
  auto link = Link(&east_, &west_, "east-west");
  auto write = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(east_client_->Upsert("k" + std::to_string(i), "{}").ok());
    }
  };
  write(0, 20);
  east_.Quiesce();  // the replicas promoted below hold every write
  // Source cluster failover: the link's streams move to the promoted
  // actives, and every later topology change re-wires them again.
  ASSERT_TRUE(east_.Failover(1).ok());
  write(20, 40);
  ASSERT_TRUE(east_.RecoverNode(1).ok());
  east_.AddNode();
  ASSERT_TRUE(east_.Rebalance().ok());
  write(40, 60);
  QuiesceBoth();
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(west_client_->Get("k" + std::to_string(i)).ok()) << "k" << i;
  }
  EXPECT_EQ(link->backlog(), 0u);
}

}  // namespace
}  // namespace couchkv::xdcr
