// The one DCP consumer path (cluster/feed.h), exercised through each of the
// index-like consumers attached to it: GSI, views, FTS and analytics. The
// same cases run against all four because they share one wiring, one
// re-wire on map changes, one close barrier and one caught-up barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "analytics/analytics.h"
#include "client/smart_client.h"
#include "fts/fts.h"
#include "gsi/index_service.h"
#include "views/view_engine.h"

namespace couchkv {
namespace {

using IdSet = std::set<std::string>;

// One adapter per consumer: create and drop one derived index over bucket
// "default", and read back the ids it holds with a consistent read
// (request_plus / stale=false / WaitCaughtUp).
struct Gsi {
  static constexpr const char* kLabel = "Gsi";
  static constexpr const char* kStream = "gsi:default:c";
  explicit Gsi(cluster::Cluster* c) : svc(c) {}
  Status Create() {
    gsi::IndexDefinition def;
    def.name = "c";
    def.bucket = "default";
    def.is_primary = true;
    return svc.CreateIndex(def);
  }
  Status Drop() { return svc.DropIndex("default", "c"); }
  StatusOr<IdSet> ConsistentIds() {
    auto entries = svc.Scan("default", "c", gsi::ScanRange::All(), SIZE_MAX,
                            gsi::ScanConsistency::kRequestPlus);
    if (!entries.ok()) return entries.status();
    IdSet ids;
    for (const gsi::IndexEntry& e : *entries) ids.insert(e.doc_id);
    return ids;
  }
  gsi::IndexService svc;
};

struct Views {
  static constexpr const char* kLabel = "Views";
  static constexpr const char* kStream = "view:default:c";
  explicit Views(cluster::Cluster* c) : engine(c) {}
  Status Create() {
    views::ViewDefinition def;
    def.name = "c";
    def.map.key_paths = {"n"};
    return engine.CreateView("default", def);
  }
  Status Drop() { return engine.DropView("default", "c"); }
  StatusOr<IdSet> ConsistentIds() {
    auto result = engine.Query("default", "c", views::ViewQueryOptions{},
                               views::Staleness::kFalse);
    if (!result.ok()) return result.status();
    IdSet ids;
    for (const views::ViewRow& row : result->rows) ids.insert(row.doc_id);
    return ids;
  }
  views::ViewEngine engine;
};

struct Fts {
  static constexpr const char* kLabel = "Fts";
  static constexpr const char* kStream = "fts:default:c";
  explicit Fts(cluster::Cluster* c) : svc(c) {}
  Status Create() {
    fts::FtsIndexDefinition def;
    def.name = "c";
    def.bucket = "default";
    return svc.CreateIndex(def);
  }
  Status Drop() { return svc.DropIndex("default", "c"); }
  StatusOr<IdSet> ConsistentIds() {
    auto hits = svc.Search("default", "c", "payload", fts::QueryMode::kAllTerms,
                           SIZE_MAX, /*consistent=*/true);
    if (!hits.ok()) return hits.status();
    IdSet ids;
    for (const fts::SearchHit& h : *hits) ids.insert(h.doc_id);
    return ids;
  }
  fts::SearchService svc;
};

struct Analytics {
  static constexpr const char* kLabel = "Analytics";
  static constexpr const char* kStream = "analytics:default";
  explicit Analytics(cluster::Cluster* c) : svc(c) {}
  Status Create() { return svc.ConnectBucket("default"); }
  Status Drop() { return svc.DisconnectBucket("default"); }
  StatusOr<IdSet> ConsistentIds() {
    COUCHKV_RETURN_IF_ERROR(svc.WaitCaughtUp("default"));
    IdSet ids;
    svc.dataset("default")->ForEach(
        [&](const std::string& id, const json::Value&) { ids.insert(id); });
    return ids;
  }
  analytics::AnalyticsService svc;
};

struct ConsumerNames {
  template <typename T>
  static std::string GetName(int) {
    return T::kLabel;
  }
};

template <typename Consumer>
class FeedConsumerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    consumer_ = std::make_unique<Consumer>(&cluster_);
    client_ = std::make_unique<client::SmartClient>(&cluster_, "default");
  }

  void Write(int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(client_
                      ->Upsert("k" + std::to_string(i),
                               R"({"n":)" + std::to_string(i) +
                                   R"(,"text":"payload"})")
                      .ok());
    }
  }

  // The ids among k0..k<n-1> the data service holds.
  IdSet KvIds(int n) {
    IdSet ids;
    for (int i = 0; i < n; ++i) {
      std::string key = "k" + std::to_string(i);
      if (client_->Get(key).ok()) ids.insert(key);
    }
    return ids;
  }

  // vBuckets, summed over nodes, on which a stream named `name` is open.
  int StreamsNamed(const std::string& name) {
    int open = 0;
    for (cluster::NodeId id : cluster_.node_ids()) {
      std::shared_ptr<cluster::Bucket> b = cluster_.node(id)->bucket("default");
      if (b == nullptr) continue;
      for (uint16_t vb = 0; vb < cluster::kNumVBuckets; ++vb) {
        if (b->producer()->StreamSeqno(name, vb) != UINT64_MAX) ++open;
      }
    }
    return open;
  }

  cluster::Cluster cluster_;
  std::unique_ptr<Consumer> consumer_;
  std::unique_ptr<client::SmartClient> client_;
};

using Consumers = ::testing::Types<Gsi, Views, Fts, Analytics>;
TYPED_TEST_SUITE(FeedConsumerTest, Consumers, ConsumerNames);

TYPED_TEST(FeedConsumerTest, OpensOneStreamPerActiveVBucket) {
  ASSERT_TRUE(this->consumer_->Create().ok());
  EXPECT_EQ(this->StreamsNamed(TypeParam::kStream), cluster::kNumVBuckets);
  ASSERT_TRUE(this->consumer_->Drop().ok());
  EXPECT_EQ(this->StreamsNamed(TypeParam::kStream), 0);
}

// Drop closes the consumer's feed while another thread re-wires every feed
// through Rebalance(). A re-wire that began before the drop must not
// re-open the dropped consumer's streams after it.
TYPED_TEST(FeedConsumerTest, DropRacingRebalanceLeavesNoStream) {
  this->Write(0, 20);
  std::atomic<bool> stop{false};
  std::atomic<int> rebalances{0};
  std::thread rebalancer([&] {
    while (!stop.load()) {
      EXPECT_TRUE(this->cluster_.Rebalance().ok());
      rebalances.fetch_add(1);
    }
  });
  for (int round = 0; round < 16; ++round) {
    EXPECT_TRUE(this->consumer_->Create().ok());
    // Each round drops at a later point of the rebalance cycle.
    std::this_thread::sleep_for(std::chrono::microseconds(500 * round));
    EXPECT_TRUE(this->consumer_->Drop().ok());
    // Any re-wire in flight at the drop has finished two rebalances later.
    // Checked every round: the next Create would remove a stale stream.
    const int seen = rebalances.load();
    while (rebalances.load() < seen + 2) std::this_thread::yield();
    EXPECT_EQ(this->StreamsNamed(TypeParam::kStream), 0) << "round " << round;
  }
  stop = true;
  rebalancer.join();
}

// Failover, recovery and rebalance each re-wire the feed; afterwards the
// consistent read holds exactly what the data service holds.
TYPED_TEST(FeedConsumerTest, ConsistentReadAfterFailoverRecoverRebalance) {
  ASSERT_TRUE(this->consumer_->Create().ok());
  this->Write(0, 40);
  this->cluster_.Quiesce();  // the replicas promoted below hold every write
  ASSERT_TRUE(this->cluster_.Failover(2).ok());
  this->Write(40, 80);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(this->client_->Remove("k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(this->cluster_.RecoverNode(2).ok());
  ASSERT_TRUE(this->cluster_.Rebalance().ok());
  this->Write(80, 100);

  IdSet expected = this->KvIds(100);
  ASSERT_EQ(expected.size(), 95u);
  auto ids = this->consumer_->ConsistentIds();
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(*ids, expected);
}

}  // namespace
}  // namespace couchkv
