// Tests for the observability layer: registry concurrency, group filtering,
// delta arithmetic, exposition formats, trace spans, scope lifecycle across
// bucket drop / node crash-restart, and the STATS scatter/gather access path
// over a faulty transport (partial results labeled, never silently merged).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "client/smart_client.h"
#include "cluster/cluster.h"
#include "dcp/dcp.h"
#include "net/faulty_transport.h"
#include "stats/registry.h"
#include "stats/trace.h"

namespace couchkv::stats {
namespace {

// --- Counters / registry concurrency ---

TEST(StatsRegistryTest, ConcurrentAddsAreExact) {
  Scope scope("concurrency_test");
  Counter* c = scope.GetCounter("hits");
  Histogram* h = scope.GetHistogram("lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add();
        h->Record(1000);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->Snapshot().count, uint64_t{kThreads} * kPerThread);
}

TEST(StatsRegistryTest, ConcurrentGetCounterReturnsSamePointer) {
  Scope scope("race");
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counter* c = scope.GetCounter("shared");
      c->Add();
      seen[t] = c;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->Value(), uint64_t{kThreads});
}

TEST(StatsRegistryTest, ScopePointersSurviveDrop) {
  auto& reg = Registry::Global();
  auto scope = reg.GetScope("ephemeral.scope");
  Counter* c = scope->GetCounter("events");
  c->Add(3);
  reg.DropScope("ephemeral.scope");
  EXPECT_FALSE(reg.HasScope("ephemeral.scope"));
  // Holders of the shared_ptr may keep updating; storage stays valid.
  c->Add(2);
  EXPECT_EQ(c->Value(), 5u);
  // A re-created scope starts from zero.
  auto fresh = reg.GetScope("ephemeral.scope");
  EXPECT_EQ(fresh->GetCounter("events")->Value(), 0u);
  reg.DropScope("ephemeral.scope");
}

// --- Group matching ---

TEST(StatsRegistryTest, MatchesGroupOnSegmentBoundaries) {
  EXPECT_TRUE(MatchesGroup("node.0.bucket.b.kv.ops_get", "kv"));
  EXPECT_TRUE(MatchesGroup("node.0.bucket.b.kv.ops_get", "kv.ops_get"));
  EXPECT_TRUE(MatchesGroup("transport.node.0.sent", "transport"));
  EXPECT_TRUE(MatchesGroup("node.0.bucket.b.storage.commits", "storage"));
  EXPECT_TRUE(MatchesGroup("anything.at.all", ""));
  // Substrings that are not whole segments must not match.
  EXPECT_FALSE(MatchesGroup("node.0.bucket.b.kv.ops_get", "ops"));
  EXPECT_FALSE(MatchesGroup("node.0.bucket.b.kv.ops_get", "v"));
  EXPECT_FALSE(MatchesGroup("node.0.bucket.b.kv.ops_get", "dcp"));
}

TEST(StatsRegistryTest, CollectFiltersByGroup) {
  Scope scope("filter_test");
  scope.GetCounter("kv.hits")->Add(1);
  scope.GetCounter("storage.commits")->Add(2);
  Snapshot all;
  scope.Collect(&all);
  EXPECT_EQ(all.size(), 2u);
  Snapshot kv_only;
  scope.Collect(&kv_only, "kv");
  ASSERT_EQ(kv_only.size(), 1u);
  EXPECT_EQ(kv_only.count("filter_test.kv.hits"), 1u);
}

// --- Delta ---

TEST(StatsRegistryTest, DeltaSubtractsCountersKeepsGauges) {
  Scope scope("delta_test");
  Counter* c = scope.GetCounter("ops");
  Gauge* g = scope.GetGauge("depth");
  Histogram* h = scope.GetHistogram("lat");
  c->Add(10);
  g->Set(7);
  h->Record(500);
  Snapshot before;
  scope.Collect(&before);
  c->Add(5);
  g->Set(3);
  h->Record(900);
  scope.GetCounter("born_later")->Add(2);
  Snapshot after;
  scope.Collect(&after);

  Snapshot d = Delta(before, after);
  EXPECT_EQ(d.at("delta_test.ops").counter, 5u);
  EXPECT_EQ(d.at("delta_test.depth").gauge, 3);
  EXPECT_EQ(d.at("delta_test.lat").hist.count, 1u);
  // Metrics born mid-interval pass through unchanged.
  EXPECT_EQ(d.at("delta_test.born_later").counter, 2u);
}

// --- Exposition ---

TEST(StatsExpositionTest, JsonGolden) {
  Scope scope("expo");
  scope.GetCounter("ops")->Add(42);
  scope.GetGauge("depth")->Set(-3);
  Snapshot snap;
  scope.Collect(&snap);
  EXPECT_EQ(ToJson(snap), "{\"expo.depth\":-3,\"expo.ops\":42}");
}

TEST(StatsExpositionTest, JsonHistogramHasPercentiles) {
  Scope scope("expoh");
  Histogram* h = scope.GetHistogram("lat_ns");
  for (int i = 1; i <= 100; ++i) h->Record(static_cast<uint64_t>(i) * 1000);
  Snapshot snap;
  scope.Collect(&snap);
  std::string json = ToJson(snap);
  EXPECT_NE(json.find("\"expoh.lat_ns\":{"), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"p50_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\":"), std::string::npos);
}

TEST(StatsExpositionTest, PrometheusGolden) {
  Scope scope("expo.prom");
  scope.GetCounter("ops")->Add(7);
  Snapshot snap;
  scope.Collect(&snap);
  EXPECT_EQ(ToPrometheusText(snap),
            "# TYPE couchkv_expo_prom_ops counter\n"
            "couchkv_expo_prom_ops 7\n");
}

TEST(StatsExpositionTest, PrometheusHistogramIsSummary) {
  Scope scope("promh");
  Histogram* h = scope.GetHistogram("lat");
  h->Record(1000);
  h->Record(2000);
  Snapshot snap;
  scope.Collect(&snap);
  std::string text = ToPrometheusText(snap);
  EXPECT_NE(text.find("# TYPE couchkv_promh_lat summary"), std::string::npos);
  EXPECT_NE(text.find("couchkv_promh_lat{quantile=\"0.50\"}"),
            std::string::npos);
  EXPECT_NE(text.find("couchkv_promh_lat_count 2"), std::string::npos);
  EXPECT_NE(text.find("couchkv_promh_lat_sum 3000"), std::string::npos);
}

TEST(StatsExpositionTest, DebugStringSkipsZeros) {
  Scope scope("dbg");
  scope.GetCounter("zero");
  scope.GetCounter("nonzero")->Add(1);
  Snapshot snap;
  scope.Collect(&snap);
  std::string s = DebugString(snap);
  EXPECT_EQ(s.find("dbg.zero"), std::string::npos);
  EXPECT_NE(s.find("dbg.nonzero=1"), std::string::npos);
}

// --- Trace spans ---

TEST(TraceSpanTest, RecordsIntoHistogram) {
  Histogram h;
  {
    trace::Span span("test.op", &h);
    span.Phase("one");
    span.Phase("two");
  }
  EXPECT_EQ(h.Snapshot().count, 1u);
}

TEST(TraceSpanTest, FinishIsIdempotent) {
  Histogram h;
  trace::Span span("test.op", &h);
  span.Finish();
  span.Finish();  // and once more from the destructor
  EXPECT_EQ(h.Snapshot().count, 1u);
}

TEST(TraceSpanTest, ThresholdKnobRoundTrips) {
  uint64_t prev = trace::SlowOpThresholdUs();
  trace::SetSlowOpThresholdUs(12345);
  EXPECT_EQ(trace::SlowOpThresholdUs(), 12345u);
  trace::SetSlowOpThresholdUs(prev);
}

// --- Scope lifecycle on a live cluster ---

class StatsClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
  }

  cluster::Cluster cluster_;
};

TEST_F(StatsClusterTest, NodeAndBucketScopesRegistered) {
  auto& reg = Registry::Global();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(reg.HasScope("node." + std::to_string(i)));
    EXPECT_TRUE(
        reg.HasScope("node." + std::to_string(i) + ".bucket.default"));
  }
}

TEST_F(StatsClusterTest, CrashDropsBucketScopeRestartRecreatesIt) {
  auto& reg = Registry::Global();
  ASSERT_TRUE(reg.HasScope("node.1.bucket.default"));
  ASSERT_TRUE(cluster_.CrashNode(1).ok());
  EXPECT_FALSE(reg.HasScope("node.1.bucket.default"));
  // The node scope survives a crash (the Node object lives on, unhealthy).
  EXPECT_TRUE(reg.HasScope("node.1"));
  ASSERT_TRUE(cluster_.RestartNode(1).ok());
  EXPECT_TRUE(reg.HasScope("node.1.bucket.default"));
}

TEST_F(StatsClusterTest, NodeStatsCoversKvStorageDcpTransport) {
  client::SmartClient client(&cluster_, "default");
  for (int i = 0; i < 64; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(client.Upsert(key, "{\"v\":1}").ok());
    ASSERT_TRUE(client.Get(key).ok());
  }
  cluster_.Quiesce();

  auto snap = cluster_.node(0)->Stats();
  ASSERT_TRUE(snap.ok());
  bool kv = false, storage = false, dcp = false, transport = false;
  for (const auto& [name, value] : *snap) {
    if (MatchesGroup(name, "kv")) kv = true;
    if (MatchesGroup(name, "storage")) storage = true;
    if (MatchesGroup(name, "dcp")) dcp = true;
    if (MatchesGroup(name, "transport")) transport = true;
  }
  EXPECT_TRUE(kv);
  EXPECT_TRUE(storage);
  EXPECT_TRUE(dcp);
  EXPECT_TRUE(transport);
  // The group filter narrows the scrape to one subsystem.
  auto kv_only = cluster_.node(0)->Stats("kv");
  ASSERT_TRUE(kv_only.ok());
  EXPECT_FALSE(kv_only->empty());
  for (const auto& [name, value] : *kv_only) {
    EXPECT_TRUE(MatchesGroup(name, "kv")) << name;
  }
}

// dcp.changelog_bytes is Σ(key + value size) over the entries a bucket's
// change logs hold: every append adds its entry, every trim takes the
// trimmed entry back out.
TEST(DcpChangelogBytesTest, AppendsRaiseTheGaugeAndTrimsLowerIt) {
  Scope scope("dcp.gauge");
  dcp::DcpCounters counters = dcp::DcpCounters::In(&scope);
  dcp::ChangeLog log(/*max_items=*/4, counters.changelog_bytes);
  std::vector<int64_t> sizes;
  int64_t sum = 0;
  for (uint64_t i = 1; i <= 6; ++i) {
    kv::Document doc;
    doc.key = "key" + std::to_string(i);
    doc.value = std::string(100 * i, 'v');
    doc.meta.seqno = i;
    sizes.push_back(static_cast<int64_t>(doc.key.size() + doc.value.size()));
    sum += sizes.back();
    log.Append(std::move(doc));
    if (i == 4) {
      EXPECT_EQ(counters.changelog_bytes->Value(), sum);
    }
  }
  // Appends 5 and 6 trimmed entries 1 and 2.
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(counters.changelog_bytes->Value(), sum - sizes[0] - sizes[1]);
  log.Clear();
  EXPECT_EQ(counters.changelog_bytes->Value(), 0);
}

// The gauge is a bucket stat beside dcp.backlog in STATS and Prometheus.
// A write lands in the active's and the replica's change logs, and a value
// the log shares with the hash table counts in full.
TEST_F(StatsClusterTest, ChangelogBytesInStatsAndPrometheus) {
  auto total = [&] {
    int64_t bytes = 0;
    for (cluster::NodeId id = 0; id < 4; ++id) {
      auto snap = cluster_.node(id)->Stats("dcp");
      EXPECT_TRUE(snap.ok());
      std::string name =
          "node." + std::to_string(id) + ".bucket.default.dcp.changelog_bytes";
      EXPECT_TRUE(snap->count(name)) << name;
      bytes += snap->at(name).gauge;
    }
    return bytes;
  };
  int64_t before = total();
  client::SmartClient client(&cluster_, "default");
  int64_t written = 0;
  for (int i = 0; i < 40; ++i) {
    std::string key = "gauge" + std::to_string(i);
    std::string value = "{\"pad\":\"" + std::string(10 * i, 'p') + "\"}";
    ASSERT_TRUE(client.Upsert(key, value).ok());
    written += static_cast<int64_t>(key.size() + value.size());
  }
  cluster_.Quiesce();
  EXPECT_EQ(total() - before, 2 * written);
  auto snap = cluster_.node(0)->Stats("dcp");
  ASSERT_TRUE(snap.ok());
  std::string text = ToPrometheusText(*snap);
  EXPECT_NE(text.find("couchkv_node_0_bucket_default_dcp_changelog_bytes "),
            std::string::npos);
  EXPECT_NE(text.find("couchkv_node_0_bucket_default_dcp_backlog "),
            std::string::npos);
}

TEST_F(StatsClusterTest, CrashedNodeRefusesStats) {
  ASSERT_TRUE(cluster_.CrashNode(2).ok());
  EXPECT_TRUE(cluster_.node(2)->Stats().status().IsTempFail());
  ASSERT_TRUE(cluster_.RestartNode(2).ok());
  EXPECT_TRUE(cluster_.node(2)->Stats().ok());
}

// --- ClusterStats scatter/gather ---

TEST_F(StatsClusterTest, ClusterStatsReachesEveryNode) {
  client::SmartClient client(&cluster_, "default");
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(client.Upsert("k" + std::to_string(i), "{}").ok());
  }
  cluster_.Quiesce();
  auto result = client.ClusterStats();
  ASSERT_EQ(result.nodes.size(), 4u);
  for (const auto& node : result.nodes) {
    EXPECT_TRUE(node.reachable) << "node " << node.node << ": " << node.error;
    EXPECT_FALSE(node.stats.empty());
    // Every node reports its own ops and its own transport slice.
    std::string prefix = "node." + std::to_string(node.node) + ".";
    bool own_metrics = false;
    for (const auto& [name, value] : node.stats) {
      if (name.rfind(prefix, 0) == 0) own_metrics = true;
      if (name.rfind("transport.node.", 0) == 0) {
        EXPECT_EQ(name.rfind("transport.node." + std::to_string(node.node) +
                                 ".",
                             0),
                  0u)
            << "foreign transport slice in node stats: " << name;
      }
    }
    EXPECT_TRUE(own_metrics);
  }
}

TEST_F(StatsClusterTest, ClusterStatsLabelsUnreachableNodes) {
  net::FaultyTransport faulty(/*seed=*/42);
  cluster_.set_transport(&faulty);
  faulty.IsolateNode(3);

  client::SmartClient client(&cluster_, "default");
  auto result = client.ClusterStats();
  cluster_.set_transport(nullptr);

  ASSERT_EQ(result.nodes.size(), 4u);
  int reachable = 0;
  for (const auto& node : result.nodes) {
    if (node.reachable) {
      ++reachable;
      EXPECT_TRUE(node.error.empty());
    } else {
      EXPECT_EQ(node.node, 3u);
      EXPECT_FALSE(node.error.empty());
      EXPECT_TRUE(node.stats.empty());
    }
  }
  EXPECT_EQ(reachable, 3);
}

TEST_F(StatsClusterTest, CrashedNodeLabeledNotMerged) {
  ASSERT_TRUE(cluster_.CrashNode(1).ok());
  client::SmartClient client(&cluster_, "default");
  auto result = client.ClusterStats();
  ASSERT_EQ(result.nodes.size(), 4u);
  for (const auto& node : result.nodes) {
    if (node.node == 1) {
      EXPECT_FALSE(node.reachable);
      EXPECT_FALSE(node.error.empty());
    } else {
      EXPECT_TRUE(node.reachable) << node.error;
    }
  }
}

}  // namespace
}  // namespace couchkv::stats
