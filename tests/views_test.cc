// Tests for the view engine: map/reduce functions, local index maintenance,
// stale= consistency options, scatter/gather queries, rebalance filtering.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/smart_client.h"
#include "views/view_engine.h"

namespace couchkv::views {
namespace {

using json::Value;

// --- Map / Reduce functions ---

TEST(MapFnTest, EmitsKeyAndValue) {
  MapFn map;
  map.filter_exists_path = "name";
  map.key_paths = {"name"};
  map.value_path = "email";
  auto doc = json::Parse(
      R"({"name":"Dipti","email":"dipti@couchbase.com"})").value();
  auto row = RunMap(map, "borkar123", doc);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->key.AsString(), "Dipti");
  EXPECT_EQ(row->value.AsString(), "dipti@couchbase.com");
  EXPECT_EQ(row->doc_id, "borkar123");
}

TEST(MapFnTest, FilterSkipsDocsWithoutField) {
  // Mirrors the paper's `if (doc.name) emit(...)` guard.
  MapFn map;
  map.filter_exists_path = "name";
  map.key_paths = {"name"};
  auto doc = json::Parse(R"({"email":"x@y.com"})").value();
  EXPECT_FALSE(RunMap(map, "k", doc).has_value());
}

TEST(MapFnTest, EqualityFilter) {
  MapFn map;
  map.filter_eq_path = "doc_type";
  map.filter_eq_value = Value::Str("order");
  map.key_paths = {"total"};
  EXPECT_TRUE(RunMap(map, "k",
                     json::Parse(R"({"doc_type":"order","total":9})").value())
                  .has_value());
  EXPECT_FALSE(
      RunMap(map, "k",
             json::Parse(R"({"doc_type":"user","total":9})").value())
          .has_value());
}

TEST(MapFnTest, CompositeKey) {
  MapFn map;
  map.key_paths = {"last", "first"};
  auto doc = json::Parse(R"({"last":"Borkar","first":"Dipti"})").value();
  auto row = RunMap(map, "k", doc);
  ASSERT_TRUE(row.has_value());
  ASSERT_TRUE(row->key.is_array());
  EXPECT_EQ(row->key.At(0).AsString(), "Borkar");
  EXPECT_EQ(row->key.At(1).AsString(), "Dipti");
}

TEST(ReduceTest, Count) {
  std::vector<Value> vals = {Value::Int(1), Value::Str("x"), Value::Null()};
  EXPECT_EQ(RunReduce(ReduceFn::kCount, vals).AsInt(), 3);
}

TEST(ReduceTest, SumIgnoresNonNumbers) {
  std::vector<Value> vals = {Value::Int(2), Value::Str("x"), Value::Int(5)};
  EXPECT_DOUBLE_EQ(RunReduce(ReduceFn::kSum, vals).AsNumber(), 7.0);
}

TEST(ReduceTest, Stats) {
  std::vector<Value> vals = {Value::Int(2), Value::Int(4), Value::Int(6)};
  Value stats = RunReduce(ReduceFn::kStats, vals);
  EXPECT_DOUBLE_EQ(stats.Field("sum").AsNumber(), 12.0);
  EXPECT_EQ(stats.Field("count").AsInt(), 3);
  EXPECT_DOUBLE_EQ(stats.Field("min").AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Field("max").AsNumber(), 6.0);
  EXPECT_DOUBLE_EQ(stats.Field("sumsqr").AsNumber(), 56.0);
}

// --- ViewIndex ---

kv::Mutation Mut(const std::string& key, const std::string& json_doc,
                 uint64_t seqno, uint16_t vb = 0, bool deleted = false) {
  kv::Mutation m;
  m.vbucket = vb;
  m.doc.key = key;
  m.doc.value = json_doc;
  m.doc.meta.seqno = seqno;
  m.doc.meta.deleted = deleted;
  return m;
}

class ViewIndexTest : public ::testing::Test {
 protected:
  ViewIndexTest() : index_(MakeDef()) {
    index_.SetVBucketActive(0, true);
    index_.SetVBucketActive(1, true);
  }
  static ViewDefinition MakeDef() {
    ViewDefinition def;
    def.name = "by_age";
    def.map.key_paths = {"age"};
    def.map.value_path = "name";
    return def;
  }
  ViewIndex index_;
};

TEST_F(ViewIndexTest, InsertUpdateDelete) {
  index_.ApplyMutation(Mut("u1", R"({"age":30,"name":"A"})", 1));
  EXPECT_EQ(index_.row_count(), 1u);
  // Update changes the key: old row removed.
  index_.ApplyMutation(Mut("u1", R"({"age":31,"name":"A"})", 2));
  EXPECT_EQ(index_.row_count(), 1u);
  ViewQueryOptions opts;
  opts.key = Value::Int(31);
  EXPECT_EQ(index_.Scan(opts).size(), 1u);
  opts.key = Value::Int(30);
  EXPECT_EQ(index_.Scan(opts).size(), 0u);
  // Deletion removes the row.
  index_.ApplyMutation(Mut("u1", "", 3, 0, /*deleted=*/true));
  EXPECT_EQ(index_.row_count(), 0u);
}

TEST_F(ViewIndexTest, RangeScanInCollationOrder) {
  index_.ApplyMutation(Mut("u1", R"({"age":25,"name":"A"})", 1));
  index_.ApplyMutation(Mut("u2", R"({"age":35,"name":"B"})", 2));
  index_.ApplyMutation(Mut("u3", R"({"age":30,"name":"C"})", 3));
  ViewQueryOptions opts;
  opts.start_key = Value::Int(26);
  opts.end_key = Value::Int(40);
  auto rows = index_.Scan(opts);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key.AsInt(), 30);
  EXPECT_EQ(rows[1].key.AsInt(), 35);
}

TEST_F(ViewIndexTest, DeactivatedVBucketHiddenFromScans) {
  index_.ApplyMutation(Mut("u1", R"({"age":25})", 1, /*vb=*/0));
  index_.ApplyMutation(Mut("u2", R"({"age":26})", 1, /*vb=*/1));
  ViewQueryOptions all;
  EXPECT_EQ(index_.Scan(all).size(), 2u);
  // Rebalance moved vb 1 away: its rows must vanish from results while
  // staying in the tree (paper: vBucket info is stored in the view B-tree).
  index_.SetVBucketActive(1, false);
  auto rows = index_.Scan(all);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].doc_id, "u1");
}

TEST_F(ViewIndexTest, ProcessedSeqnoTracksPerVBucket) {
  index_.ApplyMutation(Mut("a", R"({"age":1})", 7, 0));
  index_.ApplyMutation(Mut("b", R"({"age":2})", 9, 1));
  EXPECT_EQ(index_.processed_seqno(0), 7u);
  EXPECT_EQ(index_.processed_seqno(1), 9u);
}

TEST_F(ViewIndexTest, NonJsonDocumentsIgnored) {
  index_.ApplyMutation(Mut("bin", "not-json!", 1));
  EXPECT_EQ(index_.row_count(), 0u);
  EXPECT_EQ(index_.processed_seqno(0), 1u);  // still acknowledged
}

// --- ViewEngine end-to-end ---

class ViewEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    engine_ = std::make_shared<ViewEngine>(&cluster_);
    client_ = std::make_unique<client::SmartClient>(&cluster_, "default");
  }

  ViewDefinition ProfileView() {
    ViewDefinition def;
    def.name = "profile";
    def.map.filter_exists_path = "name";
    def.map.key_paths = {"name"};
    def.map.value_path = "email";
    return def;
  }

  cluster::Cluster cluster_;
  std::shared_ptr<ViewEngine> engine_;
  std::unique_ptr<client::SmartClient> client_;
};

TEST_F(ViewEngineTest, PaperExampleQueryByKey) {
  // The paper's §3.1.2 example: emit(doc.name, doc.email), query key="Dipti".
  ASSERT_TRUE(client_
                  ->Upsert("borkar123",
                           R"({"name":"Dipti","email":"dipti@couchbase.com"})")
                  .ok());
  ASSERT_TRUE(
      client_->Upsert("mayuram1", R"({"name":"Ravi","email":"r@c.com"})")
          .ok());
  ASSERT_TRUE(client_->Upsert("noname", R"({"email":"anon@c.com"})").ok());
  ASSERT_TRUE(engine_->CreateView("default", ProfileView()).ok());

  ViewQueryOptions opts;
  opts.key = Value::Str("Dipti");
  auto result = engine_->Query("default", "profile", opts, Staleness::kFalse);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].value.AsString(), "dipti@couchbase.com");
  EXPECT_EQ(result->rows[0].doc_id, "borkar123");
}

TEST_F(ViewEngineTest, StaleOkMayMissRecentWrites) {
  ASSERT_TRUE(engine_->CreateView("default", ProfileView()).ok());
  cluster_.Quiesce();
  // Write without giving the indexer a chance to run, then query stale=ok.
  ASSERT_TRUE(
      client_->Upsert("u1", R"({"name":"New","email":"n@c.com"})").ok());
  ViewQueryOptions opts;
  opts.key = Value::Str("New");
  // stale=ok is allowed to miss it; stale=false must see it.
  auto strict = engine_->Query("default", "profile", opts, Staleness::kFalse);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->rows.size(), 1u);
}

TEST_F(ViewEngineTest, ScatterGatherMergesAcrossNodes) {
  ASSERT_TRUE(engine_->CreateView("default", ProfileView()).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("user" + std::to_string(i),
                             R"({"name":"n)" + std::to_string(i) +
                                 R"(","email":"e"})")
                    .ok());
  }
  ViewQueryOptions opts;
  auto result = engine_->Query("default", "profile", opts, Staleness::kFalse);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 200u);
  // Rows arrive in global collation order despite living on 3 nodes.
  for (size_t i = 1; i < result->rows.size(); ++i) {
    EXPECT_LE(Value::Compare(result->rows[i - 1].key, result->rows[i].key), 0);
  }
}

TEST_F(ViewEngineTest, ReduceCountAndGroup) {
  ViewDefinition def;
  def.name = "by_city";
  def.map.key_paths = {"city"};
  def.map.value_path = "age";
  def.reduce = ReduceFn::kCount;
  ASSERT_TRUE(engine_->CreateView("default", def).ok());
  ASSERT_TRUE(client_->Upsert("a", R"({"city":"SF","age":30})").ok());
  ASSERT_TRUE(client_->Upsert("b", R"({"city":"SF","age":40})").ok());
  ASSERT_TRUE(client_->Upsert("c", R"({"city":"NY","age":50})").ok());

  ViewQueryOptions opts;
  auto total = engine_->Query("default", "by_city", opts, Staleness::kFalse);
  ASSERT_TRUE(total.ok());
  ASSERT_EQ(total->rows.size(), 1u);
  EXPECT_EQ(total->rows[0].value.AsInt(), 3);

  opts.group = true;
  auto grouped = engine_->Query("default", "by_city", opts, Staleness::kFalse);
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->rows.size(), 2u);
  EXPECT_EQ(grouped->rows[0].key.AsString(), "NY");
  EXPECT_EQ(grouped->rows[0].value.AsInt(), 1);
  EXPECT_EQ(grouped->rows[1].key.AsString(), "SF");
  EXPECT_EQ(grouped->rows[1].value.AsInt(), 2);
}

TEST_F(ViewEngineTest, LimitSkipDescending) {
  ViewDefinition def;
  def.name = "by_age";
  def.map.key_paths = {"age"};
  ASSERT_TRUE(engine_->CreateView("default", def).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(20 + i) + "}")
                    .ok());
  }
  ViewQueryOptions opts;
  opts.descending = true;
  opts.limit = 3;
  opts.skip = 1;
  auto result = engine_->Query("default", "by_age", opts, Staleness::kFalse);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].key.AsInt(), 28);
  EXPECT_EQ(result->rows[2].key.AsInt(), 26);
}

TEST_F(ViewEngineTest, ViewSurvivesRebalance) {
  ASSERT_TRUE(engine_->CreateView("default", ProfileView()).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"name":"x)" + std::to_string(i) +
                                 R"(","email":"e"})")
                    .ok());
  }
  cluster_.AddNode();
  ASSERT_TRUE(cluster_.Rebalance().ok());
  ViewQueryOptions opts;
  auto result = engine_->Query("default", "profile", opts, Staleness::kFalse);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 100u);
}

TEST_F(ViewEngineTest, DropViewRemovesIt) {
  ASSERT_TRUE(engine_->CreateView("default", ProfileView()).ok());
  ASSERT_TRUE(engine_->DropView("default", "profile").ok());
  ViewQueryOptions opts;
  EXPECT_FALSE(engine_->Query("default", "profile", opts).ok());
}

// A stale=false query holds the view it looked up while DropView erases it
// and CreateView replaces it under the same name. The query must fail or
// answer from the view it found, never read freed state.
TEST_F(ViewEngineTest, QueryRacesDropAndRecreate) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"name":"n)" + std::to_string(i) +
                                 R"(","email":"e"})")
                    .ok());
  }
  ASSERT_TRUE(engine_->CreateView("default", ProfileView()).ok());
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      auto r = engine_->Query("default", "profile", ViewQueryOptions{},
                              Staleness::kFalse);
      if (r.ok()) {
        EXPECT_LE(r->rows.size(), 20u);
      }
    }
  });
  for (int round = 0; round < 30; ++round) {
    EXPECT_TRUE(engine_->DropView("default", "profile").ok());
    EXPECT_TRUE(engine_->CreateView("default", ProfileView()).ok());
  }
  stop = true;
  reader.join();
  auto result = engine_->Query("default", "profile", ViewQueryOptions{},
                               Staleness::kFalse);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 20u);
}

TEST_F(ViewEngineTest, MultiKeyLookup) {
  ASSERT_TRUE(engine_->CreateView("default", ProfileView()).ok());
  ASSERT_TRUE(client_->Upsert("a", R"({"name":"A","email":"a@"})").ok());
  ASSERT_TRUE(client_->Upsert("b", R"({"name":"B","email":"b@"})").ok());
  ASSERT_TRUE(client_->Upsert("c", R"({"name":"C","email":"c@"})").ok());
  ViewQueryOptions opts;
  opts.keys = {Value::Str("A"), Value::Str("C")};
  auto result = engine_->Query("default", "profile", opts, Staleness::kFalse);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
}

}  // namespace
}  // namespace couchkv::views
