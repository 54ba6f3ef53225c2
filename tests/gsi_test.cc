// Tests for the GSI service: key projection, partitions, partial and array
// indexes, scan consistency, memory-optimized mode, topology changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "client/smart_client.h"
#include "gsi/index_service.h"

namespace couchkv::gsi {
namespace {

using json::Value;

// --- ProjectKeys (the Projector's evaluation) ---

TEST(ProjectKeysTest, SimpleKey) {
  IndexDefinition def;
  def.key_paths = {"email"};
  auto doc = json::Parse(R"({"email":"a@b.com"})").value();
  auto keys = ProjectKeys(def, "d1", &doc);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].AsString(), "a@b.com");
}

TEST(ProjectKeysTest, MissingLeadingKeySkipsDoc) {
  IndexDefinition def;
  def.key_paths = {"email"};
  auto doc = json::Parse(R"({"name":"x"})").value();
  EXPECT_TRUE(ProjectKeys(def, "d1", &doc).empty());
}

TEST(ProjectKeysTest, DeletionDropsEntries) {
  IndexDefinition def;
  def.key_paths = {"email"};
  EXPECT_TRUE(ProjectKeys(def, "d1", nullptr).empty());
}

TEST(ProjectKeysTest, CompositeKey) {
  IndexDefinition def;
  def.key_paths = {"last", "first"};
  auto doc = json::Parse(R"({"last":"B","first":"D"})").value();
  auto keys = ProjectKeys(def, "d1", &doc);
  ASSERT_EQ(keys.size(), 1u);
  ASSERT_TRUE(keys[0].is_array());
  EXPECT_EQ(keys[0].At(0).AsString(), "B");
  EXPECT_EQ(keys[0].At(1).AsString(), "D");
}

TEST(ProjectKeysTest, PartialIndexFilter) {
  IndexDefinition def;
  def.key_paths = {"age"};
  def.where_fn = [](const Value& doc) {
    return doc.Field("age").is_number() && doc.Field("age").AsNumber() > 21;
  };
  auto young = json::Parse(R"({"age":18})").value();
  auto adult = json::Parse(R"({"age":30})").value();
  EXPECT_TRUE(ProjectKeys(def, "d", &young).empty());
  EXPECT_EQ(ProjectKeys(def, "d", &adult).size(), 1u);
}

TEST(ProjectKeysTest, ArrayIndexOneEntryPerElement) {
  IndexDefinition def;
  def.key_paths = {"categories"};
  def.array_index = true;
  auto doc = json::Parse(R"({"categories":["a","b","c"]})").value();
  auto keys = ProjectKeys(def, "d", &doc);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[1].AsString(), "b");
}

TEST(ProjectKeysTest, PrimaryIndexUsesDocId) {
  IndexDefinition def;
  def.is_primary = true;
  auto doc = json::Parse("{}").value();
  auto keys = ProjectKeys(def, "the-id", &doc);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].AsString(), "the-id");
}

// --- IndexPartition ---

KeyVersion KV(const std::string& doc_id, std::vector<Value> keys,
              uint64_t seqno = 1, uint16_t vb = 0) {
  KeyVersion kv;
  kv.index_name = "i";
  kv.doc_id = doc_id;
  kv.keys = std::move(keys);
  kv.seqno = seqno;
  kv.vbucket = vb;
  return kv;
}

TEST(IndexPartitionTest, ApplyAndScan) {
  IndexDefinition def;
  def.key_paths = {"x"};
  IndexPartition p(def, 0, nullptr);
  p.Apply(KV("d1", {Value::Int(5)}, 1));
  p.Apply(KV("d2", {Value::Int(10)}, 2));
  p.Apply(KV("d3", {Value::Int(15)}, 3));
  ScanRange range;
  range.lo = Value::Int(6);
  auto out = p.Scan(range, SIZE_MAX);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc_id, "d2");
  EXPECT_EQ(out[1].doc_id, "d3");
}

TEST(IndexPartitionTest, UpdateReplacesOldKey) {
  IndexDefinition def;
  def.key_paths = {"x"};
  IndexPartition p(def, 0, nullptr);
  p.Apply(KV("d1", {Value::Int(5)}, 1));
  p.Apply(KV("d1", {Value::Int(50)}, 2));
  EXPECT_EQ(p.num_entries(), 1u);
  auto out = p.Scan(ScanRange::All(), SIZE_MAX);
  EXPECT_EQ(out[0].key.AsInt(), 50);
}

TEST(IndexPartitionTest, EmptyKeysActAsDelete) {
  IndexDefinition def;
  def.key_paths = {"x"};
  IndexPartition p(def, 0, nullptr);
  p.Apply(KV("d1", {Value::Int(5)}, 1));
  p.Apply(KV("d1", {}, 2));
  EXPECT_EQ(p.num_entries(), 0u);
}

TEST(IndexPartitionTest, ExclusiveBounds) {
  IndexDefinition def;
  def.key_paths = {"x"};
  IndexPartition p(def, 0, nullptr);
  for (int i = 1; i <= 5; ++i) {
    p.Apply(KV("d" + std::to_string(i), {Value::Int(i)},
               static_cast<uint64_t>(i)));
  }
  ScanRange range;
  range.lo = Value::Int(2);
  range.lo_inclusive = false;
  range.hi = Value::Int(4);
  range.hi_inclusive = false;
  auto out = p.Scan(range, SIZE_MAX);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key.AsInt(), 3);
}

TEST(IndexPartitionTest, PartitionedOwnership) {
  IndexDefinition def;
  def.key_paths = {"x"};
  def.num_partitions = 4;
  std::vector<std::unique_ptr<IndexPartition>> parts;
  for (uint32_t i = 0; i < 4; ++i) {
    parts.push_back(std::make_unique<IndexPartition>(def, i, nullptr));
  }
  // Broadcast 100 key versions; each lands in exactly one partition.
  for (int i = 0; i < 100; ++i) {
    auto kv = KV("d" + std::to_string(i), {Value::Int(i)},
                 static_cast<uint64_t>(i + 1));
    for (auto& p : parts) p->Apply(kv);
  }
  size_t total = 0;
  for (auto& p : parts) {
    EXPECT_LT(p->num_entries(), 100u);  // no partition holds everything
    total += p->num_entries();
  }
  EXPECT_EQ(total, 100u);
}

TEST(IndexPartitionTest, PartitionKeyChangeMovesEntry) {
  // The §4.3.4 scenario: update changes the key so the entry must move
  // from one partition (delete) to another (insert).
  IndexDefinition def;
  def.key_paths = {"x"};
  def.num_partitions = 2;
  IndexPartition p0(def, 0, nullptr), p1(def, 1, nullptr);
  auto apply_both = [&](const KeyVersion& kv) {
    p0.Apply(kv);
    p1.Apply(kv);
  };
  // Find two values that hash to different partitions.
  Value a, b;
  bool found = false;
  for (int i = 0; i < 100 && !found; ++i) {
    for (int j = i + 1; j < 100; ++j) {
      Value vi = Value::Int(i), vj = Value::Int(j);
      if (p0.OwnsKey(vi) && p1.OwnsKey(vj)) {
        a = vi;
        b = vj;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);
  apply_both(KV("doc", {a}, 1));
  EXPECT_EQ(p0.num_entries() + p1.num_entries(), 1u);
  EXPECT_EQ(p0.num_entries(), 1u);
  apply_both(KV("doc", {b}, 2));
  EXPECT_EQ(p0.num_entries(), 0u);  // deleted here
  EXPECT_EQ(p1.num_entries(), 1u);  // inserted there
}

TEST(IndexPartitionTest, PrimaryScanCarriesIdsOnly) {
  // A primary key is the id itself: entries carry the id alone, in id
  // order, and the range and limit apply to the ids.
  IndexDefinition def;
  def.is_primary = true;
  IndexPartition p(def, 0, nullptr);
  uint64_t seqno = 0;
  for (const char* id : {"k3", "k1", "k4", "k2"}) {
    p.Apply(KV(id, {Value::Str(id)}, ++seqno));
  }
  ScanRange range;
  range.lo = Value::Str("k2");
  auto out = p.Scan(range, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc_id, "k2");
  EXPECT_EQ(out[1].doc_id, "k3");
  EXPECT_TRUE(out[0].key.is_missing());
}

// --- IndexService end-to-end ---

class IndexServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    service_ = std::make_shared<IndexService>(&cluster_);
    client_ = std::make_unique<client::SmartClient>(&cluster_, "default");
  }

  IndexDefinition AgeIndex() {
    IndexDefinition def;
    def.name = "by_age";
    def.bucket = "default";
    def.key_paths = {"age"};
    return def;
  }

  cluster::Cluster cluster_;
  std::shared_ptr<IndexService> service_;
  std::unique_ptr<client::SmartClient> client_;
};

TEST_F(IndexServiceTest, BuildsFromExistingData) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(20 + i % 30) + "}")
                    .ok());
  }
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  auto entries = service_->Scan("default", "by_age", ScanRange::All(),
                                SIZE_MAX, ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  EXPECT_EQ(entries->size(), 50u);
}

TEST_F(IndexServiceTest, RequestPlusSeesOwnWrite) {
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  ASSERT_TRUE(client_->Upsert("u-new", R"({"age":99})").ok());
  // Read-your-own-write (paper §3.2.3: request_plus).
  auto entries =
      service_->Scan("default", "by_age", ScanRange::Point(Value::Int(99)),
                     SIZE_MAX, ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].doc_id, "u-new");
}

TEST_F(IndexServiceTest, RangeScanOrdered) {
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  ScanRange range;
  range.lo = Value::Int(10);
  range.hi = Value::Int(19);
  auto entries = service_->Scan("default", "by_age", range, SIZE_MAX,
                                ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 10u);
  for (size_t i = 1; i < entries->size(); ++i) {
    EXPECT_LE(Value::Compare((*entries)[i - 1].key, (*entries)[i].key), 0);
  }
}

TEST_F(IndexServiceTest, LimitRespected) {
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  auto entries = service_->Scan("default", "by_age", ScanRange::All(), 5,
                                ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 5u);
}

TEST_F(IndexServiceTest, PartitionedIndexScatterGather) {
  IndexDefinition def = AgeIndex();
  def.name = "by_age_p";
  def.num_partitions = 4;
  ASSERT_TRUE(service_->CreateIndex(def).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  auto entries = service_->Scan("default", "by_age_p", ScanRange::All(),
                                SIZE_MAX, ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 40u);
  for (size_t i = 1; i < entries->size(); ++i) {
    EXPECT_LE(Value::Compare((*entries)[i - 1].key, (*entries)[i].key), 0);
  }
  EXPECT_EQ(service_->Stats("default", "by_age_p").num_partitions, 4u);
}

// Each partition returns a sorted run with up to `limit` entries; the
// gather must merge them into the global first `limit` in (key, doc_id)
// order. Every key is shared by several documents, so the limit cuts
// through a run of duplicates and the doc_id tie-break decides which
// documents make the cut. (Keys are hashed to partitions, so equal keys
// always share one.)
TEST_F(IndexServiceTest, PartitionedScanMergesGlobalFirstN) {
  IndexDefinition def = AgeIndex();
  def.name = "by_age_p";
  def.num_partitions = 4;
  ASSERT_TRUE(service_->CreateIndex(def).ok());
  std::vector<std::pair<int64_t, std::string>> expected;
  for (int i = 0; i < 60; ++i) {
    std::string id = "u" + std::to_string(i);
    int64_t age = (i * 7) % 12;
    ASSERT_TRUE(
        client_->Upsert(id, R"({"age":)" + std::to_string(age) + "}").ok());
    if (age >= 3) expected.emplace_back(age, id);
  }
  std::sort(expected.begin(), expected.end());
  ScanRange range;
  range.lo = Value::Int(3);
  for (size_t limit : {size_t{1}, size_t{7}, size_t{23}, size_t{1000}}) {
    auto entries = service_->Scan("default", "by_age_p", range, limit,
                                  ScanConsistency::kRequestPlus);
    ASSERT_TRUE(entries.ok());
    size_t want = std::min(limit, expected.size());
    ASSERT_EQ(entries->size(), want) << "limit " << limit;
    for (size_t i = 0; i < want; ++i) {
      EXPECT_EQ((*entries)[i].key.AsInt(), expected[i].first)
          << "limit " << limit << " row " << i;
      EXPECT_EQ((*entries)[i].doc_id, expected[i].second)
          << "limit " << limit << " row " << i;
    }
  }
}

// A partitioned primary index gathers id-only runs: the merge orders them
// by id and keeps the global first `limit`.
TEST_F(IndexServiceTest, PartitionedPrimaryScanMergesIds) {
  IndexDefinition def;
  def.name = "#primary";
  def.bucket = "default";
  def.is_primary = true;
  def.num_partitions = 3;
  ASSERT_TRUE(service_->CreateIndex(def).ok());
  std::vector<std::string> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back("k" + std::to_string(100 + (i * 17) % 40));
    ASSERT_TRUE(client_->Upsert(ids.back(), "{}").ok());
  }
  std::sort(ids.begin(), ids.end());
  ScanRange range;
  range.lo = Value::Str("k110");
  range.lo_inclusive = false;
  auto entries = service_->Scan("default", "#primary", range, 9,
                                ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 9u);
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ((*entries)[i].doc_id, ids[11 + i]) << i;
  }
}

// The projector of a primary index only checks a body, but keeps the rule
// every index follows: a value JSON parsing rejects is not indexed, and any
// JSON value (not only an object) is.
TEST_F(IndexServiceTest, PrimaryIndexSkipsUnparsableValues) {
  IndexDefinition def;
  def.name = "#primary";
  def.bucket = "default";
  def.is_primary = true;
  ASSERT_TRUE(service_->CreateIndex(def).ok());
  ASSERT_TRUE(client_->Upsert("obj", R"({"a":[1,{"b":"c"}]})").ok());
  ASSERT_TRUE(client_->Upsert("num", "42").ok());
  ASSERT_TRUE(client_->Upsert("cut", R"({"a":[1,)").ok());
  ASSERT_TRUE(client_->Upsert("raw", "not json").ok());
  ASSERT_TRUE(client_->Upsert("tail", R"({"a":1} x)").ok());
  auto entries = service_->Scan("default", "#primary", ScanRange::All(),
                                SIZE_MAX, ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  std::vector<std::string> got;
  for (const IndexEntry& e : *entries) got.push_back(e.doc_id);
  EXPECT_EQ(got, (std::vector<std::string>{"num", "obj"}));
  // A value that becomes valid JSON enters the index.
  ASSERT_TRUE(client_->Upsert("raw", R"("now json")").ok());
  entries = service_->Scan("default", "#primary", ScanRange::All(), SIZE_MAX,
                           ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);
}

TEST_F(IndexServiceTest, MemoryOptimizedWritesNoDisk) {
  IndexDefinition std_def = AgeIndex();
  IndexDefinition mem_def = AgeIndex();
  mem_def.name = "by_age_mem";
  mem_def.mode = IndexStorageMode::kMemoryOptimized;
  ASSERT_TRUE(service_->CreateIndex(std_def).ok());
  ASSERT_TRUE(service_->CreateIndex(mem_def).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  ASSERT_TRUE(service_->WaitUntilCaughtUp("default", "by_age").ok());
  ASSERT_TRUE(service_->WaitUntilCaughtUp("default", "by_age_mem").ok());
  EXPECT_GT(service_->Stats("default", "by_age").disk_bytes_written, 0u);
  EXPECT_EQ(service_->Stats("default", "by_age_mem").disk_bytes_written, 0u);
}

TEST_F(IndexServiceTest, DropIndexStopsMaintenance) {
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  ASSERT_TRUE(service_->DropIndex("default", "by_age").ok());
  EXPECT_FALSE(service_
                   ->Scan("default", "by_age", ScanRange::All(), 10,
                          ScanConsistency::kNotBounded)
                   .ok());
  EXPECT_TRUE(service_->ListIndexes("default").empty());
}

TEST_F(IndexServiceTest, IndexSurvivesRebalance) {
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  cluster_.AddNode();
  ASSERT_TRUE(cluster_.Rebalance().ok());
  for (int i = 60; i < 80; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  auto entries = service_->Scan("default", "by_age", ScanRange::All(),
                                SIZE_MAX, ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  EXPECT_EQ(entries->size(), 80u);
}

TEST_F(IndexServiceTest, MdsRequiresIndexNode) {
  cluster::Cluster c;
  c.AddNode(cluster::kDataService);  // data only, no index service
  cluster::BucketConfig cfg;
  cfg.name = "b";
  cfg.num_replicas = 0;
  ASSERT_TRUE(c.CreateBucket(cfg).ok());
  auto svc = std::make_shared<IndexService>(&c);
  IndexDefinition def;
  def.name = "i";
  def.bucket = "b";
  def.key_paths = {"x"};
  EXPECT_FALSE(svc->CreateIndex(def).ok());
}

}  // namespace
}  // namespace couchkv::gsi
