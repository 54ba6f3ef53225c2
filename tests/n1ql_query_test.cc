// End-to-end N1QL tests: planner access-path selection and full query
// execution against a live 3-node cluster with GSI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "client/smart_client.h"
#include "n1ql/query_service.h"

namespace couchkv::n1ql {
namespace {

using json::Value;

class N1qlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "profiles";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    gsi_ = std::make_shared<gsi::IndexService>(&cluster_);
    views_ = std::make_shared<views::ViewEngine>(&cluster_);
    service_ = std::make_unique<QueryService>(&cluster_, gsi_, views_);
    client_ = std::make_unique<client::SmartClient>(&cluster_, "profiles");
  }

  void LoadProfiles(int n) {
    for (int i = 0; i < n; ++i) {
      json::Value doc = json::Value::MakeObject();
      doc["name"] = Value::Str("user" + std::to_string(i));
      doc["email"] = Value::Str("u" + std::to_string(i) + "@example.com");
      doc["age"] = Value::Int(18 + i % 50);
      doc["city"] = Value::Str(i % 2 ? "SF" : "NY");
      ASSERT_TRUE(
          client_->UpsertJson("profile::" + std::to_string(i), doc).ok());
    }
  }

  QueryResult MustQuery(const std::string& q, QueryOptions opts = {}) {
    // request_plus by default so tests are deterministic.
    if (opts.consistency == gsi::ScanConsistency::kNotBounded) {
      opts.consistency = gsi::ScanConsistency::kRequestPlus;
    }
    auto r = service_->Execute(q, opts);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  cluster::Cluster cluster_;
  std::shared_ptr<gsi::IndexService> gsi_;
  std::shared_ptr<views::ViewEngine> views_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<client::SmartClient> client_;
};

TEST_F(N1qlTest, SelectWithoutFrom) {
  auto r = MustQuery("SELECT 1 + 2 AS three");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Field("three").AsInt(), 3);
}

TEST_F(N1qlTest, UseKeysKeyScan) {
  LoadProfiles(10);
  auto r = MustQuery("SELECT name, email FROM profiles USE KEYS 'profile::3'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Field("name").AsString(), "user3");
  // No index fetch involved: explain shows KeyScan.
  auto ex = MustQuery("EXPLAIN SELECT * FROM profiles USE KEYS 'profile::3'");
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].#operator").AsString(),
            "KeyScan");
}

TEST_F(N1qlTest, UseKeysMultiple) {
  LoadProfiles(10);
  auto r = MustQuery(
      "SELECT name FROM profiles USE KEYS ['profile::1', 'profile::4']");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(N1qlTest, UseKeysMissingKeyYieldsNoRow) {
  LoadProfiles(2);
  auto r = MustQuery("SELECT * FROM profiles USE KEYS 'nope'");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(N1qlTest, NoIndexMeansPlanError) {
  LoadProfiles(2);
  auto r = service_->Execute("SELECT * FROM profiles WHERE age > 20");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPlanError);
}

TEST_F(N1qlTest, PrimaryIndexEnablesFullScan) {
  LoadProfiles(20);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto r = MustQuery("SELECT name FROM profiles WHERE age >= 18");
  EXPECT_EQ(r.rows.size(), 20u);
  auto ex = MustQuery("EXPLAIN SELECT name FROM profiles WHERE age >= 18");
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].#operator").AsString(),
            "PrimaryScan");
}

TEST_F(N1qlTest, SecondaryIndexScanChosen) {
  LoadProfiles(40);
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  auto ex = MustQuery("EXPLAIN SELECT name FROM profiles WHERE age = 25");
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].#operator").AsString(),
            "IndexScan");
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].index").AsString(), "by_age");
  auto r = MustQuery("SELECT name, age FROM profiles WHERE age = 25");
  ASSERT_FALSE(r.rows.empty());
  for (const Value& row : r.rows) {
    EXPECT_EQ(row.Field("age").AsInt(), 25);
  }
}

TEST_F(N1qlTest, CoveringIndexAvoidsFetch) {
  LoadProfiles(30);
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  auto ex = MustQuery("EXPLAIN SELECT age FROM profiles WHERE age > 40");
  EXPECT_TRUE(ex.rows[0].GetPath("operators[0].covering").AsBool());
  // Non-covered: selects name too.
  auto ex2 = MustQuery("EXPLAIN SELECT name, age FROM profiles WHERE age > 40");
  EXPECT_FALSE(ex2.rows[0].GetPath("operators[0].covering").AsBool());

  auto covered = MustQuery("SELECT age FROM profiles WHERE age > 40");
  EXPECT_EQ(covered.metrics.docs_fetched, 0u);  // §5.1.2: no fetch at all
  auto fetched = MustQuery("SELECT name, age FROM profiles WHERE age > 40");
  EXPECT_GT(fetched.metrics.docs_fetched, 0u);
  EXPECT_EQ(covered.rows.size(), fetched.rows.size());
}

TEST_F(N1qlTest, RangePredicatesCombine) {
  LoadProfiles(60);
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  auto r = MustQuery(
      "SELECT age FROM profiles WHERE age >= 30 AND age < 35 ORDER BY age");
  ASSERT_FALSE(r.rows.empty());
  EXPECT_EQ(r.rows.front().Field("age").AsInt(), 30);
  EXPECT_EQ(r.rows.back().Field("age").AsInt(), 34);
}

TEST_F(N1qlTest, PartialIndexUsedOnlyWhenImplied) {
  LoadProfiles(40);
  MustQuery(
      "CREATE INDEX over21 ON profiles(age) WHERE age > 21 USING GSI");
  // Query repeating the predicate can use it.
  auto ex = MustQuery(
      "EXPLAIN SELECT age FROM profiles WHERE age > 21 AND age = 30");
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].index").AsString(), "over21");
  // Query without the predicate cannot (and has no other index).
  auto r = service_->Execute("SELECT age FROM profiles WHERE age = 30");
  EXPECT_FALSE(r.ok());
}

TEST_F(N1qlTest, OrderLimitOffset) {
  LoadProfiles(20);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto r = MustQuery(
      "SELECT name, age FROM profiles WHERE age >= 18 "
      "ORDER BY age DESC, name ASC LIMIT 5 OFFSET 2");
  ASSERT_EQ(r.rows.size(), 5u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i - 1].Field("age").AsInt(),
              r.rows[i].Field("age").AsInt());
  }
}

TEST_F(N1qlTest, GroupByWithAggregates) {
  LoadProfiles(30);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto r = MustQuery(
      "SELECT city, COUNT(*) AS n, AVG(age) AS avg_age, MIN(age) AS min_age "
      "FROM profiles WHERE age >= 18 GROUP BY city ORDER BY city");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].Field("city").AsString(), "NY");
  EXPECT_EQ(r.rows[0].Field("n").AsInt(), 15);
  EXPECT_GT(r.rows[0].Field("avg_age").AsNumber(), 17.0);
  // HAVING filters groups.
  auto h = MustQuery(
      "SELECT city, COUNT(*) AS n FROM profiles WHERE age >= 18 "
      "GROUP BY city HAVING COUNT(*) > 100");
  EXPECT_TRUE(h.rows.empty());
}

TEST_F(N1qlTest, GlobalAggregateWithoutGroupBy) {
  LoadProfiles(25);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto r = MustQuery("SELECT COUNT(*) AS total FROM profiles WHERE age >= 0");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Field("total").AsInt(), 25);
}

TEST_F(N1qlTest, JoinOnKeys) {
  // Orders reference customer keys: the only join N1QL allows (§3.2.4).
  cluster::BucketConfig cfg;
  cfg.name = "orders";
  cfg.num_replicas = 0;
  ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
  client::SmartClient orders(&cluster_, "orders");
  ASSERT_TRUE(client_->Upsert("cust::1", R"({"name":"Alice"})").ok());
  ASSERT_TRUE(client_->Upsert("cust::2", R"({"name":"Bob"})").ok());
  ASSERT_TRUE(
      orders.Upsert("ord::1", R"({"cust":"cust::1","total":10})").ok());
  ASSERT_TRUE(
      orders.Upsert("ord::2", R"({"cust":"cust::1","total":20})").ok());
  ASSERT_TRUE(
      orders.Upsert("ord::3", R"({"cust":"cust::9","total":30})").ok());

  auto r = MustQuery(
      "SELECT o.total, c.name FROM orders o "
      "USE KEYS ['ord::1','ord::2','ord::3'] "
      "INNER JOIN profiles c ON KEYS o.cust ORDER BY o.total");
  ASSERT_EQ(r.rows.size(), 2u);  // ord::3 has no matching customer
  EXPECT_EQ(r.rows[0].Field("name").AsString(), "Alice");

  auto lo = MustQuery(
      "SELECT o.total, c.name FROM orders o "
      "USE KEYS ['ord::1','ord::3'] "
      "LEFT JOIN profiles c ON KEYS o.cust ORDER BY o.total");
  ASSERT_EQ(lo.rows.size(), 2u);  // left outer keeps ord::3
  EXPECT_TRUE(lo.rows[1].Field("name").is_missing());
}

TEST_F(N1qlTest, NestCollectsIntoArray) {
  // The paper's §3.2.3 NEST: orders embedded as an array in the user.
  cluster::BucketConfig cfg;
  cfg.name = "po";
  cfg.num_replicas = 0;
  ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
  client::SmartClient po(&cluster_, "po");
  ASSERT_TRUE(po.Upsert("borkar123", R"({
      "personal_details": {"name": "Dipti"},
      "shipped_order_history": [
        {"order_id": "order::1"}, {"order_id": "order::2"}]})")
                  .ok());
  ASSERT_TRUE(po.Upsert("order::1", R"({"item":"couch","qty":1})").ok());
  ASSERT_TRUE(po.Upsert("order::2", R"({"item":"base","qty":2})").ok());

  auto r = MustQuery(
      "SELECT PO.personal_details, orders FROM po PO USE KEYS 'borkar123' "
      "NEST po AS orders "
      "ON KEYS ARRAY s.order_id FOR s IN PO.shipped_order_history END");
  ASSERT_EQ(r.rows.size(), 1u);
  const Value& orders = r.rows[0].Field("orders");
  ASSERT_TRUE(orders.is_array());
  EXPECT_EQ(orders.AsArray().size(), 2u);
  EXPECT_EQ(r.rows[0].GetPath("personal_details.name").AsString(), "Dipti");
}

TEST_F(N1qlTest, UnnestFlattensArrays) {
  cluster::BucketConfig cfg;
  cfg.name = "product";
  cfg.num_replicas = 0;
  ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
  client::SmartClient prod(&cluster_, "product");
  ASSERT_TRUE(
      prod.Upsert("p1", R"({"categories":["sofa","living"]})").ok());
  ASSERT_TRUE(
      prod.Upsert("p2", R"({"categories":["sofa","office"]})").ok());

  // The paper's §3.2.3 UNNEST example (distinct in-use categories).
  auto r = MustQuery(
      "SELECT DISTINCT categories FROM product USE KEYS ['p1','p2'] "
      "UNNEST product.categories AS categories ORDER BY categories");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].Field("categories").AsString(), "living");
  EXPECT_EQ(r.rows[1].Field("categories").AsString(), "office");
  EXPECT_EQ(r.rows[2].Field("categories").AsString(), "sofa");
}

TEST_F(N1qlTest, DmlInsertUpdateDelete) {
  auto ins = MustQuery(
      R"(INSERT INTO profiles (KEY, VALUE)
         VALUES ("p::a", {"name": "A", "age": 1}),
                ("p::b", {"name": "B", "age": 2}))");
  EXPECT_EQ(ins.metrics.mutation_count, 2u);
  // Duplicate INSERT fails; UPSERT succeeds.
  EXPECT_FALSE(
      service_->Execute(
                  R"(INSERT INTO profiles (KEY, VALUE) VALUES ("p::a", 1))")
          .ok());
  MustQuery(R"(UPSERT INTO profiles (KEY, VALUE)
               VALUES ("p::a", {"name": "A2", "age": 10}))");
  auto up = MustQuery(
      "UPDATE profiles USE KEYS 'p::b' SET age = 99, extra.note = 'hi'");
  EXPECT_EQ(up.metrics.mutation_count, 1u);
  auto check = MustQuery("SELECT age, extra FROM profiles USE KEYS 'p::b'");
  EXPECT_EQ(check.rows[0].Field("age").AsInt(), 99);
  EXPECT_EQ(check.rows[0].GetPath("extra.note").AsString(), "hi");
  auto del = MustQuery("DELETE FROM profiles USE KEYS 'p::a'");
  EXPECT_EQ(del.metrics.mutation_count, 1u);
  EXPECT_TRUE(client_->Get("p::a").status().IsNotFound());
}

TEST_F(N1qlTest, UpdateWithWhereViaIndex) {
  LoadProfiles(20);
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  auto r = MustQuery("UPDATE profiles SET city = 'LA' WHERE age = 20");
  EXPECT_GT(r.metrics.mutation_count, 0u);
  auto check = MustQuery("SELECT city FROM profiles WHERE age = 20");
  for (const Value& row : check.rows) {
    EXPECT_EQ(row.Field("city").AsString(), "LA");
  }
}

TEST_F(N1qlTest, WorkloadEStyleQuery) {
  LoadProfiles(50);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  QueryOptions opts;
  opts.params = {Value::Str("profile::2"), Value::Int(5)};
  auto r = MustQuery(
      "SELECT meta().id AS id FROM profiles WHERE meta().id >= $1 LIMIT $2",
      opts);
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0].Field("id").AsString(), "profile::2");
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LT(r.rows[i - 1].Field("id").AsString(),
              r.rows[i].Field("id").AsString());
  }
}

TEST_F(N1qlTest, CoveredPrimaryScanMatchesFetchedScan) {
  LoadProfiles(50);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  const std::string covered_q =
      "SELECT META().id AS id FROM profiles WHERE META().id >= $1 LIMIT $2";
  const std::string fetched_q =
      "SELECT META().id AS id, name FROM profiles "
      "WHERE META().id >= $1 LIMIT $2";
  QueryOptions opts;
  opts.params = {Value::Str("profile::17"), Value::Int(12)};
  auto ex = MustQuery("EXPLAIN " + covered_q, opts);
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].#operator").AsString(),
            "PrimaryScan");
  EXPECT_TRUE(ex.rows[0].GetPath("operators[0].covering").AsBool());
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].range").AsString(),
            "meta().id range");
  EXPECT_NE(ex.rows[0].GetPath("operators[1].#operator").AsString(), "Fetch");
  auto ex2 = MustQuery("EXPLAIN " + fetched_q, opts);
  EXPECT_FALSE(ex2.rows[0].GetPath("operators[0].covering").AsBool());
  EXPECT_EQ(ex2.rows[0].GetPath("operators[1].#operator").AsString(),
            "Fetch");

  auto covered = MustQuery(covered_q, opts);
  auto fetched = MustQuery(fetched_q, opts);
  EXPECT_EQ(covered.metrics.docs_fetched, 0u);
  EXPECT_EQ(fetched.metrics.docs_fetched, 12u);
  ASSERT_EQ(covered.rows.size(), 12u);
  ASSERT_EQ(fetched.rows.size(), covered.rows.size());
  for (size_t i = 0; i < covered.rows.size(); ++i) {
    EXPECT_EQ(covered.rows[i].Field("id").AsString(),
              fetched.rows[i].Field("id").AsString());
  }
  EXPECT_EQ(covered.rows[0].Field("id").AsString(), "profile::17");
}

TEST_F(N1qlTest, CoveredPrimaryScanRequestPlusHidesDeletes) {
  LoadProfiles(10);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  const std::string q =
      "SELECT META().id AS id FROM profiles WHERE META().id >= 'profile::'";
  ASSERT_EQ(MustQuery(q).rows.size(), 10u);
  EXPECT_EQ(MustQuery("DELETE FROM profiles USE KEYS 'profile::3'")
                .metrics.mutation_count,
            1u);
  auto r = MustQuery(q);  // request_plus
  EXPECT_EQ(r.metrics.docs_fetched, 0u);
  ASSERT_EQ(r.rows.size(), 9u);
  for (const Value& row : r.rows) {
    EXPECT_NE(row.Field("id").AsString(), "profile::3");
  }
}

// The ids a covered query returned, in order.
std::vector<std::string> Ids(const QueryResult& r) {
  std::vector<std::string> ids;
  for (const Value& row : r.rows) ids.push_back(row.Field("id").AsString());
  return ids;
}

// Two lower bounds on META().id: the scan starts at the tighter one in
// either order, so the pushed-down LIMIT counts only qualifying ids.
TEST_F(N1qlTest, SameSideIdBoundsKeepTheTighter) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_->Upsert("k" + std::to_string(i), "{}").ok());
  }
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  const std::vector<std::string> want = {"k5", "k6", "k7"};
  EXPECT_EQ(Ids(MustQuery("SELECT meta().id AS id FROM profiles WHERE "
                          "meta().id >= 'k5' AND meta().id >= 'k1' LIMIT 3")),
            want);
  EXPECT_EQ(Ids(MustQuery("SELECT meta().id AS id FROM profiles WHERE "
                          "meta().id >= 'k1' AND meta().id >= 'k5' LIMIT 3")),
            want);
  EXPECT_EQ(Ids(MustQuery("SELECT meta().id AS id FROM profiles WHERE "
                          "meta().id > 'k4' AND meta().id >= 'k5' LIMIT 3")),
            want);
}

TEST_F(N1qlTest, SameSideSecondaryBoundsKeepTheTighter) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("x" + std::to_string(i),
                             R"({"x":)" + std::to_string(i) + "}")
                    .ok());
  }
  MustQuery("CREATE INDEX by_x ON profiles(x) USING GSI");
  const std::vector<std::string> want = {"x7", "x8", "x9"};
  for (const char* where : {"x > 6 AND x > 2", "x > 2 AND x > 6",
                            "x > 6 AND x >= 6", "x >= 6 AND x > 6"}) {
    EXPECT_EQ(Ids(MustQuery(std::string("SELECT meta().id AS id, x FROM "
                                        "profiles WHERE ") +
                            where + " LIMIT 3")),
              want)
        << where;
  }
}

// NULL keys sort first in an index but fail every comparison: a range with
// no lower bound must not spend a pushed-down LIMIT on them.
TEST_F(N1qlTest, OpenSecondaryRangeSkipsNullKeys) {
  ASSERT_TRUE(client_->Upsert("n1", R"({"x":null})").ok());
  ASSERT_TRUE(client_->Upsert("n2", R"({"x":null})").ok());
  ASSERT_TRUE(client_->Upsert("t", R"({"x":true})").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("x" + std::to_string(i),
                             R"({"x":)" + std::to_string(i) + "}")
                    .ok());
  }
  MustQuery("CREATE INDEX by_x ON profiles(x) USING GSI");
  auto r = MustQuery("SELECT meta().id AS id, x FROM profiles WHERE x < 5 "
                     "LIMIT 3");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"t", "x0", "x1"}));
}

// The YCSB-E statement: the covered PrimaryScan's range is the whole WHERE,
// so the pipeline has no Filter.
TEST_F(N1qlTest, IdRangeImpliedByScanHasNoFilter) {
  LoadProfiles(20);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  QueryOptions opts;
  opts.params = {Value::Str("profile::2"), Value::Int(5)};
  auto ex = MustQuery(
      "EXPLAIN SELECT meta().id AS id FROM profiles WHERE meta().id >= $1 "
      "LIMIT $2",
      opts);
  std::vector<std::string> ops;
  for (const Value& op : ex.rows[0].Field("operators").AsArray()) {
    ops.push_back(op.Field("#operator").AsString());
  }
  EXPECT_EQ(ops, (std::vector<std::string>{"PrimaryScan", "InitialProject",
                                           "Limit", "FinalProject"}));
  EXPECT_TRUE(ex.rows[0].GetPath("operators[0].covering").AsBool());

  // Another conjunct stays, alone, in the Filter.
  const std::string q =
      "SELECT META().id AS id FROM profiles "
      "WHERE META().id >= 'profile::2' AND city = 'NY'";
  auto ex2 = MustQuery("EXPLAIN " + q);
  EXPECT_EQ(ex2.rows[0].GetPath("operators[2].#operator").AsString(),
            "Filter");
  EXPECT_EQ(ex2.rows[0].GetPath("operators[2].condition").AsString(),
            "(city = \"NY\")");
  // profile::2..9 sort at or after 'profile::2'; the even ones are NY.
  EXPECT_EQ(Ids(MustQuery(q)),
            (std::vector<std::string>{"profile::2", "profile::4", "profile::6",
                                      "profile::8"}));
}

// Bounds that are not strings stay in the filter: NULL and MISSING match
// nothing, and every id (a string) sorts after a number.
TEST_F(N1qlTest, NonStringIdBoundsStillFilter) {
  LoadProfiles(5);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  const std::string q =
      "SELECT meta().id AS id FROM profiles WHERE meta().id >= $1 LIMIT 3";
  QueryOptions opts;
  opts.params = {Value::Null()};
  EXPECT_TRUE(MustQuery(q, opts).rows.empty());
  opts.params = {Value::Missing()};
  EXPECT_TRUE(MustQuery(q, opts).rows.empty());
  opts.params = {Value::Int(7)};
  EXPECT_EQ(Ids(MustQuery(q, opts)),
            (std::vector<std::string>{"profile::0", "profile::1",
                                      "profile::2"}));
}

// Parsed statements are cached by text up to a fixed number of entries;
// past it, new texts still run (and are cached), and failures are never
// kept.
TEST_F(N1qlTest, StatementCacheStaysWithinItsCap) {
  const size_t cap = QueryService::kStatementCacheEntries;
  for (size_t i = 0; i < cap + 8; ++i) {
    auto r = MustQuery("SELECT " + std::to_string(i) + " AS n");
    ASSERT_EQ(r.rows.size(), 1u);
    ASSERT_EQ(r.rows[0].Field("n").AsInt(), static_cast<int64_t>(i));
    ASSERT_LE(service_->cached_statements(), cap);
  }
  EXPECT_EQ(service_->cached_statements(), cap);
  for (size_t i = 0; i < cap + 8; i += 97) {  // evicted or not, they run
    auto r = MustQuery("SELECT " + std::to_string(i) + " AS n");
    EXPECT_EQ(r.rows[0].Field("n").AsInt(), static_cast<int64_t>(i));
  }
  EXPECT_FALSE(service_->Execute("SELECT FROM WHERE").ok());
  EXPECT_EQ(service_->cached_statements(), cap);
}

// Several threads run one cached text while another creates and drops an
// index on the same bucket: every run returns the exact ids.
TEST_F(N1qlTest, CachedStatementRunsConcurrentlyWithIndexDdl) {
  LoadProfiles(30);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  std::vector<std::string> all;
  for (int i = 0; i < 30; ++i) all.push_back("profile::" + std::to_string(i));
  std::sort(all.begin(), all.end());
  const std::string q =
      "SELECT meta().id AS id FROM profiles WHERE meta().id >= $1 LIMIT $2";
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread ddl([&] {
    for (int i = 0; i < 3 || !stop.load(); ++i) {
      if (!service_->Execute("CREATE INDEX by_age ON profiles(age)").ok() ||
          !service_->Execute("DROP INDEX profiles.by_age").ok()) {
        bad.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> runners;
  for (int t = 0; t < 3; ++t) {
    runners.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        const size_t start = static_cast<size_t>(t * 7 + i) % all.size();
        const size_t limit = 1 + static_cast<size_t>(i) % 6;
        QueryOptions opts;
        opts.params = {Value::Str(all[start]),
                       Value::Int(static_cast<int64_t>(limit))};
        opts.consistency = gsi::ScanConsistency::kRequestPlus;
        auto r = service_->Execute(q, opts);
        std::vector<std::string> want(
            all.begin() + static_cast<std::ptrdiff_t>(start),
            all.begin() + static_cast<std::ptrdiff_t>(
                              std::min(all.size(), start + limit)));
        if (!r.ok() || Ids(*r) != want) bad.fetch_add(1);
      }
    });
  }
  for (std::thread& r : runners) r.join();
  stop.store(true);
  ddl.join();
  EXPECT_EQ(bad.load(), 0);
}

// A field read only inside a CASE arm must stop the index from covering:
// otherwise the arm reads MISSING from the index-built row.
TEST_F(N1qlTest, CaseArmFieldIsFetched) {
  LoadProfiles(30);  // ages 18..47, profile::i has age 18 + i
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  auto r = MustQuery(
      "SELECT CASE WHEN age > 41 THEN name ELSE 'x' END AS n "
      "FROM profiles WHERE age > 40");
  std::vector<std::string> names;
  for (const Value& row : r.rows) {
    const Value& n = row.Field("n");
    names.push_back(n.is_string() ? n.AsString() : "<missing>");
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"user24", "user25", "user26",
                                             "user27", "user28", "user29",
                                             "x"}));
}

TEST_F(N1qlTest, HavingFieldIsFetched) {
  LoadProfiles(30);
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  auto r = MustQuery(
      "SELECT age FROM profiles WHERE age > 40 GROUP BY age "
      "HAVING MAX(name) >= 'user25'");
  std::vector<int64_t> ages;
  for (const Value& row : r.rows) ages.push_back(row.Field("age").AsInt());
  std::sort(ages.begin(), ages.end());
  EXPECT_EQ(ages, (std::vector<int64_t>{43, 44, 45, 46, 47}));
}

TEST_F(N1qlTest, AnySatisfiesFilter) {
  cluster::BucketConfig cfg;
  cfg.name = "orders2";
  cfg.num_replicas = 0;
  ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
  client::SmartClient orders(&cluster_, "orders2");
  ASSERT_TRUE(orders.Upsert("o1", R"({"items":[{"sku":"a"},{"sku":"b"}]})")
                  .ok());
  ASSERT_TRUE(orders.Upsert("o2", R"({"items":[{"sku":"c"}]})").ok());
  auto r = MustQuery(
      "SELECT META(o).id AS id FROM orders2 o USE KEYS ['o1','o2'] "
      "WHERE ANY i IN o.items SATISFIES i.sku = 'b' END");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Field("id").AsString(), "o1");
}

TEST_F(N1qlTest, ScanConsistencyNotBoundedVsRequestPlus) {
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  cluster_.Quiesce();
  ASSERT_TRUE(client_->Upsert("fresh", R"({"age":123})").ok());
  // request_plus must see the write that preceded the query (§3.2.3).
  QueryOptions plus;
  plus.consistency = gsi::ScanConsistency::kRequestPlus;
  auto r = service_->Execute(
      "SELECT age FROM profiles WHERE age = 123", plus);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(N1qlTest, CreateIndexUsingViewAndDrop) {
  LoadProfiles(5);
  MustQuery("CREATE INDEX email_view ON profiles(email) USING VIEW");
  // The view exists and is queryable through the view engine.
  views::ViewQueryOptions vopts;
  auto vr = views_->Query("profiles", "email_view", vopts,
                          views::Staleness::kFalse);
  ASSERT_TRUE(vr.ok());
  EXPECT_EQ(vr->rows.size(), 5u);
  MustQuery("DROP INDEX profiles.email_view");
  EXPECT_FALSE(views_->Query("profiles", "email_view", vopts).ok());
}

TEST_F(N1qlTest, MdsNoQueryNodeRefusesQueries) {
  cluster::Cluster c;
  c.AddNode(cluster::kDataService | cluster::kIndexService);
  cluster::BucketConfig cfg;
  cfg.name = "b";
  cfg.num_replicas = 0;
  ASSERT_TRUE(c.CreateBucket(cfg).ok());
  auto g = std::make_shared<gsi::IndexService>(&c);
  auto v = std::make_shared<views::ViewEngine>(&c);
  QueryService qs(&c, g, v);
  auto r = qs.Execute("SELECT 1");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST_F(N1qlTest, ExplainListsOperatorPipeline) {
  LoadProfiles(5);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto ex = MustQuery(
      "EXPLAIN SELECT city, COUNT(*) FROM profiles WHERE age > 1 "
      "GROUP BY city ORDER BY city LIMIT 2");
  const Value& ops = ex.rows[0].Field("operators");
  ASSERT_TRUE(ops.is_array());
  // Scan, Fetch, Filter, Group, InitialProject, Sort, Limit, FinalProject.
  EXPECT_EQ(ops.AsArray().size(), 8u);
}

}  // namespace
}  // namespace couchkv::n1ql
