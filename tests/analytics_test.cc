// Tests for the analytics service (paper §6.2): shadow-dataset ingestion,
// full scans without indexes, general hash joins (forbidden in N1QL),
// grouping/aggregation, performance isolation, topology changes, and parity
// with the N1QL query service, whose SELECT stages it shares.
#include <gtest/gtest.h>

#include <algorithm>

#include "analytics/analytics.h"
#include "client/smart_client.h"
#include "n1ql/query_service.h"

namespace couchkv::analytics {
namespace {

using json::Value;

class AnalyticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "orders";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    cfg.name = "customers";
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    service_ = std::make_shared<AnalyticsService>(&cluster_);
    orders_ = std::make_unique<client::SmartClient>(&cluster_, "orders");
    customers_ = std::make_unique<client::SmartClient>(&cluster_, "customers");
  }

  void LoadSampleData() {
    ASSERT_TRUE(customers_->Upsert(
        "c1", R"({"name":"Alice","region":"west"})").ok());
    ASSERT_TRUE(customers_->Upsert(
        "c2", R"({"name":"Bob","region":"east"})").ok());
    ASSERT_TRUE(customers_->Upsert(
        "c3", R"({"name":"Cara","region":"west"})").ok());
    ASSERT_TRUE(orders_->Upsert(
        "o1", R"({"cust":"c1","total":100,"region":"west"})").ok());
    ASSERT_TRUE(orders_->Upsert(
        "o2", R"({"cust":"c1","total":250,"region":"west"})").ok());
    ASSERT_TRUE(orders_->Upsert(
        "o3", R"({"cust":"c2","total":75,"region":"east"})").ok());
    ASSERT_TRUE(orders_->Upsert(
        "o4", R"({"cust":"c9","total":10,"region":"east"})").ok());
  }

  void Connect() {
    ASSERT_TRUE(service_->ConnectBucket("orders").ok());
    ASSERT_TRUE(service_->ConnectBucket("customers").ok());
    ASSERT_TRUE(service_->WaitCaughtUp("orders").ok());
    ASSERT_TRUE(service_->WaitCaughtUp("customers").ok());
  }

  // Starts a N1QL query service with a primary index on both buckets.
  void StartQueryService() {
    auto gsi = std::make_shared<gsi::IndexService>(&cluster_);
    auto views = std::make_shared<views::ViewEngine>(&cluster_);
    n1ql_ = std::make_unique<n1ql::QueryService>(&cluster_, gsi, views);
    ASSERT_TRUE(n1ql_->Execute("CREATE PRIMARY INDEX ON orders").ok());
    ASSERT_TRUE(n1ql_->Execute("CREATE PRIMARY INDEX ON customers").ok());
  }

  // Result rows as JSON text, sorted unless `ordered`.
  static std::vector<std::string> Texts(const std::vector<Value>& rows,
                                        bool ordered) {
    std::vector<std::string> out;
    for (const Value& row : rows) out.push_back(row.ToJson());
    if (!ordered) std::sort(out.begin(), out.end());
    return out;
  }

  // Runs `query` on the N1QL query service (request_plus).
  StatusOr<std::vector<std::string>> RunN1ql(const std::string& query,
                                             const std::vector<Value>& params,
                                             bool ordered) {
    n1ql::QueryOptions opts;
    opts.params = params;
    opts.consistency = gsi::ScanConsistency::kRequestPlus;
    auto r = n1ql_->Execute(query, opts);
    if (!r.ok()) return r.status();
    return Texts(r->rows, ordered);
  }

  // Runs `query` on the analytics service.
  StatusOr<std::vector<std::string>> RunAnalytics(
      const std::string& query, const std::vector<Value>& params,
      bool ordered) {
    auto r = service_->Query(query, params);
    if (!r.ok()) return r.status();
    return Texts(r->rows, ordered);
  }

  cluster::Cluster cluster_;
  std::shared_ptr<AnalyticsService> service_;
  std::unique_ptr<client::SmartClient> orders_, customers_;
  std::unique_ptr<n1ql::QueryService> n1ql_;
};

TEST_F(AnalyticsTest, IngestsExistingAndNewData) {
  LoadSampleData();
  Connect();
  EXPECT_EQ(service_->dataset("orders")->num_docs(), 4u);
  // New writes flow in through DCP.
  ASSERT_TRUE(orders_->Upsert("o5", R"({"cust":"c3","total":5})").ok());
  ASSERT_TRUE(service_->WaitCaughtUp("orders").ok());
  EXPECT_EQ(service_->dataset("orders")->num_docs(), 5u);
  // Deletes too.
  ASSERT_TRUE(orders_->Remove("o5").ok());
  ASSERT_TRUE(service_->WaitCaughtUp("orders").ok());
  EXPECT_EQ(service_->dataset("orders")->num_docs(), 4u);
}

TEST_F(AnalyticsTest, FullScanNeedsNoIndex) {
  LoadSampleData();
  Connect();
  // No PRIMARY INDEX anywhere — the analytics engine scans the shadow.
  auto r = service_->Query(
      "SELECT total FROM orders WHERE total > 50 ORDER BY total");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0].Field("total").AsInt(), 75);
  EXPECT_GT(r->scanned_docs, 0u);
}

TEST_F(AnalyticsTest, GeneralHashJoin) {
  LoadSampleData();
  Connect();
  // A general equality join on secondary attributes — exactly what N1QL
  // §3.2.4 refuses ("A restricted Cartesian product across two secondary
  // attributes of documents is not supported linguistically in N1QL").
  auto r = service_->Query(
      "SELECT c.name, o.total FROM orders o "
      "JOIN customers c ON o.cust = META(c).id "
      "ORDER BY o.total DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);  // o4 has no matching customer
  EXPECT_EQ(r->rows[0].Field("name").AsString(), "Alice");
  EXPECT_EQ(r->rows[0].Field("total").AsInt(), 250);
}

TEST_F(AnalyticsTest, SecondaryAttributeJoin) {
  LoadSampleData();
  Connect();
  // Join on region — neither side is a primary key.
  auto r = service_->Query(
      "SELECT DISTINCT c.name FROM orders o "
      "JOIN customers c ON o.region = c.region "
      "WHERE o.total >= 100 ORDER BY c.name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);  // Alice + Cara (west)
  EXPECT_EQ(r->rows[0].Field("name").AsString(), "Alice");
  EXPECT_EQ(r->rows[1].Field("name").AsString(), "Cara");
}

TEST_F(AnalyticsTest, LeftOuterGeneralJoin) {
  LoadSampleData();
  Connect();
  auto r = service_->Query(
      "SELECT META(o).id AS oid, c.name FROM orders o "
      "LEFT JOIN customers c ON o.cust = META(c).id ORDER BY oid");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 4u);
  EXPECT_TRUE(r->rows[3].Field("name").is_missing());  // o4: no customer
}

TEST_F(AnalyticsTest, NonEquiJoinFallsBackToNestedLoop) {
  LoadSampleData();
  Connect();
  auto r = service_->Query(
      "SELECT META(o).id AS oid, c.name FROM orders o "
      "JOIN customers c ON o.total > 200 AND c.region = 'west' "
      "ORDER BY oid, c.name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);  // o2 x {Alice, Cara}
}

TEST_F(AnalyticsTest, GroupByAggregation) {
  LoadSampleData();
  Connect();
  auto r = service_->Query(
      "SELECT region, COUNT(*) AS n, SUM(total) AS revenue "
      "FROM orders GROUP BY region ORDER BY region");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0].Field("region").AsString(), "east");
  EXPECT_EQ(r->rows[0].Field("n").AsInt(), 2);
  EXPECT_EQ(r->rows[0].Field("revenue").AsInt(), 85);
  EXPECT_EQ(r->rows[1].Field("revenue").AsInt(), 350);
}

TEST_F(AnalyticsTest, SameQueryRejectedByN1ql) {
  LoadSampleData();
  auto gsi = std::make_shared<gsi::IndexService>(&cluster_);
  auto views = std::make_shared<views::ViewEngine>(&cluster_);
  n1ql::QueryService qs(&cluster_, gsi, views);
  auto r = qs.Execute(
      "SELECT c.name FROM orders o JOIN customers c ON o.cust = META(c).id");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST_F(AnalyticsTest, ReadOnlyService) {
  LoadSampleData();
  Connect();
  EXPECT_FALSE(service_
                   ->Query(R"(INSERT INTO orders (KEY, VALUE) VALUES ("x", 1))")
                   .ok());
  EXPECT_FALSE(service_->Query("DELETE FROM orders").ok());
}

TEST_F(AnalyticsTest, NotConnectedBucketFails) {
  EXPECT_FALSE(service_->Query("SELECT * FROM orders").ok());
  LoadSampleData();
  ASSERT_TRUE(service_->ConnectBucket("orders").ok());
  EXPECT_TRUE(service_->ConnectBucket("orders").IsKeyExists());
}

TEST_F(AnalyticsTest, DisconnectStopsIngestion) {
  LoadSampleData();
  Connect();
  ASSERT_TRUE(service_->DisconnectBucket("orders").ok());
  EXPECT_FALSE(service_->Query("SELECT * FROM orders").ok());
}

TEST_F(AnalyticsTest, SurvivesRebalance) {
  LoadSampleData();
  Connect();
  cluster_.AddNode();
  ASSERT_TRUE(cluster_.Rebalance().ok());
  ASSERT_TRUE(orders_->Upsert("o9", R"({"cust":"c1","total":7})").ok());
  ASSERT_TRUE(service_->WaitCaughtUp("orders").ok());
  auto r = service_->Query("SELECT COUNT(*) AS n FROM orders");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0].Field("n").AsInt(), 5);
}

TEST_F(AnalyticsTest, UnnestAndParams) {
  ASSERT_TRUE(orders_->Upsert(
      "basket1", R"({"items":[{"sku":"a","qty":2},{"sku":"b","qty":1}]})").ok());
  ASSERT_TRUE(service_->ConnectBucket("orders").ok());
  ASSERT_TRUE(service_->WaitCaughtUp("orders").ok());
  auto r = service_->Query(
      "SELECT i.sku FROM orders o UNNEST o.items AS i WHERE i.qty >= $1 "
      "ORDER BY i.sku",
      {Value::Int(1)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0].Field("sku").AsString(), "a");
}

// One table of queries through both services: the same SELECT stages must
// give the same rows (sorted when the query fixes no order) and the same
// errors.
TEST_F(AnalyticsTest, MatchesQueryService) {
  LoadSampleData();
  ASSERT_TRUE(orders_->Upsert(
      "o5", R"({"cust":"c3","total":40,"region":"west",)"
            R"("items":[{"sku":"a","qty":2},{"sku":"b","qty":1}]})").ok());
  Connect();
  StartQueryService();

  const char* kLeftOuterNestO4 =
      "SELECT META(o).id AS oid, cs FROM orders o "
      "LEFT OUTER NEST customers cs ON KEYS o.cust WHERE META(o).id = \"o4\"";
  struct Case {
    const char* name;
    const char* query;
    std::vector<Value> params;
    bool ordered;  // ORDER BY, or USE KEYS (rows in listed order)
    int rows;      // expected row count; -1 when both must fail alike
  };
  const std::vector<Case> cases = {
      {"order_by_output_alias_desc",
       "SELECT META(o).id AS oid, o.total AS t FROM orders o ORDER BY t DESC",
       {}, true, 5},
      {"group_by_having_aggregates",
       "SELECT o.region, COUNT(*) AS n, SUM(o.total) AS s, AVG(o.total) AS a, "
       "MIN(o.total) AS lo, MAX(o.total) AS hi FROM orders o "
       "GROUP BY o.region HAVING COUNT(*) >= 3",
       {}, false, 1},
      {"count_star_over_empty_input",
       "SELECT COUNT(*) AS n FROM orders o WHERE o.total > 10000", {}, false,
       1},
      {"offset_limit_params",
       "SELECT META(o).id AS oid FROM orders o ORDER BY oid LIMIT $2 OFFSET $1",
       {Value::Int(1), Value::Int(2)}, true, 2},
      {"distinct", "SELECT DISTINCT o.region FROM orders o", {}, false, 2},
      {"on_keys_join",
       "SELECT META(o).id AS oid, c.name FROM orders o "
       "JOIN customers c ON KEYS o.cust",
       {}, false, 4},
      {"on_keys_left_join",
       "SELECT META(o).id AS oid, c.name FROM orders o "
       "LEFT JOIN customers c ON KEYS o.cust",
       {}, false, 5},
      {"on_keys_nest",
       "SELECT META(o).id AS oid, cs FROM orders o "
       "NEST customers cs ON KEYS [o.cust, \"c2\"]",
       {}, false, 5},
      // o4's customer c9 does not exist: NEST drops the row, LEFT [OUTER]
      // NEST keeps it with an empty array.
      {"on_keys_nest_drops_unmatched",
       "SELECT META(o).id AS oid, cs FROM orders o "
       "NEST customers cs ON KEYS o.cust",
       {}, false, 4},
      {"on_keys_left_nest",
       "SELECT META(o).id AS oid, cs FROM orders o "
       "LEFT NEST customers cs ON KEYS o.cust",
       {}, false, 5},
      {"on_keys_left_outer_nest_keeps_unmatched", kLeftOuterNestO4, {}, true,
       1},
      {"unnest",
       "SELECT META(o).id AS oid, i.sku, i.qty FROM orders o "
       "UNNEST o.items AS i",
       {}, false, 2},
      {"use_keys_duplicate_key",
       "SELECT META(o).id AS oid, o.total FROM orders o "
       "USE KEYS [\"o3\", \"o1\", \"o1\", \"nope\"]",
       {}, true, 3},
      {"use_keys_not_string_or_array",
       "SELECT META(o).id AS oid FROM orders o USE KEYS 5", {}, true, -1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto want = RunN1ql(c.query, c.params, c.ordered);
    auto got = RunAnalytics(c.query, c.params, c.ordered);
    if (c.rows < 0) {
      ASSERT_FALSE(want.ok());
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(want->size(), static_cast<size_t>(c.rows));
    EXPECT_EQ(*got, *want);
  }
  for (const auto& rows : {RunN1ql(kLeftOuterNestO4, {}, true),
                           RunAnalytics(kLeftOuterNestO4, {}, true)}) {
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(*rows, std::vector<std::string>{R"({"cs":[],"oid":"o4"})"});
  }
}

// LIMIT/OFFSET counts past 2^64 saturate on both services: a huge LIMIT
// returns every row and a huge OFFSET none.
TEST_F(AnalyticsTest, HugeLimitAndOffsetSaturate) {
  LoadSampleData();
  Connect();
  StartQueryService();
  const Value huge = Value::Number(1e30);
  struct Case {
    const char* query;
    std::vector<Value> params;
    size_t rows;
  };
  const std::vector<Case> cases = {
      {"SELECT META(o).id AS oid FROM orders o LIMIT 1e30", {}, 4},
      {"SELECT META(o).id AS oid FROM orders o OFFSET 1e30", {}, 0},
      {"SELECT META(o).id AS oid FROM orders o LIMIT 3 OFFSET 1e30", {}, 0},
      {"SELECT o.total FROM orders o ORDER BY o.total LIMIT $1", {huge}, 4},
      {"SELECT META(o).id AS id FROM orders o WHERE META(o).id >= $1 "
       "LIMIT $2",
       {Value::Str("o2"), huge}, 3},
      {"SELECT META(o).id AS oid FROM orders o OFFSET $1", {huge}, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query);
    auto want = RunN1ql(c.query, c.params, false);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(want->size(), c.rows);
    auto got = RunAnalytics(c.query, c.params, false);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->size(), c.rows);
  }
}

}  // namespace
}  // namespace couchkv::analytics
