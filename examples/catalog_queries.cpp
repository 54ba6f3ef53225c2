// Catalog / SKU management (paper §1: "applications such as catalog and SKU
// management systems need the ability to change and update information on
// the fly"). Shows the full N1QL surface: UNNEST over nested arrays, NEST
// to assemble orders into customers, covering and partial indexes, views
// with reduce, and DML.
#include <cstdio>

#include "client/smart_client.h"
#include "cluster/cluster.h"
#include "examples/example_util.h"
#include "n1ql/query_service.h"

using namespace couchkv;
using examples::MustOk;

namespace {
void Show(const char* title, const StatusOr<n1ql::QueryResult>& r) {
  std::printf("-- %s\n", title);
  if (!r.ok()) {
    std::printf("   error: %s\n", r.status().ToString().c_str());
    return;
  }
  for (const auto& row : r->rows) {
    std::printf("   %s\n", row.ToJson().c_str());
  }
}
}  // namespace

int main() {
  cluster::Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.AddNode();
  cluster::BucketConfig config;
  config.name = "catalog";
  config.num_replicas = 1;
  if (!cluster.CreateBucket(config).ok()) return 1;

  auto gsi = std::make_shared<gsi::IndexService>(&cluster);
  auto views = std::make_shared<views::ViewEngine>(&cluster);
  n1ql::QueryService q(&cluster, gsi, views);
  client::SmartClient client(&cluster, "catalog");

  // A bucket holds documents of different shapes (schema flexibility):
  // products, and customers with embedded order-id arrays.
  MustOk(client.Upsert("sku::couch", R"({"doc_type":"product","name":"Couch",
      "price":499, "categories":["furniture","living-room"],
      "stock":{"sf":3,"ny":9}})"),
         "upsert sku::couch");
  MustOk(client.Upsert("sku::lamp", R"({"doc_type":"product","name":"Lamp",
      "price":49, "categories":["lighting","living-room"],
      "stock":{"sf":12,"ny":0}})"),
         "upsert sku::lamp");
  MustOk(client.Upsert("sku::desk", R"({"doc_type":"product","name":"Desk",
      "price":199, "categories":["furniture","office"],
      "stock":{"sf":1,"ny":4}})"),
         "upsert sku::desk");
  MustOk(client.Upsert("order::1001",
                       R"({"doc_type":"order","sku":"sku::couch","qty":1})"),
         "upsert order::1001");
  MustOk(client.Upsert("order::1002",
                       R"({"doc_type":"order","sku":"sku::lamp","qty":3})"),
         "upsert order::1002");
  MustOk(client.Upsert("cust::carol", R"({"doc_type":"customer","name":"Carol",
      "order_ids":["order::1001","order::1002"]})"),
         "upsert cust::carol");

  n1ql::QueryOptions opts;
  opts.consistency = gsi::ScanConsistency::kRequestPlus;

  // Indexes: a primary index, a price index (range queries), and a partial
  // index over in-stock SF products only (§3.3.4).
  MustOk(q.Execute("CREATE PRIMARY INDEX ON catalog USING GSI"),
         "create primary index");
  MustOk(q.Execute("CREATE INDEX by_price ON catalog(price) USING GSI"),
         "create by_price index");
  MustOk(q.Execute(
             "CREATE INDEX sf_stocked ON catalog(price) WHERE stock.sf > 0 "
             "USING GSI"),
         "create sf_stocked index");

  Show("products under $200 (IndexScan on by_price)",
       q.Execute("SELECT name, price FROM catalog "
                 "WHERE price < 200 AND doc_type = 'product' ORDER BY price",
                 opts));

  Show("covered price histogram (no document fetch, §5.1.2)",
       q.Execute("SELECT price FROM catalog WHERE price >= 40 ORDER BY price",
                 opts));

  Show("UNNEST: distinct categories in use (paper §3.2.3 example)",
       q.Execute("SELECT DISTINCT categories FROM catalog "
                 "UNNEST catalog.categories AS categories "
                 "ORDER BY categories",
                 opts));

  Show("NEST: carol's orders embedded as an array",
       q.Execute("SELECT c.name, orders FROM catalog c USE KEYS 'cust::carol' "
                 "NEST catalog AS orders ON KEYS c.order_ids",
                 opts));

  Show("JOIN: order lines with product names (ON KEYS join, §4.5.3)",
       q.Execute("SELECT o.qty, p.name, o.qty * p.price AS total "
                 "FROM catalog o USE KEYS ['order::1001','order::1002'] "
                 "JOIN catalog p ON KEYS o.sku ORDER BY total DESC",
                 opts));

  Show("aggregates: stock value per category",
       q.Execute("SELECT cat, SUM(price) AS value, COUNT(*) AS items "
                 "FROM catalog UNNEST catalog.categories AS cat "
                 "WHERE doc_type = 'product' GROUP BY cat ORDER BY cat",
                 opts));

  // A view with a _stats reduce: pre-computed aggregates in the index tree
  // (paper §4.3.3 "View Engine").
  views::ViewDefinition price_stats;
  price_stats.name = "price_stats";
  price_stats.map.filter_eq_path = "doc_type";
  price_stats.map.filter_eq_value = json::Value::Str("product");
  price_stats.map.key_paths = {"doc_type"};
  price_stats.map.value_path = "price";
  price_stats.reduce = views::ReduceFn::kStats;
  MustOk(views->CreateView("catalog", price_stats), "create price_stats view");
  views::ViewQueryOptions vopts;
  auto stats = views->Query("catalog", "price_stats", vopts,
                            views::Staleness::kFalse);
  std::printf("-- view reduce (stale=false): %s\n",
              stats->rows[0].value.ToJson().c_str());

  // On-the-fly update: a price change is immediately queryable with
  // request_plus consistency.
  MustOk(q.Execute("UPDATE catalog USE KEYS 'sku::lamp' SET price = 39"),
         "update lamp price");
  Show("after UPDATE, lamp price",
       q.Execute("SELECT name, price FROM catalog USE KEYS 'sku::lamp'",
                 opts));
  return 0;
}
