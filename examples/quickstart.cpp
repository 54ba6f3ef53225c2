// Quickstart: bring up a 3-node couchkv cluster, store JSON documents via
// the key-value API, create indexes, and query with N1QL — the three access
// paths of the paper's §3.1 in one small program.
#include <cstdio>

#include "client/smart_client.h"
#include "cluster/cluster.h"
#include "examples/example_util.h"
#include "n1ql/query_service.h"

using namespace couchkv;
using examples::MustOk;

int main() {
  // 1. A cluster of three nodes, all running data + index + query services.
  cluster::Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.AddNode(cluster::kAllServices);

  cluster::BucketConfig config;
  config.name = "travel";
  config.num_replicas = 1;
  if (!cluster.CreateBucket(config).ok()) return 1;

  // 2. Create the index / view / query services.
  auto gsi = std::make_shared<gsi::IndexService>(&cluster);
  auto views = std::make_shared<views::ViewEngine>(&cluster);
  n1ql::QueryService queries(&cluster, gsi, views);

  // 3. Key-value access path: the smart client hashes each key to its
  //    vBucket and talks straight to the owning node (Figure 5).
  client::SmartClient client(&cluster, "travel");
  MustOk(client.Upsert("airline::1",
                       R"({"name":"Couch Air","country":"US","fleet":12})"),
         "upsert airline::1");
  MustOk(client.Upsert("airline::2",
                       R"({"name":"Nickel Jet","country":"FR","fleet":5})"),
         "upsert airline::2");
  MustOk(client.Upsert("airline::3",
                       R"({"name":"JSON Wings","country":"US","fleet":31})"),
         "upsert airline::3");

  auto doc = client.Get("airline::1");
  std::printf("GET airline::1 -> %s (cas=%llu)\n", doc->value.c_str(),
              static_cast<unsigned long long>(doc->cas));

  // 4. Query access path: create a GSI index, then run N1QL.
  MustOk(queries.Execute(
             "CREATE INDEX by_country ON travel(country) USING GSI"),
         "create by_country index");

  n1ql::QueryOptions opts;
  opts.consistency = gsi::ScanConsistency::kRequestPlus;  // read-your-writes
  auto result = queries.Execute(
      "SELECT name, fleet FROM travel WHERE country = 'US' ORDER BY fleet",
      opts);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("US airlines by fleet size:\n");
  for (const auto& row : result->rows) {
    std::printf("  %s\n", row.ToJson().c_str());
  }

  // 5. EXPLAIN shows the chosen access path (paper §4.5.3).
  auto plan = queries.Execute(
      "EXPLAIN SELECT name FROM travel WHERE country = 'US'");
  std::printf("plan: %s\n", plan->rows[0].ToJson().c_str());
  return 0;
}
