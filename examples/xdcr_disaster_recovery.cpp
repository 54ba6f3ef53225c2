// Cross-datacenter replication for disaster recovery (paper §4.6): two
// clusters, bidirectional XDCR with a key filter, a concurrent-update
// conflict resolved identically on both sides, and a full datacenter
// failover with no data loss for replicated keys.
#include <cstdio>

#include "client/smart_client.h"
#include "cluster/cluster.h"
#include "examples/example_util.h"
#include "stats/registry.h"
#include "xdcr/xdcr.h"

using namespace couchkv;
using examples::MustOk;

namespace {
void Settle(cluster::Cluster* a, cluster::Cluster* b) {
  for (int i = 0; i < 4; ++i) {
    a->Quiesce();
    b->Quiesce();
  }
}
}  // namespace

int main() {
  // Two geographically separate clusters.
  cluster::Cluster east, west;
  for (int i = 0; i < 3; ++i) {
    east.AddNode();
    west.AddNode();
  }
  cluster::BucketConfig config;
  config.name = "accounts";
  config.num_replicas = 1;
  MustOk(east.CreateBucket(config), "create east bucket");
  MustOk(west.CreateBucket(config), "create west bucket");
  client::SmartClient east_client(&east, "accounts");
  client::SmartClient west_client(&west, "accounts");

  // Bidirectional XDCR; only "acct:" keys replicate (filtered replication,
  // §4.6: "based on a regular expression on the document ID").
  xdcr::XdcrSpec spec;
  spec.source_bucket = spec.target_bucket = "accounts";
  spec.key_filter_regex = "^acct:";
  auto east_to_west = std::make_shared<xdcr::XdcrLink>(&east, &west, spec);
  auto west_to_east = std::make_shared<xdcr::XdcrLink>(&west, &east, spec);
  MustOk(east_to_west->Start("xdcr-east-west"), "start east->west link");
  MustOk(west_to_east->Start("xdcr-west-east"), "start west->east link");

  // Normal operation: each datacenter serves its local users.
  for (int i = 0; i < 20; ++i) {
    MustOk(east_client.Upsert("acct:e" + std::to_string(i),
                              R"({"dc":"east"})"),
           "upsert east account");
    MustOk(west_client.Upsert("acct:w" + std::to_string(i),
                              R"({"dc":"west"})"),
           "upsert west account");
  }
  // Not replicated: filtered out by the key filter.
  MustOk(east_client.Upsert("cache:tmp", R"({"local_only":true})"),
         "upsert cache:tmp");
  Settle(&east, &west);

  std::printf("east sees west account: %s\n",
              east_client.Get("acct:w3").ok() ? "yes" : "no");
  std::printf("west sees east account: %s\n",
              west_client.Get("acct:e3").ok() ? "yes" : "no");
  std::printf("west sees east-local cache key: %s (filtered)\n",
              west_client.Get("cache:tmp").ok() ? "yes" : "no");

  // Concurrent update of the same account in both datacenters: conflict
  // resolution picks the same winner everywhere (§4.6.1).
  MustOk(east_client.Upsert("acct:shared",
                            R"({"balance":100,"updated_in":"east"})"),
         "seed acct:shared");
  Settle(&east, &west);
  MustOk(west_client.Upsert("acct:shared",
                            R"({"balance":150,"updated_in":"west"})"),
         "west update 1");
  MustOk(west_client.Upsert("acct:shared",
                            R"({"balance":175,"updated_in":"west"})"),
         "west update 2");
  MustOk(east_client.Upsert("acct:shared",
                            R"({"balance":120,"updated_in":"east"})"),
         "east update");
  Settle(&east, &west);
  Settle(&east, &west);
  auto east_doc = east_client.GetJson("acct:shared");
  auto west_doc = west_client.GetJson("acct:shared");
  std::printf("conflict winner east=%s west=%s (must match)\n",
              east_doc->Field("updated_in").AsString().c_str(),
              west_doc->Field("updated_in").AsString().c_str());

  // The link counts into the registry scope named after it, where STAT and
  // Prometheus read it too.
  auto link_stats =
      stats::Registry::Global().GetScope("xdcr.xdcr-east-west");
  std::printf("east->west: sent=%llu filtered=%llu rejected=%llu\n",
              static_cast<unsigned long long>(
                  link_stats->GetCounter("docs_sent")->Value()),
              static_cast<unsigned long long>(
                  link_stats->GetCounter("docs_filtered")->Value()),
              static_cast<unsigned long long>(
                  link_stats->GetCounter("docs_rejected")->Value()));

  // Disaster: the east datacenter loses two of its three nodes. Standard
  // Couchbase operations: failover (promote replicas), rebalance (rebuild
  // replica copies on the survivors), then failover again when the second
  // node dies. Without the rebalance the second failover would find
  // vBuckets with no replica left to promote.
  MustOk(east.Failover(1), "failover node 1");
  MustOk(east.Rebalance(), "rebalance survivors");
  MustOk(east.Failover(2), "failover node 2");
  std::printf("east after double failover, orchestrator=%u, acct:e7 %s\n",
              east.orchestrator(),
              east_client.Get("acct:e7").ok() ? "readable" : "LOST");
  // The west datacenter has everything that mattered.
  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    if (west_client.Get("acct:e" + std::to_string(i)).ok()) ++ok;
  }
  std::printf("west datacenter holds %d/20 east accounts after DR\n", ok);
  return 0;
}
