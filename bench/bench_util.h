// Shared helpers for the experiment benches: cluster construction, bulk
// loading, and aligned table printing so each binary regenerates its paper
// table/figure as text.
#ifndef COUCHKV_BENCH_BENCH_UTIL_H_
#define COUCHKV_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "client/smart_client.h"
#include "cluster/cluster.h"
#include "json/value.h"
#include "n1ql/query_service.h"
#include "stats/registry.h"
#include "ycsb/ycsb.h"

namespace couchkv::bench {

// Scale factor: benches default to laptop-sized datasets; set
// COUCHKV_SCALE to grow/shrink (1.0 = defaults).
inline double ScaleFactor() {
  const char* s = std::getenv("COUCHKV_SCALE");
  return s != nullptr ? std::atof(s) : 1.0;
}

inline uint64_t Scaled(uint64_t base) {
  double v = static_cast<double>(base) * ScaleFactor();
  return v < 1 ? 1 : static_cast<uint64_t>(v);
}

// Bench setup failures invalidate the measurement, so they abort loudly
// rather than being dropped (Status is [[nodiscard]] everywhere).
inline void MustOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T MustOk(StatusOr<T> v, const char* what) {
  if (!v.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 v.status().ToString().c_str());
    std::abort();
  }
  return *std::move(v);
}

// A ready-to-use cluster with all services attached, mirroring the paper's
// §10.1 setup ("data, index and query services running on all nodes").
struct TestBed {
  std::unique_ptr<cluster::Cluster> cluster;
  std::shared_ptr<gsi::IndexService> gsi;
  std::shared_ptr<views::ViewEngine> views;
  std::unique_ptr<n1ql::QueryService> queries;

  explicit TestBed(int nodes = 4, const std::string& bucket = "bucket",
                   uint32_t replicas = 1, uint64_t simulated_fsync_us = 0) {
    cluster::ClusterOptions copts;
    copts.simulated_fsync_us = simulated_fsync_us;
    cluster = std::make_unique<cluster::Cluster>(copts);
    for (int i = 0; i < nodes; ++i) {
      cluster->AddNode(cluster::kAllServices);
    }
    cluster::BucketConfig config;
    config.name = bucket;
    config.num_replicas = replicas;
    config.memory_quota_bytes = 8ull << 30;  // avoid eviction noise
    Status st = cluster->CreateBucket(config);
    if (!st.ok()) {
      std::fprintf(stderr, "bucket creation failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
    gsi = std::make_shared<gsi::IndexService>(cluster.get());
    views = std::make_shared<views::ViewEngine>(cluster.get());
    queries =
        std::make_unique<n1ql::QueryService>(cluster.get(), gsi, views);
  }
};

// Loads `count` YCSB-style records through the smart client, in parallel.
inline void LoadRecords(cluster::Cluster* cluster, const std::string& bucket,
                        uint64_t count, size_t field_count = 10,
                        size_t field_length = 100, size_t threads = 8) {
  std::vector<std::thread> workers;
  std::atomic<uint64_t> next{0};
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      client::SmartClient client(cluster, bucket);
      ycsb::WorkloadConfig cfg;
      cfg.field_count = field_count;
      cfg.field_length = field_length;
      std::atomic<uint64_t> dummy{0};
      ycsb::Workload workload(cfg, 1000 + t, &dummy);
      for (;;) {
        uint64_t i = next.fetch_add(1);
        if (i >= count) break;
        MustOk(client.Upsert(ycsb::Workload::KeyFor(i),
                             workload.GenerateValue()),
               "bulk-load upsert");
      }
    });
  }
  for (auto& w : workers) w.join();
}

inline void PrintHeader(const char* title, const char* columns) {
  std::printf("\n=== %s ===\n%s\n", title, columns);
}

// Machine-readable bench output: collects one JSON row per measurement plus
// the stats-registry delta over the bench's lifetime, and writes
// BENCH_<name>.json into $COUCHKV_BENCH_JSON_DIR (or the cwd). Latency
// percentiles in rows should come from registry histograms (HistDelta /
// LatencySummary) so the emitted numbers are the same ones an operator would
// scrape in production.
class BenchReporter {
 public:
  explicit BenchReporter(std::string name)
      : name_(std::move(name)), start_(stats::Registry::Global().Collect()) {}

  void AddRow(json::Value row) { rows_.push_back(std::move(row)); }

  // Fresh scrape, for callers tracking per-row intervals themselves.
  static stats::Snapshot Now() { return stats::Registry::Global().Collect(); }

  // Interval view of one registry histogram since construction.
  HistogramSnapshot HistDelta(const std::string& full_name) const {
    return HistBetween(start_, Now(), full_name);
  }

  // Interval view of one registry histogram between two scrapes.
  static HistogramSnapshot HistBetween(const stats::Snapshot& before,
                                       const stats::Snapshot& after,
                                       const std::string& full_name) {
    auto it = after.find(full_name);
    if (it == after.end()) return {};
    HistogramSnapshot h = it->second.hist;
    auto b = before.find(full_name);
    if (b != before.end()) h.Subtract(b->second.hist);
    return h;
  }

  // {"count":..,"mean_us":..,"p50_us":..,"p95_us":..,"p99_us":..}
  static json::Value LatencySummary(const HistogramSnapshot& h) {
    json::Value::Object o;
    o["count"] = json::Value::Int(static_cast<int64_t>(h.count));
    o["mean_us"] = json::Value::Number(h.Mean() / 1e3);
    o["p50_us"] =
        json::Value::Number(static_cast<double>(h.Percentile(0.50)) / 1e3);
    o["p95_us"] =
        json::Value::Number(static_cast<double>(h.Percentile(0.95)) / 1e3);
    o["p99_us"] =
        json::Value::Number(static_cast<double>(h.Percentile(0.99)) / 1e3);
    return json::Value::MakeObject(std::move(o));
  }

  // Writes BENCH_<name>.json. Returns false (and warns) on I/O failure.
  bool Write() const {
    std::string dir = ".";
    if (const char* d = std::getenv("COUCHKV_BENCH_JSON_DIR")) dir = d;
    std::string path = dir + "/BENCH_" + name_ + ".json";
    std::string body = "{\"bench\":\"" + name_ + "\",\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) body += ",";
      body += rows_[i].ToJson();
    }
    stats::Snapshot end = Now();
    body += "],\"registry_delta\":" + stats::ToJson(stats::Delta(start_, end)) +
            "}";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchReporter: cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  stats::Snapshot start_;
  std::vector<json::Value> rows_;
};

}  // namespace couchkv::bench

#endif  // COUCHKV_BENCH_BENCH_UTIL_H_
