// §4.3.3 ablation: the append-only storage engine. Sweeps the compaction
// fragmentation threshold and reports file size, write amplification, and
// compaction count for an update-heavy workload on a single vBucket file.
#include "bench/bench_util.h"
#include "storage/couch_file.h"

using namespace couchkv;
using namespace couchkv::bench;

int main() {
  const uint64_t updates = Scaled(20000);
  const uint64_t distinct_keys = Scaled(500);
  const size_t value_size = 256;

  PrintHeader("Append-only storage & compaction (paper §4.3.3)",
              "threshold | final size (KB) | live (KB) | compactions | "
              "write amp");
  BenchReporter reporter("storage_compaction");
  for (double threshold : {0.25, 0.5, 0.75, 1.01 /* never */}) {
    auto env = storage::Env::NewMemEnv();
    auto file_or = storage::CouchFile::Open(env.get(), "vb0.couch");
    if (!file_or.ok()) return 1;
    auto file = std::move(file_or).value();

    Rng rng(7);
    std::string value(value_size, 'v');
    uint64_t logical_bytes = 0;
    uint64_t seqno = 0;
    uint64_t compactions = 0;  // the Compact() calls this loop makes
    for (uint64_t i = 0; i < updates; ++i) {
      kv::Document doc;
      doc.key = "key" + std::to_string(rng.Uniform(distinct_keys));
      doc.value = value;
      doc.meta.seqno = ++seqno;
      if (!file->SaveDocs({doc}).ok()) std::abort();
      logical_bytes += value_size;
      if (i % 64 == 0) {
        if (!file->Commit().ok()) std::abort();
        if (file->Fragmentation() > threshold) {
          if (!file->Compact().ok()) std::abort();
          ++compactions;
        }
      }
    }
    if (!file->Commit().ok()) std::abort();
    auto stats = file->stats();
    // Write amplification ~ bytes the engine wrote / logical bytes; the
    // compactor re-writes live data each run.
    double write_amp =
        (static_cast<double>(stats.file_size) +
         static_cast<double>(compactions) *
             static_cast<double>(stats.live_bytes)) /
        static_cast<double>(logical_bytes);
    std::printf("%9.2f | %15.0f | %9.0f | %11llu | %9.2f\n", threshold,
                static_cast<double>(stats.file_size) / 1024.0,
                static_cast<double>(stats.live_bytes) / 1024.0,
                static_cast<unsigned long long>(compactions),
                write_amp);
    json::Value::Object row;
    row["threshold"] = json::Value::Number(threshold);
    row["file_size_bytes"] =
        json::Value::Int(static_cast<int64_t>(stats.file_size));
    row["live_bytes"] = json::Value::Int(static_cast<int64_t>(stats.live_bytes));
    row["compactions"] =
        json::Value::Int(static_cast<int64_t>(compactions));
    row["write_amplification"] = json::Value::Number(write_amp);
    reporter.AddRow(json::Value::MakeObject(std::move(row)));
  }
  reporter.Write();
  std::printf(
      "\nExpected shape: lower thresholds keep the file near its live size\n"
      "at the cost of more compaction work (higher write amplification);\n"
      "threshold > 1 lets the append-only file grow with every update\n"
      "(§4.3.3: compaction runs 'based on a fragmentation threshold').\n");
  return 0;
}
