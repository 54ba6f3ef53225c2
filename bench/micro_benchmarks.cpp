// Hot-path micro-benchmarks (google-benchmark): key hashing, JSON
// parse/serialize, cache operations, storage appends, DCP pumping, and
// N1QL parsing. These are the primitives whose costs the system-level
// figures are built from.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "cluster/vbucket_map.h"
#include "common/crc32.h"
#include "common/random.h"
#include "dcp/dcp.h"
#include "json/value.h"
#include "kv/hash_table.h"
#include "n1ql/parser.h"
#include "storage/couch_file.h"

namespace couchkv {
namespace {

void BM_Crc32KeyToVBucket(benchmark::State& state) {
  std::string key = "user00000000012345";
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::KeyToVBucket(key));
  }
}
BENCHMARK(BM_Crc32KeyToVBucket);

// Raw CRC32C throughput: a key-sized input, a typical doc record, and a
// large value.
void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(23)->Arg(1100)->Arg(8192);

void BM_JsonParse(benchmark::State& state) {
  std::string doc =
      R"({"name":"Dipti","age":30,"tags":["a","b","c"],)"
      R"("address":{"city":"SF","zip":"94105"},"balance":1234.56})";
  for (auto _ : state) {
    auto v = json::Parse(doc);
    benchmark::DoNotOptimize(v);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_JsonParse);

void BM_JsonSerialize(benchmark::State& state) {
  auto v = json::Parse(
               R"({"name":"Dipti","age":30,"tags":["a","b","c"],)"
               R"("address":{"city":"SF","zip":"94105"}})")
               .value();
  for (auto _ : state) {
    std::string out = v.ToJson();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_JsonSerialize);

void BM_HashTableSet(benchmark::State& state) {
  kv::HashTable ht;
  std::string value(128, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    auto r = ht.Store(kv::StoreOp::kSet, "key" + std::to_string(i++ % 10000),
                      value, 0, 0, 0);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HashTableSet);

void BM_HashTableGet(benchmark::State& state) {
  kv::HashTable ht;
  std::string value(128, 'v');
  for (int i = 0; i < 10000; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (!ht.Store(kv::StoreOp::kSet, key, value, 0, 0, 0).ok()) std::abort();
  }
  uint64_t i = 0;
  for (auto _ : state) {
    auto r = ht.Get("key" + std::to_string(i++ % 10000));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HashTableGet);

void BM_CouchFileAppend(benchmark::State& state) {
  auto env = storage::Env::NewMemEnv();
  auto file = storage::CouchFile::Open(env.get(), "bench.couch").value();
  kv::Document doc;
  doc.value = std::string(static_cast<size_t>(state.range(0)), 'x');
  uint64_t seqno = 0;
  for (auto _ : state) {
    doc.key = "key" + std::to_string(seqno % 1000);
    doc.meta.seqno = ++seqno;
    auto st = file->SaveDocs({doc});
    benchmark::DoNotOptimize(st);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CouchFileAppend)->Arg(128)->Arg(1024)->Arg(8192);

void BM_DcpPumpThroughput(benchmark::State& state) {
  dcp::Producer producer(1, nullptr);
  uint64_t delivered = 0;
  if (!producer
           .AddStream("bench", 0, 0,
                      [&](const kv::Mutation&) {
                        ++delivered;
                        return Status::OK();
                      })
           .ok()) {
    std::abort();
  }
  uint64_t seqno = 0;
  kv::Document doc;
  doc.value = std::string(128, 'x');
  for (auto _ : state) {
    doc.key = "k";
    doc.meta.seqno = ++seqno;
    producer.OnMutation(0, doc);
    producer.PumpOnce();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DcpPumpThroughput);

void BM_N1qlParse(benchmark::State& state) {
  std::string query =
      "SELECT name, SUM(total) AS spend FROM orders o "
      "JOIN customers c ON KEYS o.cust_id "
      "WHERE o.status = 'shipped' AND o.total > 100 "
      "GROUP BY name ORDER BY spend DESC LIMIT 10";
  for (auto _ : state) {
    auto stmt = n1ql::ParseStatement(query);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_N1qlParse);

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(1);
  ZipfianGenerator zipf(10000000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

}  // namespace
}  // namespace couchkv

BENCHMARK_MAIN();
