// The couchkv ledger benchmark: four closed-loop workloads on one
// same-host dataset, each checked for correct output, reporting end-to-end
// metrics from an untraced run and per-layer metrics from a traced run.
//
//   couchkv_ledgerbench --workload kv_a|wire_b|repl_write|query_e
//                       --seed N --seconds S --trace 0|1 [--spans FILE]
//                       [--git-sha SHA]
//
// Every layer is timed from outside, through its public calls (SmartClient,
// WireClient, Cluster::WaitForDurability, QueryService::Execute), plus
// deltas of the program's own stats::Registry counters and histograms.
// Nothing here adds tracing inside the program. LEDGER.md explains the
// workloads, the metrics and which metric each layer should move.
//
// Output: human-readable `metric` lines for every figure, a `context` line,
// and as the last line one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exit code 2 means the build is not fit to report numbers.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client/smart_client.h"
#include "client/wire_client.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "gsi/index_service.h"
#include "ledgerbench/ledger.h"
#include "n1ql/query_service.h"
#include "stats/registry.h"
#include "views/view_engine.h"
#include "ycsb/ycsb.h"

namespace ledgerbench {
namespace {

using namespace couchkv;

// The shared dataset: 100k YCSB records of 10 fields
// x 100 B on a 4-node in-process cluster with one replica, MemEnv disks and
// free simulated fsync, so the flush policy is the same on every commit.
constexpr uint64_t kRecords = 100000;
constexpr int kNodes = 4;
constexpr size_t kFields = 10;
constexpr size_t kFieldLen = 100;
// One closed-loop client per workload. On a shared 4-vCPU guest every
// extra client thread contends with the cluster's own threads (flushers, DCP
// dispatcher, per-connection threads, indexer) for the same vCPUs, and the
// figures then measure the scheduler: with 4 clients the p50s of identical
// runs spread several times as far.
constexpr int kClients = 1;
// Threads that bulk-load the dataset during set-up.
constexpr int kLoaders = 4;
// An untraced run builds this many clusters and reports the median set-up
// time (one set-up alone varies too much to bound); each measures an equal
// share of the run.
constexpr int kSetups = 6;
// Untimed load before measuring, so map caches, connection pools and
// allocator arenas are warm.
constexpr double kWarmupSeconds = 1.0;
const std::string kBucket = "bucket";
const std::string kScanQuery =
    "SELECT meta().id AS id FROM `bucket` WHERE meta().id >= $1 LIMIT $2";

enum class Workload { kKvA, kWireB, kReplWrite, kQueryE };
enum OpClass { kRead, kUpdate, kScan, kInsert, kNumClasses };
const char* const kClassName[kNumClasses] = {"read", "update", "scan",
                                             "insert"};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "ledgerbench: %s\n", what.c_str());
  std::exit(1);
}

void MustOk(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

// ---------------------------------------------------------------------------
// Run context
// ---------------------------------------------------------------------------

#ifndef LEDGERBENCH_BUILD_TYPE
#define LEDGERBENCH_BUILD_TYPE "unknown"
#endif
#ifdef COUCHKV_LOCKDEP
constexpr bool kLockdep = true;
#else
constexpr bool kLockdep = false;
#endif
#ifdef COUCHKV_AFFINITY
constexpr bool kAffinity = true;
#else
constexpr bool kAffinity = false;
#endif
#ifdef NDEBUG
constexpr bool kAsserts = false;
#else
constexpr bool kAsserts = true;
#endif

// The sanitizers this binary is built with, as the compiler reports them:
// GCC defines __SANITIZE_ADDRESS__ / __SANITIZE_THREAD__, Clang answers
// __has_feature. GCC leaves no mark of -fsanitize=undefined.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
const char* const kSanitizers[] = {
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
    "address",
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
    "thread",
#endif
#if __has_feature(memory_sanitizer)
    "memory",
#endif
#if __has_feature(undefined_behavior_sanitizer)
    "undefined",
#endif
    ""};

// Comma-separated, "" when the build has none.
std::string Sanitizers() {
  std::string out;
  for (const char* s : kSanitizers) {
    if (*s == '\0') continue;
    if (!out.empty()) out += ',';
    out += s;
  }
  return out;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Why this build may not report numbers, or "" when it may.
std::string UnfitBuild() {
  std::string type = LEDGERBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' (need Release or RelWithDebInfo)";
  }
  if (kAsserts) return "asserts enabled (NDEBUG not defined)";
  if (std::string san = Sanitizers(); !san.empty()) {
    return "sanitizer build (" + san + ")";
  }
  if (kLockdep) return "COUCHKV_LOCKDEP build";
  if (kAffinity) return "COUCHKV_AFFINITY build";
  return "";
}

// ---------------------------------------------------------------------------
// Data
// ---------------------------------------------------------------------------

std::string KeyFor(uint64_t i) { return ycsb::Workload::KeyFor(i); }

// Documents are `{"id":"<key>","field0":"..",..}`: every value embeds its
// own key, so a read that returns another key's value is caught. Field
// bodies are drawn from a per-seed pool, so building a value costs a copy,
// not a thousand random draws on the client's critical path.
class ValueMaker {
 public:
  explicit ValueMaker(uint64_t seed) {
    Rng rng(seed);
    pool_.resize(256);
    for (std::string& s : pool_) {
      s.resize(kFieldLen);
      for (char& c : s) c = static_cast<char>('a' + rng.Uniform(26));
    }
  }

  std::string Make(const std::string& key, Rng& rng) const {
    std::string v;
    v.reserve(kFields * (kFieldLen + 12) + key.size() + 12);
    v += "{\"id\":\"";
    v += key;
    v += '"';
    for (size_t f = 0; f < kFields; ++f) {
      v += ",\"field";
      v += static_cast<char>('0' + f);
      v += "\":\"";
      v += pool_[rng.Uniform(pool_.size())];
      v += '"';
    }
    v += '}';
    return v;
  }

 private:
  std::vector<std::string> pool_;
};

bool ValueHasKey(const std::string& value, const std::string& key) {
  return value.find("\"id\":\"" + key + "\"") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Set-up: cluster build, load, index build, quiesce
// ---------------------------------------------------------------------------

struct Bed {
  std::unique_ptr<cluster::Cluster> cluster;
  std::shared_ptr<gsi::IndexService> gsi;
  std::shared_ptr<views::ViewEngine> views;
  std::unique_ptr<n1ql::QueryService> queries;
  std::vector<uint16_t> wire_ports;
  ValueMaker values;
  // Next record number a workload-E insert takes; starts past the preload.
  std::atomic<uint64_t> next_insert{kRecords};

  explicit Bed(uint64_t seed) : values(seed) {}
  ~Bed() {
    // Services hold the cluster; drop them first.
    queries.reset();
    views.reset();
    gsi.reset();
    if (cluster) cluster->StopWireServers();
  }
};

std::unique_ptr<Bed> Setup(Workload w, uint64_t seed) {
  auto bed = std::make_unique<Bed>(seed);
  cluster::ClusterOptions copts;
  copts.simulated_fsync_us = 0;
  bed->cluster = std::make_unique<cluster::Cluster>(copts);
  for (int i = 0; i < kNodes; ++i) bed->cluster->AddNode(cluster::kAllServices);
  cluster::BucketConfig config;
  config.name = kBucket;
  config.num_replicas = 1;
  config.memory_quota_bytes = 8ull << 30;  // nothing enforces it; see LEDGER.md
  MustOk(bed->cluster->CreateBucket(config), "create bucket");
  bed->gsi = std::make_shared<gsi::IndexService>(bed->cluster.get());
  bed->gsi->Attach();
  bed->views = std::make_shared<views::ViewEngine>(bed->cluster.get());
  bed->views->Attach();
  bed->queries = std::make_unique<n1ql::QueryService>(bed->cluster.get(),
                                                      bed->gsi, bed->views);

  std::atomic<uint64_t> next{0};
  std::atomic<bool> load_failed{false};
  std::vector<std::thread> loaders;
  for (int t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&] {
      client::SmartClient client(bed->cluster.get(), kBucket);
      for (uint64_t i; (i = next.fetch_add(1)) < kRecords;) {
        std::string key = KeyFor(i);
        Rng rng(seed * 7919 + i);  // record i's value depends on i alone
        if (!client.Upsert(key, bed->values.Make(key, rng)).ok()) {
          load_failed = true;
        }
      }
    });
  }
  for (auto& l : loaders) l.join();
  if (load_failed) Die("bulk load failed");

  if (w == Workload::kWireB) {
    MustOk(bed->cluster->StartWireServers(kBucket), "start wire servers");
    for (cluster::NodeId id : bed->cluster->node_ids()) {
      bed->wire_ports.push_back(bed->cluster->wire_port(id));
    }
  }
  if (w == Workload::kQueryE) {
    auto st =
        bed->queries->Execute("CREATE PRIMARY INDEX ON `bucket` USING GSI");
    if (!st.ok()) Die("create primary index: " + st.status().ToString());
    MustOk(bed->gsi->WaitUntilCaughtUp(kBucket, "#primary", 120000),
           "primary index catch-up");
  }
  bed->cluster->Quiesce();
  return bed;
}

// After quiesce every replica must hold exactly what its active holds.
bool ReplicasCaughtUp(cluster::Cluster* c) {
  auto map = c->map(kBucket);
  if (map == nullptr) return false;
  for (uint16_t vb = 0; vb < cluster::kNumVBuckets; ++vb) {
    cluster::Node* an = c->node(map->ActiveFor(vb));
    if (an == nullptr) return false;
    uint64_t active = an->bucket(kBucket)->vbucket(vb)->high_seqno();
    if (map->ReplicasFor(vb).empty()) return false;
    for (cluster::NodeId r : map->ReplicasFor(vb)) {
      cluster::Node* rn = c->node(r);
      if (rn == nullptr) return false;
      if (rn->bucket(kBucket)->vbucket(vb)->high_seqno() != active) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

// A span's parent is an index into the same thread's span vector, -1 for
// an operation's root. An operation's spans are contiguous, root first, so
// the root's index is the operation id. Spans named "server.*" and
// "n1ql.exec" are placed from durations the program reports (ServerTiming,
// QueryMetrics), not timed here; their position inside the parent is an
// assumption, their length is not.
struct Span {
  const char* name;
  uint64_t start;
  uint64_t end;
  int32_t parent;
};

// One operation's spans, root first, reduced to duration and self time.
struct OpBreakdown {
  struct Part {
    const char* name;
    uint64_t dur_ns;
    uint64_t self_ns;
  };
  std::vector<Part> parts;

  const char* root() const { return parts.front().name; }
  uint64_t total_ns() const { return parts.front().dur_ns; }
  const Part* Find(const char* name) const {
    for (const Part& p : parts) {
      if (std::strcmp(p.name, name) == 0) return &p;
    }
    return nullptr;
  }
  // 0 when the operation has no span `name`.
  uint64_t Dur(const char* name) const {
    const Part* p = Find(name);
    return p == nullptr ? 0 : p->dur_ns;
  }
  uint64_t Self(const char* name) const {
    const Part* p = Find(name);
    return p == nullptr ? 0 : p->self_ns;
  }
};

std::vector<OpBreakdown> Breakdown(const std::vector<Span>& spans) {
  std::vector<OpBreakdown> ops;
  for (size_t root = 0; root < spans.size();) {
    size_t end = root + 1;
    while (end < spans.size() && spans[end].parent >= 0) ++end;
    OpBreakdown op;
    for (size_t i = root; i < end; ++i) {
      std::vector<Interval> children;
      for (size_t j = i + 1; j < end; ++j) {
        if (static_cast<size_t>(spans[j].parent) == i) {
          children.push_back({spans[j].start, spans[j].end});
        }
      }
      op.parts.push_back(
          {spans[i].name, spans[i].end - spans[i].start,
           SelfTime({spans[i].start, spans[i].end}, std::move(children))});
    }
    ops.push_back(std::move(op));
    root = end;
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Closed-loop clients
// ---------------------------------------------------------------------------

struct ThreadResult {
  uint64_t phase_start_ns = 0;
  // This thread's phase covers windows [window_base, window_base +
  // whole_windows) of the run it is part of.
  uint32_t window_base = 0;
  uint32_t whole_windows = 0;
  // Per class, each successful op's latency and its completion time in ms
  // since the phase started.
  std::vector<uint64_t> lat_ns[kNumClasses];
  std::vector<uint32_t> done_ms[kNumClasses];
  uint64_t attempted = 0;
  uint64_t failed = 0;          // error returns plus failed output checks
  uint64_t check_failures = 0;  // subset of failed: wrong output
  uint64_t user_bytes_written = 0;
  uint64_t client_mutations = 0;
  uint64_t scans = 0;
  uint64_t docs_fetched = 0;
  uint64_t rows_returned = 0;
  uint64_t query_elapsed_ns = 0;
  std::vector<Span> spans;
};

class Client {
 public:
  Client(Bed* bed, Workload w, uint64_t seed, int index)
      : bed_(bed),
        w_(w),
        rng_(seed * 1000003 + static_cast<uint64_t>(index)),
        zipf_(kRecords) {
    if (w == Workload::kWireB) {
      wire_ = std::make_unique<client::WireClient>(
          bed->wire_ports, kBucket, client::RetryPolicy{},
          seed * 131 + static_cast<uint64_t>(index) + 1);
    } else {
      smart_ = std::make_unique<client::SmartClient>(bed->cluster.get(),
                                                     kBucket);
    }
  }

  void Step(ThreadResult* r, bool traced) {
    switch (w_) {
      case Workload::kKvA:
        return rng_.NextDouble() < 0.5 ? SmartRead(r, traced)
                                       : SmartUpdate(r, traced);
      case Workload::kWireB:
        return rng_.NextDouble() < 0.95 ? WireRead(r, traced)
                                        : WireUpdate(r, traced);
      case Workload::kReplWrite:
        return ReplicatedUpdate(r, traced);
      case Workload::kQueryE:
        return rng_.NextDouble() < 0.95 ? Scan(r, traced) : Insert(r, traced);
    }
  }

 private:
  // YCSB's scrambled zipfian over the `live` records.
  uint64_t ZipfIndex(uint64_t live) {
    return ScrambledZipfianGenerator::Fnv64(zipf_.Next(rng_)) % live;
  }

  static void Record(ThreadResult* r, OpClass c, uint64_t t0, uint64_t t1,
                     bool ok, bool output_ok) {
    ++r->attempted;
    if (!ok || !output_ok) ++r->failed;
    if (ok && !output_ok) ++r->check_failures;
    if (ok && output_ok) {
      r->lat_ns[c].push_back(t1 - t0);
      r->done_ms[c].push_back(
          static_cast<uint32_t>((t1 - r->phase_start_ns) / 1000000));
    }
  }

  void NoteWrite(ThreadResult* r, const std::string& key,
                 const std::string& value) {
    r->user_bytes_written += key.size() + value.size();
    ++r->client_mutations;
  }

  void SmartRead(ThreadResult* r, bool traced) {
    std::string key = KeyFor(ZipfIndex(kRecords));
    uint64_t t0 = NowNs();
    auto reply = smart_->Get(key);
    uint64_t t1 = NowNs();
    if (traced) r->spans.push_back({"client.get", t0, t1, -1});
    Record(r, kRead, t0, t1, reply.ok(),
           reply.ok() && ValueHasKey(reply->value, key));
  }

  void SmartUpdate(ThreadResult* r, bool traced) {
    std::string key = KeyFor(ZipfIndex(kRecords));
    std::string value = bed_->values.Make(key, rng_);
    uint64_t t0 = NowNs();
    auto reply = smart_->Upsert(key, value);
    uint64_t t1 = NowNs();
    if (traced) r->spans.push_back({"client.upsert", t0, t1, -1});
    if (reply.ok()) NoteWrite(r, key, value);
    Record(r, kUpdate, t0, t1, reply.ok(), true);
  }

  // A wire op's span, with the server's own phases placed inside it: the
  // server's total centred in the client span, dispatch then engine at its
  // start (that is their order on the server).
  static void WireSpans(ThreadResult* r, const char* name, uint64_t t0,
                        uint64_t t1, const client::ServerTiming& s) {
    int32_t root = static_cast<int32_t>(r->spans.size());
    r->spans.push_back({name, t0, t1, -1});
    uint64_t total = std::min<uint64_t>(uint64_t{s.total_us} * 1000, t1 - t0);
    uint64_t ts = t0 + (t1 - t0 - total) / 2;
    int32_t server = static_cast<int32_t>(r->spans.size());
    r->spans.push_back({"server.total", ts, ts + total, root});
    uint64_t dispatch =
        std::min<uint64_t>(uint64_t{s.dispatch_us} * 1000, total);
    uint64_t engine =
        std::min<uint64_t>(uint64_t{s.engine_us} * 1000, total - dispatch);
    r->spans.push_back({"server.dispatch", ts, ts + dispatch, server});
    r->spans.push_back(
        {"server.engine", ts + dispatch, ts + dispatch + engine, server});
  }

  void WireRead(ThreadResult* r, bool traced) {
    std::string key = KeyFor(ZipfIndex(kRecords));
    uint64_t t0 = NowNs();
    auto reply = wire_->Get(key);
    uint64_t t1 = NowNs();
    if (traced && reply.ok()) WireSpans(r, "wire.get", t0, t1, reply->server);
    Record(r, kRead, t0, t1, reply.ok(),
           reply.ok() && ValueHasKey(reply->value, key));
  }

  void WireUpdate(ThreadResult* r, bool traced) {
    std::string key = KeyFor(ZipfIndex(kRecords));
    std::string value = bed_->values.Make(key, rng_);
    uint64_t t0 = NowNs();
    auto reply = wire_->Upsert(key, value);
    uint64_t t1 = NowNs();
    if (traced && reply.ok()) WireSpans(r, "wire.set", t0, t1, reply->server);
    if (reply.ok()) NoteWrite(r, key, value);
    Record(r, kUpdate, t0, t1, reply.ok(), true);
  }

  // Untraced: one Upsert that waits for replicate_to=1. Traced: the same
  // two steps through their public calls, a memory-ack Upsert and then
  // Cluster::WaitForDurability, so the wait can be timed on its own.
  void ReplicatedUpdate(ThreadResult* r, bool traced) {
    std::string key = KeyFor(rng_.Uniform(kRecords));
    std::string value = bed_->values.Make(key, rng_);
    const cluster::Durability dur = cluster::Durability::Replicate(1);
    uint64_t t0 = NowNs();
    bool ok = false;
    if (!traced) {
      client::WriteOptions opts;
      opts.durability = dur;
      ok = smart_->Upsert(key, value, opts).ok();
    } else {
      auto reply = smart_->Upsert(key, value);
      uint64_t t1 = NowNs();
      ok = reply.ok() && bed_->cluster
                             ->WaitForDurability(kBucket, reply->vbucket,
                                                 reply->seqno, dur)
                             .ok();
      uint64_t t2 = NowNs();
      int32_t root = static_cast<int32_t>(r->spans.size());
      r->spans.push_back({"op.update", t0, t2, -1});
      r->spans.push_back({"client.upsert", t0, t1, root});
      r->spans.push_back({"cluster.wait_durability", t1, t2, root});
    }
    uint64_t t3 = traced ? r->spans.back().end : NowNs();
    if (ok) NoteWrite(r, key, value);
    Record(r, kUpdate, t0, t3, ok, true);
  }

  void Scan(ThreadResult* r, bool traced) {
    uint64_t live = bed_->next_insert.load(std::memory_order_relaxed);
    uint64_t start = ZipfIndex(live);
    uint64_t limit = 1 + rng_.Uniform(100);
    n1ql::QueryOptions opts;
    opts.params = {json::Value::Str(KeyFor(start)),
                   json::Value::Int(static_cast<int64_t>(limit))};
    uint64_t t0 = NowNs();
    auto result = bed_->queries->Execute(kScanQuery, opts);
    uint64_t t1 = NowNs();
    bool output_ok = false;
    if (result.ok()) {
      std::vector<std::string> ids;
      for (const json::Value& row : result->rows) {
        const json::Value& id = row.Field("id");
        ids.push_back(id.is_string() ? id.AsString() : std::string());
      }
      output_ok = CheckScan(ids, start, limit, kRecords, KeyFor);
      ++r->scans;
      r->rows_returned += ids.size();
      r->docs_fetched += result->metrics.docs_fetched;
      r->query_elapsed_ns += result->metrics.elapsed_ns;
      if (traced) {
        int32_t root = static_cast<int32_t>(r->spans.size());
        r->spans.push_back({"n1ql.execute", t0, t1, -1});
        uint64_t exec = std::min(result->metrics.elapsed_ns, t1 - t0);
        r->spans.push_back({"n1ql.exec", t1 - exec, t1, root});
      }
    }
    Record(r, kScan, t0, t1, result.ok(), output_ok);
  }

  void Insert(ThreadResult* r, bool traced) {
    std::string key = KeyFor(bed_->next_insert.fetch_add(1));
    std::string value = bed_->values.Make(key, rng_);
    uint64_t t0 = NowNs();
    auto reply = smart_->Insert(key, value);
    uint64_t t1 = NowNs();
    if (traced) r->spans.push_back({"client.insert", t0, t1, -1});
    if (reply.ok()) NoteWrite(r, key, value);
    Record(r, kInsert, t0, t1, reply.ok(), true);
  }

  Bed* bed_;
  Workload w_;
  Rng rng_;
  ZipfianGenerator zipf_;
  std::unique_ptr<client::SmartClient> smart_;
  std::unique_ptr<client::WireClient> wire_;
};

// End-to-end figures are taken per window of the measured phase and reported
// as the quiet quartile over windows (see AddWindowed).
constexpr uint32_t kWindowMs = 250;

struct Phase {
  double seconds = 0;
  uint32_t windows = 0;  // whole windows in the phase
  std::vector<double> window_steal;  // host steal share in each window
  std::vector<ThreadResult> threads;

  uint64_t Sum(uint64_t ThreadResult::*field) const {
    uint64_t s = 0;
    for (const ThreadResult& t : threads) s += t.*field;
    return s;
  }
  uint64_t Ok() const {
    return Sum(&ThreadResult::attempted) - Sum(&ThreadResult::failed);
  }
  double OpsPerSec() const { return static_cast<double>(Ok()) / seconds; }
  Samples Latency(OpClass c) const {
    std::vector<uint64_t> all;
    for (const ThreadResult& t : threads) {
      all.insert(all.end(), t.lat_ns[c].begin(), t.lat_ns[c].end());
    }
    return Samples(std::move(all));
  }
  // Window w's latencies of class c.
  Samples Window(OpClass c, uint32_t w) const {
    std::vector<uint64_t> in;
    for (const ThreadResult& t : threads) {
      for (size_t i = 0; i < t.lat_ns[c].size(); ++i) {
        uint32_t local = t.done_ms[c][i] / kWindowMs;
        if (local < t.whole_windows && t.window_base + local == w) {
          in.push_back(t.lat_ns[c][i]);
        }
      }
    }
    return Samples(std::move(in));
  }
  // Continues this phase with `next`: its windows follow this one's.
  void Append(Phase next) {
    for (ThreadResult& t : next.threads) {
      t.window_base += windows;
      threads.push_back(std::move(t));
    }
    windows += next.windows;
    seconds += next.seconds;
    window_steal.insert(window_steal.end(), next.window_steal.begin(),
                        next.window_steal.end());
  }
};

double PerOp(double num, double ops) { return ops > 0 ? num / ops : 0; }

// Host CPU time stolen by other guests, from /proc/stat's "cpu" line, in
// clock ticks: {steal, all}. Reported beside the figures it can disturb.
std::pair<uint64_t, uint64_t> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t v = 0, all = 0, steal = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    all += v;
    if (i == 7) steal = v;
  }
  return {steal, all};
}

double StealShare(std::pair<uint64_t, uint64_t> before) {
  auto after = StealTicks();
  return PerOp(static_cast<double>(after.first - before.first),
               static_cast<double>(after.second - before.second));
}

// Runs every client in its own thread, closed loop, for `seconds`.
Phase RunPhase(std::vector<std::unique_ptr<Client>>& clients, double seconds,
               bool traced) {
  Phase phase;
  phase.threads.resize(clients.size());
  phase.windows = static_cast<uint32_t>(seconds * 1000) / kWindowMs;
  uint64_t start = NowNs();
  for (ThreadResult& t : phase.threads) {
    t.phase_start_ns = start;
    t.whole_windows = phase.windows;
  }
  uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      ThreadResult* r = &phase.threads[i];
      while (NowNs() < deadline) clients[i]->Step(r, traced);
    });
  }
  auto steal = StealTicks();
  for (uint32_t w = 0; w < phase.windows; ++w) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            start + (w + 1) * uint64_t{kWindowMs} * 1000000)));
    phase.window_steal.push_back(StealShare(steal));
    steal = StealTicks();
  }
  for (auto& t : threads) t.join();
  phase.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return phase;
}

// ---------------------------------------------------------------------------
// Registry deltas
// ---------------------------------------------------------------------------

// True for a per-node metric "node.<id>[.bucket.<b>].<suffix>".
bool IsNodeMetric(const std::string& name, const std::string& suffix) {
  const size_t n = suffix.size();
  return name.rfind("node.", 0) == 0 && name.size() > n &&
         name.compare(name.size() - n, n, suffix) == 0 &&
         name[name.size() - n - 1] == '.';
}

// A per-node counter summed over every node.
uint64_t NodeCounter(const stats::Snapshot& d, const std::string& suffix) {
  uint64_t sum = 0;
  for (const auto& [name, v] : d) {
    if (IsNodeMetric(name, suffix)) sum += v.counter;
  }
  return sum;
}

// A per-node histogram merged over every node.
HistogramSnapshot NodeHist(const stats::Snapshot& d,
                           const std::string& suffix) {
  HistogramSnapshot h;
  for (const auto& [name, v] : d) {
    if (IsNodeMetric(name, suffix) &&
        v.kind == stats::MetricValue::Kind::kHistogram) {
      h.Merge(v.hist);
    }
  }
  return h;
}

uint64_t Counter(const stats::Snapshot& d, const std::string& name) {
  auto it = d.find(name);
  return it == d.end() ? 0 : it->second.counter;
}

HistogramSnapshot Hist(const stats::Snapshot& d, const std::string& name) {
  auto it = d.find(name);
  return it == d.end() ? HistogramSnapshot{} : it->second.hist;
}

double MeanUs(const HistogramSnapshot& h) {
  return h.count == 0 ? 0 : static_cast<double>(h.sum) / h.count / 1e3;
}

// A registry histogram's percentile, 0 when it holds too few samples.
double HistPctUs(const HistogramSnapshot& h, double q) {
  return Supports(h.count, q) ? static_cast<double>(h.Percentile(q)) / 1e3 : 0;
}

// The dcp.backlog gauge is refreshed only when a node is scraped, so the
// traced run scrapes every node at 10 Hz and keeps the largest total seen
// while recording. It scrapes through both halves of the run, so that the
// untraced half carries the same load and the overhead is the spans' alone.
class BacklogSampler {
 public:
  explicit BacklogSampler(cluster::Cluster* c)
      : thread_([this, c] {
          while (!stop_.load()) {
            int64_t total = 0;
            for (cluster::NodeId id : c->node_ids()) {
              auto snap = c->node(id)->Stats("dcp");
              if (!snap.ok()) continue;
              for (const auto& [name, v] : *snap) {
                if (name.size() >= 12 &&
                    name.compare(name.size() - 12, 12, ".dcp.backlog") == 0) {
                  total += v.gauge;
                }
              }
            }
            if (recording_.load()) max_ = std::max(max_.load(), total);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        }) {}
  ~BacklogSampler() { Stop(); }
  BacklogSampler(const BacklogSampler&) = delete;
  BacklogSampler& operator=(const BacklogSampler&) = delete;

  void StartRecording() { recording_ = true; }

  int64_t Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return max_.load();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<bool> recording_{false};
  std::atomic<int64_t> max_{0};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("metric %-10s %-34s %16.6f %-6s %s\n", workload_.c_str(),
                name.c_str(), value, unit.c_str(), note.c_str());
  }

  void Skip(const std::string& name, const std::string& why) const {
    std::printf("metric %-10s %-34s %16s %-6s %s\n", workload_.c_str(),
                name.c_str(), "-", "", why.c_str());
  }

  std::vector<std::string> Names() const {
    std::vector<std::string> out;
    for (const Metric& m : metrics_) out.push_back(m.name);
    return out;
  }

  // The result line: `names` maps each result name to an added metric.
  using ResultNames = std::vector<std::pair<std::string, std::string>>;
  void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                   const ResultNames& names) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, source] : names) {
      const Metric& m = Find(source);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      out += (first ? "" : ", ") + JsonStr(name) + ": {\"value\": " + buf +
             ", \"unit\": " + JsonStr(m.unit) + "}";
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  const Metric& Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return m;
    }
    throw std::logic_error("no metric " + name);
  }

  std::string workload_;
  std::vector<Metric> metrics_;
};

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The q-quantile of v, interpolating between neighbours.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ops_per_s and each op class's p50 and p99, each taken per whole window
// and reported as the quiet quartile over the windows: the lower quartile of
// a latency, the upper quartile of ops/s. Other guests on a shared host slow
// the benchmark in stretches of seconds to minutes and never speed it up, so
// the quarter of the run they disturbed least moves least between runs, and
// a change to the program moves every window alike. A percentile that not
// every window supports is taken over the whole run instead, if the run
// supports it. Each note gives the median over windows and the whole-run
// figure with its sample count.
void AddWindowed(Report* rep, const Phase& run) {
  const std::string windows = std::to_string(run.windows) + " windows";
  std::vector<double> ops;
  constexpr int kQs = 2;
  const double qs[kQs] = {0.5, 0.99};
  const char* const suffix[kQs] = {"_p50_us", "_p99_us"};
  std::vector<double> pct[kNumClasses][kQs];
  for (uint32_t w = 0; w < run.windows; ++w) {
    uint64_t n = 0;
    for (int c = 0; c < kNumClasses; ++c) {
      Samples s = run.Window(static_cast<OpClass>(c), w);
      n += s.count();
      for (int k = 0; k < kQs; ++k) {
        if (Supports(s.count(), qs[k])) {
          pct[c][k].push_back(s.PercentileUs(qs[k]));
        }
      }
    }
    ops.push_back(static_cast<double>(n) * 1000.0 / kWindowMs);
  }
  std::printf("windows ops_per_s");
  for (double o : ops) std::printf(" %.0f", o);
  for (int c = 0; c < kNumClasses; ++c) {
    if (pct[c][0].empty()) continue;
    std::printf("\nwindows %s_p50_us", kClassName[c]);
    for (double p : pct[c][0]) std::printf(" %.3f", p);
  }
  std::printf("\nwindows host.steal_share");
  for (double st : run.window_steal) std::printf(" %.3f", st);
  std::printf("\n");
  auto [lo, hi] = std::minmax_element(ops.begin(), ops.end());
  rep->Add("ops_per_s", Quantile(ops, 0.75), "1/s",
           "upper quartile of " + windows + ", median " +
               std::to_string(Median(ops)) + " (" + std::to_string(*lo) + ".." +
               std::to_string(*hi) + "); whole run " +
               std::to_string(run.OpsPerSec()) + " (ok=" +
               std::to_string(run.Ok()) + ")");
  for (int c = 0; c < kNumClasses; ++c) {
    Samples all = run.Latency(static_cast<OpClass>(c));
    if (all.count() == 0) continue;
    for (int k = 0; k < kQs; ++k) {
      std::string name = std::string(kClassName[c]) + suffix[k];
      std::string whole =
          "whole run " +
          (Supports(all.count(), qs[k])
               ? std::to_string(all.PercentileUs(qs[k]))
               : std::string("-")) +
          " (n=" + std::to_string(all.count()) + ", highest supported p" +
          std::to_string(HighestSupported(all.count()) * 100) + ")";
      if (pct[c][k].size() == run.windows && run.windows > 0) {
        rep->Add(name, Quantile(pct[c][k], 0.25), "us",
                 "lower quartile of " + windows + ", median " +
                     std::to_string(Median(pct[c][k])) + "; " + whole);
      } else if (Supports(all.count(), qs[k])) {
        rep->Add(name, all.PercentileUs(qs[k]), "us",
                 "too few samples per window; " + whole);
      } else {
        rep->Skip(name, "too few samples; " + whole);
      }
    }
  }
}

// The two latency classes each workload's result line bounds: `op_p50_us`
// is the op the workload is mainly about, `write_p50_us` its write, whose
// path (vBucket op lock, hash table, DCP and flusher enqueue) the read-side
// op does not take. repl_write has only updates, so both are its update.
OpClass MainClass(Workload w) {
  switch (w) {
    case Workload::kKvA:
    case Workload::kWireB:
      return kRead;
    case Workload::kReplWrite:
      return kUpdate;
    case Workload::kQueryE:
      return kScan;
  }
  return kRead;
}

OpClass WriteClass(Workload w) {
  return w == Workload::kQueryE ? kInsert : kUpdate;
}

// One line per span: ids are numbered across threads in file order, an
// operation's id is its root span's id, and times are ns since the traced
// phase began.
void WriteSpans(const std::string& path, const Phase& phase) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write spans to " + path);
  std::fprintf(f, "span_id\tparent_id\top_id\tname\tstart_ns\tend_ns\n");
  long long base = 0;
  for (const ThreadResult& t : phase.threads) {
    long long op = base;
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      long long id = base + static_cast<long long>(i);
      if (s.parent < 0) op = id;
      std::fprintf(f, "%lld\t%lld\t%lld\t%s\t%llu\t%llu\n", id,
                   s.parent < 0 ? -1LL : base + s.parent, op, s.name,
                   static_cast<unsigned long long>(s.start - t.phase_start_ns),
                   static_cast<unsigned long long>(s.end - t.phase_start_ns));
    }
    base += static_cast<long long>(t.spans.size());
  }
  if (std::fclose(f) != 0) Die("cannot write spans to " + path);
}

// Mean over ops of `part(op)` in microseconds, for the ops whose total
// lies in the rank band [lo, hi) of all ops' totals. Splitting a percentile
// this way keeps the parts adding up to the total they explain.
struct Split {
  double total_us = 0;
  std::vector<double> parts_us;
};

template <typename... Parts>
Split SplitAt(std::vector<const OpBreakdown*> ops, double lo, double hi,
              Parts... parts) {
  Split s;
  s.parts_us.assign(sizeof...(parts), 0);
  if (ops.empty()) return s;
  std::sort(ops.begin(), ops.end(),
            [](const OpBreakdown* a, const OpBreakdown* b) {
              return a->total_ns() < b->total_ns();
            });
  size_t b = static_cast<size_t>(lo * ops.size());
  size_t e = std::max(b + 1, static_cast<size_t>(hi * ops.size()));
  e = std::min(e, ops.size());
  for (size_t i = b; i < e; ++i) {
    s.total_us += static_cast<double>(ops[i]->total_ns());
    size_t k = 0;
    ((s.parts_us[k++] += static_cast<double>(parts(*ops[i]))), ...);
  }
  double n = static_cast<double>(e - b) * 1e3;
  s.total_us /= n;
  for (double& p : s.parts_us) p /= n;
  return s;
}

// The percentile bands the ledger splits: around the median, and the tail
// beyond p99.
constexpr double kP50Lo = 0.45, kP50Hi = 0.55, kP99Lo = 0.99, kP99Hi = 1.0;

// ---------------------------------------------------------------------------
// The two kinds of run
// ---------------------------------------------------------------------------

struct Args {
  Workload workload = Workload::kKvA;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  std::string git_sha = "unknown";
};

std::vector<std::unique_ptr<Client>> MakeClients(Bed* bed, const Args& a) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(bed, a.workload, a.seed, i));
  }
  return clients;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t check_failures = 0;

  void Add(const Phase& p) {
    attempted += p.Sum(&ThreadResult::attempted);
    failed += p.Sum(&ThreadResult::failed);
    check_failures += p.Sum(&ThreadResult::check_failures);
  }
};

// A run is correct only when every op succeeded with the right output and
// the replicas caught up: an op that errors, is refused or times out fails
// the run as a wrong answer does.
bool Correct(bool replicas_ok, const Tally& t) {
  return replicas_ok && t.failed == 0;
}

void PrintContext(const Args& a, int clients) {
  std::printf(
      "context {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"clients\": %d, \"records\": %llu, \"nproc\": %u, "
      "\"cpu_model\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"git_sha\": %s, \"COUCHKV_LOCKDEP\": %s, \"COUCHKV_AFFINITY\": %s, "
      "\"COUCHKV_SANITIZE\": %s}\n",
      JsonStr(a.workload_name).c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
      clients, static_cast<unsigned long long>(kRecords),
      std::thread::hardware_concurrency(), JsonStr(CpuModel()).c_str(),
      JsonStr(__VERSION__).c_str(), JsonStr(LEDGERBENCH_BUILD_TYPE).c_str(),
      JsonStr(a.git_sha).c_str(), kLockdep ? "\"ON\"" : "\"OFF\"",
      kAffinity ? "\"ON\"" : "\"OFF\"", JsonStr(Sanitizers()).c_str());
}

// The measured time is split evenly over kSetups freshly built clusters,
// each with its own warm-up, client threads and connections, so that no one
// cluster's layout or thread placement sets the figures.
int RunUntraced(const Args& a) {
  std::vector<double> setup_s;
  double setup_rss_mb = 0;
  bool replicas_ok = true;
  Tally tally;
  Phase run;
  for (int i = 0; i < kSetups; ++i) {
    uint64_t t0 = NowNs();
    std::unique_ptr<Bed> bed = Setup(a.workload, a.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (i == 0) setup_rss_mb = PeakRssMb();
    auto clients = MakeClients(bed.get(), a);
    if (i == 0) PrintContext(a, static_cast<int>(clients.size()));
    tally.Add(RunPhase(clients, kWarmupSeconds, false));
    Phase part = RunPhase(clients, a.seconds / kSetups, false);
    tally.Add(part);
    run.Append(std::move(part));
    bed->cluster->Quiesce();
    replicas_ok = ReplicasCaughtUp(bed->cluster.get()) && replicas_ok;
  }

  Report rep(a.workload_name);
  std::string setups;
  for (double s : setup_s) setups += std::to_string(s) + " ";
  rep.Add("setup_s", Median(setup_s), "s", "median of " + setups);
  AddWindowed(&rep, run);
  rep.Add("fail_ratio", FailRatio(tally.failed, tally.attempted), "ratio",
          std::to_string(tally.failed) + "/" + std::to_string(tally.attempted) +
              " attempted (warm-up included)");
  rep.Add("setup_rss_mb", setup_rss_mb, "MB",
          "ru_maxrss after the first set-up");
  rep.Add("peak_rss_mb", PeakRssMb(), "MB", "ru_maxrss, equal run length only");
  double steal = 0;
  for (double w : run.window_steal) steal += w;
  rep.Add("host.steal_share", PerOp(steal, static_cast<double>(run.windows)),
          "ratio", "CPU stolen by other guests while measuring");
  std::printf("check replicas_caught_up=%s output_check_failures=%llu\n",
              replicas_ok ? "yes" : "NO",
              static_cast<unsigned long long>(tally.check_failures));

  const std::string main = kClassName[MainClass(a.workload)];
  const std::string write = kClassName[WriteClass(a.workload)];
  rep.PrintResult(Correct(replicas_ok, tally), tally.attempted, tally.failed,
                  {{"setup_s", "setup_s"},
                   {"op_p50_us", main + "_p50_us"},
                   {"write_p50_us", write + "_p50_us"},
                   {"setup_rss_mb", "setup_rss_mb"}});
  return 0;
}

int RunTraced(const Args& a) {
  std::unique_ptr<Bed> bed = Setup(a.workload, a.seed);
  auto clients = MakeClients(bed.get(), a);
  PrintContext(a, static_cast<int>(clients.size()));
  cluster::Cluster* c = bed->cluster.get();

  Tally tally;
  tally.Add(RunPhase(clients, kWarmupSeconds, false));
  // Half the run untraced, half traced, back to back on the same cluster:
  // their ops/s difference is the tracing overhead.
  BacklogSampler sampler(c);
  Phase plain = RunPhase(clients, a.seconds / 2, false);
  tally.Add(plain);
  stats::Snapshot before = stats::Registry::Global().Collect();
  sampler.StartRecording();
  Phase traced = RunPhase(clients, a.seconds / 2, true);
  int64_t backlog_max = sampler.Stop();
  stats::Snapshot d = stats::Delta(before, stats::Registry::Global().Collect());
  tally.Add(traced);
  c->Quiesce();
  bool replicas_ok = ReplicasCaughtUp(c);
  if (!a.spans_path.empty()) WriteSpans(a.spans_path, traced);

  std::vector<OpBreakdown> ops;
  for (const ThreadResult& t : traced.threads) {
    std::vector<OpBreakdown> b = Breakdown(t.spans);
    ops.insert(ops.end(), std::make_move_iterator(b.begin()),
               std::make_move_iterator(b.end()));
  }
  auto with_root = [&](const char* root) {
    std::vector<const OpBreakdown*> out;
    for (const OpBreakdown& o : ops) {
      if (std::strcmp(o.root(), root) == 0) out.push_back(&o);
    }
    return out;
  };
  auto self_samples = [&](const char* root, const char* name) {
    std::vector<uint64_t> ns;
    for (const OpBreakdown* o : with_root(root)) ns.push_back(o->Self(name));
    return Samples(std::move(ns));
  };
  auto dur_samples = [&](const char* name) {
    std::vector<uint64_t> ns;
    for (const OpBreakdown& o : ops) {
      if (const OpBreakdown::Part* p = o.Find(name)) ns.push_back(p->dur_ns);
    }
    return Samples(std::move(ns));
  };
  auto pct = [](const Samples& s, double q) {
    return Supports(s.count(), q) ? s.PercentileUs(q) : 0.0;
  };

  Report rep(a.workload_name);
  const double client_ops = static_cast<double>(traced.Ok());
  const double mutations =
      static_cast<double>(traced.Sum(&ThreadResult::client_mutations));

  // Tracing overhead.
  rep.Add("trace.untraced_ops_per_s", plain.OpsPerSec(), "1/s");
  rep.Add("trace.ops_per_s", traced.OpsPerSec(), "1/s");
  rep.Add("trace.overhead_pct",
          100.0 * (plain.OpsPerSec() - traced.OpsPerSec()) / plain.OpsPerSec(),
          "%", "untraced vs traced ops/s, same cluster, back to back");

  // client: span mean minus the engine's own mean (kv_a).
  HistogramSnapshot kv_get = NodeHist(d, "kv.get_ns");
  HistogramSnapshot kv_mut = NodeHist(d, "kv.mutate_ns");
  Samples get_span = dur_samples("client.get");
  Samples upsert_span = dur_samples("client.upsert");
  rep.Add("client.get_self_us",
          get_span.count() ? get_span.MeanUs() - MeanUs(kv_get) : 0, "us",
          "SmartClient Get span mean - kv.get_ns mean; residual = this");
  rep.Add("client.upsert_self_us",
          upsert_span.count() ? upsert_span.MeanUs() - MeanUs(kv_mut) : 0, "us",
          "SmartClient Upsert span mean - kv.mutate_ns mean; residual = this");
  rep.Add("client.retries_per_op",
          PerOp(static_cast<double>(Counter(d, "client.retries")), client_ops),
          "1/op");
  rep.Add("client.map_refreshes",
          static_cast<double>(Counter(d, "client.map_refreshes")), "count");

  // net: wire span minus the server's reported total, per op (wire_b).
  Samples net_read = self_samples("wire.get", "wire.get");
  Samples net_write = self_samples("wire.set", "wire.set");
  rep.Add("net.read_self_p50_us", pct(net_read, 0.5), "us",
          "n=" + std::to_string(net_read.count()));
  rep.Add("net.read_self_p99_us", pct(net_read, 0.99), "us");
  rep.Add("net.write_self_p50_us", pct(net_write, 0.5), "us",
          "n=" + std::to_string(net_write.count()));
  rep.Add("net.write_self_p99_us", pct(net_write, 0.99), "us");
  const double wire_ops =
      static_cast<double>(net_read.count() + net_write.count());
  rep.Add("net.bytes_per_op",
          PerOp(static_cast<double>(Counter(d, "wire.rx_bytes") +
                                    Counter(d, "wire.tx_bytes")),
                wire_ops),
          "B/op");
  rep.Add("net.frames_per_op",
          PerOp(static_cast<double>(Counter(d, "wire.server.frames")),
                wire_ops),
          "1/op");
  rep.Add("net.transport_calls_per_op",
          PerOp(static_cast<double>(Counter(d, "transport.sent")), client_ops),
          "1/op");

  // cluster: the server's own phases, per wire op.
  std::vector<const OpBreakdown*> wire = with_root("wire.get");
  for (const OpBreakdown* o : with_root("wire.set")) wire.push_back(o);
  Split server = SplitAt(
      wire, 0, 1, [](const OpBreakdown& o) { return o.Dur("server.total"); },
      [](const OpBreakdown& o) { return o.Dur("server.dispatch"); },
      [](const OpBreakdown& o) { return o.Dur("server.engine"); },
      [](const OpBreakdown& o) { return o.Self("server.total"); });
  rep.Add("cluster.server_total_us", server.parts_us[0], "us");
  rep.Add("cluster.server_dispatch_us", server.parts_us[1], "us");
  rep.Add("cluster.server_engine_us", server.parts_us[2], "us");
  rep.Add("cluster.server_residual_us", server.parts_us[3], "us",
          "total - dispatch - engine");

  // kv: the engine (vBucket op lock + hash table), from the registry.
  rep.Add("kv.get_p50_us", HistPctUs(kv_get, 0.5), "us",
          "n=" + std::to_string(kv_get.count));
  rep.Add("kv.get_p99_us", HistPctUs(kv_get, 0.99), "us");
  rep.Add("kv.mutate_p50_us", HistPctUs(kv_mut, 0.5), "us",
          "n=" + std::to_string(kv_mut.count));
  rep.Add("kv.mutate_p99_us", HistPctUs(kv_mut, 0.99), "us");
  const double hits = static_cast<double>(NodeCounter(d, "kv.hits"));
  const double misses = static_cast<double>(NodeCounter(d, "kv.misses"));
  rep.Add("kv.hit_ratio", PerOp(hits, hits + misses), "ratio",
          "hits / (hits + misses)");
  rep.Add("kv.cas_mismatches",
          static_cast<double>(NodeCounter(d, "kv.cas_mismatches")), "count");
  rep.Add("kv.ops_per_client_op",
          PerOp(static_cast<double>(NodeCounter(d, "kv.ops_get") +
                                    NodeCounter(d, "kv.ops_mutate")),
                client_ops),
          "1/op");

  // dcp: the replicate wait on its own (repl_write), and stream work.
  Samples wait = dur_samples("cluster.wait_durability");
  rep.Add("dcp.replicate_wait_p50_us", pct(wait, 0.5), "us",
          "n=" + std::to_string(wait.count()));
  rep.Add("dcp.replicate_wait_p99_us", pct(wait, 0.99), "us");
  rep.Add("dcp.appended_per_mutation",
          PerOp(static_cast<double>(NodeCounter(d, "dcp.items_appended")),
                mutations),
          "1/op");
  rep.Add("dcp.delivered_per_mutation",
          PerOp(static_cast<double>(NodeCounter(d, "dcp.items_delivered")),
                mutations),
          "1/op");
  rep.Add("dcp.backlog_max", static_cast<double>(backlog_max), "count",
          "dcp.backlog summed over nodes, sampled at 10 Hz");

  // storage: flusher and couch-file work per user byte and per batch.
  const double user_bytes =
      static_cast<double>(traced.Sum(&ThreadResult::user_bytes_written));
  rep.Add("storage.write_amp",
          PerOp(static_cast<double>(NodeCounter(d, "storage.bytes_appended")),
                user_bytes),
          "B/B", "storage.bytes_appended / client key+value bytes written");
  const double batches = static_cast<double>(NodeCounter(d, "flusher.batches"));
  rep.Add("storage.docs_per_flush",
          PerOp(static_cast<double>(NodeCounter(d, "flusher.batch_docs")),
                batches),
          "count");
  HistogramSnapshot flush = NodeHist(d, "flusher.flush_ns");
  rep.Add("storage.flush_us", MeanUs(flush), "us");
  rep.Add("storage.commit_us", MeanUs(NodeHist(d, "storage.commit_ns")), "us");
  rep.Add("storage.flush_busy_share",
          static_cast<double>(flush.sum) / (traced.seconds * 1e9 * kNodes),
          "ratio", "flush time / (wall time x one flusher per node)");

  // n1ql and gsi (query_e).
  const double scans = static_cast<double>(traced.Sum(&ThreadResult::scans));
  HistogramSnapshot gsi_scan = Hist(d, "gsi.scan_ns");
  HistogramSnapshot fetch = Hist(d, "n1ql.fetch_ns");
  Samples parse = self_samples("n1ql.execute", "n1ql.execute");
  const double exec_us =
      PerOp(static_cast<double>(traced.Sum(&ThreadResult::query_elapsed_ns)),
            scans) / 1e3;
  const double gsi_per_query =
      PerOp(static_cast<double>(gsi_scan.sum), scans) / 1e3;
  const double fetch_per_query =
      PerOp(static_cast<double>(fetch.sum), scans) / 1e3;
  rep.Add("n1ql.parse_us", parse.MeanUs(), "us",
          "Execute span - QueryMetrics.elapsed_ns, mean per query");
  rep.Add("n1ql.exec_self_us",
          scans > 0 ? exec_us - gsi_per_query - fetch_per_query : 0, "us",
          "elapsed - gsi scan - fetch, mean per query; the residual");
  rep.Add("n1ql.fetch_us", fetch_per_query, "us", "mean per query");
  rep.Add("n1ql.docs_fetched_per_query",
          PerOp(static_cast<double>(traced.Sum(&ThreadResult::docs_fetched)),
                scans),
          "1/op");
  rep.Add("gsi.scan_p50_us", HistPctUs(gsi_scan, 0.5), "us",
          "n=" + std::to_string(gsi_scan.count));
  rep.Add("gsi.scan_p99_us", HistPctUs(gsi_scan, 0.99), "us");
  rep.Add("gsi.keys_per_scan",
          PerOp(static_cast<double>(traced.Sum(&ThreadResult::rows_returned)),
                static_cast<double>(Counter(d, "gsi.scans"))),
          "1/op", "rows returned per gsi.scans");
  rep.Add("gsi.scan_retries",
          static_cast<double>(Counter(d, "gsi.scan_retries")), "count");

  // The ledger: wire_b GET and SET at p50 and p99 split into client+net,
  // server dispatch, engine and the server's unattributed rest; repl_write
  // split into the memory-ack upsert, the replicate wait and the rest.
  struct Band { const char* name; double lo, hi; };
  const Band bands[] = {{"p50", kP50Lo, kP50Hi}, {"p99", kP99Lo, kP99Hi}};
  for (const auto& [root, label] :
       {std::pair{"wire.get", "get"}, std::pair{"wire.set", "set"}}) {
    for (const Band& b : bands) {
      const char* r = root;
      Split s = SplitAt(
          with_root(root), b.lo, b.hi,
          [r](const OpBreakdown& o) { return o.Self(r); },
          [](const OpBreakdown& o) { return o.Dur("server.dispatch"); },
          [](const OpBreakdown& o) { return o.Dur("server.engine"); });
      std::string p = std::string("ledger.") + label + "_" + b.name;
      rep.Add(p + ".total_us", s.total_us, "us");
      rep.Add(p + ".client_net_us", s.parts_us[0], "us");
      rep.Add(p + ".dispatch_us", s.parts_us[1], "us");
      rep.Add(p + ".engine_us", s.parts_us[2], "us");
      rep.Add(p + ".residual_us",
              s.total_us - s.parts_us[0] - s.parts_us[1] - s.parts_us[2], "us");
    }
  }
  for (const Band& b : bands) {
    Split s = SplitAt(
        with_root("op.update"), b.lo, b.hi,
        [](const OpBreakdown& o) { return o.Dur("client.upsert"); },
        [](const OpBreakdown& o) { return o.Dur("cluster.wait_durability"); });
    std::string p = std::string("ledger.repl_") + b.name;
    rep.Add(p + ".total_us", s.total_us, "us");
    rep.Add(p + ".upsert_us", s.parts_us[0], "us");
    rep.Add(p + ".wait_us", s.parts_us[1], "us");
    rep.Add(p + ".residual_us", s.total_us - s.parts_us[0] - s.parts_us[1],
            "us");
  }

  std::printf("check replicas_caught_up=%s output_check_failures=%llu\n",
              replicas_ok ? "yes" : "NO",
              static_cast<unsigned long long>(tally.check_failures));
  std::vector<std::pair<std::string, std::string>> names;
  for (const std::string& n : rep.Names()) names.emplace_back(n, n);
  rep.PrintResult(Correct(replicas_ok, tally), tally.attempted, tally.failed,
                  names);
  return 0;
}

}  // namespace
}  // namespace ledgerbench

int main(int argc, char** argv) {
  using namespace ledgerbench;
  Args a;
  a.workload_name = "";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], v = argv[i + 1];
    if (flag == "--workload") {
      a.workload_name = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) Die("flags come in pairs");
  if (a.workload_name == "kv_a") {
    a.workload = Workload::kKvA;
  } else if (a.workload_name == "wire_b") {
    a.workload = Workload::kWireB;
  } else if (a.workload_name == "repl_write") {
    a.workload = Workload::kReplWrite;
  } else if (a.workload_name == "query_e") {
    a.workload = Workload::kQueryE;
  } else {
    Die("--workload must be kv_a, wire_b, repl_write or query_e");
  }
  if (a.seconds < kSetups) {
    Die("--seconds must be at least " + std::to_string(kSetups) +
        ": every set-up measures at least one second");
  }
  if (std::string why = UnfitBuild(); !why.empty()) {
    std::fprintf(stderr, "ledgerbench: refusing to report numbers: %s\n",
                 why.c_str());
    return 2;
  }
  try {
    return a.trace ? RunTraced(a) : RunUntraced(a);
  } catch (const std::exception& e) {
    Die(e.what());
  }
}
