// External load generator for the wire front-end: drives GET/SET traffic
// through WireClient, so every measured operation is serialized into a
// binary-protocol frame and crosses a real TCP socket into a node's
// listener — there is no in-process shortcut anywhere on the measured path.
//
// Two places the cluster can live:
//   --connect P1[,P2...]   attach to an external couchkv_server process
//                          (bootstrap from its printed ports)
//   (default)              spawn an in-process cluster with --nodes nodes;
//                          traffic still crosses the kernel via loopback
//
// Two load modes:
//   closed loop (default)  each thread issues its next op as soon as the
//                          previous one completes; measures service latency
//   --target-ops R         open loop at R ops/s total: arrivals are
//                          scheduled on a fixed grid and latency is measured
//                          from the SCHEDULED start, so queueing delay from
//                          a slow server is charged to the server
//                          (coordinated-omission resistant), not hidden by
//                          the client slowing down
//
// Emits BENCH_<name>.json through the shared BenchReporter.
#include <sys/prctl.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "client/wire_client.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/lockdep.h"
#include "common/random.h"

namespace {

using couchkv::Clock;
using couchkv::Rng;
using couchkv::Status;
using couchkv::ZipfianGenerator;

struct Config {
  std::vector<uint16_t> connect_ports;  // empty = spawn in-process
  int nodes = 3;
  std::string bucket = "default";
  int threads = 4;
  double duration_s = 5.0;
  uint64_t target_ops = 0;  // 0 = closed loop
  uint64_t keys = 10000;
  size_t value_size = 128;
  int read_pct = 80;
  bool zipfian = true;
  bool preload = true;
  uint64_t seed = 42;
  // Durability attached to every write: "R,P" = replicate_to R, persist_to
  // P (0,0 = memory-ack only). Writes then stall in the server's
  // replicate/persist phases, which the server-side percentiles expose.
  uint32_t replicate_to = 0;
  uint32_t persist_to = 0;
  std::string name = "wire_loadgen";
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--connect P1,P2,...] [--nodes N] [--bucket NAME]\n"
      "  [--threads T] [--duration-s S] [--target-ops R] [--keys K]\n"
      "  [--value-size B] [--read-pct P] [--dist zipfian|uniform]\n"
      "  [--no-preload] [--seed S] [--durability R,P] [--name NAME]\n",
      argv0);
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--connect") == 0) {
      std::string list = next("--connect");
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        cfg.connect_ports.push_back(
            static_cast<uint16_t>(std::atoi(list.substr(pos).c_str())));
        pos = comma + 1;
      }
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      cfg.nodes = std::atoi(next("--nodes"));
    } else if (std::strcmp(argv[i], "--bucket") == 0) {
      cfg.bucket = next("--bucket");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      cfg.threads = std::atoi(next("--threads"));
    } else if (std::strcmp(argv[i], "--duration-s") == 0) {
      cfg.duration_s = std::atof(next("--duration-s"));
    } else if (std::strcmp(argv[i], "--target-ops") == 0) {
      cfg.target_ops = std::strtoull(next("--target-ops"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--keys") == 0) {
      cfg.keys = std::strtoull(next("--keys"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--value-size") == 0) {
      cfg.value_size = static_cast<size_t>(std::atoi(next("--value-size")));
    } else if (std::strcmp(argv[i], "--read-pct") == 0) {
      cfg.read_pct = std::atoi(next("--read-pct"));
    } else if (std::strcmp(argv[i], "--dist") == 0) {
      const char* d = next("--dist");
      if (std::strcmp(d, "zipfian") == 0) {
        cfg.zipfian = true;
      } else if (std::strcmp(d, "uniform") == 0) {
        cfg.zipfian = false;
      } else {
        Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--no-preload") == 0) {
      cfg.preload = false;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      cfg.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--durability") == 0) {
      std::string spec = next("--durability");
      size_t comma = spec.find(',');
      if (comma == std::string::npos) Usage(argv[0]);
      cfg.replicate_to =
          static_cast<uint32_t>(std::atoi(spec.substr(0, comma).c_str()));
      cfg.persist_to =
          static_cast<uint32_t>(std::atoi(spec.substr(comma + 1).c_str()));
    } else if (std::strcmp(argv[i], "--name") == 0) {
      cfg.name = next("--name");
    } else {
      Usage(argv[0]);
    }
  }
  if (cfg.threads < 1 || cfg.nodes < 1 || cfg.keys == 0) Usage(argv[0]);
  return cfg;
}

std::string KeyFor(uint64_t i) { return "user" + std::to_string(i); }

}  // namespace

int main(int argc, char** argv) {
  couchkv::lockdep::ScopedDomain main_domain(
      couchkv::lockdep::Domain::kMain);
  Config cfg = ParseArgs(argc, argv);

  // Spawn mode: the cluster lives in this process, but its KV service is
  // reached exclusively through the TCP listeners below.
  std::unique_ptr<couchkv::cluster::Cluster> local;
  std::vector<uint16_t> ports = cfg.connect_ports;
  if (ports.empty()) {
    local = std::make_unique<couchkv::cluster::Cluster>();
    for (int i = 0; i < cfg.nodes; ++i) {
      local->AddNode(couchkv::cluster::kAllServices);
    }
    couchkv::cluster::BucketConfig config;
    config.name = cfg.bucket;
    config.num_replicas = 1;
    config.memory_quota_bytes = 4ull << 30;
    couchkv::bench::MustOk(local->CreateBucket(config), "bucket creation");
    couchkv::bench::MustOk(local->StartWireServers(cfg.bucket),
                           "wire servers");
    for (couchkv::cluster::NodeId id : local->node_ids()) {
      ports.push_back(local->wire_port(id));
    }
  }

  // Preload the keyspace so reads hit existing documents.
  const std::string value(cfg.value_size, 'v');
  if (cfg.preload) {
    std::atomic<uint64_t> next{0};
    std::vector<std::thread> loaders;
    int nloaders = cfg.threads < 8 ? cfg.threads : 8;
    for (int t = 0; t < nloaders; ++t) {
      loaders.emplace_back([&] {
        couchkv::lockdep::ScopedDomain domain(
            couchkv::lockdep::Domain::kClient);
        couchkv::client::WireClient client(ports, cfg.bucket);
        for (;;) {
          uint64_t i = next.fetch_add(1);
          if (i >= cfg.keys) break;
          couchkv::bench::MustOk(client.Upsert(KeyFor(i), value),
                                 "preload upsert");
        }
      });
    }
    for (auto& t : loaders) t.join();
  }

  // Per-op latency goes through registry histograms so the emitted
  // percentiles are the same ones an operator would scrape.
  auto scope = couchkv::stats::Registry::Global().GetScope("loadgen");
  couchkv::Histogram* read_ns = scope->GetHistogram("read_ns");
  couchkv::Histogram* write_ns = scope->GetHistogram("write_ns");
  // Each op's latency split four ways from the reply's framed extras: the
  // request leg (send -> server recv return), the server's own duration,
  // the reply leg (response ready -> client recv return), and the rest,
  // which is client code (plus, open loop, the wait for the op's scheduled
  // start).
  struct Split {
    couchkv::Histogram* req_leg;
    couchkv::Histogram* server;
    couchkv::Histogram* reply_leg;
    couchkv::Histogram* client;
  };
  auto split_for = [&](const std::string& op) {
    return Split{scope->GetHistogram(op + "_req_leg_ns"),
                 scope->GetHistogram(op + "_server_ns"),
                 scope->GetHistogram(op + "_reply_leg_ns"),
                 scope->GetHistogram(op + "_client_ns")};
  };
  const Split read_split = split_for("read");
  const Split write_split = split_for("write");
  couchkv::stats::Counter* errors = scope->GetCounter("errors");
  // The wire client's reply polling (DESIGN.md "Waiting for a reply").
  auto wire_scope = couchkv::stats::Registry::Global().GetScope("wire");
  couchkv::stats::Counter* spin_hits =
      wire_scope->GetCounter("client.spin_hits");
  couchkv::stats::Counter* spin_misses =
      wire_scope->GetCounter("client.spin_misses");
  couchkv::stats::Counter* spin_ns = wire_scope->GetCounter("client.spin_ns");
  const uint64_t hits0 = spin_hits->Value();
  const uint64_t misses0 = spin_misses->Value();
  const uint64_t spin_ns0 = spin_ns->Value();

  couchkv::bench::BenchReporter reporter(cfg.name);
  Clock* clock = Clock::Real();
  const uint64_t start_ns = clock->NowNanos();
  const uint64_t end_ns =
      start_ns + static_cast<uint64_t>(cfg.duration_s * 1e9);
  // Open loop: each thread owns every threads-th slot of the global arrival
  // grid, so the aggregate rate is cfg.target_ops regardless of stragglers.
  const uint64_t interval_ns =
      cfg.target_ops > 0
          ? static_cast<uint64_t>(1e9 * cfg.threads /
                                  static_cast<double>(cfg.target_ops))
          : 0;

  std::atomic<uint64_t> total_ops{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      couchkv::lockdep::ScopedDomain domain(
          couchkv::lockdep::Domain::kClient);
      // An open-loop sleep until the op's slot would otherwise wake up to
      // the default 50 us timer slack late, and that lateness would be
      // charged to the op. The setting is this thread's own.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      couchkv::client::WireClient client(ports, cfg.bucket);
      Rng rng(cfg.seed * 1000003 + static_cast<uint64_t>(t));
      ZipfianGenerator zipf(cfg.keys);
      uint64_t issued = 0;
      for (;;) {
        uint64_t now = clock->NowNanos();
        if (now >= end_ns) break;
        uint64_t op_start = now;
        if (interval_ns > 0) {
          // The op's scheduled arrival; sleep if early, never skip if late.
          uint64_t scheduled = start_ns + t * (interval_ns / cfg.threads) +
                               issued * interval_ns;
          if (scheduled >= end_ns) break;
          if (scheduled > now) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(scheduled - now));
          }
          op_start = scheduled;
        }
        uint64_t k = cfg.zipfian ? zipf.Next(rng) : rng.Uniform(cfg.keys);
        std::string key = KeyFor(k);
        bool is_read = rng.Uniform(100) < static_cast<uint64_t>(cfg.read_pct);
        Status st = Status::OK();
        couchkv::client::ServerTiming timing;
        if (is_read) {
          auto r = client.Get(key);
          // A read of a never-written key under --no-preload is load, not
          // an error.
          st = r.ok() || r.status().IsNotFound() ? Status::OK() : r.status();
          if (r.ok()) timing = r->server;
        } else {
          couchkv::client::WriteOptions wopts;
          wopts.durability.replicate_to = cfg.replicate_to;
          wopts.durability.persist_to = cfg.persist_to;
          auto r = client.Upsert(key, value, wopts);
          st = r.ok() ? Status::OK() : r.status();
          if (r.ok()) timing = r->server;
        }
        uint64_t latency = clock->NowNanos() - op_start;
        if (!st.ok()) {
          errors->Add();
        } else {
          const Split& split = is_read ? read_split : write_split;
          const uint64_t req_leg = uint64_t{timing.request_leg_us} * 1000;
          const uint64_t server = uint64_t{timing.total_us} * 1000;
          const uint64_t reply_leg = uint64_t{timing.reply_leg_us} * 1000;
          const uint64_t wire = req_leg + server + reply_leg;
          (is_read ? read_ns : write_ns)->Record(latency);
          split.req_leg->Record(req_leg);
          split.server->Record(server);
          split.reply_leg->Record(reply_leg);
          split.client->Record(latency > wire ? latency - wire : 0);
          total_ops.fetch_add(1, std::memory_order_relaxed);
        }
        ++issued;
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed_s =
      static_cast<double>(clock->NowNanos() - start_ns) / 1e9;
  const double achieved = static_cast<double>(total_ops.load()) / elapsed_s;

  couchkv::json::Value::Object row;
  row["mode"] = couchkv::json::Value::Str(
      cfg.target_ops > 0 ? "open_loop" : "closed_loop");
  row["transport"] = couchkv::json::Value::Str("tcp");
  row["threads"] = couchkv::json::Value::Int(cfg.threads);
  row["distribution"] =
      couchkv::json::Value::Str(cfg.zipfian ? "zipfian" : "uniform");
  row["read_pct"] = couchkv::json::Value::Int(cfg.read_pct);
  row["keys"] = couchkv::json::Value::Int(static_cast<int64_t>(cfg.keys));
  row["value_size"] =
      couchkv::json::Value::Int(static_cast<int64_t>(cfg.value_size));
  row["target_ops_s"] =
      couchkv::json::Value::Int(static_cast<int64_t>(cfg.target_ops));
  row["achieved_ops_s"] = couchkv::json::Value::Number(achieved);
  row["duration_s"] = couchkv::json::Value::Number(elapsed_s);
  row["errors"] =
      couchkv::json::Value::Int(static_cast<int64_t>(errors->Value()));
  row["durability"] = couchkv::json::Value::Str(
      std::to_string(cfg.replicate_to) + "," + std::to_string(cfg.persist_to));
  // End to end from the client, then its four parts (see Split).
  for (const char* op : {"read", "write"}) {
    for (const char* part : {"", "_req_leg", "_server", "_reply_leg",
                             "_client"}) {
      const std::string field = std::string(op) + part;
      row[field] = couchkv::bench::BenchReporter::LatencySummary(
          reporter.HistDelta("loadgen." + field + "_ns"));
    }
  }
  reporter.AddRow(couchkv::json::Value::MakeObject(std::move(row)));
  if (!reporter.Write()) return 1;
  const uint64_t ops = total_ops.load() + errors->Value();
  const uint64_t hits = spin_hits->Value() - hits0;
  const uint64_t polls = hits + spin_misses->Value() - misses0;
  std::printf("loadgen: %.0f ops/s over %.2fs (%llu ops, %llu errors)\n",
              achieved, elapsed_s,
              static_cast<unsigned long long>(total_ops.load()),
              static_cast<unsigned long long>(errors->Value()));
  std::printf("loadgen: reply polls hit %.3f of %llu, %.2f us polling per "
              "op\n",
              polls > 0 ? static_cast<double>(hits) / polls : 0.0,
              static_cast<unsigned long long>(polls),
              ops > 0 ? static_cast<double>(spin_ns->Value() - spin_ns0) /
                            1e3 / static_cast<double>(ops)
                      : 0.0);
  return 0;
}
