// couchkv_top: a live terminal poller for a running cluster's wire
// front-ends. Each tick it asks every listed node for STAT "wire" (per-phase
// latency histograms) and OBSERVE_TRACE (the flight recorder), then prints
// one line per node:
//
//   ops/s     interval rate from the delta of the node's wire.server_ns
//             histogram count (one record per served op); "-" on the
//             first tick, which has no earlier sample
//   p50/p99   per phase (server total, dispatch, engine, replicate,
//             persist), microseconds. These are lifetime percentiles from
//             the registry histograms — the JSON exposition carries summary
//             quantiles, not buckets, so they cannot be windowed per tick.
//             "-" marks an empty histogram: replicate and persist record
//             only mutations that waited for durability.
//   slowest   the oldest currently in-flight op: its trace id, opcode, and
//             age — the thing to grab when a node looks wedged.
//
// usage: couchkv_top --connect P1[,P2...] [--interval-ms N] [--count N]
//                    [--raw]
//   --connect      wire ports to poll (one per node; couchkv_server prints
//                  them at startup)
//   --interval-ms  poll period (default 1000)
//   --count        number of ticks, 0 = until interrupted (default 0)
//   --raw          also dump each node's OBSERVE_TRACE JSON every tick
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "client/wire_client.h"
#include "common/clock.h"
#include "json/value.h"
#include "net/wire/wire.h"

namespace {

namespace wire = couchkv::net::wire;

struct Config {
  std::vector<uint16_t> ports;
  uint64_t interval_ms = 1000;
  uint64_t count = 0;  // 0 = forever
  bool raw = false;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect P1[,P2...] [--interval-ms N] [--count N] "
               "[--raw]\n",
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
        cfg.ports.push_back(
            static_cast<uint16_t>(std::atoi(list.substr(pos).c_str())));
        pos = comma + 1;
      }
    } else if (std::strcmp(argv[i], "--interval-ms") == 0) {
      cfg.interval_ms = std::strtoull(next("--interval-ms"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--count") == 0) {
      cfg.count = std::strtoull(next("--count"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--raw") == 0) {
      cfg.raw = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (cfg.ports.empty() || cfg.interval_ms == 0) Usage(argv[0]);
  return cfg;
}

// Finds the single "node.<id>.<suffix>" key in a STAT "wire" snapshot (each
// listener serves exactly one node, so exactly one node id appears).
const couchkv::json::Value* FindNodeMetric(const couchkv::json::Value& doc,
                                           const std::string& suffix,
                                           std::string* node_label) {
  if (!doc.is_object()) return nullptr;
  for (const auto& [name, v] : doc.AsObject()) {
    if (name.rfind("node.", 0) != 0) continue;
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    if (node_label != nullptr) {
      // "node.3.wire.server_ns" -> "3"
      size_t dot = name.find('.', 5);
      *node_label = dot == std::string::npos ? "?" : name.substr(5, dot - 5);
    }
    return &v;
  }
  return nullptr;
}

struct PhaseQuantiles {
  double p50 = 0;
  double p99 = 0;
  bool present = false;
};

PhaseQuantiles Quantiles(const couchkv::json::Value& doc,
                         const std::string& phase) {
  PhaseQuantiles q;
  const couchkv::json::Value* h =
      FindNodeMetric(doc, ".wire." + phase + "_ns", nullptr);
  if (h == nullptr || !h->is_object()) return q;
  if (!h->Field("count").is_number() || h->Field("count").AsInt() == 0) {
    return q;
  }
  if (h->Field("p50_us").is_number()) q.p50 = h->Field("p50_us").AsNumber();
  if (h->Field("p99_us").is_number()) q.p99 = h->Field("p99_us").AsNumber();
  q.present = true;
  return q;
}

struct SlowestInflight {
  uint64_t age_us = 0;
  uint64_t trace_id = 0;
  int opcode = -1;
};

SlowestInflight ParseSlowest(const couchkv::json::Value& trace_doc) {
  SlowestInflight s;
  const couchkv::json::Value& inflight = trace_doc.Field("inflight");
  if (!inflight.is_array()) return s;
  for (const couchkv::json::Value& op : inflight.AsArray()) {
    uint64_t age = op.Field("age_us").is_number()
                       ? static_cast<uint64_t>(op.Field("age_us").AsInt())
                       : 0;
    if (age < s.age_us && s.opcode >= 0) continue;
    s.age_us = age;
    s.opcode = op.Field("opcode").is_number()
                   ? static_cast<int>(op.Field("opcode").AsInt())
                   : -1;
    s.trace_id = op.Field("trace_id").is_string()
                     ? std::strtoull(op.Field("trace_id").AsString().c_str(),
                                     nullptr, 10)
                     : 0;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg = ParseArgs(argc, argv);
  couchkv::Clock* clock = couchkv::Clock::Real();

  // port -> (last served-op count, last sample nanos) for interval rates.
  std::map<uint16_t, std::pair<uint64_t, uint64_t>> last_ops;

  std::printf("%-6s %-6s %9s  %17s %17s %17s %17s %17s  %s\n", "node",
              "port", "ops/s", "total p50/p99us", "dispatch", "engine",
              "replicate", "persist", "slowest in-flight");
  for (uint64_t tick = 0; cfg.count == 0 || tick < cfg.count; ++tick) {
    if (tick > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(cfg.interval_ms));
    }
    for (uint16_t port : cfg.ports) {
      wire::Message stat_req = wire::Message::Req(wire::Opcode::kStat);
      stat_req.key = "wire";
      auto stat_resp = couchkv::client::RawRoundTrip(port, stat_req);
      if (!stat_resp.ok() || stat_resp->status != wire::kSuccess) {
        std::printf("%-6s %-6u %9s  (unreachable: %s)\n", "?", port, "-",
                    stat_resp.ok()
                        ? stat_resp->value.c_str()
                        : stat_resp.status().ToString().c_str());
        continue;
      }
      auto stat_doc = couchkv::json::Parse(stat_resp->value);
      if (!stat_doc.ok()) {
        std::printf("%-6s %-6u %9s  (bad stats json)\n", "?", port, "-");
        continue;
      }
      const uint64_t now = clock->NowNanos();
      std::string node_label = "?";
      const couchkv::json::Value* server =
          FindNodeMetric(*stat_doc, ".wire.server_ns", &node_label);
      // "-" until an earlier sample exists: a first tick has no interval.
      char rate[32] = "-";
      if (server != nullptr && server->Field("count").is_number()) {
        uint64_t v = static_cast<uint64_t>(server->Field("count").AsInt());
        auto it = last_ops.find(port);
        if (it != last_ops.end() && now > it->second.second &&
            v >= it->second.first) {
          std::snprintf(rate, sizeof(rate), "%.0f",
                        static_cast<double>(v - it->second.first) * 1e9 /
                            static_cast<double>(now - it->second.second));
        }
        last_ops[port] = {v, now};
      }

      char cols[5][32];
      const char* phases[5] = {"server", "dispatch", "engine", "replicate",
                               "persist"};
      for (int p = 0; p < 5; ++p) {
        PhaseQuantiles q = Quantiles(*stat_doc, phases[p]);
        if (q.present) {
          std::snprintf(cols[p], sizeof(cols[p]), "%.0f/%.0f", q.p50, q.p99);
        } else {
          std::snprintf(cols[p], sizeof(cols[p]), "-");
        }
      }

      wire::Message trace_req = wire::Message::Req(wire::Opcode::kObserveTrace);
      auto trace_resp = couchkv::client::RawRoundTrip(port, trace_req);
      char slowest[96];
      std::snprintf(slowest, sizeof(slowest), "-");
      std::string raw_dump;
      if (trace_resp.ok() && trace_resp->status == wire::kSuccess) {
        raw_dump = trace_resp->value;
        auto trace_doc = couchkv::json::Parse(trace_resp->value);
        if (trace_doc.ok()) {
          SlowestInflight s = ParseSlowest(*trace_doc);
          if (s.opcode >= 0) {
            std::snprintf(slowest, sizeof(slowest),
                          "%s age=%" PRIu64 "us trace=%" PRIu64,
                          wire::OpcodeName(static_cast<uint8_t>(s.opcode)),
                          s.age_us, s.trace_id);
          }
        }
      }

      std::printf("%-6s %-6u %9s  %17s %17s %17s %17s %17s  %s\n",
                  node_label.c_str(), port, rate, cols[0], cols[1], cols[2],
                  cols[3], cols[4], slowest);
      if (cfg.raw && !raw_dump.empty()) {
        std::printf("  raw[%u]: %s\n", port, raw_dump.c_str());
      }
    }
    std::fflush(stdout);
  }
  return 0;
}
