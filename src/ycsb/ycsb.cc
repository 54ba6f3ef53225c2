#include "ycsb/ycsb.h"

#include <cstdio>
#include <thread>

#include "common/clock.h"
#include "common/lockdep.h"

namespace couchkv::ycsb {

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kRead: return "READ";
    case OpType::kUpdate: return "UPDATE";
    case OpType::kInsert: return "INSERT";
    case OpType::kScan: return "SCAN";
    case OpType::kReadModifyWrite: return "READ-MODIFY-WRITE";
  }
  return "?";
}

WorkloadConfig WorkloadConfig::A(uint64_t records) {
  WorkloadConfig c;
  c.record_count = records;
  c.read_proportion = 0.5;
  c.update_proportion = 0.5;
  c.distribution = KeyDistribution::kZipfian;
  return c;
}

WorkloadConfig WorkloadConfig::B(uint64_t records) {
  WorkloadConfig c;
  c.record_count = records;
  c.read_proportion = 0.95;
  c.update_proportion = 0.05;
  c.distribution = KeyDistribution::kZipfian;
  return c;
}

WorkloadConfig WorkloadConfig::C(uint64_t records) {
  WorkloadConfig c;
  c.record_count = records;
  c.read_proportion = 1.0;
  c.distribution = KeyDistribution::kZipfian;
  return c;
}

WorkloadConfig WorkloadConfig::D(uint64_t records) {
  WorkloadConfig c;
  c.record_count = records;
  c.read_proportion = 0.95;
  c.insert_proportion = 0.05;
  c.distribution = KeyDistribution::kLatest;
  return c;
}

WorkloadConfig WorkloadConfig::E(uint64_t records) {
  WorkloadConfig c;
  c.record_count = records;
  c.scan_proportion = 0.95;
  c.insert_proportion = 0.05;
  c.distribution = KeyDistribution::kZipfian;
  return c;
}

WorkloadConfig WorkloadConfig::F(uint64_t records) {
  WorkloadConfig c;
  c.record_count = records;
  c.read_proportion = 0.5;
  c.rmw_proportion = 0.5;
  c.distribution = KeyDistribution::kZipfian;
  return c;
}

Workload::Workload(const WorkloadConfig& config, uint64_t seed,
                   std::atomic<uint64_t>* insert_counter)
    : config_(config),
      rng_(seed),
      zipf_(config.record_count),
      insert_counter_(insert_counter) {}

std::string Workload::KeyFor(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%014llu",
                static_cast<unsigned long long>(i));
  return buf;
}

std::string Workload::GenerateValue() {
  json::Value doc = json::Value::MakeObject();
  for (size_t f = 0; f < config_.field_count; ++f) {
    std::string data(config_.field_length, ' ');
    for (char& c : data) {
      c = static_cast<char>('a' + rng_.Uniform(26));
    }
    doc["field" + std::to_string(f)] = json::Value::Str(std::move(data));
  }
  return doc.ToJson();
}

uint64_t Workload::NextKeyIndex() {
  uint64_t live = insert_counter_ != nullptr
                      ? insert_counter_->load(std::memory_order_relaxed)
                      : config_.record_count;
  if (live == 0) live = 1;
  switch (config_.distribution) {
    case KeyDistribution::kUniform:
      return rng_.Uniform(live);
    case KeyDistribution::kZipfian: {
      // Hot items scattered over the space (YCSB's scrambled zipfian).
      uint64_t v = zipf_.Next(rng_);
      return ScrambledZipfianGenerator::Fnv64(v) % live;
    }
    case KeyDistribution::kLatest: {
      // Most recent records are the hottest.
      uint64_t off = zipf_.Next(rng_) % live;
      return live - 1 - off;
    }
  }
  return 0;
}

Op Workload::Next() {
  Op op;
  double p = rng_.NextDouble();
  if (p < config_.read_proportion) {
    op.type = OpType::kRead;
  } else if (p < config_.read_proportion + config_.update_proportion) {
    op.type = OpType::kUpdate;
  } else if (p < config_.read_proportion + config_.update_proportion +
                     config_.insert_proportion) {
    op.type = OpType::kInsert;
  } else if (p < config_.read_proportion + config_.update_proportion +
                     config_.insert_proportion + config_.scan_proportion) {
    op.type = OpType::kScan;
  } else {
    op.type = OpType::kReadModifyWrite;
  }

  switch (op.type) {
    case OpType::kInsert: {
      uint64_t next = insert_counter_ != nullptr
                          ? insert_counter_->fetch_add(1)
                          : config_.record_count;
      op.key = KeyFor(next);
      op.value = GenerateValue();
      break;
    }
    case OpType::kScan:
      op.key = KeyFor(NextKeyIndex());
      op.scan_length = 1 + rng_.Uniform(config_.max_scan_length);
      break;
    case OpType::kUpdate:
    case OpType::kReadModifyWrite:
      op.key = KeyFor(NextKeyIndex());
      op.value = GenerateValue();
      break;
    case OpType::kRead:
      op.key = KeyFor(NextKeyIndex());
      break;
  }
  return op;
}

void Run(const WorkloadConfig& config, size_t threads,
         uint64_t ops_per_thread, const OpExecutor& executor,
         RunResult* result_out, uint64_t seed) {
  RunResult& result = *result_out;
  std::atomic<uint64_t> insert_counter{config.record_count};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  uint64_t start = Clock::Real()->NowNanos();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      lockdep::ScopedDomain domain(lockdep::Domain::kClient);
      Workload workload(config, seed + t * 7919, &insert_counter);
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        Op op = workload.Next();
        uint64_t t0 = Clock::Real()->NowNanos();
        Status st = executor(op);
        uint64_t dt = Clock::Real()->NowNanos() - t0;
        if (!st.ok()) failed.fetch_add(1, std::memory_order_relaxed);
        switch (op.type) {
          case OpType::kRead:
            result.read_latency.Record(dt);
            break;
          case OpType::kScan:
            result.scan_latency.Record(dt);
            break;
          default:
            result.update_latency.Record(dt);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  uint64_t elapsed = Clock::Real()->NowNanos() - start;
  result.total_ops = threads * ops_per_thread;
  result.failed_ops = failed.load();
  result.throughput_ops_sec =
      elapsed > 0
          ? static_cast<double>(result.total_ops) * 1e9 /
                static_cast<double>(elapsed)
          : 0;
}

}  // namespace couchkv::ycsb
