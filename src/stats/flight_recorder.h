// A per-node flight recorder: a fixed-size ring of the last N completed wire
// operations (opcode, vbucket, key hash, status, total + per-phase micros,
// trace id) plus a small table of in-flight ops. It answers the question a
// latency histogram cannot: "what exactly were the last ops this node
// served, and where did each one spend its time?" — fetched over the wire by
// OBSERVE_TRACE, appended to torture-failure reports, and dumped alongside
// slow-op WARN logs.
//
// Lock discipline: one Mutex, taken twice per op (Begin, Complete) and
// held only for tiny fixed-size copies (no allocation, no I/O under the
// lock). Complete moves an op from the in-flight table to the ring in one
// critical section and a dump copies both under one lock, so a dump shows
// every op in at most one list. All durations are supplied by the caller
// from the node's Clock, so a ManualClock test gets bit-identical records
// run after run.
#ifndef COUCHKV_STATS_FLIGHT_RECORDER_H_
#define COUCHKV_STATS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/synchronization.h"

namespace couchkv::stats {

// One completed operation. `seq` is the recorder's own completion index
// (monotonic from 1), assigned under the lock so dump order is total.
struct OpRecord {
  uint64_t seq = 0;
  uint64_t trace_id = 0;
  uint64_t start_nanos = 0;  // node-clock stamp when the op was received
  uint32_t key_hash = 0;     // CRC32 of the key (never the key itself)
  uint32_t total_us = 0;
  uint32_t dispatch_us = 0;
  uint32_t engine_us = 0;
  uint32_t replicate_us = 0;
  uint32_t persist_us = 0;
  uint16_t vbucket = 0;
  uint16_t status = 0;  // wire status
  uint8_t opcode = 0;
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;
  static constexpr size_t kMaxInflight = 64;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Registers an op as in flight; returns a nonzero token for Complete, or
  // 0 when the in-flight table is full (the op is simply not tracked while
  // running — it still gets its completion record).
  uint64_t Begin(uint8_t opcode, uint16_t vbucket, uint64_t trace_id,
                 uint64_t start_nanos);

  // Releases the op's in-flight slot (token 0: none) and appends its
  // completed record (stamping r.seq), in one critical section. The oldest
  // record falls off once the ring is full.
  void Complete(uint64_t token, const OpRecord& r);

  // Forgets everything — a crashed process would have lost its recorder.
  void Clear();

  // Completed records, oldest first.
  std::vector<OpRecord> Completed() const;

  struct InflightOp {
    uint64_t token = 0;
    uint64_t trace_id = 0;
    uint64_t start_nanos = 0;
    uint16_t vbucket = 0;
    uint8_t opcode = 0;
  };
  // Ops currently between Begin and Complete, oldest first.
  std::vector<InflightOp> Inflight() const;

  // JSON dump: {"completed":[...],"inflight":[...]} with numeric opcodes,
  // per-phase micros, and trace ids as decimal strings (u64 does not fit a
  // JSON double). `now_nanos` computes in-flight ages; `max_records` > 0
  // limits the completed list to the newest N; `trace_id_filter` != 0 keeps
  // only entries belonging to that trace.
  std::string ToJson(uint64_t now_nanos, size_t max_records = 0,
                     uint64_t trace_id_filter = 0) const;

  size_t capacity() const { return capacity_; }

 private:
  std::vector<OpRecord> CompletedLocked() const REQUIRES(mu_);

  const size_t capacity_;

  mutable Mutex mu_{"stats.flight_recorder"};
  std::vector<OpRecord> ring_ GUARDED_BY(mu_);  // size capacity_, circular
  size_t next_slot_ GUARDED_BY(mu_) = 0;
  uint64_t completed_total_ GUARDED_BY(mu_) = 0;
  uint64_t next_token_ GUARDED_BY(mu_) = 1;
  std::vector<InflightOp> inflight_ GUARDED_BY(mu_);
};

}  // namespace couchkv::stats

#endif  // COUCHKV_STATS_FLIGHT_RECORDER_H_
