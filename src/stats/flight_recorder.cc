#include "stats/flight_recorder.h"

#include <algorithm>

namespace couchkv::stats {

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  LockGuard lock(mu_);
  ring_.reserve(capacity_);
  inflight_.reserve(kMaxInflight);
}

uint64_t FlightRecorder::Begin(uint8_t opcode, uint16_t vbucket,
                               uint64_t trace_id, uint64_t start_nanos) {
  LockGuard lock(mu_);
  if (inflight_.size() >= kMaxInflight) return 0;
  InflightOp op;
  op.token = next_token_++;
  op.trace_id = trace_id;
  op.start_nanos = start_nanos;
  op.vbucket = vbucket;
  op.opcode = opcode;
  inflight_.push_back(op);
  return op.token;
}

void FlightRecorder::Complete(uint64_t token, const OpRecord& r) {
  LockGuard lock(mu_);
  if (token != 0) {
    auto it = std::find_if(inflight_.begin(), inflight_.end(),
                           [&](const InflightOp& op) {
                             return op.token == token;
                           });
    if (it != inflight_.end()) inflight_.erase(it);
  }
  OpRecord stamped = r;
  stamped.seq = ++completed_total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(stamped);
  } else {
    ring_[next_slot_] = stamped;
  }
  next_slot_ = (next_slot_ + 1) % capacity_;
}

void FlightRecorder::Clear() {
  LockGuard lock(mu_);
  ring_.clear();
  next_slot_ = 0;
  inflight_.clear();
  // completed_total_ and next_token_ keep counting: seq stays monotonic
  // across a crash/boot cycle, which makes "records from before the crash"
  // visibly absent rather than renumbered.
}

std::vector<OpRecord> FlightRecorder::CompletedLocked() const {
  if (ring_.size() < capacity_) return ring_;
  // next_slot_ points at the oldest record once the ring has wrapped.
  std::vector<OpRecord> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<long>(next_slot_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<long>(next_slot_));
  return out;
}

std::vector<OpRecord> FlightRecorder::Completed() const {
  LockGuard lock(mu_);
  return CompletedLocked();
}

std::vector<FlightRecorder::InflightOp> FlightRecorder::Inflight() const {
  LockGuard lock(mu_);
  return inflight_;
}

namespace {

void AppendRecordJson(const OpRecord& r, std::string* out) {
  out->append("{\"seq\":");
  out->append(std::to_string(r.seq));
  out->append(",\"trace_id\":\"");
  out->append(std::to_string(r.trace_id));
  out->append("\",\"opcode\":");
  out->append(std::to_string(r.opcode));
  out->append(",\"vbucket\":");
  out->append(std::to_string(r.vbucket));
  out->append(",\"key_hash\":");
  out->append(std::to_string(r.key_hash));
  out->append(",\"status\":");
  out->append(std::to_string(r.status));
  out->append(",\"total_us\":");
  out->append(std::to_string(r.total_us));
  out->append(",\"dispatch_us\":");
  out->append(std::to_string(r.dispatch_us));
  out->append(",\"engine_us\":");
  out->append(std::to_string(r.engine_us));
  out->append(",\"replicate_us\":");
  out->append(std::to_string(r.replicate_us));
  out->append(",\"persist_us\":");
  out->append(std::to_string(r.persist_us));
  out->push_back('}');
}

}  // namespace

std::string FlightRecorder::ToJson(uint64_t now_nanos, size_t max_records,
                                   uint64_t trace_id_filter) const {
  std::vector<OpRecord> completed;
  std::vector<InflightOp> inflight;
  {
    // One snapshot of both lists, so no op shows in both.
    LockGuard lock(mu_);
    completed = CompletedLocked();
    inflight = inflight_;
  }
  if (trace_id_filter != 0) {
    completed.erase(std::remove_if(completed.begin(), completed.end(),
                                   [&](const OpRecord& r) {
                                     return r.trace_id != trace_id_filter;
                                   }),
                    completed.end());
    inflight.erase(std::remove_if(inflight.begin(), inflight.end(),
                                  [&](const InflightOp& op) {
                                    return op.trace_id != trace_id_filter;
                                  }),
                   inflight.end());
  }
  if (max_records > 0 && completed.size() > max_records) {
    completed.erase(completed.begin(),
                    completed.end() - static_cast<long>(max_records));
  }
  std::string out = "{\"completed\":[";
  for (size_t i = 0; i < completed.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendRecordJson(completed[i], &out);
  }
  out.append("],\"inflight\":[");
  for (size_t i = 0; i < inflight.size(); ++i) {
    const InflightOp& op = inflight[i];
    if (i > 0) out.push_back(',');
    out.append("{\"trace_id\":\"");
    out.append(std::to_string(op.trace_id));
    out.append("\",\"opcode\":");
    out.append(std::to_string(op.opcode));
    out.append(",\"vbucket\":");
    out.append(std::to_string(op.vbucket));
    out.append(",\"age_us\":");
    const uint64_t age =
        now_nanos > op.start_nanos ? (now_nanos - op.start_nanos) / 1000 : 0;
    out.append(std::to_string(age));
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

}  // namespace couchkv::stats
