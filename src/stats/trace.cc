#include "stats/trace.h"

#include <atomic>
#include <cstdlib>
#include <sstream>

#include "common/clock.h"
#include "common/logging.h"

namespace couchkv::trace {

namespace {

std::atomic<uint64_t> g_slow_op_threshold_us{[] {
  const char* env = std::getenv("COUCHKV_SLOW_OP_US");
  if (env != nullptr) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env) return static_cast<uint64_t>(v);
  }
  return static_cast<uint64_t>(100'000);  // 100ms
}()};

thread_local uint64_t t_current_trace_id = 0;

}  // namespace

ScopedTrace::ScopedTrace(uint64_t trace_id) : prev_(t_current_trace_id) {
  t_current_trace_id = trace_id;
}

ScopedTrace::~ScopedTrace() { t_current_trace_id = prev_; }

uint64_t SlowOpThresholdUs() {
  return g_slow_op_threshold_us.load(std::memory_order_relaxed);
}

void SetSlowOpThresholdUs(uint64_t us) {
  g_slow_op_threshold_us.store(us, std::memory_order_relaxed);
}

Span::Span(const char* op, Histogram* latency)
    : op_(op),
      latency_(latency),
      trace_id_(t_current_trace_id),
      start_(Clock::Real()->NowNanos()) {}

void Span::Phase(const char* name) {
  if (num_phases_ >= kMaxPhases) return;
  phase_names_[num_phases_] = name;
  phase_end_[num_phases_] = Clock::Real()->NowNanos();
  ++num_phases_;
}

uint64_t Span::elapsed_nanos() const {
  uint64_t end = finished_ ? finished_ : Clock::Real()->NowNanos();
  return end - start_;
}

void Span::Finish() {
  if (finished_) return;
  finished_ = Clock::Real()->NowNanos();
  uint64_t total = finished_ - start_;
  if (latency_ != nullptr) latency_->Record(total);
  uint64_t threshold_us = SlowOpThresholdUs();
  if (threshold_us != 0 && total >= threshold_us * 1000 &&
      COUCHKV_LOG_ENABLED(kWarn)) {
    std::ostringstream msg;
    msg << "slow op " << op_ << " took " << total / 1000 << "us (threshold "
        << threshold_us << "us)";
    if (trace_id_ != 0) {
      msg << " trace=" << trace_id_;
    }
    uint64_t prev = start_;
    for (int i = 0; i < num_phases_; ++i) {
      msg << " " << phase_names_[i] << "=" << (phase_end_[i] - prev) / 1000
          << "us";
      prev = phase_end_[i];
    }
    if (prev != finished_) msg << " rest=" << (finished_ - prev) / 1000 << "us";
    LOG_WARN << msg.str();
  }
}

}  // namespace couchkv::trace
