// Per-operation trace spans. A Span stamps an operation's phase boundaries
// (dispatch -> cache -> disk -> replication ack, etc.) against the monotonic
// clock, records total latency into an optional Histogram, and logs a phase
// breakdown for any op slower than the slow-op threshold.
//
// Spans live on the stack, hold only raw pointers and fixed arrays (no
// allocation), and all phase labels must be string literals (the span stores
// the pointers, not copies).
#ifndef COUCHKV_STATS_TRACE_H_
#define COUCHKV_STATS_TRACE_H_

#include <cstdint>

#include "common/histogram.h"

namespace couchkv::trace {

// Slow-op threshold in microseconds. Initialised once from the
// COUCHKV_SLOW_OP_US environment variable (default 100000 = 100ms);
// overridable at runtime for tests. 0 disables slow-op logging.
uint64_t SlowOpThresholdUs();
void SetSlowOpThresholdUs(uint64_t us);

// RAII installer for the calling thread's ambient trace id (the id a wire
// request's trace framed extra carries; 0 means "no trace"): what a server
// handler installs before diving into the engine so that nested spans can
// tag themselves (see Span::trace_id) without threading a parameter through
// every KV signature. Restores the previous id on destruction, so nested
// scopes (a server handler that itself issues traced calls) unwind
// correctly.
class ScopedTrace {
 public:
  explicit ScopedTrace(uint64_t trace_id);
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  ~ScopedTrace();

 private:
  uint64_t prev_;
};

class Span {
 public:
  // `op` must be a string literal (e.g. "kv.set"). `latency` may be null.
  explicit Span(const char* op, Histogram* latency = nullptr);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { Finish(); }

  // Marks the end of the phase that just ran; `name` must be a string
  // literal. At most kMaxPhases phases are kept; extras are dropped.
  void Phase(const char* name);

  // Records total latency and emits the slow-op log line if over threshold.
  // Idempotent; called by the destructor if not called explicitly.
  void Finish();

  uint64_t elapsed_nanos() const;

  // The ambient trace id captured at construction (0 = untraced). Slow-op
  // WARN lines carry it so a server-side stall can be joined to the wire
  // trace that suffered it.
  uint64_t trace_id() const { return trace_id_; }

 private:
  static constexpr int kMaxPhases = 8;

  const char* op_;
  Histogram* latency_;
  uint64_t trace_id_;
  uint64_t start_;
  uint64_t finished_ = 0;  // 0 = still open
  int num_phases_ = 0;
  const char* phase_names_[kMaxPhases];
  uint64_t phase_end_[kMaxPhases];
};

}  // namespace couchkv::trace

#endif  // COUCHKV_STATS_TRACE_H_
