// Log-bucketed latency histogram, promoted out of bench-only use: the stats
// registry records per-operation latencies into Histograms on hot paths
// (lock-free relaxed adds) and exposes them via Snapshot().
#ifndef COUCHKV_COMMON_HISTOGRAM_H_
#define COUCHKV_COMMON_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace couchkv {

class Histogram;

// A plain, copyable point-in-time copy of a Histogram, safe to ship across
// threads and subtract for interval (delta) reporting. `count` is always the
// sum of `buckets`, so percentile math is internally consistent even when
// the snapshot was taken while writers were recording.
struct HistogramSnapshot {
  static constexpr int kNumBuckets = 512;

  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;  // of recorded nanosecond values (approximate under load)

  double Mean() const;
  // Value at quantile q (clamped to [0,1]); linear interpolation within a
  // bucket. Returns 0 for an empty snapshot.
  uint64_t Percentile(double q) const;

  // "count=... mean=...us p50=...us p95=...us p99=...us"
  std::string Summary() const;

  // Subtracts an earlier snapshot of the same histogram, leaving the
  // interval between the two (bucket-wise, clamped at zero).
  void Subtract(const HistogramSnapshot& earlier);

  void Merge(const HistogramSnapshot& other);
};

// Thread-safe histogram of nanosecond values. Buckets grow geometrically
// (~4% relative error), covering 1ns .. ~18s. Record() is two relaxed
// atomic adds (bucket, sum) — no locks, no allocation — so it is safe on hot
// paths; the count is the sum of the buckets.
class Histogram {
 public:
  static constexpr int kNumBuckets = HistogramSnapshot::kNumBuckets;

  Histogram() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  void Record(uint64_t nanos);
  void Merge(const Histogram& other);
  void Reset();

  // Consistent copy for exposition; see HistogramSnapshot.
  HistogramSnapshot Snapshot() const;

  // The sum of the buckets (a walk of all of them; not for hot paths).
  uint64_t count() const { return Snapshot().count; }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const { return Snapshot().Mean(); }
  uint64_t Percentile(double q) const { return Snapshot().Percentile(q); }
  std::string Summary() const { return Snapshot().Summary(); }

  // Bucket geometry, shared with HistogramSnapshot (exposed for tests).
  static int BucketFor(uint64_t nanos);
  static uint64_t BucketLow(int idx);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_;
  std::atomic<uint64_t> sum_{0};
};

// RAII timer recording elapsed wall time into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h);
  ~ScopedTimer();

 private:
  Histogram* h_;
  uint64_t start_;
};

}  // namespace couchkv

#endif  // COUCHKV_COMMON_HISTOGRAM_H_
