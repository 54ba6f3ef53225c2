#include "common/histogram.h"

#include <cmath>
#include <cstdio>

#include "common/clock.h"

namespace couchkv {

namespace {
// 16 sub-buckets per power of two: bucket = 16*log2(v) + sub.
constexpr int kSubBucketBits = 4;
constexpr int kSubBuckets = 1 << kSubBucketBits;
}  // namespace

int Histogram::BucketFor(uint64_t nanos) {
  if (nanos < kSubBuckets) return static_cast<int>(nanos);
  int log2 = 63 - __builtin_clzll(nanos);
  int sub = static_cast<int>((nanos >> (log2 - kSubBucketBits)) - kSubBuckets);
  int idx = ((log2 - kSubBucketBits + 1) << kSubBucketBits) + sub;
  return idx < kNumBuckets ? idx : kNumBuckets - 1;
}

uint64_t Histogram::BucketLow(int idx) {
  if (idx < kSubBuckets) return static_cast<uint64_t>(idx);
  int log2 = (idx >> kSubBucketBits) + kSubBucketBits - 1;
  int sub = idx & (kSubBuckets - 1);
  return (1ULL << log2) +
         (static_cast<uint64_t>(sub) << (log2 - kSubBucketBits));
}

void Histogram::Record(uint64_t nanos) {
  buckets_[BucketFor(nanos)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(nanos, std::memory_order_relaxed);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i].fetch_add(other.buckets_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  // count is the sum of the bucket copy, so it always agrees with the
  // buckets Percentile() walks.
  for (int i = 0; i < kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

double HistogramSnapshot::Mean() const {
  return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
}

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  auto target = static_cast<uint64_t>(q * static_cast<double>(count));
  if (target >= count) target = count - 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    uint64_t n = buckets[i];
    if (seen + n > target) {
      uint64_t low = Histogram::BucketLow(i);
      uint64_t high =
          (i + 1 < kNumBuckets) ? Histogram::BucketLow(i + 1) : low * 2;
      // Single-bucket distributions: every sample shares this bucket, so
      // interpolating across the full bucket span would report a spread
      // that does not exist. Rank-interpolate only among this bucket's own
      // samples, which collapses to `low` when the bucket holds them all.
      double frac =
          static_cast<double>(target - seen) / static_cast<double>(n);
      if (n == count) frac = 0.0;
      return low +
             static_cast<uint64_t>(frac * static_cast<double>(high - low));
    }
    seen += n;
  }
  return Histogram::BucketLow(kNumBuckets - 1);
}

std::string HistogramSnapshot::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1fus p50=%.1fus p95=%.1fus p99=%.1fus",
                static_cast<unsigned long long>(count), Mean() / 1e3,
                static_cast<double>(Percentile(0.50)) / 1e3,
                static_cast<double>(Percentile(0.95)) / 1e3,
                static_cast<double>(Percentile(0.99)) / 1e3);
  return buf;
}

void HistogramSnapshot::Subtract(const HistogramSnapshot& earlier) {
  count = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets[i] = buckets[i] >= earlier.buckets[i]
                     ? buckets[i] - earlier.buckets[i]
                     : 0;
    count += buckets[i];
  }
  sum = sum >= earlier.sum ? sum - earlier.sum : 0;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

ScopedTimer::ScopedTimer(Histogram* h)
    : h_(h), start_(Clock::Real()->NowNanos()) {}

ScopedTimer::~ScopedTimer() { h_->Record(Clock::Real()->NowNanos() - start_); }

}  // namespace couchkv
