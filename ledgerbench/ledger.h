// The ledger benchmark's own arithmetic, kept free of cluster code so that
// ledger_test.cc can check it by hand: percentiles and the rule for which
// of them a sample supports, span self time, failure ratios, and the check
// on a workload-E range-scan result.
#ifndef COUCHKV_LEDGERBENCH_LEDGER_H_
#define COUCHKV_LEDGERBENCH_LEDGER_H_

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ledgerbench {

// A percentile is reported only when at least this many samples lie beyond
// it; below that, one outlier more or less moves it.
inline constexpr uint64_t kMinBeyond = 10;

// Nearest-rank index of quantile `q` in `n` sorted samples: the smallest
// index i with (i + 1) / n >= q.
inline size_t RankIndex(size_t n, double q) {
  if (n == 0) throw std::invalid_argument("percentile of no samples");
  double rank = q * static_cast<double>(n);
  size_t r = static_cast<size_t>(rank);
  if (static_cast<double>(r) < rank) ++r;  // r = ceil(rank)
  return r == 0 ? 0 : std::min(r - 1, n - 1);
}

// Samples strictly beyond the nearest-rank q-quantile.
inline uint64_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, q);
}

inline bool Supports(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinBeyond;
}

// The highest of p50, p90, p99, p99.9, p99.99 that `n` samples support;
// 0 when even the median lacks kMinBeyond samples beyond it.
inline double HighestSupported(size_t n) {
  double best = 0;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (Supports(n, q)) best = q;
  }
  return best;
}

// One timed quantity: sorted samples in nanoseconds.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<uint64_t> ns) : ns_(std::move(ns)) {
    std::sort(ns_.begin(), ns_.end());
  }

  size_t count() const { return ns_.size(); }
  // Nearest-rank percentile in microseconds. Throws when the sample does
  // not support `q` (see Supports), so no caller reports a thin tail.
  double PercentileUs(double q) const {
    if (!Supports(ns_.size(), q)) {
      throw std::runtime_error(
          "p" + std::to_string(q * 100) + " needs " +
          std::to_string(kMinBeyond) + " samples beyond it, have " +
          std::to_string(ns_.size()) + " samples");
    }
    return static_cast<double>(ns_[RankIndex(ns_.size(), q)]) / 1e3;
  }
  double MeanUs() const {
    if (ns_.empty()) return 0;
    long double sum = 0;
    for (uint64_t v : ns_) sum += v;
    return static_cast<double>(sum / ns_.size()) / 1e3;
  }

 private:
  std::vector<uint64_t> ns_;
};

// Self time of a span over [start, end): its duration minus the part of
// that interval its children cover. Children may overlap each other or
// stick out of the parent; only their union inside the parent counts.
struct Interval {
  uint64_t start = 0;
  uint64_t end = 0;
};

inline uint64_t SelfTime(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.start) return 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  uint64_t covered = 0;
  uint64_t cursor = parent.start;  // everything before cursor is counted
  for (const Interval& c : children) {
    uint64_t s = std::max(c.start, cursor);
    uint64_t e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return parent.end - parent.start - covered;
}

// Failed or refused operations over operations attempted. A run that
// attempted nothing has no ratio: that is a broken run, not a clean one.
inline double FailRatio(uint64_t failed, uint64_t attempted) {
  if (attempted == 0) throw std::invalid_argument("no operations attempted");
  if (failed > attempted) throw std::invalid_argument("failed > attempted");
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

// Checks the ids a `meta().id >= key(start) LIMIT limit` scan returned.
// Keys below `preloaded` were all loaded and indexed before the run and are
// never deleted, so the part of the range inside them must come back
// exactly, in order; keys at or above it are concurrent inserts, of which
// the result may hold any increasing subset. `key_for` maps a record
// number to its key; key order equals record order.
template <typename KeyFor>
bool CheckScan(const std::vector<std::string>& ids, uint64_t start,
               uint64_t limit, uint64_t preloaded, KeyFor key_for) {
  if (ids.size() > limit) return false;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0 && !(ids[i - 1] < ids[i])) return false;
  }
  if (!ids.empty() && ids.front() < key_for(start)) return false;
  uint64_t exact = start >= preloaded ? 0 : std::min(limit, preloaded - start);
  if (ids.size() < exact) return false;
  for (uint64_t i = 0; i < exact; ++i) {
    if (ids[i] != key_for(start + i)) return false;
  }
  return true;
}

}  // namespace ledgerbench

#endif  // COUCHKV_LEDGERBENCH_LEDGER_H_
