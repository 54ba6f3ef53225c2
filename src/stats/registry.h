// Process-wide observability registry (paper §3.1.2: the cluster manager and
// admin UI continuously poll per-node memcached STATS to drive rebalance,
// compaction, and ejection decisions; this is that monitoring channel).
//
// Shape: the Registry indexes named Scopes ("node.0", "node.0.bucket.b",
// "transport", "n1ql", ...). A Scope owns named Counters, Gauges, and
// Histograms. Components resolve their metrics ONCE at construction (under
// the scope's mutex) and keep raw pointers; every hot-path update is then a
// single relaxed atomic add — no locks, no allocation, no lookup.
//
// Lifecycle: a Scope is kept alive by shared_ptr. Dropping a scope from the
// registry (bucket deleted, node crashed) removes it from exposition, while
// in-flight operations still holding the scope keep the metric storage valid
// until they let go.
#ifndef COUCHKV_STATS_REGISTRY_H_
#define COUCHKV_STATS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/synchronization.h"

namespace couchkv::stats {

// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Point-in-time level (queue depth, memory, backlog); may go down.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// One scraped metric value. Histograms carry a full snapshot so percentiles
// can be computed (and deltas subtracted) downstream.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  HistogramSnapshot hist;
};

// Scraped metrics: full dotted name ("<scope>.<metric>") -> value. std::map
// keeps exposition deterministic.
using Snapshot = std::map<std::string, MetricValue>;

// A named group of metrics. Create via Registry::GetScope for registered
// (scraped) scopes, or construct standalone for tests / private use.
class Scope {
 public:
  explicit Scope(std::string name) : name_(std::move(name)) {}

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  const std::string& name() const { return name_; }

  // Create-on-first-use; the returned pointer stays valid for the scope's
  // lifetime. Call once at setup, not per operation.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Appends this scope's metrics to `out` as "<scope>.<metric>". When
  // `group` is non-empty, only metrics matching it are included (see
  // MatchesGroup).
  void Collect(Snapshot* out, std::string_view group = {}) const;

 private:
  const std::string name_;
  mutable Mutex mu_{"stats.scope"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry every component registers with.
  static Registry& Global();

  // Returns the named scope, creating (and registering) it if absent.
  std::shared_ptr<Scope> GetScope(const std::string& name);
  // Removes the scope from exposition. Holders of the shared_ptr keep the
  // metric storage alive; a re-created scope starts from zero.
  void DropScope(const std::string& name);
  bool HasScope(const std::string& name) const;

  // Scrapes every registered scope (optionally group-filtered).
  Snapshot Collect(std::string_view group = {}) const;

  // Compact human-readable "name=value" dump of Collect(), histograms as
  // their Summary() line. Zero-valued counters are omitted for brevity.
  std::string DebugString(std::string_view group = {}) const;

 private:
  mutable Mutex mu_{"stats.registry"};
  std::map<std::string, std::shared_ptr<Scope>> scopes_ GUARDED_BY(mu_);
};

// True when `name` belongs to stats group `group`: the group appears as a
// leading dot-separated segment sequence somewhere in the name. Examples:
// MatchesGroup("node.0.bucket.b.kv.ops_get", "kv") and
// MatchesGroup("transport.node.0.delivered", "transport") are both true.
bool MatchesGroup(std::string_view name, std::string_view group);

// Interval between two scrapes: counters and histograms subtract (clamped at
// zero), gauges keep their `after` value. Metrics only present in `after`
// (scope created mid-interval) pass through unchanged.
Snapshot Delta(const Snapshot& before, const Snapshot& after);

// --- Exposition ---
// One flat JSON object; histograms become {"count":..,"sum":..,"mean_us":..,
// "p50_us":..,"p95_us":..,"p99_us":..} sub-objects.
std::string ToJson(const Snapshot& snapshot);
// Prometheus text format: counters/gauges as-is, histograms as summaries
// with quantile labels. Dots in metric names become underscores, prefixed
// "couchkv_".
std::string ToPrometheusText(const Snapshot& snapshot);
// The DebugString formatting for an already-scraped snapshot.
std::string DebugString(const Snapshot& snapshot, bool skip_zero = true);

}  // namespace couchkv::stats

#endif  // COUCHKV_STATS_REGISTRY_H_
