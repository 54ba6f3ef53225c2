// The per-node local view index (paper §3.3.1, §4.3.3 "View Engine"). Rows
// are kept ordered by (emitted key, doc id) under the N1QL collation, so key
// and range lookups are tree walks. Each row remembers its vBucket so parts
// of the index can be deactivated during rebalance/failover, exactly as the
// paper describes storing vBucket information in the view B-tree.
#ifndef COUCHKV_VIEWS_VIEW_INDEX_H_
#define COUCHKV_VIEWS_VIEW_INDEX_H_

#include <array>
#include <atomic>
#include <bitset>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/types.h"
#include "common/synchronization.h"
#include "kv/doc.h"
#include "views/view.h"

namespace couchkv::views {

// Query parameters for one view lookup (paper §3.1.2).
struct ViewQueryOptions {
  std::optional<json::Value> key;            // exact-match key
  std::vector<json::Value> keys;             // multi-key lookup
  std::optional<json::Value> start_key;      // range [start, end]
  std::optional<json::Value> end_key;
  bool inclusive_end = true;
  bool descending = false;
  size_t limit = SIZE_MAX;
  size_t skip = 0;
  bool reduce = true;   // apply the view's reduce fn (if it has one)
  bool group = false;   // group rows by key before reducing
};

class ViewIndex {
 public:
  explicit ViewIndex(ViewDefinition def) : def_(std::move(def)) {}

  const ViewDefinition& definition() const { return def_; }

  // Applies a DCP mutation: removes the doc's previous row (if any), runs
  // the map function, inserts the new row.
  void ApplyMutation(const kv::Mutation& m);

  // Activates / deactivates a vBucket's rows (rebalance support). Inactive
  // rows stay in the tree but are invisible to queries.
  void SetVBucketActive(uint16_t vb, bool active);

  // Highest seqno processed per vBucket — drives stale=false waits.
  uint64_t processed_seqno(uint16_t vb) const {
    return processed_[vb].load(std::memory_order_acquire);
  }

  // Scans matching rows (active vBuckets only) in collation order.
  std::vector<ViewRow> Scan(const ViewQueryOptions& opts) const;

  size_t row_count() const;

 private:
  struct RowKey {
    json::Value key;
    std::string doc_id;
    bool operator<(const RowKey& other) const {
      int c = json::Value::Compare(key, other.key);
      if (c != 0) return c < 0;
      return doc_id < other.doc_id;
    }
  };
  struct RowValue {
    json::Value value;
    uint16_t vbucket;
  };

  void CollectRange(const json::Value* lo, const json::Value* hi,
                    bool inclusive_end, std::vector<ViewRow>* out) const
      REQUIRES_SHARED(mu_);

  ViewDefinition def_;
  mutable SharedMutex mu_{"views.index"};
  std::map<RowKey, RowValue> rows_ GUARDED_BY(mu_);
  // doc_id -> currently indexed key (to remove stale entries on update).
  std::unordered_map<std::string, json::Value> doc_keys_ GUARDED_BY(mu_);
  std::bitset<cluster::kNumVBuckets> active_vbs_ GUARDED_BY(mu_);
  std::array<std::atomic<uint64_t>, cluster::kNumVBuckets> processed_{};
};

}  // namespace couchkv::views

#endif  // COUCHKV_VIEWS_VIEW_INDEX_H_
