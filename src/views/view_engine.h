// The distributed view engine (paper Figure 8): local indexes co-located
// with the data on every node, fed by DCP, queried with scatter/gather and
// per-query staleness control (stale=false / ok / update_after).
#ifndef COUCHKV_VIEWS_VIEW_ENGINE_H_
#define COUCHKV_VIEWS_VIEW_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/feed.h"
#include "common/synchronization.h"
#include "stats/registry.h"
#include "views/view_index.h"

namespace couchkv::views {

// The `stale` parameter of a view query (paper §3.1.2).
enum class Staleness {
  kOk,           // serve whatever is indexed right now
  kUpdateAfter,  // serve current entries, then trigger an index update
  kFalse,        // wait for the indexer to catch up to now, then serve
};

struct ViewResult {
  // For map-only (or reduce=false) queries: the matching rows.
  // For reduced queries: one row per group (key = group key, value =
  // aggregate); ungrouped reduces produce a single row with null key.
  std::vector<ViewRow> rows;
};

class ViewEngine {
 public:
  explicit ViewEngine(cluster::Cluster* cluster) : cluster_(cluster) {
    stats_scope_ = stats::Registry::Global().GetScope("views");
    queries_ = stats_scope_->GetCounter("queries");
    query_ns_ = stats_scope_->GetHistogram("query_ns");
  }

  // No-op: each view's feed follows topology changes by itself. Kept
  // while ledgerbench/main.cc still calls it.
  void Attach() {}

  // Defines a view on `bucket`; materialization begins immediately on every
  // data node via DCP (initial build backfills from storage).
  Status CreateView(const std::string& bucket, ViewDefinition def);
  Status DropView(const std::string& bucket, const std::string& view);

  // Scatter/gather query across all nodes (paper: "Queries are sent to a
  // randomly selected server ... sends the request to the other relevant
  // servers ... and then aggregates their results").
  StatusOr<ViewResult> Query(const std::string& bucket,
                             const std::string& view,
                             const ViewQueryOptions& opts,
                             Staleness stale = Staleness::kUpdateAfter);

 private:
  struct ViewState {
    ViewDefinition def;
    mutable Mutex mu{"views.view"};
    // One local index per data node, created by the feed's bind step.
    std::map<cluster::NodeId, std::shared_ptr<ViewIndex>> indexes
        GUARDED_BY(mu);

    // The node's local index, created on first use.
    std::shared_ptr<ViewIndex> IndexOn(cluster::NodeId node) EXCLUDES(mu);
  };
  // Shared, so a query keeps the state it found across a DropView.
  using Entry = cluster::Consumer<ViewState>;

  cluster::Cluster* cluster_;

  // Scope "views": scatter/gather query volume and latency.
  std::shared_ptr<stats::Scope> stats_scope_;
  stats::Counter* queries_ = nullptr;
  Histogram* query_ns_ = nullptr;

  mutable Mutex mu_{"views.engine"};
  // bucket -> view name -> entry
  std::map<std::string, std::map<std::string, Entry>> views_ GUARDED_BY(mu_);
};

}  // namespace couchkv::views

#endif  // COUCHKV_VIEWS_VIEW_ENGINE_H_
