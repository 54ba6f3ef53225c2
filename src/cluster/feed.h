// One named DCP consumer of one bucket (paper §4.3.2): the single path
// through which GSI, views, FTS, analytics and XDCR attach to the change
// stream.
//
// A Feed opens a stream on every active vBucket of every healthy data node,
// is re-wired by the Cluster whenever the bucket's map changes, and removes
// its streams on every node when closed. The consumer supplies:
//   bind(node, map)    run once per healthy data node per wire; returns the
//                      node's delivery callable, which its streams run as is
//                      (the feed adds no wrapper, lock or atomic per
//                      mutation);
//   progress(node, vb) the consumer's applied seqno: the stream's resume
//                      point and what WaitCaughtUp compares against.
// Both run under the feed's mutex during a wire; WaitCaughtUp also calls
// progress, without it.
#ifndef COUCHKV_CLUSTER_FEED_H_
#define COUCHKV_CLUSTER_FEED_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "cluster/types.h"
#include "cluster/vbucket_map.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "dcp/dcp.h"

namespace couchkv::cluster {

class Cluster;

class Feed {
 public:
  using BindFn =
      std::function<dcp::MutationFn(NodeId node, const ClusterMap& map)>;
  using ProgressFn = std::function<uint64_t(NodeId node, uint16_t vb)>;

  // Registers the feed with `cluster` and opens its streams. `name` names
  // the streams and must be unique among the bucket's consumers.
  static std::shared_ptr<Feed> Open(Cluster* cluster, std::string bucket,
                                    std::string name, BindFn bind,
                                    ProgressFn progress);

  ~Feed() { Close(); }

  // Removes the streams on every node. A barrier: waits for an in-flight
  // wire, and once it returns no stream delivers and no wire runs again.
  void Close() EXCLUDES(mu_);

  // The request_plus / stale=false barrier (§3.2.3): captures each active
  // vBucket's high seqno at entry, then waits until progress reaches it.
  // NotFound once the feed is closed.
  Status WaitCaughtUp(uint64_t timeout_ms) const;

  // Producer::Backlog of this feed's streams, summed over healthy nodes.
  uint64_t Backlog() const;

  const std::string& bucket() const { return bucket_; }

 private:
  friend class Cluster;  // re-wires on map changes, closes on shutdown

  Feed(Cluster* cluster, std::string bucket, std::string name, BindFn bind,
       ProgressFn progress)
      : cluster_(cluster),
        bucket_(std::move(bucket)),
        name_(std::move(name)),
        bind_(std::move(bind)),
        progress_(std::move(progress)) {}

  // Re-opens the streams per the bucket's current map; no-op once closed.
  void Wire() EXCLUDES(mu_);

  Cluster* const cluster_;
  const std::string bucket_;
  const std::string name_;
  const BindFn bind_;
  const ProgressFn progress_;

  Mutex mu_{"cluster.feed"};  // held across a whole wire or close
  // Written under mu_; WaitCaughtUp polls it without the lock.
  std::atomic<bool> closed_{false};
};

// A consumer's state and its feed, as a service keeps them. The feed's
// callables share the state, so a re-wire in flight never outlives it.
template <typename State>
struct Consumer {
  std::shared_ptr<State> state;
  std::shared_ptr<Feed> feed;
};

}  // namespace couchkv::cluster

#endif  // COUCHKV_CLUSTER_FEED_H_
