// Database Change Protocol (paper §4.3.2): the in-memory stream of document
// mutations that every derived component — intra-cluster replication, the
// view engine, the GSI projector, XDCR — consumes. "DCP lies at the heart of
// Couchbase Server and supports its memory-first architecture by decoupling
// potential I/O bottlenecks from many critical functions."
//
// Model: the data service owns one Producer per bucket per node. Each
// mutation is appended to the per-vBucket ChangeLog. Consumers open Streams
// (per vBucket, from a start seqno); a dispatcher thread pumps the producer,
// delivering mutations to stream callbacks in seqno order. If a stream
// starts below the log's in-memory window, the gap is backfilled from the
// storage engine through a caller-supplied BackfillFn.
#ifndef COUCHKV_DCP_DCP_H_
#define COUCHKV_DCP_DCP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/lockdep.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "kv/doc.h"
#include "stats/registry.h"

namespace couchkv::dcp {

// Registry-backed counters for one producer (one bucket on one node).
// Optional: producers constructed without them (tests) skip the reporting.
struct DcpCounters {
  stats::Counter* items_appended = nullptr;   // mutations entering ChangeLogs
  stats::Counter* items_delivered = nullptr;  // successful stream deliveries
  stats::Counter* backfill_items = nullptr;   // of those, served from storage
  // Key + value bytes held by the bucket's ChangeLogs (a value shared with
  // the hash table counts in full).
  stats::Gauge* changelog_bytes = nullptr;

  // Resolves the "dcp.*" counters in `scope`.
  static DcpCounters In(stats::Scope* scope);
};

// Callback receiving mutations for one stream. Runs on the pumping thread.
// Returning non-OK stalls the stream: the mutation is NOT considered
// delivered and will be retried on a later pump. This is how consumers on
// the far side of a faulty net::Transport link get at-least-once delivery —
// a dropped message never silently advances the stream past it.
using MutationFn = std::function<Status(const kv::Mutation&)>;

// Reads mutations with seqno in (since, upto] for a vBucket from storage and
// feeds them to `fn` in seqno order. Supplied by the data service.
using BackfillFn = std::function<Status(
    uint16_t vbucket, uint64_t since, const MutationFn& fn)>;

// In-memory, bounded window of recent mutations for one vBucket. Entries
// share their value buffers with the hash table and the flush queue; an
// entry keeps its reference until it is trimmed.
class ChangeLog {
 public:
  static constexpr size_t kDefaultMaxItems = 1 << 16;

  // `bytes`, when given, tracks Σ(key + value size) of the entries held.
  explicit ChangeLog(size_t max_items = kDefaultMaxItems,
                     stats::Gauge* bytes = nullptr)
      : max_items_(max_items), bytes_(bytes) {}

  // Appends a mutation; must be called with monotonically increasing seqnos
  // (the vBucket serializes its front-end ops, which guarantees this).
  void Append(kv::Document doc);

  // Copies mutations with seqno > since (up to `max`) into out; the copies
  // share the logged value buffers. Returns the first seqno present in the
  // log, so callers can detect a trimmed gap.
  uint64_t ReadSince(uint64_t since, size_t max,
                     std::vector<kv::Document>* out) const;

  // Drops every entry and the high seqno (a vBucket rolled back in place
  // reuses its seqnos from 1).
  void Clear();

  uint64_t high_seqno() const;
  uint64_t start_seqno() const;  // lowest seqno still in the window
  size_t size() const;

 private:
  uint64_t StartSeqno() const REQUIRES(mu_) {
    return items_.empty() ? high_seqno_ + 1 : items_.front().meta.seqno;
  }

  static int64_t Bytes(const kv::Document& doc) {
    return static_cast<int64_t>(doc.key.size() + doc.value.size());
  }

  mutable Mutex mu_{"dcp.changelog"};
  std::deque<kv::Document> items_ GUARDED_BY(mu_);
  uint64_t high_seqno_ GUARDED_BY(mu_) = 0;
  size_t max_items_;
  stats::Gauge* bytes_;  // null = not tracked
};

// One bucket's change feed on one node.
class Producer {
 public:
  // `num_vbuckets` logical partitions; `backfill` may be null if streams
  // always start at the current seqno. `counters`, when given, must outlive
  // the producer (the bucket's stats scope keeps it alive).
  Producer(uint16_t num_vbuckets, BackfillFn backfill,
           const DcpCounters* counters = nullptr);

  // Appends a mutation for vb (called by the data service on every write,
  // while holding the vBucket's op lock).
  void OnMutation(uint16_t vbucket, kv::Document doc);

  // Empties vb's change log (the vBucket was rolled back in place).
  void ResetLog(uint16_t vbucket);

  // Opens a stream delivering mutations with seqno > from_seqno for one
  // vBucket. `name` identifies the consumer in stats. Returns a stream id.
  StatusOr<uint64_t> AddStream(const std::string& name, uint16_t vbucket,
                               uint64_t from_seqno, MutationFn fn);

  // Stream removal is a barrier: on return no delivery callback for the
  // removed stream(s) is running or will run again, so callers may free
  // state the callbacks capture (e.g. when crashing a node).
  void RemoveStream(uint64_t stream_id);
  // Removes every stream whose name matches (used when an index is dropped).
  void RemoveStreamsNamed(const std::string& name);

  // Delivers pending mutations to all streams; returns true if any mutation
  // was successfully delivered (i.e. call again). A stream whose callback
  // fails stalls without counting as progress, so pump loops terminate even
  // while a link is partitioned. Thread-safe, but normally driven by a
  // single dispatcher thread.
  bool PumpOnce(size_t batch_per_stream = 256);

  // Pumps until no stream makes progress (all caught up or stalled).
  void Drain();

  // Lowest acknowledged seqno across streams of `name` for `vbucket`
  // (UINT64_MAX when that consumer has no stream there).
  uint64_t StreamSeqno(const std::string& name, uint16_t vbucket) const;

  uint64_t high_seqno(uint16_t vbucket) const;
  uint16_t num_vbuckets() const { return num_vbuckets_; }

  // Undelivered items, Σ (high seqno − acked), over the streams named
  // `name`, or over every open stream when `name` is empty: the paper's DCP
  // backlog stat, how far consumers (replicas, views, GSI, XDCR) trail the
  // data service. One pass under the stream-map lock.
  uint64_t Backlog(std::string_view name = {}) const;

 private:
  struct Stream {
    // id/name/vbucket/fn are set before the stream is published into
    // streams_ and immutable afterwards.
    uint64_t id = 0;
    std::string name;
    uint16_t vbucket = 0;
    MutationFn fn;
    // First seqno not yet delivered. Atomic because pumpers advance it under
    // delivery_mu while StreamSeqno/Backlog read it under the map lock
    // mu_ — two different capabilities, so neither mutex alone orders the
    // accesses.
    std::atomic<uint64_t> next_seqno{1};
    // Serializes delivery: the dispatcher thread and synchronous pumpers
    // (Quiesce, rebalance movers) may call PumpOnce concurrently.
    Mutex delivery_mu{"dcp.stream_delivery"};
    bool backfill_done GUARDED_BY(delivery_mu) = false;
    // Set when the stream is removed; a pumper that snapshotted the stream
    // before removal skips it. This is what makes RemoveStream* a barrier.
    bool closed GUARDED_BY(delivery_mu) = false;
  };

  // Delivers to one stream; returns true if any mutation went through.
  bool PumpStream(Stream& s, size_t batch_per_stream)
      REQUIRES(s.delivery_mu);
  // Serves the below-window gap from storage. Returns false if a delivery
  // stalled (retry on a later pump).
  bool BackfillStream(Stream& s, uint64_t window_start, bool* delivered)
      REQUIRES(s.delivery_mu);

  uint16_t num_vbuckets_;
  BackfillFn backfill_;
  DcpCounters counters_;  // null members = reporting disabled
  std::vector<std::unique_ptr<ChangeLog>> logs_;

  mutable Mutex mu_{"dcp.producer_streams"};  // guards streams_ map (not delivery)
  std::map<uint64_t, std::shared_ptr<Stream>> streams_ GUARDED_BY(mu_);
  uint64_t next_stream_id_ GUARDED_BY(mu_) = 1;
};

// Background thread that keeps a set of producers pumped. One per node.
class Dispatcher {
 public:
  Dispatcher();
  ~Dispatcher();

  void AddProducer(std::shared_ptr<Producer> producer);
  void RemoveProducer(const std::shared_ptr<Producer>& producer);

  // Wakes the pump thread (call after OnMutation for low latency).
  void Notify();

  // Synchronously pumps until all producers are drained (test determinism).
  void Quiesce();

  void Stop();

 private:
  void Loop();

  // Loop runs only on the dispatcher's pump thread. Quiesce deliberately
  // pumps producers from the calling thread, so only the loop asserts.
  COUCHKV_AFFINE_TO("dcp.dispatcher.pump", lockdep::Domain::kDcpProducer);
  Mutex mu_{"dcp.dispatcher"};
  CondVar cv_;
  std::vector<std::shared_ptr<Producer>> producers_ GUARDED_BY(mu_);
  // work_ is atomic so Notify() can elide the mutex+notify when a wakeup is
  // already pending — Notify is called on every front-end write.
  std::atomic<bool> work_{false};
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace couchkv::dcp

#endif  // COUCHKV_DCP_DCP_H_
