#include "dcp/dcp.h"

#include <thread>

#include "common/lockdep.h"
#include "common/logging.h"

namespace couchkv::dcp {

// ---------------------------------------------------------------------------
// ChangeLog
// ---------------------------------------------------------------------------

void ChangeLog::Append(kv::Document doc) {
  LockGuard lock(mu_);
  if (doc.meta.seqno > high_seqno_) high_seqno_ = doc.meta.seqno;
  int64_t delta = Bytes(doc);
  items_.push_back(std::move(doc));
  while (items_.size() > max_items_) {
    delta -= Bytes(items_.front());
    items_.pop_front();
  }
  if (bytes_ != nullptr) bytes_->Add(delta);
}

void ChangeLog::Clear() {
  LockGuard lock(mu_);
  int64_t held = 0;
  for (const kv::Document& doc : items_) held += Bytes(doc);
  if (bytes_ != nullptr) bytes_->Sub(held);
  items_.clear();
  high_seqno_ = 0;
}

uint64_t ChangeLog::ReadSince(uint64_t since, size_t max,
                              std::vector<kv::Document>* out) const {
  LockGuard lock(mu_);
  uint64_t start = StartSeqno();
  // Binary search would need random access; the deque provides it.
  size_t lo = 0, hi = items_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (items_[mid].meta.seqno <= since) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (size_t i = lo; i < items_.size() && out->size() < max; ++i) {
    out->push_back(items_[i]);
  }
  return start;
}

uint64_t ChangeLog::high_seqno() const {
  LockGuard lock(mu_);
  return high_seqno_;
}

uint64_t ChangeLog::start_seqno() const {
  LockGuard lock(mu_);
  return StartSeqno();
}

size_t ChangeLog::size() const {
  LockGuard lock(mu_);
  return items_.size();
}

// ---------------------------------------------------------------------------
// Producer
// ---------------------------------------------------------------------------

DcpCounters DcpCounters::In(stats::Scope* scope) {
  DcpCounters c;
  c.items_appended = scope->GetCounter("dcp.items_appended");
  c.items_delivered = scope->GetCounter("dcp.items_delivered");
  c.backfill_items = scope->GetCounter("dcp.backfill_items");
  c.changelog_bytes = scope->GetGauge("dcp.changelog_bytes");
  return c;
}

Producer::Producer(uint16_t num_vbuckets, BackfillFn backfill,
                   const DcpCounters* counters)
    : num_vbuckets_(num_vbuckets),
      backfill_(std::move(backfill)),
      counters_(counters != nullptr ? *counters : DcpCounters{}) {
  logs_.reserve(num_vbuckets_);
  for (uint16_t i = 0; i < num_vbuckets_; ++i) {
    logs_.push_back(std::make_unique<ChangeLog>(
        ChangeLog::kDefaultMaxItems, counters_.changelog_bytes));
  }
}

void Producer::OnMutation(uint16_t vbucket, kv::Document doc) {
  logs_[vbucket]->Append(std::move(doc));
  if (counters_.items_appended != nullptr) counters_.items_appended->Add();
}

void Producer::ResetLog(uint16_t vbucket) { logs_[vbucket]->Clear(); }

StatusOr<uint64_t> Producer::AddStream(const std::string& name,
                                       uint16_t vbucket, uint64_t from_seqno,
                                       MutationFn fn) {
  if (vbucket >= num_vbuckets_) {
    return Status::InvalidArgument("vbucket out of range");
  }
  auto stream = std::make_shared<Stream>();
  stream->name = name;
  stream->vbucket = vbucket;
  stream->next_seqno.store(from_seqno + 1, std::memory_order_relaxed);
  stream->fn = std::move(fn);
  LockGuard lock(mu_);
  stream->id = next_stream_id_++;
  streams_[stream->id] = stream;
  return stream->id;
}

void Producer::RemoveStream(uint64_t stream_id) {
  std::shared_ptr<Stream> victim;
  {
    LockGuard lock(mu_);
    auto it = streams_.find(stream_id);
    if (it == streams_.end()) return;
    victim = it->second;
    streams_.erase(it);
  }
  // Barrier: wait out any in-flight delivery and mark the stream closed so
  // a pumper that snapshotted it before the erase skips it.
  LockGuard delivery_lock(victim->delivery_mu);
  victim->closed = true;
}

void Producer::RemoveStreamsNamed(const std::string& name) {
  std::vector<std::shared_ptr<Stream>> victims;
  {
    LockGuard lock(mu_);
    for (auto it = streams_.begin(); it != streams_.end();) {
      if (it->second->name == name) {
        victims.push_back(it->second);
        it = streams_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& victim : victims) {
    LockGuard delivery_lock(victim->delivery_mu);
    victim->closed = true;
  }
}

bool Producer::BackfillStream(Stream& s, uint64_t window_start,
                              bool* delivered) {
  // The in-memory window no longer covers this stream's start point:
  // backfill the gap from the storage engine (paper: DCP "backfill").
  bool stalled = false;
  if (backfill_) {
    uint64_t delivered_up_to = s.next_seqno.load(std::memory_order_relaxed) - 1;
    Status st =
        backfill_(s.vbucket, delivered_up_to, [&](const kv::Mutation& m) {
          if (stalled) return Status::OK();  // skip; retry next pump
          uint64_t next = s.next_seqno.load(std::memory_order_relaxed);
          if (m.doc.meta.seqno >= next && m.doc.meta.seqno < window_start) {
            Status delivery = s.fn(m);
            if (!delivery.ok()) {
              stalled = true;
              return delivery;
            }
            if (m.doc.meta.seqno + 1 > next) {
              s.next_seqno.store(m.doc.meta.seqno + 1,
                                 std::memory_order_relaxed);
            }
            *delivered = true;
            if (counters_.items_delivered != nullptr) {
              counters_.items_delivered->Add();
              counters_.backfill_items->Add();
            }
          }
          return Status::OK();
        });
    if (!st.ok()) {
      LOG_WARN << "DCP backfill failed for vb " << s.vbucket << ": "
               << st.ToString();
    }
  }
  // Whether or not storage had everything, resume from the window — unless a
  // delivery stalled, in which case the backfill resumes from the first
  // undelivered seqno on a later pump.
  if (!stalled &&
      s.next_seqno.load(std::memory_order_relaxed) < window_start) {
    s.next_seqno.store(window_start, std::memory_order_relaxed);
  }
  return !stalled;
}

bool Producer::PumpStream(Stream& s, size_t batch_per_stream) {
  bool delivered = false;
  ChangeLog& log = *logs_[s.vbucket];

  if (!s.backfill_done) {
    uint64_t window_start = log.start_seqno();
    if (s.next_seqno.load(std::memory_order_relaxed) < window_start) {
      if (!BackfillStream(s, window_start, &delivered)) return delivered;
    }
    s.backfill_done = true;
  }

  std::vector<kv::Document> batch;
  log.ReadSince(s.next_seqno.load(std::memory_order_relaxed) - 1,
                batch_per_stream, &batch);
  for (kv::Document& doc : batch) {
    // Skip already-delivered seqnos.
    if (doc.meta.seqno < s.next_seqno.load(std::memory_order_relaxed)) {
      continue;
    }
    kv::Mutation m;
    m.vbucket = s.vbucket;
    m.doc = std::move(doc);
    // Advance only after a successful delivery: a failed (dropped /
    // partitioned) delivery stalls the stream so the mutation is retried
    // rather than lost.
    if (!s.fn(m).ok()) break;
    s.next_seqno.store(m.doc.meta.seqno + 1, std::memory_order_relaxed);
    delivered = true;
    if (counters_.items_delivered != nullptr) counters_.items_delivered->Add();
  }
  return delivered;
}

bool Producer::PumpOnce(size_t batch_per_stream) {
  // Snapshot the stream set, then deliver without holding the map lock so
  // callbacks may add/remove streams.
  std::vector<std::shared_ptr<Stream>> snapshot;
  {
    LockGuard lock(mu_);
    snapshot.reserve(streams_.size());
    for (auto& [id, s] : streams_) snapshot.push_back(s);
  }

  bool delivered = false;
  for (auto& s : snapshot) {
    LockGuard delivery_lock(s->delivery_mu);
    if (s->closed) continue;
    if (PumpStream(*s, batch_per_stream)) delivered = true;
  }
  return delivered;
}

void Producer::Drain() {
  while (PumpOnce()) {
  }
}

uint64_t Producer::StreamSeqno(const std::string& name,
                               uint16_t vbucket) const {
  LockGuard lock(mu_);
  uint64_t result = UINT64_MAX;
  bool found = false;
  for (const auto& [id, s] : streams_) {
    if (s->name == name && s->vbucket == vbucket) {
      found = true;
      uint64_t acked = s->next_seqno.load(std::memory_order_relaxed) - 1;
      if (acked < result) result = acked;
    }
  }
  return found ? result : UINT64_MAX;
}

uint64_t Producer::high_seqno(uint16_t vbucket) const {
  return logs_[vbucket]->high_seqno();
}

uint64_t Producer::Backlog(std::string_view name) const {
  LockGuard lock(mu_);
  uint64_t backlog = 0;
  for (const auto& [id, s] : streams_) {
    if (!name.empty() && s->name != name) continue;
    uint64_t high = logs_[s->vbucket]->high_seqno();
    uint64_t acked = s->next_seqno.load(std::memory_order_relaxed) - 1;
    if (high > acked) backlog += high - acked;
  }
  return backlog;
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

Dispatcher::Dispatcher()
    : thread_([this] {
        lockdep::ScopedDomain domain(lockdep::Domain::kDcpProducer);
        Loop();
      }) {}

Dispatcher::~Dispatcher() { Stop(); }

void Dispatcher::AddProducer(std::shared_ptr<Producer> producer) {
  {
    LockGuard lock(mu_);
    producers_.push_back(std::move(producer));
    work_.store(true, std::memory_order_release);
  }
  cv_.NotifyAll();
}

void Dispatcher::RemoveProducer(const std::shared_ptr<Producer>& producer) {
  LockGuard lock(mu_);
  std::erase(producers_, producer);
}

void Dispatcher::Notify() {
  // Fast path: a wakeup is already pending, nothing to do. This keeps the
  // per-write cost of notifying DCP to one atomic exchange.
  if (work_.exchange(true, std::memory_order_acq_rel)) return;
  // Taking the mutex pairs with the waiter's predicate check: the Loop
  // either sees work_==true before sleeping or is woken by this notify.
  { LockGuard lock(mu_); }
  cv_.NotifyAll();
}

void Dispatcher::Quiesce() {
  std::vector<std::shared_ptr<Producer>> snapshot;
  {
    LockGuard lock(mu_);
    snapshot = producers_;
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& p : snapshot) {
      if (p->PumpOnce()) progress = true;
    }
  }
}

void Dispatcher::Stop() {
  {
    LockGuard lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

void Dispatcher::Loop() {
  COUCHKV_ASSERT_AFFINE();
  for (;;) {
    std::vector<std::shared_ptr<Producer>> snapshot;
    {
      UniqueLock lock(mu_);
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
      while (!work_.load(std::memory_order_acquire) && !stop_) {
        if (!cv_.WaitUntil(lock, deadline)) break;  // poll tick
      }
      if (stop_) return;
      work_.store(false, std::memory_order_release);
      snapshot = producers_;
    }
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto& p : snapshot) {
        if (p->PumpOnce()) progress = true;
      }
      {
        LockGuard lock(mu_);
        if (stop_) return;
      }
    }
  }
}

}  // namespace couchkv::dcp
