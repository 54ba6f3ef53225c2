#include "client/smart_client.h"

#include <atomic>

#include "stats/trace.h"

namespace couchkv::client {

namespace {
// Process-wide id allocator for clients that don't pass an explicit id.
std::atomic<uint32_t> next_client_id{1};
}  // namespace

SmartClient::SmartClient(cluster::Cluster* cluster, std::string bucket,
                         RetryPolicy retry, uint32_t client_id)
    : cluster_(cluster),
      bucket_(std::move(bucket)),
      endpoint_(net::Endpoint::Client(
          client_id != 0 ? client_id : next_client_id.fetch_add(1))),
      // Seeded from the endpoint id so two clients never share a jitter
      // stream (and a given client's schedule is reproducible).
      router_(retry, 0x9e3779b97f4a7c15ULL ^
                         (static_cast<uint64_t>(endpoint_.id) + 1) *
                             0x2545f4914f6cdd1dULL) {
  get_ns_ = router_.scope()->GetHistogram("get_ns");
  mutate_ns_ = router_.scope()->GetHistogram("mutate_ns");
  // justified: a bucket without a map is reported by the first op.
  (void)router_.Refresh([this] { return FetchMap(); });
}

Status SmartClient::FetchMap() {
  map_ = cluster_->map(bucket_);
  return map_ ? Status::OK() : Status::NotFound("bucket has no cluster map");
}

template <typename Fn>
auto SmartClient::WithRouting(std::string_view key, Fn&& op)
    -> decltype(op(std::declval<cluster::VBucket&>(), uint16_t{0})) {
  using Result = decltype(op(std::declval<cluster::VBucket&>(), uint16_t{0}));
  return router_.Run(
      key,
      [this](std::string_view k) {
        Route route;
        route.vb = cluster::KeyToVBucket(k);
        if (map_) route.node = map_->ActiveFor(route.vb);
        return route;
      },
      [this] { return FetchMap(); },
      [&](const Route& route) -> Result {
        cluster::Node* n = cluster_->node(route.node);
        if (n == nullptr) {
          return Status::TempFail("node " + std::to_string(route.node) +
                                  " left the cluster");
        }
        // Both legs of the op cross the network: a lost request means it
        // never ran; a lost reply means it ran but we can't know
        // (ambiguous outcome — the retry may then see e.g. KeyExists from
        // its own first attempt).
        return net::Call(cluster_->transport(), endpoint_,
                         net::Endpoint::Node(route.node), [&] {
                           return n->WithVBucket(
                               bucket_, route.vb, [&](cluster::VBucket& v) {
                                 return op(v, route.vb);
                               });
                         });
      });
}

namespace {
StatusOr<GetReply> ToGetReply(std::string_view key,
                              StatusOr<kv::GetResult> r) {
  if (!r.ok()) return r.status();
  GetReply reply;
  reply.key = std::string(key);
  reply.value = r->doc.value.view();
  reply.cas = r->doc.meta.cas;
  reply.flags = r->doc.meta.flags;
  return reply;
}
}  // namespace

StatusOr<GetReply> SmartClient::Get(std::string_view key) {
  trace::Span span("client.get", get_ns_);
  return WithRouting(key, [&](cluster::VBucket& v, uint16_t) {
    return ToGetReply(key, v.Get(key));
  });
}

StatusOr<json::Value> SmartClient::GetJson(std::string_view key) {
  auto r = Get(key);
  if (!r.ok()) return r.status();
  return json::Parse(r->value);
}

StatusOr<MutateReply> SmartClient::Store(kv::StoreOp op, std::string_view key,
                                         std::string_view value,
                                         uint32_t flags, uint32_t expiry,
                                         uint64_t cas,
                                         const cluster::Durability& dur) {
  static constexpr const char* kSpanNames[] = {
      "client.upsert", "client.insert", "client.replace", "client.remove",
      "client.touch"};
  trace::Span span(kSpanNames[static_cast<int>(op)], mutate_ns_);
  return WithRouting(
      key, [&](cluster::VBucket& v, uint16_t vb) -> StatusOr<MutateReply> {
        auto meta = v.Store(op, key, value, flags, expiry, cas);
        if (!meta.ok()) return meta.status();
        Status st = cluster_->WaitForDurability(bucket_, vb, meta->seqno, dur);
        if (!st.ok()) return st;
        MutateReply reply;
        reply.cas = meta->cas;
        reply.seqno = meta->seqno;
        reply.vbucket = vb;
        return reply;
      });
}

StatusOr<MutateReply> SmartClient::Upsert(std::string_view key,
                                          std::string_view value,
                                          const WriteOptions& opts) {
  return Store(kv::StoreOp::kSet, key, value, opts.flags, opts.expiry,
               opts.cas, opts.durability);
}

StatusOr<MutateReply> SmartClient::Insert(std::string_view key,
                                          std::string_view value,
                                          const WriteOptions& opts) {
  return Store(kv::StoreOp::kAdd, key, value, opts.flags, opts.expiry,
               /*cas=*/0, opts.durability);
}

StatusOr<MutateReply> SmartClient::Replace(std::string_view key,
                                           std::string_view value,
                                           const WriteOptions& opts) {
  return Store(kv::StoreOp::kReplace, key, value, opts.flags, opts.expiry,
               opts.cas, opts.durability);
}

StatusOr<MutateReply> SmartClient::Remove(std::string_view key, uint64_t cas,
                                          const cluster::Durability& dur) {
  return Store(kv::StoreOp::kDelete, key, {}, 0, 0, cas, dur);
}

Status SmartClient::Touch(std::string_view key, uint32_t expiry) {
  return Store(kv::StoreOp::kTouch, key, {}, 0, expiry, 0, {}).status();
}

StatusOr<MutateReply> SmartClient::UpsertJson(std::string_view key,
                                              const json::Value& value,
                                              const WriteOptions& opts) {
  return Upsert(key, value.ToJson(), opts);
}

StatusOr<GetReply> SmartClient::GetAndLock(std::string_view key,
                                           uint64_t lock_ms) {
  trace::Span span("client.getl", get_ns_);
  return WithRouting(key, [&](cluster::VBucket& v, uint16_t) {
    return ToGetReply(key, v.GetAndLock(key, lock_ms));
  });
}

Status SmartClient::Unlock(std::string_view key, uint64_t cas) {
  return WithRouting(
      key, [&](cluster::VBucket& v, uint16_t) { return v.Unlock(key, cas); });
}

StatusOr<json::Value> SmartClient::LookupIn(std::string_view key,
                                            std::string_view path) {
  auto doc = GetJson(key);
  if (!doc.ok()) return doc.status();
  return doc->GetPath(path);
}

namespace {
constexpr int kSubdocRetries = 32;
}

StatusOr<MutateReply> SmartClient::MutateIn(std::string_view key,
                                            std::string_view path,
                                            const json::Value& value) {
  for (int attempt = 0; attempt < kSubdocRetries; ++attempt) {
    auto reply = Get(key);
    if (!reply.ok()) return reply.status();
    auto doc = json::Parse(reply->value);
    if (!doc.ok()) return doc.status();
    if (!doc->SetPath(path, value)) {
      return Status::InvalidArgument("cannot set path " + std::string(path));
    }
    WriteOptions opts;
    opts.cas = reply->cas;
    auto result = Replace(key, doc->ToJson(), opts);
    if (result.ok()) return result;
    if (!result.status().IsKeyExists() && !result.status().IsLocked()) {
      return result.status();
    }
    // CAS conflict: re-read and retry.
  }
  return Status::TempFail("sub-document CAS retries exhausted");
}

StatusOr<MutateReply> SmartClient::RemoveIn(std::string_view key,
                                            std::string_view path) {
  for (int attempt = 0; attempt < kSubdocRetries; ++attempt) {
    auto reply = Get(key);
    if (!reply.ok()) return reply.status();
    auto doc = json::Parse(reply->value);
    if (!doc.ok()) return doc.status();
    if (!doc->RemovePath(path)) {
      return Status::NotFound("path missing: " + std::string(path));
    }
    WriteOptions opts;
    opts.cas = reply->cas;
    auto result = Replace(key, doc->ToJson(), opts);
    if (result.ok()) return result;
    if (!result.status().IsKeyExists() && !result.status().IsLocked()) {
      return result.status();
    }
  }
  return Status::TempFail("sub-document CAS retries exhausted");
}

StatusOr<int64_t> SmartClient::Increment(std::string_view key, int64_t delta,
                                         int64_t initial) {
  for (int attempt = 0; attempt < kSubdocRetries * 4; ++attempt) {
    auto reply = Get(key);
    if (reply.status().IsNotFound()) {
      auto created =
          Insert(key, json::Value::Int(initial + delta).ToJson());
      if (created.ok()) return initial + delta;
      if (!created.status().IsKeyExists()) return created.status();
      continue;  // someone else created it: retry the read
    }
    if (!reply.ok()) return reply.status();
    auto doc = json::Parse(reply->value);
    if (!doc.ok() || !doc->is_number()) {
      return Status::InvalidArgument("counter document is not a number");
    }
    int64_t next = doc->AsInt() + delta;
    WriteOptions opts;
    opts.cas = reply->cas;
    auto result = Replace(key, json::Value::Int(next).ToJson(), opts);
    if (result.ok()) return next;
    if (!result.status().IsKeyExists() && !result.status().IsLocked()) {
      return result.status();
    }
  }
  return Status::TempFail("counter CAS retries exhausted");
}

ClusterStatsResult SmartClient::ClusterStats(const std::string& group) {
  ClusterStatsResult result;
  for (cluster::NodeId id : cluster_->node_ids()) {
    NodeStatsResult entry;
    entry.node = id;
    cluster::Node* n = cluster_->node(id);
    if (n == nullptr) {
      entry.error = "node removed";
      result.nodes.push_back(std::move(entry));
      continue;
    }
    auto snap = net::Call(cluster_->transport(), endpoint_,
                          net::Endpoint::Node(id),
                          [&] { return n->Stats(group); });
    if (snap.ok()) {
      entry.reachable = true;
      entry.stats = std::move(*snap);
    } else {
      entry.error = snap.status().ToString();
    }
    result.nodes.push_back(std::move(entry));
  }
  return result;
}

}  // namespace couchkv::client
