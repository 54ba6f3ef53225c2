#include "cluster/vbucket.h"

#include "stats/trace.h"

namespace couchkv::cluster {

OpInstruments OpInstruments::In(stats::Scope* scope) {
  OpInstruments i;
  i.ops_get = scope->GetCounter("kv.ops_get");
  i.ops_mutate = scope->GetCounter("kv.ops_mutate");
  i.get_ns = scope->GetHistogram("kv.get_ns");
  i.mutate_ns = scope->GetHistogram("kv.mutate_ns");
  return i;
}

Status VBucket::CheckActive() const {
  if (state_ != VBucketState::kActive) {
    return Status::NotMyVBucket("vbucket " + std::to_string(id_) + " is " +
                                VBucketStateName(state_));
  }
  return Status::OK();
}

Status VBucket::CheckWritable() const {
  COUCHKV_RETURN_IF_ERROR(CheckActive());
  if (backpressure_ != nullptr &&
      backpressure_->load(std::memory_order_acquire)) {
    return Status::TempFail("disk write queue not draining (vbucket " +
                            std::to_string(id_) + ")");
  }
  return Status::OK();
}

kv::Document VBucket::MakeDoc(std::string_view key, kv::Blob value,
                              const kv::DocMeta& meta) const {
  kv::Document doc;
  doc.key = std::string(key);
  doc.meta = meta;
  doc.value = std::move(value);
  return doc;
}

template <typename Find>
StatusOr<kv::GetResult> VBucket::FindResident(std::string_view key, Find find,
                                              trace::Span& span) {
  StatusOr<kv::GetResult> r = find(true);
  if (!r.ok() || r->resident) return r;
  std::shared_ptr<storage::CouchFile> f = file();
  if (f == nullptr) return Status::Internal("non-resident, no storage");
  auto doc = f->Get(key);
  if (!doc.ok()) return doc.status();
  ht_.Restore(doc.value());
  span.Phase("disk");
  r = find(false);
  if (r.ok() && !r->resident) {
    // Only a concurrent eviction between the restore and the lookup.
    return Status::TempFail("value evicted during read-through");
  }
  return r;
}

StatusOr<kv::GetResult> VBucket::Get(std::string_view key) {
  trace::Span span("kv.get", inst_.get_ns);
  LockGuard lock(op_mu_);
  span.Phase("dispatch");
  COUCHKV_RETURN_IF_ERROR(CheckActive());
  if (inst_.ops_get != nullptr) inst_.ops_get->Add();
  auto r = FindResident(
      key, [&](bool count) { return ht_.Get(key, count); }, span);
  span.Phase("cache");
  return r;
}

StatusOr<kv::GetResult> VBucket::GetAndLock(std::string_view key,
                                            uint64_t lock_ms) {
  trace::Span span("kv.getl", inst_.get_ns);
  LockGuard lock(op_mu_);
  span.Phase("dispatch");
  COUCHKV_RETURN_IF_ERROR(CheckActive());
  if (inst_.ops_get != nullptr) inst_.ops_get->Add();
  auto r = FindResident(
      key, [&](bool count) { return ht_.GetAndLock(key, lock_ms, count); },
      span);
  span.Phase("cache");
  return r;
}

Status VBucket::Unlock(std::string_view key, uint64_t cas) {
  LockGuard lock(op_mu_);
  COUCHKV_RETURN_IF_ERROR(CheckActive());
  return ht_.Unlock(key, cas);
}

StatusOr<kv::DocMeta> VBucket::Store(kv::StoreOp op, std::string_view key,
                                     std::string_view value, uint32_t flags,
                                     uint32_t expiry, uint64_t cas) {
  static constexpr const char* kSpanNames[] = {
      "kv.set", "kv.add", "kv.replace", "kv.remove", "kv.touch"};
  trace::Span span(kSpanNames[static_cast<int>(op)], inst_.mutate_ns);
  LockGuard lock(op_mu_);
  span.Phase("dispatch");
  COUCHKV_RETURN_IF_ERROR(CheckWritable());
  if (inst_.ops_mutate != nullptr) inst_.ops_mutate->Add();
  kv::Blob buf;  // the document's value as emitted to DCP and the flusher
  if (op == kv::StoreOp::kTouch) {
    // TOUCH keeps the value, and the emitted document must carry it.
    auto cur = FindResident(
        key, [&](bool count) { return ht_.Get(key, count); }, span);
    if (!cur.ok()) return cur.status();
    buf = std::move(cur->doc.value);
  } else if (op != kv::StoreOp::kDelete) {
    buf = kv::Blob(value);  // the one copy of the bytes on this node
  }
  auto meta = ht_.Store(op, key, buf, flags, expiry, cas);
  span.Phase("cache");
  if (meta.ok()) {
    Emit(MakeDoc(key, std::move(buf), meta.value()));
    span.Phase("sink");
  }
  return meta;
}

namespace {

// A document from another node: same key and metadata, but the value in a
// buffer of this node's own.
kv::Document LocalCopy(const kv::Document& doc) {
  kv::Document local;
  local.key = doc.key;
  local.meta = doc.meta;
  local.value = doc.value.view();
  return local;
}

}  // namespace

Status VBucket::ApplyXdcr(const kv::Document& doc) {
  LockGuard lock(op_mu_);
  COUCHKV_RETURN_IF_ERROR(CheckActive());
  kv::Document applied = LocalCopy(doc);
  auto meta = ht_.SetWithMeta(applied);
  if (!meta.ok()) return meta.status();
  applied.meta = meta.value();
  Emit(applied);
  return Status::OK();
}

void VBucket::ApplyReplicated(const kv::Document& doc) {
  kv::Document local = LocalCopy(doc);
  LockGuard lock(op_mu_);
  ht_.ApplyRemote(local);
  Emit(local);
}

Status VBucket::Reset(const FileFactory& fresh_file) {
  LockGuard lock(op_mu_);
  auto file_or = fresh_file();
  if (!file_or.ok()) return file_or.status();
  ht_.Clear();
  set_file(std::move(file_or).value());
  return Status::OK();
}

}  // namespace couchkv::cluster
