#include "views/view_index.h"

#include "json/value.h"

namespace couchkv::views {

void ViewIndex::ApplyMutation(const kv::Mutation& m) {
  WriterLockGuard lock(mu_);
  // Drop the document's previous row.
  auto prev = doc_keys_.find(m.doc.key);
  if (prev != doc_keys_.end()) {
    rows_.erase(RowKey{prev->second, m.doc.key});
    doc_keys_.erase(prev);
  }
  if (!m.doc.meta.deleted) {
    auto parsed = json::Parse(m.doc.value);
    if (parsed.ok()) {
      auto row = RunMap(def_.map, m.doc.key, parsed.value());
      if (row.has_value()) {
        rows_[RowKey{row->key, m.doc.key}] = RowValue{row->value, m.vbucket};
        doc_keys_[m.doc.key] = std::move(row->key);
      }
    }
  }
  processed_[m.vbucket].store(m.doc.meta.seqno, std::memory_order_release);
}

void ViewIndex::SetVBucketActive(uint16_t vb, bool active) {
  WriterLockGuard lock(mu_);
  active_vbs_[vb] = active;
}

size_t ViewIndex::row_count() const {
  ReaderLockGuard lock(mu_);
  return rows_.size();
}

void ViewIndex::CollectRange(const json::Value* lo, const json::Value* hi,
                             bool inclusive_end,
                             std::vector<ViewRow>* out) const {
  // Caller holds mu_ (shared).
  auto it = rows_.begin();
  if (lo != nullptr) {
    it = rows_.lower_bound(RowKey{*lo, ""});
  }
  for (; it != rows_.end(); ++it) {
    if (hi != nullptr) {
      int c = json::Value::Compare(it->first.key, *hi);
      if (c > 0 || (c == 0 && !inclusive_end)) break;
    }
    if (!active_vbs_[it->second.vbucket]) continue;  // deactivated partition
    out->push_back(ViewRow{it->first.key, it->second.value, it->first.doc_id});
  }
}

std::vector<ViewRow> ViewIndex::Scan(const ViewQueryOptions& opts) const {
  ReaderLockGuard lock(mu_);
  std::vector<ViewRow> out;
  if (opts.key.has_value()) {
    CollectRange(&*opts.key, &*opts.key, /*inclusive_end=*/true, &out);
  } else if (!opts.keys.empty()) {
    for (const json::Value& k : opts.keys) {
      CollectRange(&k, &k, /*inclusive_end=*/true, &out);
    }
  } else {
    const json::Value* lo =
        opts.start_key.has_value() ? &*opts.start_key : nullptr;
    const json::Value* hi = opts.end_key.has_value() ? &*opts.end_key : nullptr;
    CollectRange(lo, hi, opts.inclusive_end, &out);
  }
  return out;
}

}  // namespace couchkv::views
