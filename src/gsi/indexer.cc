#include "gsi/indexer.h"

#include <algorithm>
#include <cstdint>

#include "common/crc32.h"
#include "common/logging.h"

namespace couchkv::gsi {

bool IndexPartition::OwnsKey(const json::Value& key) const {
  if (def_.num_partitions <= 1) return true;
  std::string serialized = key.ToJson();
  return Crc32(serialized) % def_.num_partitions == partition_id_;
}

void IndexPartition::LogApply(const KeyVersion& kv) {
  if (log_ == nullptr) return;  // memory-optimized: no disk write
  // A compact log record: enough to measure realistic write volume.
  std::string record;
  record.reserve(64 + kv.doc_id.size());
  record += kv.doc_id;
  record += '\x1f';
  for (const auto& k : kv.keys) {
    k.AppendJson(&record);
    record += '\x1e';
  }
  record += '\n';
  auto off = log_->Append(record);
  if (off.ok()) {
    disk_bytes_.fetch_add(record.size(), std::memory_order_relaxed);
  } else {
    log_append_failures_->Add();
    LOG_WARN << "gsi partition " << partition_id_ << " log append failed: "
             << off.status().ToString();
  }
  if (++applies_since_sync_ >= 64) {
    Status st = log_->Sync();
    if (st.ok()) {
      applies_since_sync_ = 0;
    } else {
      // Keep applies_since_sync_ saturated so the very next apply retries
      // the sync instead of silently skipping another 64 applies' worth of
      // durability.
      applies_since_sync_ = 64;
      log_sync_failures_->Add();
      LOG_WARN << "gsi partition " << partition_id_ << " log sync failed: "
               << st.ToString() << "; will retry on next apply";
    }
  }
}

void IndexPartition::Apply(const KeyVersion& kv) {
  WriterLockGuard lock(mu_);
  // Remove whatever this partition currently holds for the document.
  auto prev = back_.find(kv.doc_id);
  if (prev != back_.end()) {
    for (const json::Value& old_key : prev->second) {
      tree_.erase(TreeKey{old_key, kv.doc_id});
    }
    back_.erase(prev);
  }
  // Insert the new keys that belong to this partition.
  std::vector<json::Value> owned;
  for (const json::Value& key : kv.keys) {
    if (!OwnsKey(key)) continue;
    tree_[TreeKey{key, kv.doc_id}] = kv.vbucket;
    owned.push_back(key);
  }
  if (!owned.empty()) back_[kv.doc_id] = std::move(owned);
  LogApply(kv);
  // seqnos from one vBucket arrive in order, so a plain store suffices.
  processed_[kv.vbucket].store(kv.seqno, std::memory_order_release);
}

std::vector<IndexEntry> IndexPartition::Scan(const ScanRange& range,
                                             size_t limit) const {
  ReaderLockGuard lock(mu_);
  std::vector<IndexEntry> out;
  if (limit != SIZE_MAX) out.reserve(std::min(limit, tree_.size()));
  auto it = tree_.begin();
  if (range.lo.has_value()) {
    it = tree_.lower_bound(TreeKey{*range.lo, ""});
    if (!range.lo_inclusive) {
      while (it != tree_.end() &&
             json::Value::Compare(it->first.key, *range.lo) == 0) {
        ++it;
      }
    }
  }
  for (; it != tree_.end() && out.size() < limit; ++it) {
    if (range.hi.has_value()) {
      int c = json::Value::Compare(it->first.key, *range.hi);
      if (c > 0 || (c == 0 && !range.hi_inclusive)) break;
    }
    if (def_.is_primary) {
      out.push_back(IndexEntry{json::Value(), it->first.doc_id});
    } else {
      out.push_back(IndexEntry{it->first.key, it->first.doc_id});
    }
  }
  return out;
}

size_t IndexPartition::num_entries() const {
  ReaderLockGuard lock(mu_);
  return tree_.size();
}

}  // namespace couchkv::gsi
