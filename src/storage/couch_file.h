// Append-only per-vBucket store, modeled on couchstore (paper §4.3.3
// "Storage Engine"): every mutation — insert, update, or delete — is
// appended at the end of the file, so disk writes are purely sequential.
// Commits append a commit record and fsync; on open the file is scanned
// forward and anything after the last valid commit is discarded, giving
// crash consistency.
//
// Simplification vs couchstore: couchstore persists by-id/by-seqno B-trees
// so open() need not scan; we rebuild the in-memory index by a forward scan
// (bitcask-style). The write path — the part the paper's performance story
// depends on — is identical: sequential appends + periodic compaction
// triggered by a fragmentation threshold.
#ifndef COUCHKV_STORAGE_COUCH_FILE_H_
#define COUCHKV_STORAGE_COUCH_FILE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "kv/doc.h"
#include "stats/registry.h"
#include "storage/env.h"

namespace couchkv::storage {

// Registry-backed counters shared by all CouchFiles of a bucket. Optional:
// files opened without them (tests, tools) skip the reporting.
struct StorageCounters {
  stats::Counter* appends = nullptr;         // doc records written
  stats::Counter* bytes_appended = nullptr;  // incl. commit records
  stats::Counter* commits = nullptr;         // fsync'd commit records
  stats::Counter* compactions = nullptr;
  stats::Counter* compaction_failures = nullptr;
  stats::Counter* compaction_bytes_reclaimed = nullptr;
  Histogram* commit_ns = nullptr;  // SaveDocs batch append + fsync latency

  // Resolves the "storage.*" metrics in `scope`.
  static StorageCounters In(stats::Scope* scope);
};

struct CouchFileStats {
  uint64_t file_size = 0;
  uint64_t live_bytes = 0;  // latest record of each key, tombstones included
  uint64_t num_live_docs = 0;
  uint64_t num_tombstones = 0;
};

class CouchFile {
 public:
  // Opens (creating or recovering) the store at `path`. `counters`, when
  // given, must outlive the file (the bucket's stats scope keeps it alive).
  static StatusOr<std::unique_ptr<CouchFile>> Open(
      Env* env, const std::string& path,
      const StorageCounters* counters = nullptr);

  // Appends a batch of documents (deletes travel as meta.deleted). Not
  // durable until Commit().
  Status SaveDocs(const std::vector<kv::Document>& docs) EXCLUDES(mu_);

  // Appends a commit record and syncs. Everything saved so far becomes
  // recoverable.
  Status Commit() EXCLUDES(mu_);

  // Point lookup of the latest committed-or-pending version.
  StatusOr<kv::Document> Get(std::string_view key) const EXCLUDES(mu_);

  // Streams documents with seqno > since, in seqno order (DCP backfill).
  // Only the latest version of each key is retained, matching DCP's
  // key-deduplicated snapshot semantics. A non-OK status from `fn` (e.g. a
  // failed downstream delivery) stops the scan and propagates, so consumer
  // errors are never swallowed mid-stream.
  Status ChangesSince(
      uint64_t since_seqno,
      const std::function<Status(const kv::Document&)>& fn) const
      EXCLUDES(mu_);

  // Iterates all live (non-deleted) documents, arbitrary order. Stops and
  // propagates on the first non-OK status from `fn`.
  Status ForEachLive(const std::function<Status(const kv::Document&)>& fn)
      const EXCLUDES(mu_);

  // Rewrites live documents into a fresh file and atomically swaps it in,
  // dropping stale versions and (optionally) tombstones below
  // `purge_before_seqno`. Failure is safe: the original file, index, and
  // fragmentation stats are untouched (so the compaction trigger re-fires on
  // the next sweep) and the temp file is cleaned up best-effort.
  Status Compact(uint64_t purge_before_seqno = 0) EXCLUDES(mu_);

  // Fraction of the file occupied by stale data, 0..1. The bucket's
  // compaction sweep compacts a file when this exceeds one half.
  double Fragmentation() const EXCLUDES(mu_);

  uint64_t high_seqno() const EXCLUDES(mu_);
  CouchFileStats stats() const EXCLUDES(mu_);
  const std::string& path() const { return path_; }

 private:
  struct IndexEntry {
    uint64_t offset = 0;  // offset of the record header
    uint32_t record_size = 0;
    uint64_t seqno = 0;
    bool deleted = false;
  };

  CouchFile(Env* env, std::string path, std::shared_ptr<File> file,
            const StorageCounters* counters)
      : env_(env),
        path_(std::move(path)),
        counters_(counters != nullptr ? *counters : StorageCounters{}),
        file_(std::move(file)) {}

  Status Recover() EXCLUDES(mu_);
  // Compact() body; on error the caller removes the temp file and counts
  // the failure. Mutates members only after every write has succeeded.
  Status CompactLocked(uint64_t purge_before_seqno, const std::string& tmp_path)
      REQUIRES(mu_);
  Status AppendDoc(const kv::Document& doc, uint64_t* offset, uint32_t* size)
      REQUIRES(mu_);
  // Appends one framed record. A failed append may leave a partial record
  // behind, and recovery stops at the first bad record, so a later commit
  // appended after it would be lost on reopen: the file is cut back to its
  // size before the failed append (retried before the next append if that
  // truncate fails too). Only unindexed bytes are ever cut.
  StatusOr<uint64_t> AppendRecord(const std::string& record) REQUIRES(mu_);
  // Reads one doc record's bytes (header included) from `file` into
  // `record` and verifies its header and CRC; Corruption if either is bad.
  // `file` must be a pin obtained from file_ under mu_ (or file_ itself with
  // mu_ held), so the read can run lock-free against the immutable pinned
  // contents.
  static Status ReadRecordAt(const File& file, uint64_t offset, uint32_t size,
                             std::string* record);
  // ReadRecordAt, then decodes the verified record into a document.
  static StatusOr<kv::Document> ReadDocAt(const File& file, uint64_t offset,
                                          uint32_t size);
  void IndexDoc(const std::string& key, const IndexEntry& e) REQUIRES(mu_);

  Env* env_;
  std::string path_;
  StorageCounters counters_;  // null members = reporting disabled

  mutable Mutex mu_{"storage.couch_file"};
  // Readers pin the current file under mu_ and read outside it; Compact()
  // swaps in the rewritten file under mu_, and the pin keeps the old
  // (immutable, already-indexed) contents alive for in-flight readers.
  std::shared_ptr<File> file_ GUARDED_BY(mu_);
  std::unordered_map<std::string, IndexEntry> by_id_ GUARDED_BY(mu_);
  std::map<uint64_t, std::string> by_seqno_ GUARDED_BY(mu_);  // seqno -> key
  uint64_t high_seqno_ GUARDED_BY(mu_) = 0;
  // File size at last commit (recovery point).
  uint64_t committed_size_ GUARDED_BY(mu_) = 0;
  // Size to cut file_ back to before the next append: set while a failed
  // append's partial record could not be truncated away.
  std::optional<uint64_t> torn_tail_at_ GUARDED_BY(mu_);
  uint64_t live_bytes_ GUARDED_BY(mu_) = 0;
};

}  // namespace couchkv::storage

#endif  // COUCHKV_STORAGE_COUCH_FILE_H_
