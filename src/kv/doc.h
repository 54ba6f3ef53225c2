// Document and metadata types shared by the cache, storage engine, DCP and
// replication layers.
#ifndef COUCHKV_KV_DOC_H_
#define COUCHKV_KV_DOC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace couchkv::kv {

// Per-document metadata. This is what the paper calls "some document
// metadata" kept resident in the hash table even when the value is evicted,
// and what XDCR conflict resolution compares (§4.6.1).
struct DocMeta {
  uint64_t cas = 0;      // compare-and-swap token, changes on every mutation
  uint64_t revno = 0;    // revision count ("number of updates"), for XDCR
  uint64_t seqno = 0;    // per-vBucket mutation sequence number
  uint32_t flags = 0;    // opaque application flags (as in memcached)
  uint32_t expiry = 0;   // absolute expiry in seconds; 0 = never
  bool deleted = false;  // tombstone marker
};

// A document's value: an immutable, reference-counted byte buffer (the
// queued_item idiom of ep-engine). A mutation builds it once from the
// caller's bytes; the hash table, the DCP change log, the flush queue and
// every stream delivery on that node then share it, so copying a Document
// bumps a reference count instead of copying the bytes. A node boundary
// (replica apply, XDCR) builds a fresh buffer: no node holds another node's
// bytes. An empty value holds no buffer.
class Blob {
 public:
  Blob() = default;
  Blob(std::string&& bytes)  // takes the bytes; no copy
      : buf_(bytes.empty() ? nullptr
                           : std::make_shared<const std::string>(
                                 std::move(bytes))) {}
  Blob(const std::string& bytes) : Blob(std::string(bytes)) {}
  Blob(std::string_view bytes) : Blob(std::string(bytes)) {}
  Blob(const char* bytes) : Blob(std::string(bytes)) {}

  std::string_view view() const {
    return buf_ ? std::string_view(*buf_) : std::string_view();
  }
  operator std::string_view() const { return view(); }
  const char* data() const { return view().data(); }
  size_t size() const { return view().size(); }
  bool empty() const { return buf_ == nullptr; }
  // Heap bytes reserved for the value, as the cache's accounting charges it.
  size_t capacity() const { return buf_ ? buf_->capacity() : 0; }

  friend bool operator==(const Blob& a, std::string_view b) {
    return a.view() == b;
  }

 private:
  std::shared_ptr<const std::string> buf_;
};

// The front-end mutations, one store operation the way memcached's engine
// store(item, cas, operation) takes them. Each takes a new CAS, revno and
// seqno; they differ only in what must hold first and what they keep.
// Span-name tables are indexed by the enumerator, so new ops go last.
enum class StoreOp {
  kSet,      // create or replace
  kAdd,      // create only; KeyExists if the key is live
  kReplace,  // replace only; NotFound if the key is absent
  kDelete,   // write a tombstone; NotFound if the key is absent
  kTouch,    // set the expiry only, keeping value and flags; NotFound if absent
};

// A full document: key, metadata, and the (JSON or binary) value bytes.
struct Document {
  std::string key;
  DocMeta meta;
  Blob value;
};

// A mutation event as carried by DCP: a document plus the vBucket it belongs
// to. Deletions travel as documents with meta.deleted = true and empty value.
struct Mutation {
  uint16_t vbucket = 0;
  Document doc;
};

}  // namespace couchkv::kv

#endif  // COUCHKV_KV_DOC_H_
