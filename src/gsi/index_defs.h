// Definitions shared by the GSI components (paper §3.3.2, §4.3.4): index
// metadata, key versions flowing projector → router → indexer, and scan
// parameters.
#ifndef COUCHKV_GSI_INDEX_DEFS_H_
#define COUCHKV_GSI_INDEX_DEFS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "json/value.h"

namespace couchkv::gsi {

// How an index stores its data (paper §6.1.1): the standard indexer writes
// through to disk; the memory-optimized indexer keeps everything resident.
enum class IndexStorageMode { kStandard, kMemoryOptimized };

// Scan consistency for index reads (paper §3.2.3).
enum class ScanConsistency {
  kNotBounded,   // lowest latency; may miss recent mutations
  kRequestPlus,  // wait until the index covers all mutations at request time
};

// A secondary-index definition.
struct IndexDefinition {
  std::string name;
  std::string bucket;
  // Indexed paths; several paths form a composite (array-valued) key.
  std::vector<std::string> key_paths;
  // Array index (paper §6.1.2): when set, the leading key path must resolve
  // to an array and one entry is created per element.
  bool array_index = false;
  // Partial index (paper §3.3.4): entries exist only for docs satisfying
  // this predicate. `where_text` is the normalized predicate text used by
  // the planner for implication checks; `where_fn` evaluates it.
  std::string where_text;
  std::function<bool(const json::Value&)> where_fn;
  // PRIMARY INDEX (paper §3.3.3): indexes META().id itself.
  bool is_primary = false;
  // Number of partitions; >1 gives a partitioned GSI with scatter/gather
  // scans (paper §4.3.4 "Indexer").
  uint32_t num_partitions = 1;
  IndexStorageMode mode = IndexStorageMode::kStandard;
};

// A mutation projected onto one index: what the Projector sends through the
// Router to the Indexers (paper §4.3.3 "Index Projector" / "Index Router").
struct KeyVersion {
  std::string index_name;
  std::string doc_id;
  uint16_t vbucket = 0;
  uint64_t seqno = 0;
  // Secondary keys this version of the document produces. Empty = the doc
  // no longer qualifies (deleted, filtered out, or missing leading key), so
  // indexers must drop any previous entries.
  std::vector<json::Value> keys;
};

// One scan result row. For covering scans the secondary key values ride
// along so the query service need not fetch the document. A primary
// index's key is the id itself, so its entries leave `key` MISSING and
// order by `doc_id` alone.
struct IndexEntry {
  json::Value key;
  std::string doc_id;
};

// Range bounds for a scan; unset bounds are unbounded.
struct ScanRange {
  std::optional<json::Value> lo;
  std::optional<json::Value> hi;
  bool lo_inclusive = true;
  bool hi_inclusive = true;

  static ScanRange All() { return {}; }
  static ScanRange Point(json::Value v) {
    ScanRange r;
    r.lo = v;
    r.hi = std::move(v);
    return r;
  }
};

}  // namespace couchkv::gsi

#endif  // COUCHKV_GSI_INDEX_DEFS_H_
