// Full-text search service (paper §6.1.3): "typically based on a reverse
// index, where all the words within the data are indexed to be able to do
// term-based, phrase-based, and/or prefix-based searches. Full-text search
// is another type of service currently being added that will receive data
// mutations via in-memory DCP and will be able to be scaled up or out
// independently as well."
//
// Implemented here as another DCP consumer: an inverted index over the
// string fields of JSON documents, with term, prefix, and phrase queries
// and tf-idf ranking.
#ifndef COUCHKV_FTS_FTS_H_
#define COUCHKV_FTS_FTS_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/feed.h"
#include "common/synchronization.h"
#include "json/value.h"

namespace couchkv::fts {

// Lower-cases and splits `text` into alphanumeric terms.
std::vector<std::string> Analyze(std::string_view text);

// Recursively extracts the searchable text of a document: all string values
// under `fields` (or, when `fields` is empty, every string in the doc).
std::string ExtractText(const json::Value& doc,
                        const std::vector<std::string>& fields);

struct FtsIndexDefinition {
  std::string name;
  std::string bucket;
  // Paths whose content is indexed; empty = every string field.
  std::vector<std::string> fields;
};

struct SearchHit {
  std::string doc_id;
  double score = 0;  // tf-idf
};

enum class QueryMode {
  kAllTerms,  // document must contain every query term (AND)
  kAnyTerm,   // any term matches (OR)
  kPhrase,    // terms must appear consecutively
};

// One inverted index, fed by DCP.
class InvertedIndex {
 public:
  explicit InvertedIndex(FtsIndexDefinition def) : def_(std::move(def)) {}

  void ApplyMutation(const kv::Mutation& m);

  // Searches for `query`. A trailing '*' on a term makes it a prefix match.
  std::vector<SearchHit> Search(const std::string& query, QueryMode mode,
                                size_t limit) const;

  uint64_t processed_seqno(uint16_t vb) const {
    return processed_[vb].load(std::memory_order_acquire);
  }
  size_t num_terms() const;
  size_t num_docs() const;

 private:
  struct Posting {
    uint32_t term_frequency = 0;
    std::vector<uint32_t> positions;  // for phrase queries
  };

  // Docs matching one term (expanding a trailing-'*' prefix).
  void CollectTermDocs(const std::string& term,
                       std::map<std::string, Posting>* out) const
      REQUIRES_SHARED(mu_);

  FtsIndexDefinition def_;
  mutable SharedMutex mu_{"fts.index"};
  // term -> doc_id -> posting. std::map for ordered prefix expansion.
  std::map<std::string, std::unordered_map<std::string, Posting>> terms_
      GUARDED_BY(mu_);
  std::unordered_map<std::string, std::vector<std::string>> doc_terms_
      GUARDED_BY(mu_);
  std::array<std::atomic<uint64_t>, cluster::kNumVBuckets> processed_{};
};

// The search service: manages FTS indexes, each fed by its own
// cluster::Feed — the same lifecycle as the view and GSI services.
class SearchService {
 public:
  explicit SearchService(cluster::Cluster* cluster) : cluster_(cluster) {}

  Status CreateIndex(FtsIndexDefinition def);
  Status DropIndex(const std::string& bucket, const std::string& name);

  // Searches; waits for the index to cover all request-time mutations when
  // `consistent` (the FTS analogue of request_plus).
  StatusOr<std::vector<SearchHit>> Search(const std::string& bucket,
                                          const std::string& name,
                                          const std::string& query,
                                          QueryMode mode = QueryMode::kAllTerms,
                                          size_t limit = 10,
                                          bool consistent = false);

 private:
  using Entry = cluster::Consumer<InvertedIndex>;

  cluster::Cluster* cluster_;
  mutable Mutex mu_{"fts.service"};
  std::map<std::string, std::map<std::string, Entry>> indexes_
      GUARDED_BY(mu_);
};

}  // namespace couchkv::fts

#endif  // COUCHKV_FTS_FTS_H_
