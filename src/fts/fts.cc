#include "fts/fts.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace couchkv::fts {

std::vector<std::string> Analyze(std::string_view text) {
  std::vector<std::string> terms;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(static_cast<char>(std::tolower(c)));
    } else if (!cur.empty()) {
      terms.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) terms.push_back(std::move(cur));
  return terms;
}

namespace {
void CollectStrings(const json::Value& v, std::string* out) {
  switch (v.type()) {
    case json::Type::kString:
      out->append(v.AsString());
      out->push_back(' ');
      break;
    case json::Type::kArray:
      for (const json::Value& e : v.AsArray()) CollectStrings(e, out);
      break;
    case json::Type::kObject:
      for (const auto& [k, e] : v.AsObject()) CollectStrings(e, out);
      break;
    default:
      break;
  }
}
}  // namespace

std::string ExtractText(const json::Value& doc,
                        const std::vector<std::string>& fields) {
  std::string text;
  if (fields.empty()) {
    CollectStrings(doc, &text);
  } else {
    for (const std::string& f : fields) {
      CollectStrings(doc.GetPath(f), &text);
    }
  }
  return text;
}

// ---------------------------------------------------------------------------
// InvertedIndex
// ---------------------------------------------------------------------------

void InvertedIndex::ApplyMutation(const kv::Mutation& m) {
  WriterLockGuard lock(mu_);
  // Remove the document's previous postings.
  auto prev = doc_terms_.find(m.doc.key);
  if (prev != doc_terms_.end()) {
    for (const std::string& term : prev->second) {
      auto tit = terms_.find(term);
      if (tit != terms_.end()) {
        tit->second.erase(m.doc.key);
        if (tit->second.empty()) terms_.erase(tit);
      }
    }
    doc_terms_.erase(prev);
  }
  if (!m.doc.meta.deleted) {
    auto parsed = json::Parse(m.doc.value);
    if (parsed.ok()) {
      std::string text = ExtractText(parsed.value(), def_.fields);
      std::vector<std::string> terms = Analyze(text);
      std::vector<std::string> unique;
      for (uint32_t pos = 0; pos < terms.size(); ++pos) {
        Posting& p = terms_[terms[pos]][m.doc.key];
        if (p.term_frequency == 0) unique.push_back(terms[pos]);
        ++p.term_frequency;
        p.positions.push_back(pos);
      }
      if (!unique.empty()) doc_terms_[m.doc.key] = std::move(unique);
    }
  }
  processed_[m.vbucket].store(m.doc.meta.seqno, std::memory_order_release);
}

void InvertedIndex::CollectTermDocs(const std::string& term,
                                    std::map<std::string, Posting>* out) const {
  // Caller holds mu_ (shared).
  if (!term.empty() && term.back() == '*') {
    std::string prefix = term.substr(0, term.size() - 1);
    for (auto it = terms_.lower_bound(prefix);
         it != terms_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      for (const auto& [doc, posting] : it->second) {
        Posting& merged = (*out)[doc];
        merged.term_frequency += posting.term_frequency;
      }
    }
    return;
  }
  auto it = terms_.find(term);
  if (it == terms_.end()) return;
  for (const auto& [doc, posting] : it->second) {
    (*out)[doc] = posting;
  }
}

std::vector<SearchHit> InvertedIndex::Search(const std::string& query,
                                             QueryMode mode,
                                             size_t limit) const {
  ReaderLockGuard lock(mu_);
  // Keep '*' during analysis by splitting ourselves.
  std::vector<std::string> raw_terms;
  {
    std::string cur;
    for (char c : query) {
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '*') {
        cur.push_back(static_cast<char>(std::tolower(c)));
      } else if (!cur.empty()) {
        raw_terms.push_back(std::move(cur));
        cur.clear();
      }
    }
    if (!cur.empty()) raw_terms.push_back(std::move(cur));
  }
  if (raw_terms.empty()) return {};

  double total_docs = static_cast<double>(doc_terms_.size());
  std::unordered_map<std::string, double> scores;
  std::unordered_map<std::string, size_t> matched_terms;
  std::vector<std::map<std::string, Posting>> per_term(raw_terms.size());
  for (size_t t = 0; t < raw_terms.size(); ++t) {
    CollectTermDocs(raw_terms[t], &per_term[t]);
    double df = static_cast<double>(per_term[t].size());
    double idf = df > 0 ? std::log((total_docs + 1) / df) + 1 : 0;
    for (const auto& [doc, posting] : per_term[t]) {
      scores[doc] += static_cast<double>(posting.term_frequency) * idf;
      matched_terms[doc] += 1;
    }
  }

  std::vector<SearchHit> hits;
  for (const auto& [doc, score] : scores) {
    if (mode != QueryMode::kAnyTerm &&
        matched_terms[doc] != raw_terms.size()) {
      continue;  // AND / phrase require every term
    }
    if (mode == QueryMode::kPhrase) {
      // Terms must appear at consecutive positions.
      bool found = false;
      const Posting& first = per_term[0].at(doc);
      for (uint32_t start : first.positions) {
        bool all = true;
        for (size_t t = 1; t < raw_terms.size(); ++t) {
          const Posting& p = per_term[t].at(doc);
          if (std::find(p.positions.begin(), p.positions.end(),
                        start + static_cast<uint32_t>(t)) ==
              p.positions.end()) {
            all = false;
            break;
          }
        }
        if (all) {
          found = true;
          break;
        }
      }
      if (!found) continue;
    }
    hits.push_back(SearchHit{doc, score});
  }
  std::sort(hits.begin(), hits.end(), [](const SearchHit& a,
                                         const SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  if (hits.size() > limit) hits.resize(limit);
  return hits;
}

size_t InvertedIndex::num_terms() const {
  ReaderLockGuard lock(mu_);
  return terms_.size();
}

size_t InvertedIndex::num_docs() const {
  ReaderLockGuard lock(mu_);
  return doc_terms_.size();
}

// ---------------------------------------------------------------------------
// SearchService
// ---------------------------------------------------------------------------

Status SearchService::CreateIndex(FtsIndexDefinition def) {
  if (def.name.empty() || def.bucket.empty()) {
    return Status::InvalidArgument("fts index needs name and bucket");
  }
  if (cluster_->map(def.bucket) == nullptr) {
    return Status::NotFound("no such bucket: " + def.bucket);
  }
  auto index = std::make_shared<InvertedIndex>(def);
  LockGuard lock(mu_);
  auto& per_bucket = indexes_[def.bucket];
  if (per_bucket.count(def.name)) {
    return Status::KeyExists("fts index exists: " + def.name);
  }
  auto feed = cluster::Feed::Open(
      cluster_, def.bucket, "fts:" + def.bucket + ":" + def.name,
      [index](cluster::NodeId, const cluster::ClusterMap&) -> dcp::MutationFn {
        return [index](const kv::Mutation& m) {
          index->ApplyMutation(m);
          return Status::OK();
        };
      },
      [index](cluster::NodeId, uint16_t vb) {
        return index->processed_seqno(vb);
      });
  per_bucket[def.name] = Entry{std::move(index), std::move(feed)};
  return Status::OK();
}

Status SearchService::DropIndex(const std::string& bucket,
                                const std::string& name) {
  LockGuard lock(mu_);
  auto bit = indexes_.find(bucket);
  if (bit == indexes_.end()) return Status::NotFound("no such fts index");
  auto it = bit->second.find(name);
  if (it == bit->second.end()) return Status::NotFound("no such fts index");
  // Closed under mu_, so a re-create of the name cannot interleave.
  it->second.feed->Close();
  bit->second.erase(it);
  return Status::OK();
}

StatusOr<std::vector<SearchHit>> SearchService::Search(
    const std::string& bucket, const std::string& name,
    const std::string& query, QueryMode mode, size_t limit, bool consistent) {
  Entry entry;
  {
    LockGuard lock(mu_);
    auto bit = indexes_.find(bucket);
    if (bit == indexes_.end()) return Status::NotFound("no such fts index");
    auto it = bit->second.find(name);
    if (it == bit->second.end()) return Status::NotFound("no such fts index");
    entry = it->second;
  }
  if (consistent) {
    COUCHKV_RETURN_IF_ERROR(entry.feed->WaitCaughtUp(30000));
  }
  return entry.state->Search(query, mode, limit);
}

}  // namespace couchkv::fts
