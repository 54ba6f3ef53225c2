// §6.1.3 ablation: term search through the FTS inverted index vs. the only
// alternative available without it — a full primary scan with a LIKE
// filter. The reverse index is the reason the paper adds a dedicated
// search service instead of leaning on N1QL.
#include "bench/bench_util.h"
#include "common/histogram.h"
#include "fts/fts.h"

using namespace couchkv;
using namespace couchkv::bench;

namespace {
// A realistic vocabulary: each term matches ~1% of documents, so the
// inverted-index advantage reflects selective term lookups rather than
// degenerate everything-matches queries.
constexpr int kVocabulary = 1000;
std::string Word(uint64_t i) { return "word" + std::to_string(i); }
}  // namespace

int main() {
  const uint64_t records = Scaled(20000);
  const uint64_t searches = Scaled(100);

  TestBed bed(/*nodes=*/4);
  // Synthetic text documents.
  {
    client::SmartClient client(bed.cluster.get(), "bucket");
    Rng rng(3);
    for (uint64_t i = 0; i < records; ++i) {
      std::string text;
      for (int w = 0; w < 12; ++w) {
        text += Word(rng.Uniform(kVocabulary));
        text += ' ';
      }
      json::Value doc = json::Value::MakeObject();
      doc["text"] = json::Value::Str(text);
      MustOk(client.UpsertJson(ycsb::Workload::KeyFor(i), doc),
             "corpus upsert");
    }
  }
  auto fts = std::make_shared<fts::SearchService>(bed.cluster.get());
  fts::FtsIndexDefinition def;
  def.name = "text_idx";
  def.bucket = "bucket";
  if (!fts->CreateIndex(def).ok()) return 1;
  auto st = bed.queries->Execute("CREATE PRIMARY INDEX ON `bucket` USING GSI");
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.status().ToString().c_str());
    return 1;
  }
  MustOk(bed.gsi->WaitUntilCaughtUp("bucket", "#primary", 300000),
         "gsi catch-up");
  // Warm the FTS index fully before timing.
  (void)fts->Search("bucket", "text_idx", Word(0), fts::QueryMode::kAllTerms,
                    1, /*consistent=*/true);

  PrintHeader("FTS term search vs LIKE full scan (paper §6.1.3)",
              "method | mean (us) | p95 (us)");
  Histogram fts_lat, scan_lat;
  Rng rng(9);
  for (uint64_t i = 0; i < searches; ++i) {
    std::string term = Word(rng.Uniform(kVocabulary));
    {
      ScopedTimer timer(&fts_lat);
      auto hits = fts->Search("bucket", "text_idx", term,
                              fts::QueryMode::kAllTerms, 20);
      if (!hits.ok()) return 1;
    }
    {
      ScopedTimer timer(&scan_lat);
      auto r = bed.queries->Execute(
          "SELECT META(b).id FROM `bucket` b WHERE text LIKE '%" + term +
          "%' LIMIT 20");
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return 1;
      }
    }
  }
  std::printf("%-22s | %9.1f | %8.1f\n", "fts inverted index",
              fts_lat.Mean() / 1e3,
              static_cast<double>(fts_lat.Percentile(0.95)) / 1e3);
  std::printf("%-22s | %9.1f | %8.1f\n", "N1QL LIKE full scan",
              scan_lat.Mean() / 1e3,
              static_cast<double>(scan_lat.Percentile(0.95)) / 1e3);
  std::printf(
      "\nExpected shape: the reverse index answers term queries orders of\n"
      "magnitude faster than scanning every document (why §6.1.3 adds a\n"
      "dedicated search service).\n");
  return 0;
}
