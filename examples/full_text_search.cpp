// Full-text search (paper §6.1.3): a product-review search application on
// top of the FTS service — term, prefix, and phrase queries with tf-idf
// ranking, fed live by DCP, next to the same bucket's KV and N1QL traffic.
#include <cstdio>

#include "client/smart_client.h"
#include "cluster/cluster.h"
#include "examples/example_util.h"
#include "fts/fts.h"

using namespace couchkv;
using examples::MustOk;

namespace {
void Show(const char* title, const StatusOr<std::vector<fts::SearchHit>>& r) {
  std::printf("-- %s\n", title);
  if (!r.ok()) {
    std::printf("   error: %s\n", r.status().ToString().c_str());
    return;
  }
  for (const auto& hit : *r) {
    std::printf("   %-12s score=%.2f\n", hit.doc_id.c_str(), hit.score);
  }
}
}  // namespace

int main() {
  cluster::Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.AddNode();
  cluster::BucketConfig config;
  config.name = "reviews";
  config.num_replicas = 1;
  if (!cluster.CreateBucket(config).ok()) return 1;
  client::SmartClient client(&cluster, "reviews");

  MustOk(client.Upsert("rev::1", R"({"product":"couch","stars":5,
      "text":"Incredibly comfortable couch, perfect for long evenings"})"),
         "upsert rev::1");
  MustOk(client.Upsert("rev::2", R"({"product":"couch","stars":2,
      "text":"The couch springs squeak and the fabric pills quickly"})"),
         "upsert rev::2");
  MustOk(client.Upsert("rev::3", R"({"product":"desk","stars":4,
      "text":"Solid desk, comfortable height, easy assembly"})"),
         "upsert rev::3");
  MustOk(client.Upsert("rev::4", R"({"product":"lamp","stars":5,
      "text":"Warm light, perfect for long reading evenings"})"),
         "upsert rev::4");

  auto fts = std::make_shared<fts::SearchService>(&cluster);
  fts::FtsIndexDefinition def;
  def.name = "review_text";
  def.bucket = "reviews";
  def.fields = {"text"};  // index only the review body
  if (!fts->CreateIndex(def).ok()) return 1;

  Show("term: comfortable",
       fts->Search("reviews", "review_text", "comfortable",
                   fts::QueryMode::kAllTerms, 10, /*consistent=*/true));

  Show("all terms: perfect evenings",
       fts->Search("reviews", "review_text", "perfect evenings",
                   fts::QueryMode::kAllTerms, 10, true));

  Show("any term: squeak OR assembly",
       fts->Search("reviews", "review_text", "squeak assembly",
                   fts::QueryMode::kAnyTerm, 10, true));

  Show("prefix: comfort*",
       fts->Search("reviews", "review_text", "comfort*",
                   fts::QueryMode::kAllTerms, 10, true));

  Show("phrase: \"long evenings\"",
       fts->Search("reviews", "review_text", "long evenings",
                   fts::QueryMode::kPhrase, 10, true));

  // The index follows mutations (DCP): update a review and search again.
  MustOk(client.Upsert("rev::2", R"({"product":"couch","stars":4,
      "text":"After the fix, the couch is actually comfortable"})"),
         "upsert rev::2");
  Show("term after live update: comfortable",
       fts->Search("reviews", "review_text", "comfortable",
                   fts::QueryMode::kAllTerms, 10, true));
  return 0;
}
