// Tests for the full-text search service (paper §6.1.3): analyzer,
// inverted index maintenance, term/prefix/phrase queries, tf-idf ranking,
// DCP feeding, consistency, topology changes.
#include <gtest/gtest.h>

#include "client/smart_client.h"
#include "fts/fts.h"

namespace couchkv::fts {
namespace {

TEST(AnalyzeTest, LowercasesAndSplits) {
  auto terms = Analyze("Hello, World! C++20 rocks");
  EXPECT_EQ(terms,
            (std::vector<std::string>{"hello", "world", "c", "20", "rocks"}));
}

TEST(AnalyzeTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Analyze("").empty());
  EXPECT_TRUE(Analyze("!!! ---").empty());
}

TEST(ExtractTextTest, AllStringFieldsByDefault) {
  auto doc = json::Parse(
      R"({"title":"Couch","nested":{"body":"deep text"},"n":5,
          "tags":["red","blue"]})").value();
  std::string text = ExtractText(doc, {});
  EXPECT_NE(text.find("Couch"), std::string::npos);
  EXPECT_NE(text.find("deep text"), std::string::npos);
  EXPECT_NE(text.find("red"), std::string::npos);
}

TEST(ExtractTextTest, RestrictedFields) {
  auto doc = json::Parse(
      R"({"title":"Alpha","body":"Beta","secret":"Gamma"})").value();
  std::string text = ExtractText(doc, {"title", "body"});
  EXPECT_NE(text.find("Alpha"), std::string::npos);
  EXPECT_NE(text.find("Beta"), std::string::npos);
  EXPECT_EQ(text.find("Gamma"), std::string::npos);
}

kv::Mutation Mut(const std::string& key, const std::string& doc,
                 uint64_t seqno, bool deleted = false) {
  kv::Mutation m;
  m.vbucket = 0;
  m.doc.key = key;
  m.doc.value = doc;
  m.doc.meta.seqno = seqno;
  m.doc.meta.deleted = deleted;
  return m;
}

class InvertedIndexTest : public ::testing::Test {
 protected:
  InvertedIndexTest() : index_(FtsIndexDefinition{"i", "b", {}}) {}
  InvertedIndex index_;
};

TEST_F(InvertedIndexTest, TermSearch) {
  index_.ApplyMutation(Mut("d1", R"({"t":"the quick brown fox"})", 1));
  index_.ApplyMutation(Mut("d2", R"({"t":"lazy brown dog"})", 2));
  auto hits = index_.Search("brown", QueryMode::kAllTerms, 10);
  EXPECT_EQ(hits.size(), 2u);
  hits = index_.Search("fox", QueryMode::kAllTerms, 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, "d1");
  EXPECT_TRUE(index_.Search("cat", QueryMode::kAllTerms, 10).empty());
}

TEST_F(InvertedIndexTest, AllTermsVsAnyTerm) {
  index_.ApplyMutation(Mut("d1", R"({"t":"alpha beta"})", 1));
  index_.ApplyMutation(Mut("d2", R"({"t":"alpha gamma"})", 2));
  EXPECT_EQ(index_.Search("alpha beta", QueryMode::kAllTerms, 10).size(), 1u);
  EXPECT_EQ(index_.Search("alpha beta", QueryMode::kAnyTerm, 10).size(), 2u);
}

TEST_F(InvertedIndexTest, PrefixSearch) {
  index_.ApplyMutation(Mut("d1", R"({"t":"connect"})", 1));
  index_.ApplyMutation(Mut("d2", R"({"t":"connection"})", 2));
  index_.ApplyMutation(Mut("d3", R"({"t":"consistent"})", 3));
  EXPECT_EQ(index_.Search("connect*", QueryMode::kAllTerms, 10).size(), 2u);
  EXPECT_EQ(index_.Search("con*", QueryMode::kAllTerms, 10).size(), 3u);
}

TEST_F(InvertedIndexTest, PhraseSearch) {
  index_.ApplyMutation(Mut("d1", R"({"t":"new york city"})", 1));
  index_.ApplyMutation(Mut("d2", R"({"t":"york has a new city hall"})", 2));
  auto hits = index_.Search("new york", QueryMode::kPhrase, 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, "d1");
  // Both match as AND though.
  EXPECT_EQ(index_.Search("new york", QueryMode::kAllTerms, 10).size(), 2u);
}

TEST_F(InvertedIndexTest, UpdateReplacesPostings) {
  index_.ApplyMutation(Mut("d1", R"({"t":"original words"})", 1));
  index_.ApplyMutation(Mut("d1", R"({"t":"replacement text"})", 2));
  EXPECT_TRUE(index_.Search("original", QueryMode::kAllTerms, 10).empty());
  EXPECT_EQ(index_.Search("replacement", QueryMode::kAllTerms, 10).size(), 1u);
  EXPECT_EQ(index_.num_docs(), 1u);
}

TEST_F(InvertedIndexTest, DeleteRemovesDoc) {
  index_.ApplyMutation(Mut("d1", R"({"t":"ephemeral"})", 1));
  index_.ApplyMutation(Mut("d1", "", 2, /*deleted=*/true));
  EXPECT_TRUE(index_.Search("ephemeral", QueryMode::kAllTerms, 10).empty());
  EXPECT_EQ(index_.num_docs(), 0u);
  EXPECT_EQ(index_.num_terms(), 0u);
}

TEST_F(InvertedIndexTest, RareTermsScoreHigher) {
  // "common" appears everywhere; "rare" once. A doc matching the rare term
  // should outrank one matching only common terms in an OR query.
  for (int i = 0; i < 20; ++i) {
    index_.ApplyMutation(
        Mut("common" + std::to_string(i), R"({"t":"common filler"})",
            static_cast<uint64_t>(i + 1)));
  }
  index_.ApplyMutation(Mut("special", R"({"t":"rare common"})", 100));
  auto hits = index_.Search("rare common", QueryMode::kAnyTerm, 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc_id, "special");
}

class SearchServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    service_ = std::make_shared<SearchService>(&cluster_);
    client_ = std::make_unique<client::SmartClient>(&cluster_, "default");
  }

  cluster::Cluster cluster_;
  std::shared_ptr<SearchService> service_;
  std::unique_ptr<client::SmartClient> client_;
};

TEST_F(SearchServiceTest, EndToEndSearch) {
  ASSERT_TRUE(client_
                  ->Upsert("review::1",
                           R"({"text":"The couch was comfortable and stylish"})")
                  .ok());
  ASSERT_TRUE(client_
                  ->Upsert("review::2",
                           R"({"text":"Terrible couch, springs poking out"})")
                  .ok());
  ASSERT_TRUE(
      client_->Upsert("review::3", R"({"text":"Lovely desk lamp"})").ok());
  FtsIndexDefinition def;
  def.name = "reviews";
  def.bucket = "default";
  ASSERT_TRUE(service_->CreateIndex(def).ok());

  auto hits = service_->Search("default", "reviews", "couch",
                               QueryMode::kAllTerms, 10, /*consistent=*/true);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), 2u);

  // Writes after index creation are searchable too (DCP-fed).
  ASSERT_TRUE(
      client_->Upsert("review::4", R"({"text":"another couch story"})").ok());
  hits = service_->Search("default", "reviews", "couch",
                          QueryMode::kAllTerms, 10, true);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 3u);
}

TEST_F(SearchServiceTest, FieldRestrictedIndex) {
  ASSERT_TRUE(client_
                  ->Upsert("doc::1",
                           R"({"title":"findable","internal":"hidden"})")
                  .ok());
  FtsIndexDefinition def;
  def.name = "titles";
  def.bucket = "default";
  def.fields = {"title"};
  ASSERT_TRUE(service_->CreateIndex(def).ok());
  EXPECT_EQ(service_
                ->Search("default", "titles", "findable",
                         QueryMode::kAllTerms, 10, true)
                ->size(),
            1u);
  EXPECT_TRUE(service_
                  ->Search("default", "titles", "hidden",
                           QueryMode::kAllTerms, 10, true)
                  ->empty());
}

TEST_F(SearchServiceTest, SurvivesRebalance) {
  FtsIndexDefinition def;
  def.name = "all";
  def.bucket = "default";
  ASSERT_TRUE(service_->CreateIndex(def).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("doc" + std::to_string(i),
                             R"({"text":"searchable payload )" +
                                 std::to_string(i) + "\"}")
                    .ok());
  }
  cluster_.AddNode();
  ASSERT_TRUE(cluster_.Rebalance().ok());
  auto hits = service_->Search("default", "all", "searchable",
                               QueryMode::kAllTerms, 100, true);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), 50u);
}

TEST_F(SearchServiceTest, DropIndex) {
  FtsIndexDefinition def;
  def.name = "tmp";
  def.bucket = "default";
  ASSERT_TRUE(service_->CreateIndex(def).ok());
  ASSERT_TRUE(service_->DropIndex("default", "tmp").ok());
  EXPECT_FALSE(service_->Search("default", "tmp", "x").ok());
}

}  // namespace
}  // namespace couchkv::fts
