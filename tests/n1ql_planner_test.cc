// Unit tests for the N1QL planner: access-path selection, sargable range
// extraction, covering detection, partial-index implication, LIMIT
// pushdown eligibility — all without a live cluster.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "n1ql/parser.h"
#include "n1ql/planner.h"

namespace couchkv::n1ql {
namespace {

using json::Value;

SelectStatement Parse(const std::string& q) {
  auto stmt = ParseStatement(q);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return stmt->select;
}

gsi::IndexDefinition Index(const std::string& name,
                           std::vector<std::string> paths,
                           bool primary = false) {
  gsi::IndexDefinition def;
  def.name = name;
  def.bucket = "b";
  def.key_paths = std::move(paths);
  def.is_primary = primary;
  return def;
}

TEST(PlannerTest, UseKeysAlwaysWins) {
  auto stmt = Parse("SELECT * FROM b USE KEYS 'k' WHERE age = 1");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kKeyScan);
}

TEST(PlannerTest, NoFromIsNoScan) {
  auto stmt = Parse("SELECT 1");
  auto plan = PlanSelect(stmt, {}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kNoScan);
}

TEST(PlannerTest, NoIndexesIsPlanError) {
  auto stmt = Parse("SELECT * FROM b WHERE age = 1");
  auto plan = PlanSelect(stmt, {}, {});
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kPlanError);
}

TEST(PlannerTest, EqualityProducesPointRange) {
  auto stmt = Parse("SELECT age FROM b WHERE age = 30");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kIndexScan);
  ASSERT_TRUE(plan->scan.range.lo.has_value());
  ASSERT_TRUE(plan->scan.range.hi.has_value());
  EXPECT_EQ(plan->scan.range.lo->AsInt(), 30);
  EXPECT_EQ(plan->scan.range.hi->AsInt(), 30);
}

TEST(PlannerTest, RangePredicatesCombineBounds) {
  auto stmt = Parse("SELECT age FROM b WHERE age >= 10 AND age < 20");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.range.lo->AsInt(), 10);
  EXPECT_TRUE(plan->scan.range.lo_inclusive);
  EXPECT_EQ(plan->scan.range.hi->AsInt(), 20);
  EXPECT_FALSE(plan->scan.range.hi_inclusive);
  EXPECT_TRUE(plan->scan.where_consumed);
}

TEST(PlannerTest, FlippedComparisonNormalized) {
  // 10 <= age  ==>  age >= 10
  auto stmt = Parse("SELECT age FROM b WHERE 10 <= age");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kIndexScan);
  EXPECT_EQ(plan->scan.range.lo->AsInt(), 10);
}

TEST(PlannerTest, ParameterBoundsResolved) {
  auto stmt = Parse("SELECT age FROM b WHERE age > $1");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {Value::Int(42)});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.range.lo->AsInt(), 42);
  EXPECT_FALSE(plan->scan.range.lo_inclusive);
}

TEST(PlannerTest, CoveringDetection) {
  auto covered = Parse("SELECT age FROM b WHERE age > 5 ORDER BY age");
  auto plan = PlanSelect(covered, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->scan.covering);

  auto uncovered = Parse("SELECT age, name FROM b WHERE age > 5");
  plan = PlanSelect(uncovered, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->scan.covering);

  auto star = Parse("SELECT * FROM b WHERE age > 5");
  plan = PlanSelect(star, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->scan.covering);
}

TEST(PlannerTest, CompositeIndexCoversSecondKey) {
  auto stmt = Parse("SELECT city FROM b WHERE age = 30");
  auto plan = PlanSelect(stmt, {Index("by_age_city", {"age", "city"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kIndexScan);
  EXPECT_TRUE(plan->scan.covering);
}

TEST(PlannerTest, MetaIdCoveredByIndexScan) {
  // meta().id rides along with every index entry.
  auto stmt = Parse("SELECT META(b).id, age FROM b WHERE age = 1");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->scan.covering);
}

TEST(PlannerTest, PartialIndexRequiresPredicateRestated) {
  gsi::IndexDefinition partial = Index("over21", {"age"});
  auto where = ParseExpression("(age > 21)").value();
  partial.where_text = where->ToString();

  auto with = Parse("SELECT age FROM b WHERE age > 21 AND age = 30");
  auto plan = PlanSelect(with, {partial}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.index_name, "over21");

  auto without = Parse("SELECT age FROM b WHERE age = 30");
  EXPECT_FALSE(PlanSelect(without, {partial}, {}).ok());
}

TEST(PlannerTest, PrimaryFallbackForUnsargablePredicate) {
  auto stmt = Parse("SELECT name FROM b WHERE LOWER(name) = 'x'");
  auto plan = PlanSelect(
      stmt, {Index("by_age", {"age"}), Index("#primary", {}, true)}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kPrimaryScan);
  EXPECT_FALSE(plan->scan.where_consumed);
}

TEST(PlannerTest, MetaIdRangeOnPrimary) {
  auto stmt = Parse("SELECT META(b).id FROM b WHERE META(b).id >= 'user1'");
  auto plan = PlanSelect(stmt, {Index("#primary", {}, true)}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kPrimaryScan);
  ASSERT_TRUE(plan->scan.range.lo.has_value());
  EXPECT_EQ(plan->scan.range.lo->AsString(), "user1");
  EXPECT_TRUE(plan->scan.where_consumed);  // LIMIT pushdown eligible
  // The primary index entry is the id itself: nothing else is read.
  EXPECT_TRUE(plan->scan.covering);
}

// Two bounds on one side: the range keeps the tighter, whatever the order,
// and on a tie the exclusive one. LIMIT pushdown relies on it.
TEST(PlannerTest, SameSideBoundsKeepTheTighter) {
  auto range_of = [](const std::string& q, bool primary) {
    auto plan = PlanSelect(
        Parse(q), {primary ? Index("#primary", {}, true) : Index("i", {"x"})},
        {});
    EXPECT_TRUE(plan.ok()) << q;
    return plan.ok() ? plan->scan.range : gsi::ScanRange{};
  };
  for (const char* q : {"SELECT x FROM b WHERE x > 6 AND x > 2",
                        "SELECT x FROM b WHERE x > 2 AND x > 6",
                        "SELECT x FROM b WHERE x >= 6 AND x > 6",
                        "SELECT x FROM b WHERE x > 6 AND x >= 6"}) {
    gsi::ScanRange r = range_of(q, false);
    ASSERT_TRUE(r.lo.has_value()) << q;
    EXPECT_EQ(r.lo->AsInt(), 6) << q;
    EXPECT_FALSE(r.lo_inclusive) << q;
  }
  for (const char* q : {"SELECT x FROM b WHERE x < 20 AND x <= 10",
                        "SELECT x FROM b WHERE x <= 10 AND x < 20",
                        "SELECT x FROM b WHERE x < 10 AND x <= 10",
                        "SELECT x FROM b WHERE x <= 10 AND x < 10"}) {
    gsi::ScanRange r = range_of(q, false);
    ASSERT_TRUE(r.hi.has_value()) << q;
    EXPECT_EQ(r.hi->AsInt(), 10) << q;
    EXPECT_EQ(r.hi_inclusive, std::string(q).find("x < 10") ==
                                  std::string::npos) << q;
  }
  for (const char* q :
       {"SELECT META().id FROM b WHERE META().id >= 'k5' AND META().id >= 'k1'",
        "SELECT META().id FROM b WHERE META().id >= 'k1' AND META().id >= 'k5'"}) {
    gsi::ScanRange r = range_of(q, true);
    ASSERT_TRUE(r.lo.has_value()) << q;
    EXPECT_EQ(r.lo->AsString(), "k5") << q;
  }
}

// No comparison holds for a NULL key, and NULL keys sort first: a range
// open below starts just above NULL.
TEST(PlannerTest, OpenLowerBoundStartsAboveNull) {
  auto plan = PlanSelect(Parse("SELECT x FROM b WHERE x < 5"),
                         {Index("i", {"x"})}, {});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->scan.range.lo.has_value());
  EXPECT_TRUE(plan->scan.range.lo->is_null());
  EXPECT_FALSE(plan->scan.range.lo_inclusive);
  EXPECT_EQ(plan->scan.range.hi->AsInt(), 5);
}

// Only a META().id comparison with a string bound on a primary scan leaves
// the filter: every id is a string, so the index order is the comparison.
TEST(PlannerTest, FilterKeepsWhatTheRangeDoesNotImply) {
  const gsi::IndexDefinition primary = Index("#primary", {}, true);
  auto filter_of = [&](const std::string& q, std::vector<Value> params,
                       std::vector<gsi::IndexDefinition> indexes) {
    auto plan = PlanSelect(Parse(q), indexes, params);
    EXPECT_TRUE(plan.ok()) << q;
    return plan.ok() && plan->filter != nullptr ? plan->filter->ToString()
                                                : std::string("<none>");
  };
  EXPECT_EQ(filter_of("SELECT META().id AS id FROM b "
                      "WHERE META().id >= $1 LIMIT $2",
                      {Value::Str("k1"), Value::Int(5)}, {primary}),
            "<none>");
  EXPECT_EQ(filter_of("SELECT META().id FROM b WHERE META().id >= 'a' "
                      "AND name = 'x' AND META(b).id < 'm'",
                      {}, {primary}),
            ParseExpression("name = 'x'").value()->ToString());
  // Non-string bounds (NULL, MISSING, numbers) are still evaluated.
  for (Value bound : {Value::Null(), Value::Missing(), Value::Int(5)}) {
    EXPECT_NE(filter_of("SELECT META().id FROM b WHERE META().id >= $1",
                        {bound}, {primary}),
              "<none>")
        << bound.ToJson();
  }
  // A secondary range keeps its WHERE; so does a statement with a join.
  EXPECT_NE(filter_of("SELECT x FROM b WHERE x > 5", {}, {Index("i", {"x"})}),
            "<none>");
  EXPECT_NE(filter_of("SELECT META(b).id FROM b JOIN c ON KEYS b.k "
                      "WHERE META(b).id >= 'a'",
                      {}, {primary}),
            "<none>");
}

TEST(PlannerTest, PrimaryScanCoversOnlyMetaIdStatements) {
  const gsi::IndexDefinition primary = Index("#primary", {}, true);
  auto covering = [&](const std::string& q) {
    auto plan = PlanSelect(Parse(q), {primary}, {Value::Str("user1")});
    EXPECT_TRUE(plan.ok()) << q;
    if (!plan.ok()) return false;
    EXPECT_EQ(plan->scan.kind, ScanKind::kPrimaryScan) << q;
    return plan->scan.covering;
  };
  EXPECT_TRUE(covering(
      "SELECT META(b).id AS id FROM b WHERE META(b).id >= $1 LIMIT 5"));
  EXPECT_TRUE(covering("SELECT COUNT(*) FROM b WHERE META().id LIKE 'u%'"));
  EXPECT_FALSE(covering("SELECT * FROM b WHERE META(b).id >= $1"));
  EXPECT_FALSE(covering("SELECT name FROM b WHERE META(b).id >= $1"));
  EXPECT_FALSE(covering("SELECT META(b).cas FROM b WHERE META(b).id >= $1"));
  EXPECT_FALSE(covering("SELECT b FROM b WHERE META(b).id >= $1"));
  EXPECT_FALSE(covering(
      "SELECT CASE WHEN META(b).id > 'a' THEN name ELSE 'x' END AS n "
      "FROM b WHERE META(b).id >= $1"));
}

TEST(PlannerTest, CoveringSeesCaseArmsAndHaving) {
  const gsi::IndexDefinition by_age = Index("by_age", {"age"});
  auto when = PlanSelect(
      Parse("SELECT CASE WHEN name = 'x' THEN 1 ELSE 0 END FROM b "
            "WHERE age > 40"),
      {by_age}, {});
  ASSERT_TRUE(when.ok());
  EXPECT_FALSE(when->scan.covering);
  auto els = PlanSelect(
      Parse("SELECT CASE WHEN age > 41 THEN 'y' ELSE name END FROM b "
            "WHERE age > 40"),
      {by_age}, {});
  ASSERT_TRUE(els.ok());
  EXPECT_FALSE(els->scan.covering);
  auto having = PlanSelect(
      Parse("SELECT age FROM b WHERE age > 40 GROUP BY age "
            "HAVING MAX(name) >= 'user2'"),
      {by_age}, {});
  ASSERT_TRUE(having.ok());
  EXPECT_FALSE(having->scan.covering);
  auto arms_on_key = PlanSelect(
      Parse("SELECT CASE WHEN age > 41 THEN age ELSE 0 END FROM b "
            "WHERE age > 40"),
      {by_age}, {});
  ASSERT_TRUE(arms_on_key.ok());
  EXPECT_TRUE(arms_on_key->scan.covering);
}

TEST(PlannerTest, ResidualPredicateBlocksPushdown) {
  auto stmt = Parse("SELECT age FROM b WHERE age > 5 AND name = 'x'");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kIndexScan);
  EXPECT_FALSE(plan->scan.where_consumed);
}

TEST(PlannerTest, EqualityPreferredOverRangeIndex) {
  auto stmt = Parse("SELECT x FROM b WHERE age = 1 AND height > 2");
  auto plan = PlanSelect(
      stmt, {Index("by_height", {"height"}), Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.index_name, "by_age");  // equality scores higher
}

TEST(PlannerTest, AggregatesDetected) {
  auto stmt = Parse("SELECT COUNT(*), MAX(age) FROM b WHERE age > 0");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->has_aggregates);
  EXPECT_EQ(plan->aggregate_exprs.size(), 2u);
}

TEST(PlannerTest, AliasQualifiedPathsMatchIndex) {
  auto stmt = Parse("SELECT p.age FROM b AS p WHERE p.age = 5");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kIndexScan);
  EXPECT_TRUE(plan->scan.covering);
}

TEST(PlannerTest, RelativePathText) {
  auto expr = ParseExpression("p.addr.city").value();
  EXPECT_EQ(RelativePathText(*expr, "p").value(), "addr.city");
  EXPECT_EQ(RelativePathText(*expr, "q").value(), "p.addr.city");
  auto idx = ParseExpression("p.tags[0]").value();
  EXPECT_EQ(RelativePathText(*idx, "p").value(), "tags[0]");
  auto lit = ParseExpression("42").value();
  EXPECT_FALSE(RelativePathText(*lit, "p").has_value());
}

}  // namespace
}  // namespace couchkv::n1ql
