// Tests for the N1QL lexer, parser, and expression evaluator.
#include <gtest/gtest.h>

#include "n1ql/expr_eval.h"
#include "n1ql/lexer.h"
#include "n1ql/parser.h"

namespace couchkv::n1ql {
namespace {

using json::Value;

// --- Lexer ---

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT * FROM b WHERE a >= 10").value();
  ASSERT_EQ(tokens.size(), 9u);  // incl. EOF
  EXPECT_EQ(tokens[0].upper, "SELECT");
  EXPECT_EQ(tokens[1].type, TokenType::kStar);
  EXPECT_EQ(tokens[6].type, TokenType::kGte);
  EXPECT_EQ(tokens[7].number, 10.0);
}

TEST(LexerTest, StringsAndEscapes) {
  auto tokens = Tokenize("'it''s' \"two\"").value();
  EXPECT_EQ(tokens[0].text, "it's");
  EXPECT_EQ(tokens[1].text, "two");
}

TEST(LexerTest, BacktickIdentifiers) {
  auto tokens = Tokenize("`Profile Bucket`").value();
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "Profile Bucket");
}

TEST(LexerTest, Parameters) {
  auto tokens = Tokenize("$1 $42").value();
  EXPECT_EQ(tokens[0].param_index, 1u);
  EXPECT_EQ(tokens[1].param_index, 42u);
}

TEST(LexerTest, Comments) {
  auto tokens = Tokenize("SELECT -- line comment\n 1 /* block */ + 2").value();
  EXPECT_EQ(tokens.size(), 5u);  // SELECT 1 + 2 EOF
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("`unterminated").ok());
  EXPECT_FALSE(Tokenize("$abc").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

// --- Parser: statements ---

TEST(ParserTest, SimpleSelect) {
  auto stmt = ParseStatement("SELECT name, email FROM profiles WHERE age > 21")
                  .value();
  EXPECT_EQ(stmt.kind, Statement::Kind::kSelect);
  ASSERT_EQ(stmt.select.items.size(), 2u);
  EXPECT_EQ(stmt.select.items[0].alias, "name");
  ASSERT_TRUE(stmt.select.from.has_value());
  EXPECT_EQ(stmt.select.from->keyspace, "profiles");
  ASSERT_NE(stmt.select.where, nullptr);
}

TEST(ParserTest, UseKeysSingle) {
  auto stmt =
      ParseStatement(R"(SELECT * FROM profiles USE KEYS "acme-uuid-1234")")
          .value();
  ASSERT_NE(stmt.select.from->use_keys, nullptr);
  EXPECT_EQ(stmt.select.from->use_keys->kind, ExprKind::kLiteral);
}

TEST(ParserTest, UseKeysMultiple) {
  auto stmt = ParseStatement(
                  R"(SELECT * FROM profiles USE KEYS ["k1", "k2"])")
                  .value();
  EXPECT_EQ(stmt.select.from->use_keys->kind, ExprKind::kArrayLiteral);
}

TEST(ParserTest, PaperNestExample) {
  // The NEST example from §3.2.3 of the paper.
  auto stmt = ParseStatement(R"(
      SELECT PO.personal_details, orders
      FROM profiles_orders PO
      USE KEYS 'borkar123'
      NEST profiles_orders AS orders
      ON KEYS ARRAY s.order_id FOR s IN PO.shipped_order_history END)")
                  .value();
  ASSERT_EQ(stmt.select.joins.size(), 1u);
  const JoinClause& nest = stmt.select.joins[0];
  EXPECT_EQ(nest.kind, JoinClause::Kind::kNest);
  EXPECT_EQ(nest.alias, "orders");
  ASSERT_NE(nest.on_keys, nullptr);
  EXPECT_EQ(nest.on_keys->kind, ExprKind::kArrayComprehension);
}

TEST(ParserTest, PaperUnnestExample) {
  auto stmt = ParseStatement(
                  "SELECT DISTINCT categories FROM product "
                  "UNNEST product.categories AS categories")
                  .value();
  EXPECT_TRUE(stmt.select.distinct);
  ASSERT_EQ(stmt.select.joins.size(), 1u);
  EXPECT_EQ(stmt.select.joins[0].kind, JoinClause::Kind::kUnnest);
  EXPECT_EQ(stmt.select.joins[0].alias, "categories");
}

TEST(ParserTest, PaperJoinExample) {
  auto stmt = ParseStatement(
                  "SELECT * FROM ORDERS O INNER JOIN CUSTOMER C "
                  "ON KEYS O.O_C_ID")
                  .value();
  ASSERT_EQ(stmt.select.joins.size(), 1u);
  EXPECT_EQ(stmt.select.joins[0].join_kind, JoinKind::kInner);
  EXPECT_EQ(stmt.select.joins[0].keyspace, "CUSTOMER");
  EXPECT_EQ(stmt.select.joins[0].alias, "C");
}

// LEFT [OUTER] NEST keeps the left row when no inner doc is found; both
// spellings parse to an outer NEST, and a bare LEFT still needs JOIN or NEST.
TEST(ParserTest, LeftNestIsOuterNest) {
  for (const char* query :
       {"SELECT o, cs FROM orders o LEFT NEST customers cs ON KEYS o.cust",
        "SELECT o, cs FROM orders o LEFT OUTER NEST customers AS cs "
        "ON KEYS o.cust"}) {
    SCOPED_TRACE(query);
    auto stmt = ParseStatement(query);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    ASSERT_EQ(stmt->select.joins.size(), 1u);
    const JoinClause& nest = stmt->select.joins[0];
    EXPECT_EQ(nest.kind, JoinClause::Kind::kNest);
    EXPECT_EQ(nest.join_kind, JoinKind::kLeftOuter);
    EXPECT_EQ(nest.keyspace, "customers");
    EXPECT_EQ(nest.alias, "cs");
    ASSERT_NE(nest.on_keys, nullptr);
  }
  EXPECT_EQ(ParseStatement("SELECT o FROM orders o NEST customers cs "
                           "ON KEYS o.cust")
                ->select.joins[0]
                .join_kind,
            JoinKind::kInner);
  EXPECT_FALSE(ParseStatement("SELECT o FROM orders o LEFT UNNEST o.items i")
                   .ok());
}

TEST(ParserTest, OrderLimitOffset) {
  auto stmt = ParseStatement(
                  "SELECT title FROM catalog.details "
                  "ORDER BY title DESC LIMIT 10 OFFSET 5")
                  .value();
  EXPECT_EQ(stmt.select.from->keyspace, "details");
  ASSERT_EQ(stmt.select.order_by.size(), 1u);
  EXPECT_TRUE(stmt.select.order_by[0].descending);
  ASSERT_NE(stmt.select.limit, nullptr);
  ASSERT_NE(stmt.select.offset, nullptr);
}

TEST(ParserTest, GroupByHaving) {
  auto stmt = ParseStatement(
                  "SELECT city, COUNT(*) AS n FROM users "
                  "GROUP BY city HAVING COUNT(*) > 2")
                  .value();
  EXPECT_EQ(stmt.select.group_by.size(), 1u);
  ASSERT_NE(stmt.select.having, nullptr);
}

TEST(ParserTest, Explain) {
  auto stmt = ParseStatement("EXPLAIN SELECT * FROM b USE KEYS 'k'").value();
  EXPECT_TRUE(stmt.explain);
}

TEST(ParserTest, WorkloadEQuery) {
  // The exact query shape of §10.1.2.
  auto stmt = ParseStatement(
                  "SELECT meta().id AS id FROM `bucket` "
                  "WHERE meta().id >= $1 LIMIT $2")
                  .value();
  ASSERT_EQ(stmt.select.items.size(), 1u);
  EXPECT_EQ(stmt.select.items[0].expr->kind, ExprKind::kMeta);
  EXPECT_EQ(stmt.select.items[0].alias, "id");
}

TEST(ParserTest, InsertUpsert) {
  auto ins = ParseStatement(
                 R"(INSERT INTO b (KEY, VALUE) VALUES ("k1", {"a": 1}),
                    ("k2", {"a": 2}))")
                 .value();
  EXPECT_EQ(ins.kind, Statement::Kind::kInsert);
  EXPECT_FALSE(ins.insert.upsert);
  EXPECT_EQ(ins.insert.values.size(), 2u);
  auto ups =
      ParseStatement(R"(UPSERT INTO b (KEY, VALUE) VALUES ("k", 1))").value();
  EXPECT_TRUE(ups.insert.upsert);
}

TEST(ParserTest, UpdateSetUnsetWhere) {
  auto stmt = ParseStatement(
                  "UPDATE profiles USE KEYS 'k' "
                  "SET age = 31, addr.city = 'SF' UNSET temp WHERE age > 1")
                  .value();
  EXPECT_EQ(stmt.kind, Statement::Kind::kUpdate);
  ASSERT_EQ(stmt.update.set.size(), 2u);
  EXPECT_EQ(stmt.update.set[1].path, "addr.city");
  ASSERT_EQ(stmt.update.unset.size(), 1u);
}

TEST(ParserTest, DeleteWithWhere) {
  auto stmt =
      ParseStatement("DELETE FROM b WHERE doc_type = 'stale' LIMIT 10")
          .value();
  EXPECT_EQ(stmt.kind, Statement::Kind::kDelete);
  ASSERT_NE(stmt.del.where, nullptr);
}

TEST(ParserTest, CreateIndexVariants) {
  // Paper §3.3 examples.
  auto view_idx =
      ParseStatement("CREATE INDEX email ON `Profile` (email) USING VIEW")
          .value();
  EXPECT_EQ(view_idx.create_index.using_clause,
            CreateIndexStatement::Using::kView);

  auto gsi_idx =
      ParseStatement("CREATE INDEX email ON `Profile` (email) USING GSI")
          .value();
  EXPECT_EQ(gsi_idx.create_index.using_clause,
            CreateIndexStatement::Using::kGsi);

  auto partial = ParseStatement(
                     "CREATE INDEX over21 ON `Profile`(age) "
                     "WHERE age > 21 USING GSI")
                     .value();
  ASSERT_NE(partial.create_index.where, nullptr);

  auto primary = ParseStatement(
                     "CREATE PRIMARY INDEX profile_pk_gsi ON Profile "
                     "USING GSI WITH {\"defer_build\": true}")
                     .value();
  EXPECT_TRUE(primary.create_index.primary);

  auto arr = ParseStatement(
                 "CREATE INDEX by_cat ON product "
                 "(DISTINCT ARRAY c FOR c IN categories END)")
                 .value();
  EXPECT_TRUE(arr.create_index.array_index);

  auto drop = ParseStatement("DROP INDEX Profile.email").value();
  EXPECT_EQ(drop.kind, Statement::Kind::kDropIndex);
  EXPECT_EQ(drop.drop_index.name, "email");
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseStatement("SELECT FROM").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM b WHERE").ok());
  EXPECT_FALSE(ParseStatement("FLURB 1").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM b extra garbage !").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO b (KEY) VALUES ('k')").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM b JOIN c").ok());  // no ON KEYS
}

// --- Expression evaluation ---

class EvalTest : public ::testing::Test {
 protected:
  Value EvalText(const std::string& text) {
    auto expr = ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    EvalContext ctx;
    ctx.row = &row_;
    ctx.default_alias = "d";
    ctx.params = &params_;
    auto v = Eval(**expr, ctx);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() ? std::move(v).value() : Value::Missing();
  }

  void BindDoc(const std::string& json_text) {
    row_.bindings["d"] =
        BoundDoc{json::Parse(json_text).value(), "doc-id-1", 777};
  }

  Row row_;
  std::vector<Value> params_;
};

TEST_F(EvalTest, Arithmetic) {
  EXPECT_DOUBLE_EQ(EvalText("1 + 2 * 3").AsNumber(), 7.0);
  EXPECT_DOUBLE_EQ(EvalText("(1 + 2) * 3").AsNumber(), 9.0);
  EXPECT_DOUBLE_EQ(EvalText("10 % 3").AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(EvalText("-5 + 2").AsNumber(), -3.0);
  EXPECT_TRUE(EvalText("1 / 0").is_null());
  EXPECT_TRUE(EvalText("1 + 'x'").is_null());
}

TEST_F(EvalTest, Comparisons) {
  EXPECT_TRUE(EvalText("2 > 1").AsBool());
  EXPECT_TRUE(EvalText("'abc' < 'abd'").AsBool());
  EXPECT_TRUE(EvalText("2 = 2.0").AsBool());
  EXPECT_TRUE(EvalText("2 != 3").AsBool());
  EXPECT_TRUE(EvalText("1 <> 2").AsBool());
}

TEST_F(EvalTest, BetweenAndIn) {
  EXPECT_TRUE(EvalText("5 BETWEEN 1 AND 10").AsBool());
  EXPECT_FALSE(EvalText("15 BETWEEN 1 AND 10").AsBool());
  EXPECT_TRUE(EvalText("2 IN [1, 2, 3]").AsBool());
  EXPECT_TRUE(EvalText("9 NOT IN [1, 2, 3]").AsBool());
}

TEST_F(EvalTest, LogicThreeValued) {
  EXPECT_TRUE(EvalText("TRUE AND TRUE").AsBool());
  EXPECT_FALSE(EvalText("TRUE AND FALSE").AsBool());
  EXPECT_FALSE(EvalText("FALSE AND NULL").AsBool());  // false dominates
  EXPECT_TRUE(EvalText("NULL AND TRUE").is_null());
  EXPECT_TRUE(EvalText("TRUE OR NULL").AsBool());
  EXPECT_TRUE(EvalText("NOT FALSE").AsBool());
  EXPECT_TRUE(EvalText("NOT NULL").is_null());
}

TEST_F(EvalTest, MissingPropagation) {
  BindDoc(R"({"a":1})");
  EXPECT_TRUE(EvalText("nope > 1").is_missing());
  EXPECT_TRUE(EvalText("nope IS MISSING").AsBool());
  EXPECT_TRUE(EvalText("a IS NOT MISSING").AsBool());
  EXPECT_TRUE(EvalText("a IS VALUED").AsBool());
}

TEST_F(EvalTest, PathNavigation) {
  BindDoc(R"({"a":{"b":[{"c":5},{"c":6}]},"name":"X"})");
  EXPECT_DOUBLE_EQ(EvalText("a.b[1].c").AsNumber(), 6.0);
  EXPECT_EQ(EvalText("d.name").AsString(), "X");  // alias-qualified
  EXPECT_EQ(EvalText("name").AsString(), "X");    // implicit alias
}

TEST_F(EvalTest, MetaFunctions) {
  BindDoc(R"({"a":1})");
  EXPECT_EQ(EvalText("META().id").AsString(), "doc-id-1");
  EXPECT_EQ(EvalText("META(d).id").AsString(), "doc-id-1");
  EXPECT_DOUBLE_EQ(EvalText("META(d).cas").AsNumber(), 777.0);
}

TEST_F(EvalTest, Like) {
  EXPECT_TRUE(EvalText("'hello' LIKE 'h%'").AsBool());
  EXPECT_TRUE(EvalText("'hello' LIKE 'h_llo'").AsBool());
  EXPECT_FALSE(EvalText("'hello' LIKE 'H%'").AsBool());
  EXPECT_TRUE(EvalText("'hello' NOT LIKE 'x%'").AsBool());
  EXPECT_TRUE(EvalText("'abc' LIKE '%'").AsBool());
  EXPECT_TRUE(EvalText("'' LIKE '%'").AsBool());
}

TEST_F(EvalTest, StringFunctions) {
  EXPECT_EQ(EvalText("LOWER('ABC')").AsString(), "abc");
  EXPECT_EQ(EvalText("UPPER('abc')").AsString(), "ABC");
  EXPECT_DOUBLE_EQ(EvalText("LENGTH('abcd')").AsNumber(), 4.0);
  EXPECT_EQ(EvalText("SUBSTR('hello', 1, 3)").AsString(), "ell");
  EXPECT_EQ(EvalText("'a' || 'b'").AsString(), "ab");
}

TEST_F(EvalTest, AnyEverySatisfies) {
  BindDoc(R"({"scores":[3, 9, 5]})");
  EXPECT_TRUE(EvalText("ANY s IN scores SATISFIES s > 8 END").AsBool());
  EXPECT_FALSE(EvalText("ANY s IN scores SATISFIES s > 10 END").AsBool());
  EXPECT_TRUE(EvalText("EVERY s IN scores SATISFIES s > 2 END").AsBool());
  EXPECT_FALSE(EvalText("EVERY s IN scores SATISFIES s > 4 END").AsBool());
}

TEST_F(EvalTest, ArrayComprehension) {
  BindDoc(R"({"items":[{"q":1},{"q":2},{"q":3}]})");
  Value v = EvalText("ARRAY i.q FOR i IN items WHEN i.q > 1 END");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.AsArray().size(), 2u);
  EXPECT_DOUBLE_EQ(v.At(0).AsNumber(), 2.0);
}

TEST_F(EvalTest, CaseWhen) {
  BindDoc(R"({"n":5})");
  EXPECT_EQ(EvalText("CASE WHEN n > 3 THEN 'big' ELSE 'small' END").AsString(),
            "big");
  EXPECT_EQ(EvalText("CASE WHEN n > 9 THEN 'big' END").type(),
            json::Type::kNull);
}

TEST_F(EvalTest, Parameters) {
  params_ = {Value::Int(42), Value::Str("x")};
  EXPECT_DOUBLE_EQ(EvalText("$1").AsNumber(), 42.0);
  EXPECT_EQ(EvalText("$2").AsString(), "x");
  auto expr = ParseExpression("$3").value();
  EvalContext ctx;
  ctx.params = &params_;
  EXPECT_FALSE(Eval(*expr, ctx).ok());  // out of range
}

TEST_F(EvalTest, ObjectAndArrayLiterals) {
  Value v = EvalText("{\"a\": 1 + 1, \"b\": [1, 'x']}");
  EXPECT_DOUBLE_EQ(v.Field("a").AsNumber(), 2.0);
  EXPECT_EQ(v.Field("b").At(1).AsString(), "x");
}

TEST_F(EvalTest, ConditionalFunctions) {
  BindDoc(R"({"a":1})");
  EXPECT_DOUBLE_EQ(EvalText("IFMISSING(nope, 7)").AsNumber(), 7.0);
  EXPECT_DOUBLE_EQ(EvalText("IFNULL(NULL, 3)").AsNumber(), 3.0);
  EXPECT_EQ(EvalText("TYPE([1])").AsString(), "array");
}

}  // namespace
}  // namespace couchkv::n1ql
