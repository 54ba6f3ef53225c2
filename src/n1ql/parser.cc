#include "n1ql/parser.h"

#include "n1ql/lexer.h"

namespace couchkv::n1ql {

namespace {

#define PARSE_CHECK(expr)            \
  do {                               \
    Status _st = (expr);             \
    if (!_st.ok()) return _st;       \
  } while (0)

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Statement> ParseStatementTop() {
    Statement stmt;
    if (AcceptKeyword("EXPLAIN")) stmt.explain = true;
    if (PeekKeyword("SELECT")) {
      stmt.kind = Statement::Kind::kSelect;
      PARSE_CHECK(ParseSelect(&stmt.select));
    } else if (PeekKeyword("INSERT") || PeekKeyword("UPSERT")) {
      stmt.kind = Statement::Kind::kInsert;
      PARSE_CHECK(ParseInsert(&stmt.insert));
    } else if (PeekKeyword("UPDATE")) {
      stmt.kind = Statement::Kind::kUpdate;
      PARSE_CHECK(ParseUpdate(&stmt.update));
    } else if (PeekKeyword("DELETE")) {
      stmt.kind = Statement::Kind::kDelete;
      PARSE_CHECK(ParseDelete(&stmt.del));
    } else if (PeekKeyword("CREATE")) {
      stmt.kind = Statement::Kind::kCreateIndex;
      PARSE_CHECK(ParseCreateIndex(&stmt.create_index));
    } else if (PeekKeyword("DROP")) {
      stmt.kind = Statement::Kind::kDropIndex;
      PARSE_CHECK(ParseDropIndex(&stmt.drop_index));
    } else {
      return Err("expected a statement");
    }
    Accept(TokenType::kSemicolon);
    if (!Peek(TokenType::kEof)) return Err("trailing tokens after statement");
    return stmt;
  }

  StatusOr<ExprPtr> ParseExpressionTop() {
    ExprPtr e;
    PARSE_CHECK(ParseExpr(&e));
    if (!Peek(TokenType::kEof)) return Err("trailing tokens after expression");
    return e;
  }

 private:
  // --- token helpers ---
  const Token& Cur() const { return tokens_[pos_]; }
  bool Peek(TokenType t) const { return Cur().type == t; }
  bool PeekKeyword(std::string_view kw) const {
    return Cur().type == TokenType::kIdentifier && Cur().upper == kw;
  }
  bool Accept(TokenType t) {
    if (Peek(t)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(TokenType t, const std::string& what) {
    if (!Accept(t)) return Err("expected " + what);
    return Status::OK();
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) return Err("expected " + std::string(kw));
    return Status::OK();
  }
  Status Err(const std::string& what) const {
    return Status::ParseError("parse error near offset " +
                              std::to_string(Cur().offset) + ": " + what);
  }
  // Identifier that is not treated as a keyword here.
  StatusOr<std::string> ExpectIdent(const std::string& what) {
    if (!Peek(TokenType::kIdentifier)) return Err("expected " + what);
    std::string name = Cur().text;
    ++pos_;
    return name;
  }

  // --- statements ---

  Status ParseSelect(SelectStatement* out) {
    PARSE_CHECK(ExpectKeyword("SELECT"));
    if (AcceptKeyword("DISTINCT")) out->distinct = true;
    else AcceptKeyword("ALL");
    // select list
    for (;;) {
      SelectItem item;
      if (Accept(TokenType::kStar)) {
        item.star = true;
      } else {
        PARSE_CHECK(ParseExpr(&item.expr));
        // `alias`.* form shows up as a path whose last segment is '*'.. we
        // instead detect "expr DOT STAR" inside ParsePathSuffix; here handle
        // AS alias.
        if (AcceptKeyword("AS")) {
          auto name = ExpectIdent("alias after AS");
          if (!name.ok()) return name.status();
          item.alias = *name;
        } else if (Peek(TokenType::kIdentifier) && !IsClauseKeyword()) {
          item.alias = Cur().text;
          ++pos_;
        }
        if (item.expr->kind == ExprKind::kPath && item.alias.empty()) {
          // Default output name: last path segment.
          for (auto it = item.expr->path.rbegin(); it != item.expr->path.rend();
               ++it) {
            if (!it->is_index()) {
              item.alias = it->field;
              break;
            }
          }
        }
      }
      out->items.push_back(std::move(item));
      if (!Accept(TokenType::kComma)) break;
    }
    // FROM
    if (AcceptKeyword("FROM")) {
      FromTerm from;
      auto ks = ExpectIdent("keyspace after FROM");
      if (!ks.ok()) return ks.status();
      from.keyspace = *ks;
      // Dotted keyspaces like catalog.details: treat the last part as the
      // keyspace name (namespaces are not modeled).
      while (Accept(TokenType::kDot)) {
        auto part = ExpectIdent("keyspace part");
        if (!part.ok()) return part.status();
        from.keyspace = *part;
      }
      if (AcceptKeyword("AS")) {
        auto alias = ExpectIdent("alias");
        if (!alias.ok()) return alias.status();
        from.alias = *alias;
      } else if (Peek(TokenType::kIdentifier) && !IsClauseKeyword() &&
                 !PeekKeyword("USE") && !PeekKeyword("JOIN") &&
                 !PeekKeyword("INNER") && !PeekKeyword("LEFT") &&
                 !PeekKeyword("NEST") && !PeekKeyword("UNNEST")) {
        from.alias = Cur().text;
        ++pos_;
      }
      if (from.alias.empty()) from.alias = from.keyspace;
      if (AcceptKeyword("USE")) {
        PARSE_CHECK(ExpectKeyword("KEYS"));
        PARSE_CHECK(ParseExpr(&from.use_keys));
      }
      out->from = std::move(from);
      // join chain
      for (;;) {
        JoinClause jc;
        if (AcceptKeyword("INNER")) {
          PARSE_CHECK(ExpectKeyword("JOIN"));
          jc.kind = JoinClause::Kind::kJoin;
          jc.join_kind = JoinKind::kInner;
        } else if (AcceptKeyword("LEFT")) {
          AcceptKeyword("OUTER");
          if (AcceptKeyword("NEST")) {
            jc.kind = JoinClause::Kind::kNest;
          } else {
            PARSE_CHECK(ExpectKeyword("JOIN"));
            jc.kind = JoinClause::Kind::kJoin;
          }
          jc.join_kind = JoinKind::kLeftOuter;
        } else if (AcceptKeyword("JOIN")) {
          jc.kind = JoinClause::Kind::kJoin;
          jc.join_kind = JoinKind::kInner;
        } else if (AcceptKeyword("NEST")) {
          jc.kind = JoinClause::Kind::kNest;
        } else if (AcceptKeyword("UNNEST")) {
          jc.kind = JoinClause::Kind::kUnnest;
        } else {
          break;
        }
        if (jc.kind == JoinClause::Kind::kUnnest) {
          PARSE_CHECK(ParseExpr(&jc.unnest_expr));
          if (AcceptKeyword("AS")) {
            auto alias = ExpectIdent("alias");
            if (!alias.ok()) return alias.status();
            jc.alias = *alias;
          } else if (Peek(TokenType::kIdentifier) && !IsClauseKeyword() &&
                     !PeekJoinKeyword()) {
            jc.alias = Cur().text;
            ++pos_;
          }
          if (jc.alias.empty()) return Err("UNNEST requires an alias");
        } else {
          auto ks = ExpectIdent("keyspace");
          if (!ks.ok()) return ks.status();
          jc.keyspace = *ks;
          if (AcceptKeyword("AS")) {
            auto alias = ExpectIdent("alias");
            if (!alias.ok()) return alias.status();
            jc.alias = *alias;
          } else if (Peek(TokenType::kIdentifier) && !PeekKeyword("ON")) {
            jc.alias = Cur().text;
            ++pos_;
          }
          if (jc.alias.empty()) jc.alias = jc.keyspace;
          PARSE_CHECK(ExpectKeyword("ON"));
          if (AcceptKeyword("KEYS")) {
            PARSE_CHECK(ParseExpr(&jc.on_keys));
          } else {
            // General join condition — only the analytics service runs it.
            PARSE_CHECK(ParseExpr(&jc.on_condition));
          }
        }
        out->joins.push_back(std::move(jc));
      }
    }
    if (AcceptKeyword("WHERE")) PARSE_CHECK(ParseExpr(&out->where));
    if (AcceptKeyword("GROUP")) {
      PARSE_CHECK(ExpectKeyword("BY"));
      for (;;) {
        ExprPtr e;
        PARSE_CHECK(ParseExpr(&e));
        out->group_by.push_back(std::move(e));
        if (!Accept(TokenType::kComma)) break;
      }
      if (AcceptKeyword("HAVING")) PARSE_CHECK(ParseExpr(&out->having));
    }
    if (AcceptKeyword("ORDER")) {
      PARSE_CHECK(ExpectKeyword("BY"));
      for (;;) {
        OrderKey key;
        PARSE_CHECK(ParseExpr(&key.expr));
        if (AcceptKeyword("DESC")) key.descending = true;
        else AcceptKeyword("ASC");
        out->order_by.push_back(std::move(key));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("LIMIT")) PARSE_CHECK(ParseExpr(&out->limit));
    if (AcceptKeyword("OFFSET")) PARSE_CHECK(ParseExpr(&out->offset));
    return Status::OK();
  }

  Status ParseInsert(InsertStatement* out) {
    out->upsert = AcceptKeyword("UPSERT");
    if (!out->upsert) PARSE_CHECK(ExpectKeyword("INSERT"));
    PARSE_CHECK(ExpectKeyword("INTO"));
    auto ks = ExpectIdent("keyspace");
    if (!ks.ok()) return ks.status();
    out->keyspace = *ks;
    PARSE_CHECK(Expect(TokenType::kLParen, "'('"));
    PARSE_CHECK(ExpectKeyword("KEY"));
    PARSE_CHECK(Expect(TokenType::kComma, "','"));
    PARSE_CHECK(ExpectKeyword("VALUE"));
    PARSE_CHECK(Expect(TokenType::kRParen, "')'"));
    PARSE_CHECK(ExpectKeyword("VALUES"));
    for (;;) {
      PARSE_CHECK(Expect(TokenType::kLParen, "'('"));
      ExprPtr key, value;
      PARSE_CHECK(ParseExpr(&key));
      PARSE_CHECK(Expect(TokenType::kComma, "','"));
      PARSE_CHECK(ParseExpr(&value));
      PARSE_CHECK(Expect(TokenType::kRParen, "')'"));
      out->values.emplace_back(std::move(key), std::move(value));
      if (!Accept(TokenType::kComma)) break;
    }
    return Status::OK();
  }

  Status ParseUpdate(UpdateStatement* out) {
    PARSE_CHECK(ExpectKeyword("UPDATE"));
    auto ks = ExpectIdent("keyspace");
    if (!ks.ok()) return ks.status();
    out->keyspace = *ks;
    out->alias = out->keyspace;
    if (AcceptKeyword("AS")) {
      auto alias = ExpectIdent("alias");
      if (!alias.ok()) return alias.status();
      out->alias = *alias;
    }
    if (AcceptKeyword("USE")) {
      PARSE_CHECK(ExpectKeyword("KEYS"));
      PARSE_CHECK(ParseExpr(&out->use_keys));
    }
    if (AcceptKeyword("SET")) {
      for (;;) {
        UpdatePair pair;
        PARSE_CHECK(ParsePathText(&pair.path));
        PARSE_CHECK(Expect(TokenType::kEq, "'='"));
        PARSE_CHECK(ParseExpr(&pair.value));
        out->set.push_back(std::move(pair));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("UNSET")) {
      for (;;) {
        std::string path;
        PARSE_CHECK(ParsePathText(&path));
        out->unset.push_back(std::move(path));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("WHERE")) PARSE_CHECK(ParseExpr(&out->where));
    if (AcceptKeyword("LIMIT")) PARSE_CHECK(ParseExpr(&out->limit));
    return Status::OK();
  }

  Status ParseDelete(DeleteStatement* out) {
    PARSE_CHECK(ExpectKeyword("DELETE"));
    PARSE_CHECK(ExpectKeyword("FROM"));
    auto ks = ExpectIdent("keyspace");
    if (!ks.ok()) return ks.status();
    out->keyspace = *ks;
    out->alias = out->keyspace;
    if (AcceptKeyword("AS")) {
      auto alias = ExpectIdent("alias");
      if (!alias.ok()) return alias.status();
      out->alias = *alias;
    }
    if (AcceptKeyword("USE")) {
      PARSE_CHECK(ExpectKeyword("KEYS"));
      PARSE_CHECK(ParseExpr(&out->use_keys));
    }
    if (AcceptKeyword("WHERE")) PARSE_CHECK(ParseExpr(&out->where));
    if (AcceptKeyword("LIMIT")) PARSE_CHECK(ParseExpr(&out->limit));
    return Status::OK();
  }

  Status ParseCreateIndex(CreateIndexStatement* out) {
    PARSE_CHECK(ExpectKeyword("CREATE"));
    if (AcceptKeyword("PRIMARY")) out->primary = true;
    PARSE_CHECK(ExpectKeyword("INDEX"));
    if (Peek(TokenType::kIdentifier) && !PeekKeyword("ON")) {
      out->name = Cur().text;
      ++pos_;
    } else if (out->primary) {
      out->name = "#primary";
    } else {
      return Err("index name required");
    }
    PARSE_CHECK(ExpectKeyword("ON"));
    auto ks = ExpectIdent("keyspace");
    if (!ks.ok()) return ks.status();
    out->keyspace = *ks;
    if (!out->primary) {
      PARSE_CHECK(Expect(TokenType::kLParen, "'('"));
      for (;;) {
        // Array index form: DISTINCT ARRAY v FOR v IN path END.
        if (AcceptKeyword("DISTINCT") || AcceptKeyword("ALL")) {
          PARSE_CHECK(ExpectKeyword("ARRAY"));
          auto var = ExpectIdent("variable");
          if (!var.ok()) return var.status();
          PARSE_CHECK(ExpectKeyword("FOR"));
          auto var2 = ExpectIdent("variable");
          if (!var2.ok()) return var2.status();
          if (*var != *var2) return Err("array index variable mismatch");
          PARSE_CHECK(ExpectKeyword("IN"));
          ExprPtr arr;
          PARSE_CHECK(ParseExpr(&arr));
          PARSE_CHECK(ExpectKeyword("END"));
          out->array_index = true;
          out->keys.push_back(std::move(arr));
        } else {
          ExprPtr e;
          PARSE_CHECK(ParseExpr(&e));
          out->keys.push_back(std::move(e));
        }
        if (!Accept(TokenType::kComma)) break;
      }
      PARSE_CHECK(Expect(TokenType::kRParen, "')'"));
    }
    if (AcceptKeyword("WHERE")) PARSE_CHECK(ParseExpr(&out->where));
    if (AcceptKeyword("USING")) {
      if (AcceptKeyword("GSI")) {
        out->using_clause = CreateIndexStatement::Using::kGsi;
      } else if (AcceptKeyword("VIEW")) {
        out->using_clause = CreateIndexStatement::Using::kView;
      } else {
        return Err("expected GSI or VIEW after USING");
      }
    }
    if (AcceptKeyword("WITH")) {
      // WITH { "memory_optimized": true, "num_partitions": 4, ... }
      ExprPtr with;
      PARSE_CHECK(ParseExpr(&with));
      if (with->kind == ExprKind::kObjectLiteral) {
        for (size_t i = 0; i < with->object_keys.size(); ++i) {
          const std::string& k = with->object_keys[i];
          const ExprPtr& v = with->children[i];
          if (v->kind != ExprKind::kLiteral) continue;
          if (k == "memory_optimized") {
            out->memory_optimized = v->literal.Truthy();
          } else if (k == "num_partitions") {
            out->num_partitions =
                static_cast<uint32_t>(v->literal.AsNumber());
          }
          // "defer_build" and friends are accepted and ignored.
        }
      }
    }
    return Status::OK();
  }

  Status ParseDropIndex(DropIndexStatement* out) {
    PARSE_CHECK(ExpectKeyword("DROP"));
    PARSE_CHECK(ExpectKeyword("INDEX"));
    auto ks = ExpectIdent("keyspace");
    if (!ks.ok()) return ks.status();
    out->keyspace = *ks;
    PARSE_CHECK(Expect(TokenType::kDot, "'.'"));
    auto name = ExpectIdent("index name");
    if (!name.ok()) return name.status();
    out->name = *name;
    return Status::OK();
  }

  // A dotted path as raw text, e.g. "a.b[2].c" (for UPDATE SET targets).
  Status ParsePathText(std::string* out) {
    auto first = ExpectIdent("path");
    if (!first.ok()) return first.status();
    *out = *first;
    for (;;) {
      if (Accept(TokenType::kDot)) {
        auto part = ExpectIdent("path segment");
        if (!part.ok()) return part.status();
        *out += "." + *part;
      } else if (Accept(TokenType::kLBracket)) {
        if (!Peek(TokenType::kNumber)) return Err("expected array index");
        *out += "[" + std::to_string(static_cast<long long>(Cur().number)) +
                "]";
        ++pos_;
        PARSE_CHECK(Expect(TokenType::kRBracket, "']'"));
      } else {
        break;
      }
    }
    return Status::OK();
  }

  bool IsClauseKeyword() const {
    static const char* kClauses[] = {
        "FROM",  "WHERE", "GROUP",  "HAVING", "ORDER",  "LIMIT",
        "OFFSET", "AS",   "ON",     "USE",    "SET",    "UNSET",
        "VALUES", "END",  "SATISFIES", "WHEN", "THEN", "ELSE", "FOR", "IN",
        "AND", "OR", "NOT", "ASC", "DESC", "USING", "WITH", "BY"};
    for (const char* kw : kClauses) {
      if (PeekKeyword(kw)) return true;
    }
    return false;
  }
  bool PeekJoinKeyword() const {
    return PeekKeyword("JOIN") || PeekKeyword("INNER") ||
           PeekKeyword("LEFT") || PeekKeyword("NEST") || PeekKeyword("UNNEST");
  }

  // --- expressions (precedence climbing) ---

  Status ParseExpr(ExprPtr* out) { return ParseOr(out); }

  Status ParseOr(ExprPtr* out) {
    PARSE_CHECK(ParseAnd(out));
    while (AcceptKeyword("OR")) {
      ExprPtr rhs;
      PARSE_CHECK(ParseAnd(&rhs));
      *out = MakeBinary(BinaryOp::kOr, *out, rhs);
    }
    return Status::OK();
  }

  Status ParseAnd(ExprPtr* out) {
    PARSE_CHECK(ParseNot(out));
    while (AcceptKeyword("AND")) {
      ExprPtr rhs;
      PARSE_CHECK(ParseNot(&rhs));
      *out = MakeBinary(BinaryOp::kAnd, *out, rhs);
    }
    return Status::OK();
  }

  Status ParseNot(ExprPtr* out) {
    if (AcceptKeyword("NOT")) {
      ExprPtr inner;
      PARSE_CHECK(ParseNot(&inner));
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kUnary;
      e->unary_op = UnaryOp::kNot;
      e->children = {inner};
      *out = e;
      return Status::OK();
    }
    return ParseComparison(out);
  }

  Status ParseComparison(ExprPtr* out) {
    PARSE_CHECK(ParseAdditive(out));
    // IS predicates
    if (AcceptKeyword("IS")) {
      bool negated = AcceptKeyword("NOT");
      IsKind kind;
      if (AcceptKeyword("NULL")) {
        kind = negated ? IsKind::kNotNull : IsKind::kNull;
      } else if (AcceptKeyword("MISSING")) {
        kind = negated ? IsKind::kNotMissing : IsKind::kMissing;
      } else if (AcceptKeyword("VALUED")) {
        kind = IsKind::kValued;
        if (negated) return Err("IS NOT VALUED not supported");
      } else {
        return Err("expected NULL, MISSING or VALUED after IS");
      }
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kIsPredicate;
      e->is_kind = kind;
      e->children = {*out};
      *out = e;
      return Status::OK();
    }
    bool negated = false;
    if (PeekKeyword("NOT")) {
      // NOT LIKE / NOT IN / NOT BETWEEN
      size_t save = pos_;
      ++pos_;
      if (PeekKeyword("LIKE") || PeekKeyword("IN") || PeekKeyword("BETWEEN")) {
        negated = true;
      } else {
        pos_ = save;
        return Status::OK();
      }
    }
    if (AcceptKeyword("LIKE")) {
      ExprPtr rhs;
      PARSE_CHECK(ParseAdditive(&rhs));
      *out = MakeBinary(negated ? BinaryOp::kNotLike : BinaryOp::kLike, *out,
                        rhs);
      return Status::OK();
    }
    if (AcceptKeyword("IN")) {
      ExprPtr rhs;
      PARSE_CHECK(ParseAdditive(&rhs));
      *out = MakeBinary(negated ? BinaryOp::kNotIn : BinaryOp::kIn, *out, rhs);
      return Status::OK();
    }
    if (AcceptKeyword("BETWEEN")) {
      ExprPtr lo, hi;
      PARSE_CHECK(ParseAdditive(&lo));
      PARSE_CHECK(ExpectKeyword("AND"));
      PARSE_CHECK(ParseAdditive(&hi));
      // a BETWEEN lo AND hi  ==>  a >= lo AND a <= hi
      ExprPtr ge = MakeBinary(BinaryOp::kGte, *out, lo);
      ExprPtr le = MakeBinary(BinaryOp::kLte, *out, hi);
      ExprPtr both = MakeBinary(BinaryOp::kAnd, ge, le);
      if (negated) {
        auto e = std::make_shared<Expr>();
        e->kind = ExprKind::kUnary;
        e->unary_op = UnaryOp::kNot;
        e->children = {both};
        *out = e;
      } else {
        *out = both;
      }
      return Status::OK();
    }
    BinaryOp op;
    if (Accept(TokenType::kEq)) op = BinaryOp::kEq;
    else if (Accept(TokenType::kNeq)) op = BinaryOp::kNeq;
    else if (Accept(TokenType::kLte)) op = BinaryOp::kLte;
    else if (Accept(TokenType::kLt)) op = BinaryOp::kLt;
    else if (Accept(TokenType::kGte)) op = BinaryOp::kGte;
    else if (Accept(TokenType::kGt)) op = BinaryOp::kGt;
    else return Status::OK();
    ExprPtr rhs;
    PARSE_CHECK(ParseAdditive(&rhs));
    *out = MakeBinary(op, *out, rhs);
    return Status::OK();
  }

  Status ParseAdditive(ExprPtr* out) {
    PARSE_CHECK(ParseMultiplicative(out));
    for (;;) {
      BinaryOp op;
      if (Accept(TokenType::kPlus)) op = BinaryOp::kAdd;
      else if (Accept(TokenType::kMinus)) op = BinaryOp::kSub;
      else if (Accept(TokenType::kConcat)) op = BinaryOp::kConcat;
      else break;
      ExprPtr rhs;
      PARSE_CHECK(ParseMultiplicative(&rhs));
      *out = MakeBinary(op, *out, rhs);
    }
    return Status::OK();
  }

  Status ParseMultiplicative(ExprPtr* out) {
    PARSE_CHECK(ParseUnary(out));
    for (;;) {
      BinaryOp op;
      if (Accept(TokenType::kStar)) op = BinaryOp::kMul;
      else if (Accept(TokenType::kSlash)) op = BinaryOp::kDiv;
      else if (Accept(TokenType::kPercent)) op = BinaryOp::kMod;
      else break;
      ExprPtr rhs;
      PARSE_CHECK(ParseUnary(&rhs));
      *out = MakeBinary(op, *out, rhs);
    }
    return Status::OK();
  }

  Status ParseUnary(ExprPtr* out) {
    if (Accept(TokenType::kMinus)) {
      ExprPtr inner;
      PARSE_CHECK(ParseUnary(&inner));
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kUnary;
      e->unary_op = UnaryOp::kNeg;
      e->children = {inner};
      *out = e;
      return Status::OK();
    }
    return ParsePrimary(out);
  }

  Status ParsePrimary(ExprPtr* out) {
    const Token& t = Cur();
    switch (t.type) {
      case TokenType::kNumber: {
        ++pos_;
        *out = MakeLiteral(json::Value::Number(t.number));
        return Status::OK();
      }
      case TokenType::kString: {
        ++pos_;
        *out = MakeLiteral(json::Value::Str(t.text));
        return Status::OK();
      }
      case TokenType::kParameter: {
        ++pos_;
        auto e = std::make_shared<Expr>();
        e->kind = ExprKind::kParameter;
        e->param_index = t.param_index;
        *out = e;
        return Status::OK();
      }
      case TokenType::kLParen: {
        ++pos_;
        PARSE_CHECK(ParseExpr(out));
        return Expect(TokenType::kRParen, "')'");
      }
      case TokenType::kLBracket: {
        ++pos_;
        auto e = std::make_shared<Expr>();
        e->kind = ExprKind::kArrayLiteral;
        if (!Accept(TokenType::kRBracket)) {
          for (;;) {
            ExprPtr elem;
            PARSE_CHECK(ParseExpr(&elem));
            e->children.push_back(std::move(elem));
            if (!Accept(TokenType::kComma)) break;
          }
          PARSE_CHECK(Expect(TokenType::kRBracket, "']'"));
        }
        *out = e;
        return Status::OK();
      }
      case TokenType::kLBrace: {
        ++pos_;
        auto e = std::make_shared<Expr>();
        e->kind = ExprKind::kObjectLiteral;
        if (!Accept(TokenType::kRBrace)) {
          for (;;) {
            if (!Peek(TokenType::kString) && !Peek(TokenType::kIdentifier)) {
              return Err("expected object key");
            }
            e->object_keys.push_back(Cur().text);
            ++pos_;
            PARSE_CHECK(Expect(TokenType::kColon, "':'"));
            ExprPtr v;
            PARSE_CHECK(ParseExpr(&v));
            e->children.push_back(std::move(v));
            if (!Accept(TokenType::kComma)) break;
          }
          PARSE_CHECK(Expect(TokenType::kRBrace, "'}'"));
        }
        *out = e;
        return Status::OK();
      }
      case TokenType::kIdentifier:
        return ParseIdentifierExpr(out);
      default:
        return Err("expected expression");
    }
  }

  // Words that may never start a plain path expression (they would swallow
  // clause structure); backticked identifiers bypass this (empty .upper).
  static bool IsReservedWord(const std::string& upper) {
    static const char* kReserved[] = {
        "SELECT", "FROM",  "WHERE", "GROUP",  "BY",     "HAVING", "ORDER",
        "LIMIT",  "OFFSET", "AS",   "ON",     "USE",    "KEYS",   "SET",
        "UNSET",  "VALUES", "INSERT", "UPSERT", "UPDATE", "DELETE", "CREATE",
        "DROP",   "INDEX",  "JOIN", "INNER",  "LEFT",   "OUTER",  "NEST",
        "UNNEST", "AND",    "OR",   "NOT",    "IS",     "IN",     "LIKE",
        "BETWEEN", "END",   "SATISFIES", "WHEN", "THEN", "ELSE",  "DISTINCT",
        "USING",  "WITH",   "ASC",  "DESC",   "INTO",   "PRIMARY", "FOR",
        "EXPLAIN"};
    for (const char* kw : kReserved) {
      if (upper == kw) return true;
    }
    return false;
  }

  Status ParseIdentifierExpr(ExprPtr* out) {
    // Keyword-led expressions first.
    if (PeekKeyword("NULL")) {
      ++pos_;
      *out = MakeLiteral(json::Value::Null());
      return Status::OK();
    }
    if (PeekKeyword("MISSING")) {
      ++pos_;
      *out = MakeLiteral(json::Value::Missing());
      return Status::OK();
    }
    if (PeekKeyword("TRUE")) {
      ++pos_;
      *out = MakeLiteral(json::Value::Bool(true));
      return Status::OK();
    }
    if (PeekKeyword("FALSE")) {
      ++pos_;
      *out = MakeLiteral(json::Value::Bool(false));
      return Status::OK();
    }
    if (PeekKeyword("CASE")) return ParseCase(out);
    if (PeekKeyword("ANY") || PeekKeyword("EVERY")) return ParseAnyEvery(out);
    if (PeekKeyword("ARRAY")) return ParseArrayComprehension(out);
    if (PeekKeyword("META")) return ParseMeta(out);

    if (IsReservedWord(Cur().upper)) {
      return Err("unexpected keyword " + Cur().upper + " in expression");
    }
    std::string name = Cur().text;
    ++pos_;
    if (Accept(TokenType::kLParen)) {
      // function call
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kFunction;
      e->fn_name = name;
      for (char& c : e->fn_name) c = static_cast<char>(std::tolower(c));
      if (Accept(TokenType::kStar)) {
        e->fn_star = true;
      } else if (!Peek(TokenType::kRParen)) {
        if (AcceptKeyword("DISTINCT")) e->fn_distinct = true;
        for (;;) {
          ExprPtr arg;
          PARSE_CHECK(ParseExpr(&arg));
          e->children.push_back(std::move(arg));
          if (!Accept(TokenType::kComma)) break;
        }
      }
      PARSE_CHECK(Expect(TokenType::kRParen, "')'"));
      *out = e;
      return ParsePathSuffix(out);  // e.g. meta-like fn().field
    }
    // Plain path: name(.field | [idx])*
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kPath;
    PathSegment seg;
    seg.field = name;
    e->path.push_back(seg);
    *out = e;
    return ParsePathSuffix(out);
  }

  Status ParsePathSuffix(ExprPtr* out) {
    for (;;) {
      if (Accept(TokenType::kDot)) {
        if (Accept(TokenType::kStar)) {
          // alias.* — only meaningful in a select list; represent as a
          // function "star" over the path.
          auto e = std::make_shared<Expr>();
          e->kind = ExprKind::kFunction;
          e->fn_name = "__star__";
          e->children = {*out};
          *out = e;
          return Status::OK();
        }
        auto part = ExpectIdent("path segment");
        if (!part.ok()) return part.status();
        if ((*out)->kind == ExprKind::kPath) {
          PathSegment seg;
          seg.field = *part;
          (*out)->path.push_back(seg);
        } else {
          // field access on a non-path expression (e.g. fn().field): wrap.
          auto e = std::make_shared<Expr>();
          e->kind = ExprKind::kFunction;
          e->fn_name = "__field__";
          e->children = {*out, MakeLiteral(json::Value::Str(*part))};
          *out = e;
        }
      } else if (Accept(TokenType::kLBracket)) {
        if (Peek(TokenType::kNumber)) {
          int64_t idx = static_cast<int64_t>(Cur().number);
          ++pos_;
          PARSE_CHECK(Expect(TokenType::kRBracket, "']'"));
          if ((*out)->kind == ExprKind::kPath) {
            PathSegment seg;
            seg.index = idx;
            (*out)->path.push_back(seg);
          } else {
            auto e = std::make_shared<Expr>();
            e->kind = ExprKind::kFunction;
            e->fn_name = "__element__";
            e->children = {*out, MakeLiteral(json::Value::Int(idx))};
            *out = e;
          }
        } else {
          ExprPtr idx;
          PARSE_CHECK(ParseExpr(&idx));
          PARSE_CHECK(Expect(TokenType::kRBracket, "']'"));
          auto e = std::make_shared<Expr>();
          e->kind = ExprKind::kFunction;
          e->fn_name = "__element__";
          e->children = {*out, idx};
          *out = e;
        }
      } else {
        return Status::OK();
      }
    }
  }

  Status ParseMeta(ExprPtr* out) {
    ++pos_;  // META
    PARSE_CHECK(Expect(TokenType::kLParen, "'(' after META"));
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kMeta;
    if (Peek(TokenType::kIdentifier)) {
      e->meta_alias = Cur().text;
      ++pos_;
    }
    PARSE_CHECK(Expect(TokenType::kRParen, "')'"));
    PARSE_CHECK(Expect(TokenType::kDot, "'.' after META()"));
    auto field = ExpectIdent("meta field");
    if (!field.ok()) return field.status();
    e->meta_field = *field;
    for (char& c : e->meta_field) c = static_cast<char>(std::tolower(c));
    if (e->meta_field != "id" && e->meta_field != "cas") {
      return Err("META() supports .id and .cas");
    }
    *out = e;
    return Status::OK();
  }

  Status ParseAnyEvery(ExprPtr* out) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kCollection;
    e->coll_kind =
        AcceptKeyword("ANY") ? CollectionKind::kAny : CollectionKind::kEvery;
    if (e->coll_kind == CollectionKind::kEvery) PARSE_CHECK(ExpectKeyword("EVERY"));
    auto var = ExpectIdent("variable");
    if (!var.ok()) return var.status();
    e->var_name = *var;
    PARSE_CHECK(ExpectKeyword("IN"));
    ExprPtr arr;
    PARSE_CHECK(ParseExpr(&arr));
    PARSE_CHECK(ExpectKeyword("SATISFIES"));
    ExprPtr cond;
    PARSE_CHECK(ParseExpr(&cond));
    PARSE_CHECK(ExpectKeyword("END"));
    e->children = {arr, cond};
    *out = e;
    return Status::OK();
  }

  Status ParseArrayComprehension(ExprPtr* out) {
    ++pos_;  // ARRAY
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kArrayComprehension;
    ExprPtr body;
    PARSE_CHECK(ParseExpr(&body));
    PARSE_CHECK(ExpectKeyword("FOR"));
    auto var = ExpectIdent("variable");
    if (!var.ok()) return var.status();
    e->var_name = *var;
    PARSE_CHECK(ExpectKeyword("IN"));
    ExprPtr arr;
    PARSE_CHECK(ParseExpr(&arr));
    ExprPtr when;
    if (AcceptKeyword("WHEN")) PARSE_CHECK(ParseExpr(&when));
    PARSE_CHECK(ExpectKeyword("END"));
    e->children = {body, arr, when};
    *out = e;
    return Status::OK();
  }

  Status ParseCase(ExprPtr* out) {
    ++pos_;  // CASE
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kCase;
    while (AcceptKeyword("WHEN")) {
      CaseArm arm;
      PARSE_CHECK(ParseExpr(&arm.when));
      PARSE_CHECK(ExpectKeyword("THEN"));
      PARSE_CHECK(ParseExpr(&arm.then));
      e->case_arms.push_back(std::move(arm));
    }
    if (e->case_arms.empty()) return Err("CASE requires at least one WHEN");
    if (AcceptKeyword("ELSE")) PARSE_CHECK(ParseExpr(&e->case_else));
    PARSE_CHECK(ExpectKeyword("END"));
    *out = e;
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

#undef PARSE_CHECK

}  // namespace

StatusOr<Statement> ParseStatement(std::string_view query) {
  auto tokens = Tokenize(query);
  if (!tokens.ok()) return tokens.status();
  return Parser(std::move(tokens).value()).ParseStatementTop();
}

StatusOr<ExprPtr> ParseExpression(std::string_view text) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  return Parser(std::move(tokens).value()).ParseExpressionTop();
}

}  // namespace couchkv::n1ql
