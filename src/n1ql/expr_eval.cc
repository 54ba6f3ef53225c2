#include "n1ql/expr_eval.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

namespace couchkv::n1ql {

namespace {

using json::Value;

#define EVAL_CHECK(var, expr)                 \
  auto var##_or = Eval((expr), ctx);          \
  if (!var##_or.ok()) return var##_or.status(); \
  const Value& var = *var##_or

Value EvalPathOn(const Value& base, const std::vector<PathSegment>& path,
                 size_t start) {
  const Value* cur = &base;
  static const Value kMissing;
  for (size_t i = start; i < path.size(); ++i) {
    if (path[i].is_index()) {
      cur = &cur->At(static_cast<size_t>(path[i].index));
    } else {
      cur = &cur->Field(path[i].field);
    }
    if (cur->is_missing()) return kMissing;
  }
  return *cur;
}

}  // namespace

bool IsAggregateFunction(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Classic two-pointer wildcard match; % = any run, _ = one char.
  size_t ti = 0, pi = 0;
  size_t star_t = std::string::npos, star_p = std::string::npos;
  while (ti < text.size()) {
    if (pi < pattern.size() &&
        (pattern[pi] == '_' || pattern[pi] == text[ti])) {
      ++ti;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_p = pi++;
      star_t = ti;
    } else if (star_p != std::string::npos) {
      pi = star_p + 1;
      ti = ++star_t;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') ++pi;
  return pi == pattern.size();
}

namespace {

StatusOr<Value> EvalFunction(const Expr& e, const EvalContext& ctx);

StatusOr<Value> EvalBinary(const Expr& e, const EvalContext& ctx) {
  // AND/OR get special (short-circuiting, three-valued) treatment.
  if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
    EVAL_CHECK(lhs, *e.children[0]);
    bool is_and = e.binary_op == BinaryOp::kAnd;
    bool l_known = !lhs.is_missing() && !lhs.is_null();
    if (l_known && lhs.Truthy() != is_and) {
      return Value::Bool(!is_and);  // false AND x / true OR x
    }
    EVAL_CHECK(rhs, *e.children[1]);
    bool r_known = !rhs.is_missing() && !rhs.is_null();
    if (r_known && rhs.Truthy() != is_and) return Value::Bool(!is_and);
    if (!l_known || !r_known) return Value::Null();
    return Value::Bool(is_and);
  }

  EVAL_CHECK(lhs, *e.children[0]);
  EVAL_CHECK(rhs, *e.children[1]);

  switch (e.binary_op) {
    case BinaryOp::kEq:
    case BinaryOp::kNeq:
    case BinaryOp::kLt:
    case BinaryOp::kLte:
    case BinaryOp::kGt:
    case BinaryOp::kGte: {
      if (lhs.is_missing() || rhs.is_missing()) return Value::Missing();
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      int c = Value::Compare(lhs, rhs);
      switch (e.binary_op) {
        case BinaryOp::kEq: return Value::Bool(c == 0);
        case BinaryOp::kNeq: return Value::Bool(c != 0);
        case BinaryOp::kLt: return Value::Bool(c < 0);
        case BinaryOp::kLte: return Value::Bool(c <= 0);
        case BinaryOp::kGt: return Value::Bool(c > 0);
        default: return Value::Bool(c >= 0);
      }
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      if (lhs.is_missing() || rhs.is_missing()) return Value::Missing();
      if (!lhs.is_number() || !rhs.is_number()) return Value::Null();
      double a = lhs.AsNumber(), b = rhs.AsNumber();
      switch (e.binary_op) {
        case BinaryOp::kAdd: return Value::Number(a + b);
        case BinaryOp::kSub: return Value::Number(a - b);
        case BinaryOp::kMul: return Value::Number(a * b);
        case BinaryOp::kDiv:
          return b == 0 ? Value::Null() : Value::Number(a / b);
        default:
          return b == 0 ? Value::Null()
                        : Value::Number(std::fmod(a, b));
      }
    }
    case BinaryOp::kLike:
    case BinaryOp::kNotLike: {
      if (lhs.is_missing() || rhs.is_missing()) return Value::Missing();
      if (!lhs.is_string() || !rhs.is_string()) return Value::Null();
      bool m = LikeMatch(lhs.AsString(), rhs.AsString());
      return Value::Bool(e.binary_op == BinaryOp::kLike ? m : !m);
    }
    case BinaryOp::kConcat: {
      if (!lhs.is_string() || !rhs.is_string()) return Value::Null();
      return Value::Str(lhs.AsString() + rhs.AsString());
    }
    case BinaryOp::kIn:
    case BinaryOp::kNotIn: {
      if (lhs.is_missing() || rhs.is_missing()) return Value::Missing();
      if (!rhs.is_array()) return Value::Null();
      bool found = false;
      for (const Value& v : rhs.AsArray()) {
        if (Value::Compare(lhs, v) == 0) {
          found = true;
          break;
        }
      }
      return Value::Bool(e.binary_op == BinaryOp::kIn ? found : !found);
    }
    default:
      return Status::Internal("unhandled binary op");
  }
}

StatusOr<Value> EvalFunction(const Expr& e, const EvalContext& ctx) {
  const std::string& fn = e.fn_name;

  // Aggregates must have been computed by the Group operator.
  if (IsAggregateFunction(fn)) {
    if (ctx.aggregates != nullptr) {
      auto it = ctx.aggregates->find(e.ToString());
      if (it != ctx.aggregates->end()) return it->second;
    }
    return Status::PlanError("aggregate " + fn +
                             " used outside GROUP BY / aggregate query");
  }

  // Internal helpers produced by the parser.
  if (fn == "__field__") {
    EVAL_CHECK(base, *e.children[0]);
    EVAL_CHECK(name, *e.children[1]);
    if (!name.is_string()) return Value::Missing();
    return base.Field(name.AsString());
  }
  if (fn == "__element__") {
    EVAL_CHECK(base, *e.children[0]);
    EVAL_CHECK(idx, *e.children[1]);
    if (!idx.is_number()) return Value::Missing();
    return base.At(static_cast<size_t>(idx.AsNumber()));
  }
  if (fn == "__star__") {
    return Eval(*e.children[0], ctx);
  }

  std::vector<Value> args;
  args.reserve(e.children.size());
  for (const ExprPtr& c : e.children) {
    EVAL_CHECK(v, *c);
    args.push_back(v);
  }
  auto arity = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::InvalidArgument(fn + " expects " + std::to_string(n) +
                                     " argument(s)");
    }
    return Status::OK();
  };

  if (fn == "lower" || fn == "upper") {
    COUCHKV_RETURN_IF_ERROR(arity(1));
    if (!args[0].is_string()) return Value::Null();
    std::string s = args[0].AsString();
    for (char& c : s) {
      c = fn == "lower" ? static_cast<char>(std::tolower(c))
                        : static_cast<char>(std::toupper(c));
    }
    return Value::Str(std::move(s));
  }
  if (fn == "length") {
    COUCHKV_RETURN_IF_ERROR(arity(1));
    if (!args[0].is_string()) return Value::Null();
    return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (fn == "substr") {
    if (args.size() < 2 || args.size() > 3) {
      return Status::InvalidArgument("substr expects 2 or 3 arguments");
    }
    if (!args[0].is_string() || !args[1].is_number()) return Value::Null();
    const std::string& s = args[0].AsString();
    auto pos = static_cast<size_t>(std::max(0.0, args[1].AsNumber()));
    if (pos >= s.size()) return Value::Str("");
    size_t len = args.size() == 3 && args[2].is_number()
                     ? static_cast<size_t>(args[2].AsNumber())
                     : std::string::npos;
    return Value::Str(s.substr(pos, len));
  }
  if (fn == "abs" || fn == "floor" || fn == "ceil" || fn == "round") {
    COUCHKV_RETURN_IF_ERROR(arity(1));
    if (!args[0].is_number()) return Value::Null();
    double d = args[0].AsNumber();
    if (fn == "abs") d = std::fabs(d);
    else if (fn == "floor") d = std::floor(d);
    else if (fn == "ceil") d = std::ceil(d);
    else d = std::round(d);
    return Value::Number(d);
  }
  if (fn == "array_length") {
    COUCHKV_RETURN_IF_ERROR(arity(1));
    if (!args[0].is_array()) return Value::Null();
    return Value::Int(static_cast<int64_t>(args[0].AsArray().size()));
  }
  if (fn == "array_contains") {
    COUCHKV_RETURN_IF_ERROR(arity(2));
    if (!args[0].is_array()) return Value::Null();
    for (const Value& v : args[0].AsArray()) {
      if (Value::Compare(v, args[1]) == 0) return Value::Bool(true);
    }
    return Value::Bool(false);
  }
  if (fn == "to_string") {
    COUCHKV_RETURN_IF_ERROR(arity(1));
    if (args[0].is_string()) return args[0];
    return Value::Str(args[0].ToJson());
  }
  if (fn == "to_number") {
    COUCHKV_RETURN_IF_ERROR(arity(1));
    if (args[0].is_number()) return args[0];
    if (args[0].is_string()) {
      char* end = nullptr;
      const std::string& s = args[0].AsString();
      double d = std::strtod(s.c_str(), &end);
      if (end == s.c_str() + s.size() && !s.empty()) return Value::Number(d);
    }
    return Value::Null();
  }
  if (fn == "type") {
    COUCHKV_RETURN_IF_ERROR(arity(1));
    return Value::Str(json::TypeName(args[0].type()));
  }
  if (fn == "greatest" || fn == "least") {
    if (args.empty()) return Value::Null();
    Value best = args[0];
    for (const Value& v : args) {
      int c = Value::Compare(v, best);
      if ((fn == "greatest" && c > 0) || (fn == "least" && c < 0)) best = v;
    }
    return best;
  }
  if (fn == "ifmissing") {
    for (const Value& v : args) {
      if (!v.is_missing()) return v;
    }
    return Value::Missing();
  }
  if (fn == "ifnull") {
    for (const Value& v : args) {
      if (!v.is_null() && !v.is_missing()) return v;
    }
    return Value::Null();
  }
  return Status::InvalidArgument("unknown function: " + fn);
}

}  // namespace

StatusOr<Value> Eval(const Expr& e, const EvalContext& ctx) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kParameter: {
      if (ctx.params == nullptr || e.param_index == 0 ||
          e.param_index > ctx.params->size()) {
        return Status::InvalidArgument("parameter $" +
                                       std::to_string(e.param_index) +
                                       " not supplied");
      }
      return (*ctx.params)[e.param_index - 1];
    }
    case ExprKind::kPath: {
      if (ctx.row == nullptr || e.path.empty()) return Value::Missing();
      const std::string& head = e.path[0].field;
      // A leading segment naming a binding (alias or collection variable)
      // roots the path there; otherwise resolve against the default alias.
      auto it = e.path[0].is_index() ? ctx.row->bindings.end()
                                     : ctx.row->bindings.find(head);
      if (it != ctx.row->bindings.end()) {
        return EvalPathOn(it->second.value, e.path, 1);
      }
      auto def = ctx.row->bindings.find(ctx.default_alias);
      if (def == ctx.row->bindings.end()) return Value::Missing();
      return EvalPathOn(def->second.value, e.path, 0);
    }
    case ExprKind::kMeta: {
      if (ctx.row == nullptr) return Value::Missing();
      const std::string& alias =
          e.meta_alias.empty() ? ctx.default_alias : e.meta_alias;
      auto it = ctx.row->bindings.find(alias);
      if (it == ctx.row->bindings.end()) return Value::Missing();
      if (e.meta_field == "id") return Value::Str(it->second.meta_id);
      return Value::Number(static_cast<double>(it->second.meta_cas));
    }
    case ExprKind::kUnary: {
      EVAL_CHECK(v, *e.children[0]);
      if (e.unary_op == UnaryOp::kNeg) {
        if (!v.is_number()) return Value::Null();
        return Value::Number(-v.AsNumber());
      }
      if (v.is_missing()) return Value::Missing();
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.Truthy());
    }
    case ExprKind::kBinary:
      return EvalBinary(e, ctx);
    case ExprKind::kIsPredicate: {
      EVAL_CHECK(v, *e.children[0]);
      switch (e.is_kind) {
        case IsKind::kNull: return Value::Bool(v.is_null());
        case IsKind::kNotNull:
          return Value::Bool(!v.is_null() && !v.is_missing());
        case IsKind::kMissing: return Value::Bool(v.is_missing());
        case IsKind::kNotMissing: return Value::Bool(!v.is_missing());
        case IsKind::kValued:
          return Value::Bool(!v.is_null() && !v.is_missing());
      }
      return Value::Null();
    }
    case ExprKind::kFunction:
      return EvalFunction(e, ctx);
    case ExprKind::kArrayLiteral: {
      Value::Array arr;
      arr.reserve(e.children.size());
      for (const ExprPtr& c : e.children) {
        EVAL_CHECK(v, *c);
        arr.push_back(v);
      }
      return Value::MakeArray(std::move(arr));
    }
    case ExprKind::kObjectLiteral: {
      Value::Object obj;
      for (size_t i = 0; i < e.children.size(); ++i) {
        EVAL_CHECK(v, *e.children[i]);
        obj[e.object_keys[i]] = v;
      }
      return Value::MakeObject(std::move(obj));
    }
    case ExprKind::kCollection: {
      EVAL_CHECK(arr, *e.children[0]);
      if (!arr.is_array()) return Value::Bool(e.coll_kind == CollectionKind::kEvery);
      Row extended = ctx.row ? *ctx.row : Row{};
      EvalContext inner = ctx;
      inner.row = &extended;
      bool every = e.coll_kind == CollectionKind::kEvery;
      for (const Value& elem : arr.AsArray()) {
        extended.bindings[e.var_name] = BoundDoc{elem, "", 0};
        auto cond = EvalCondition(*e.children[1], inner);
        if (!cond.ok()) return cond.status();
        if (*cond && !every) return Value::Bool(true);   // ANY satisfied
        if (!*cond && every) return Value::Bool(false);  // EVERY violated
      }
      return Value::Bool(every);
    }
    case ExprKind::kArrayComprehension: {
      EVAL_CHECK(arr, *e.children[1]);
      if (!arr.is_array()) return Value::Missing();
      Row extended = ctx.row ? *ctx.row : Row{};
      EvalContext inner = ctx;
      inner.row = &extended;
      Value::Array out;
      for (const Value& elem : arr.AsArray()) {
        extended.bindings[e.var_name] = BoundDoc{elem, "", 0};
        if (e.children.size() > 2 && e.children[2]) {
          auto cond = EvalCondition(*e.children[2], inner);
          if (!cond.ok()) return cond.status();
          if (!*cond) continue;
        }
        auto v = Eval(*e.children[0], inner);
        if (!v.ok()) return v.status();
        out.push_back(std::move(v).value());
      }
      return Value::MakeArray(std::move(out));
    }
    case ExprKind::kCase: {
      for (const CaseArm& arm : e.case_arms) {
        auto cond = EvalCondition(*arm.when, ctx);
        if (!cond.ok()) return cond.status();
        if (*cond) return Eval(*arm.then, ctx);
      }
      if (e.case_else) return Eval(*e.case_else, ctx);
      return Value::Null();
    }
  }
  return Status::Internal("unhandled expression kind");
}

StatusOr<bool> EvalCondition(const Expr& expr, const EvalContext& ctx) {
  auto v = Eval(expr, ctx);
  if (!v.ok()) return v.status();
  return v->Truthy();
}

#undef EVAL_CHECK

}  // namespace couchkv::n1ql
