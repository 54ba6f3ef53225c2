#include "json/value.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace couchkv::json {

namespace {
const Value kMissingValue;
}  // namespace

const char* TypeName(Type t) {
  switch (t) {
    case Type::kMissing: return "missing";
    case Type::kNull: return "null";
    case Type::kBool: return "boolean";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

const Value& Value::Field(std::string_view name) const {
  if (!is_object()) return kMissingValue;
  const Object& obj = AsObject();
  auto it = obj.find(std::string(name));
  return it == obj.end() ? kMissingValue : it->second;
}

const Value& Value::At(size_t index) const {
  if (!is_array()) return kMissingValue;
  const Array& arr = AsArray();
  return index < arr.size() ? arr[index] : kMissingValue;
}

namespace {

// Splits the next path segment off `path`: a field name and zero or more
// trailing [idx] subscripts. Returns false on malformed syntax.
struct PathSegment {
  std::string_view field;          // may be empty for a pure subscript
  std::vector<size_t> subscripts;  // applied after the field lookup
};

bool NextSegment(std::string_view* path, PathSegment* seg) {
  seg->field = {};
  seg->subscripts.clear();
  if (path->empty()) return false;
  size_t i = 0;
  // Field name part (up to '.' or '[').
  while (i < path->size() && (*path)[i] != '.' && (*path)[i] != '[') ++i;
  seg->field = path->substr(0, i);
  // Subscripts.
  while (i < path->size() && (*path)[i] == '[') {
    size_t close = path->find(']', i);
    if (close == std::string_view::npos) return false;
    size_t idx = 0;
    for (size_t j = i + 1; j < close; ++j) {
      char c = (*path)[j];
      if (c < '0' || c > '9') return false;
      idx = idx * 10 + static_cast<size_t>(c - '0');
    }
    seg->subscripts.push_back(idx);
    i = close + 1;
  }
  if (i < path->size()) {
    if ((*path)[i] != '.') return false;
    ++i;  // skip '.'
  }
  *path = path->substr(i);
  return true;
}

}  // namespace

const Value& Value::GetPath(std::string_view path) const {
  const Value* cur = this;
  PathSegment seg;
  while (!path.empty()) {
    if (!NextSegment(&path, &seg)) return kMissingValue;
    if (!seg.field.empty()) cur = &cur->Field(seg.field);
    for (size_t idx : seg.subscripts) cur = &cur->At(idx);
    if (cur->is_missing()) return kMissingValue;
  }
  return *cur;
}

bool Value::SetPath(std::string_view path, Value v) {
  Value* cur = this;
  PathSegment seg;
  for (;;) {
    std::string_view rest = path;
    if (!NextSegment(&rest, &seg)) return false;
    bool last = rest.empty();
    if (!seg.field.empty()) {
      if (cur->is_missing() || cur->is_null()) *cur = Value::MakeObject();
      if (!cur->is_object()) return false;
      Value& slot = cur->AsObject()[std::string(seg.field)];
      cur = &slot;
    }
    for (size_t k = 0; k < seg.subscripts.size(); ++k) {
      if (!cur->is_array()) return false;
      Array& arr = cur->AsArray();
      size_t idx = seg.subscripts[k];
      if (idx >= arr.size()) return false;
      cur = &arr[idx];
    }
    if (last) {
      *cur = std::move(v);
      return true;
    }
    path = rest;
  }
}

bool Value::RemovePath(std::string_view path) {
  // Navigate to the parent of the final segment.
  size_t last_dot = path.rfind('.');
  std::string_view parent_path =
      last_dot == std::string_view::npos ? std::string_view()
                                         : path.substr(0, last_dot);
  std::string_view leaf =
      last_dot == std::string_view::npos ? path : path.substr(last_dot + 1);
  if (leaf.empty() || leaf.find('[') != std::string_view::npos) return false;

  Value* parent = this;
  if (!parent_path.empty()) {
    // const_cast is safe: GetPath returns a reference into *this.
    const Value& p = GetPath(parent_path);
    if (&p == &kMissingValue) return false;
    parent = const_cast<Value*>(&p);
  }
  if (!parent->is_object()) return false;
  return parent->AsObject().erase(std::string(leaf)) > 0;
}

Value& Value::operator[](const std::string& key) {
  if (is_missing() || is_null()) *this = MakeObject();
  return AsObject()[key];
}

bool Value::Truthy() const {
  switch (type()) {
    case Type::kMissing:
    case Type::kNull:
      return false;
    case Type::kBool:
      return AsBool();
    case Type::kNumber:
      return AsNumber() != 0.0;
    case Type::kString:
      return !AsString().empty();
    case Type::kArray:
      return !AsArray().empty();
    case Type::kObject:
      return !AsObject().empty();
  }
  return false;
}

int Value::Compare(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return static_cast<int>(a.type()) < static_cast<int>(b.type()) ? -1 : 1;
  }
  switch (a.type()) {
    case Type::kMissing:
    case Type::kNull:
      return 0;
    case Type::kBool:
      return static_cast<int>(a.AsBool()) - static_cast<int>(b.AsBool());
    case Type::kNumber: {
      double x = a.AsNumber(), y = b.AsNumber();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case Type::kString:
      return a.AsString().compare(b.AsString());
    case Type::kArray: {
      const Array& x = a.AsArray();
      const Array& y = b.AsArray();
      size_t n = std::min(x.size(), y.size());
      for (size_t i = 0; i < n; ++i) {
        int c = Compare(x[i], y[i]);
        if (c != 0) return c;
      }
      return x.size() < y.size() ? -1 : (x.size() > y.size() ? 1 : 0);
    }
    case Type::kObject: {
      const Object& x = a.AsObject();
      const Object& y = b.AsObject();
      auto ix = x.begin();
      auto iy = y.begin();
      for (; ix != x.end() && iy != y.end(); ++ix, ++iy) {
        int c = ix->first.compare(iy->first);
        if (c != 0) return c;
        c = Compare(ix->second, iy->second);
        if (c != 0) return c;
      }
      if (ix != x.end()) return 1;
      if (iy != y.end()) return -1;
      return 0;
    }
  }
  return 0;
}

namespace {

void AppendEscaped(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double d, std::string* out) {
  // Integers print without a fractional part (matches how documents are
  // normally written and keeps round-trips stable).
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out->append(buf);
    return;
  }
  if (!std::isfinite(d)) {  // JSON has no Inf/NaN; emit null like most DBs.
    out->append("null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out->append(buf);
}

}  // namespace

void Value::AppendJson(std::string* out) const {
  switch (type()) {
    case Type::kMissing:
      out->append("missing");
      return;
    case Type::kNull:
      out->append("null");
      return;
    case Type::kBool:
      out->append(AsBool() ? "true" : "false");
      return;
    case Type::kNumber:
      AppendNumber(AsNumber(), out);
      return;
    case Type::kString:
      AppendEscaped(AsString(), out);
      return;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Value& v : AsArray()) {
        if (!first) out->push_back(',');
        first = false;
        v.AppendJson(out);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : AsObject()) {
        if (v.is_missing()) continue;  // missing fields are not serialized
        if (!first) out->push_back(',');
        first = false;
        AppendEscaped(k, out);
        out->push_back(':');
        v.AppendJson(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Value::ToJson() const {
  std::string out;
  AppendJson(&out);
  return out;
}

size_t Value::MemoryFootprint() const {
  size_t size = sizeof(Value);
  switch (type()) {
    case Type::kString:
      size += AsString().capacity();
      break;
    case Type::kArray:
      for (const Value& v : AsArray()) size += v.MemoryFootprint();
      break;
    case Type::kObject:
      for (const auto& [k, v] : AsObject()) {
        size += k.capacity() + 48;  // map node overhead
        size += v.MemoryFootprint();
      }
      break;
    default:
      break;
  }
  return size;
}

// ---------------------------------------------------------------------------
// Parser: straightforward recursive descent.
// ---------------------------------------------------------------------------
namespace {

#define COUCHKV_PARSE(expr)          \
  do {                               \
    Status _st = (expr);             \
    if (!_st.ok()) return _st;       \
  } while (0)

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  // Parses the whole text into `*out`; with `out` null it only checks the
  // text, building no Value (every Parse* below treats a null `out` so).
  Status Run(Value* out) {
    SkipWs();
    COUCHKV_PARSE(ParseValue(out));
    SkipWs();
    if (pos_ != text_.size()) return Err("trailing characters");
    return Status::OK();
  }

 private:
  Status Err(const std::string& what) {
    return Status::ParseError("JSON error at offset " + std::to_string(pos_) +
                              ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Status ParseValue(Value* out) {
    if (depth_ > 256) return Err("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"': {
        std::string s;
        COUCHKV_PARSE(ParseString(out != nullptr ? &s : nullptr));
        if (out != nullptr) *out = Value::Str(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeWord("true")) {
          if (out != nullptr) *out = Value::Bool(true);
          return Status::OK();
        }
        return Err("bad literal");
      case 'f':
        if (ConsumeWord("false")) {
          if (out != nullptr) *out = Value::Bool(false);
          return Status::OK();
        }
        return Err("bad literal");
      case 'n':
        if (ConsumeWord("null")) {
          if (out != nullptr) *out = Value::Null();
          return Status::OK();
        }
        return Err("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(Value* out) {
    ++depth_;
    ++pos_;  // '{'
    Value::Object obj;
    SkipWs();
    if (Consume('}')) {
      --depth_;
      if (out != nullptr) *out = Value::MakeObject(std::move(obj));
      return Status::OK();
    }
    for (;;) {
      SkipWs();
      std::string key;
      COUCHKV_PARSE(ParseString(out != nullptr ? &key : nullptr));
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      Value v;
      COUCHKV_PARSE(ParseValue(out != nullptr ? &v : nullptr));
      if (out != nullptr) obj[std::move(key)] = std::move(v);
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Err("expected ',' or '}'");
    }
    --depth_;
    if (out != nullptr) *out = Value::MakeObject(std::move(obj));
    return Status::OK();
  }

  Status ParseArray(Value* out) {
    ++depth_;
    ++pos_;  // '['
    Value::Array arr;
    SkipWs();
    if (Consume(']')) {
      --depth_;
      if (out != nullptr) *out = Value::MakeArray(std::move(arr));
      return Status::OK();
    }
    for (;;) {
      Value v;
      COUCHKV_PARSE(ParseValue(out != nullptr ? &v : nullptr));
      if (out != nullptr) arr.push_back(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Err("expected ',' or ']'");
    }
    --depth_;
    if (out != nullptr) *out = Value::MakeArray(std::move(arr));
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Err("expected string");
    if (out != nullptr) out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        if (out != nullptr) out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Err("bad escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("bad \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("bad hex digit");
          }
          if (out != nullptr) AppendUtf8(cp, out);
          continue;
        }
        default:
          return Err("bad escape");
      }
      if (out != nullptr) out->push_back(c);
    }
    return Err("unterminated string");
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber(Value* out) {
    size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected value");
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Err("bad number");
    if (out != nullptr) *out = Value::Number(d);
    return Status::OK();
  }

#undef COUCHKV_PARSE

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

StatusOr<Value> Parse(std::string_view text) {
  Value v;
  COUCHKV_RETURN_IF_ERROR(Parser(text).Run(&v));
  return v;
}

Status Validate(std::string_view text) { return Parser(text).Run(nullptr); }

}  // namespace couchkv::json
