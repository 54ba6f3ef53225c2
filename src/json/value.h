// JSON value model for couchkv documents.
//
// N1QL distinguishes MISSING (no such field) from NULL (explicit null); both
// appear here as first-class types, and the collation order implemented by
// Value::Compare is the N1QL/view order:
//   missing < null < false < true < numbers < strings < arrays < objects.
#ifndef COUCHKV_JSON_VALUE_H_
#define COUCHKV_JSON_VALUE_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace couchkv::json {

enum class Type {
  kMissing = 0,
  kNull,
  kBool,
  kNumber,
  kString,
  kArray,
  kObject,
};

const char* TypeName(Type t);

class Value {
 public:
  using Array = std::vector<Value>;
  // std::map keeps keys sorted, which makes serialization and comparison
  // deterministic.
  using Object = std::map<std::string, Value>;

  // Default-constructed Value is MISSING (what a failed field lookup yields).
  Value() : rep_(MissingRep{}) {}

  static Value Missing() { return Value(); }
  static Value Null() {
    Value v;
    v.rep_ = NullRep{};
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.rep_ = b;
    return v;
  }
  static Value Number(double d) {
    Value v;
    v.rep_ = d;
    return v;
  }
  static Value Int(int64_t i) { return Number(static_cast<double>(i)); }
  static Value Str(std::string s) {
    Value v;
    v.rep_ = std::move(s);
    return v;
  }
  static Value MakeArray(Array items = {}) {
    Value v;
    v.rep_ = std::move(items);
    return v;
  }
  static Value MakeObject(Object fields = {}) {
    Value v;
    v.rep_ = std::move(fields);
    return v;
  }

  Type type() const { return static_cast<Type>(rep_.index()); }
  bool is_missing() const { return type() == Type::kMissing; }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Accessors; calling the wrong one is a programming error (asserts).
  bool AsBool() const { return std::get<bool>(rep_); }
  double AsNumber() const { return std::get<double>(rep_); }
  int64_t AsInt() const { return static_cast<int64_t>(AsNumber()); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  const Array& AsArray() const { return std::get<Array>(rep_); }
  Array& AsArray() { return std::get<Array>(rep_); }
  const Object& AsObject() const { return std::get<Object>(rep_); }
  Object& AsObject() { return std::get<Object>(rep_); }

  // Object field lookup; returns MISSING when absent or when this is not an
  // object (N1QL semantics for paths over non-objects).
  const Value& Field(std::string_view name) const;
  // Array element; MISSING when out of range / not an array.
  const Value& At(size_t index) const;

  // Navigate a dotted path with optional array subscripts: "a.b[2].c".
  // Returns MISSING for any miss along the way.
  const Value& GetPath(std::string_view path) const;

  // Sets `path` to `v`, creating intermediate objects as needed. Array
  // subscripts must already exist. Returns false if the path traverses a
  // non-object/non-array value.
  bool SetPath(std::string_view path, Value v);
  // Removes the field at `path`; returns true if something was removed.
  bool RemovePath(std::string_view path);

  // In-place mutation helpers.
  Value& operator[](const std::string& key);
  void Append(Value v) { AsArray().push_back(std::move(v)); }

  // N1QL "truthiness": false for missing/null/false/0/""/[]/{}.
  bool Truthy() const;

  // Total collation order (see header comment). Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  friend bool operator==(const Value& a, const Value& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return Compare(a, b) < 0;
  }

  // Compact JSON serialization. MISSING serializes as "missing" (only ever
  // visible in diagnostics; a missing object field is simply omitted).
  std::string ToJson() const;
  void AppendJson(std::string* out) const;

  // Approximate in-memory footprint, used for cache memory accounting.
  size_t MemoryFootprint() const;

 private:
  struct MissingRep {};
  struct NullRep {};
  // variant index order must match enum Type.
  std::variant<MissingRep, NullRep, bool, double, std::string, Array, Object>
      rep_;
};

// Parses a JSON text into a Value. Accepts standard JSON.
StatusOr<Value> Parse(std::string_view text);

// Checks `text` with Parse's own grammar but builds no Value: OK exactly
// when Parse accepts it, and the same error when it does not.
Status Validate(std::string_view text);

}  // namespace couchkv::json

#endif  // COUCHKV_JSON_VALUE_H_
