// Minimal JSON document model for the offline analysis tools — parse a
// recorded Chrome trace or an analysis report, walk it, and re-serialize
// deterministically. Parser-only by design: causim code that *produces*
// JSON writes straight to a stream (metrics_registry, perfetto_export,
// the analysis report), so the document model never needs mutation.
//
// Objects are std::map, so iteration — and therefore every dump — is
// key-sorted and deterministic. Numbers are stored as double; every
// integer the tracing layer emits (microsecond timestamps, byte counts)
// is below 2^53 and round-trips exactly.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace causim::obs::analysis {

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Shared by every JSON writer in the
/// repo so a hostile metric name cannot corrupt an export.
std::string json_escape(std::string_view s);

/// Formats `v` as a JSON number, the one formatter of every JSON writer in
/// the repo: integral values below 1e15 print without a fraction,
/// everything else with %.9g, and non-finite values (which JSON cannot
/// carry) as 0.
std::string json_number(double v);

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Parses one JSON document. Returns a null value and sets `error`
  /// (when non-null) on malformed input; trailing non-whitespace after
  /// the top-level value is malformed too.
  static Json parse(std::string_view text, std::string* error = nullptr);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_bool() const { return type_ == Type::kBool; }

  /// Typed accessors return the neutral value (false / 0.0 / empty) when
  /// the node has a different type — lookups into absent structure stay
  /// total, which keeps schema-tolerant walking terse.
  bool boolean() const { return type_ == Type::kBool && bool_; }
  double number() const { return type_ == Type::kNumber ? number_ : 0.0; }
  const std::string& str() const { return string_; }
  const Array& array() const { return array_; }
  const Object& object() const { return object_; }

  std::size_t size() const {
    return type_ == Type::kArray ? array_.size()
                                 : (type_ == Type::kObject ? object_.size() : 0);
  }
  bool contains(const std::string& key) const {
    return type_ == Type::kObject && object_.count(key) != 0;
  }
  /// Member access; a shared null value when absent or not an object.
  const Json& at(const std::string& key) const;
  /// Element access; the shared null value when out of range.
  const Json& at(std::size_t index) const;

  /// Deterministic compact dump (object keys sorted, integral numbers
  /// printed without a fraction).
  void write(std::ostream& out) const;
  std::string dump() const;

  friend bool operator==(const Json& a, const Json& b);

 private:
  friend struct JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace causim::obs::analysis
