#ifndef TRANSER_UTIL_JSON_H_
#define TRANSER_UTIL_JSON_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace transer {
namespace json {

/// \brief Compact JSON writer: no whitespace, keys in the order written.
/// Strings are escaped per RFC 8259 (`"`, `\` and every byte below 0x20;
/// bytes of 0x80 and above pass through). Doubles use `%.17g`, which
/// round-trips every finite double; a non-finite double is written as
/// `null`. The caller keeps begin/end and key/value calls balanced.
class Writer {
 public:
  Writer& BeginObject() { return Put("{", true, false); }
  Writer& EndObject() { return Put("}", false, true); }
  Writer& BeginArray() { return Put("[", true, false); }
  Writer& EndArray() { return Put("]", false, true); }
  Writer& Key(std::string_view key) {
    return String(key).Put(":", false, false);
  }
  Writer& String(std::string_view value);
  Writer& Bool(bool value) { return Put(value ? "true" : "false"); }
  Writer& Int(int64_t value) { return Put(std::to_string(value)); }
  Writer& Uint(uint64_t value) { return Put(std::to_string(value)); }
  Writer& Double(double value);
  const std::string& str() const { return out_; }

 private:
  /// Appends `token`, after a comma when `separate` and a value precedes
  /// it at this level; `completes` says whether `token` ends a value.
  Writer& Put(std::string_view token, bool separate = true,
              bool completes = true);

  std::string out_;
  bool need_comma_ = false;
};

/// \brief One parsed JSON value. A number keeps its token text, so the
/// typed reads convert it exactly: a `uint64` beyond 2^63 and a `%.17g`
/// double both come back bit for bit.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  std::string text;               ///< string contents or scalar token
  std::vector<std::string> keys;  ///< object keys, in document order
  std::vector<Value> items;       ///< array elements or object values

  /// Typed reads. A wrong type, or a number the target type cannot
  /// represent exactly (a fraction or exponent read as an integer, an
  /// out-of-range value), is an InvalidArgument error; `null` read as a
  /// double gives NaN.
  Status As(std::string* out) const;
  Status As(double* out) const;
  template <typename Integer>
  Status As(Integer* out) const {
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, *out);
    if (type == Type::kNumber && error == std::errc() && stop == end) {
      return Status::OK();
    }
    return Status::InvalidArgument("json: expected an integer, got " + text);
  }

  /// The member `key` of this object. A missing member, or `*this` not
  /// being an object, is an error; `Member` also checks the type.
  Result<const Value*> Find(std::string_view key) const;
  Result<const Value*> Member(std::string_view key, Type type) const;

  /// Reads member `key` into `out` with the matching `As`.
  template <typename T>
  Status Get(std::string_view key, T* out) const {
    Result<const Value*> member = Find(key);
    return member.ok() ? member.value()->As(out) : member.status();
  }
};

/// Containers nested deeper than this are rejected.
inline constexpr int kMaxDepth = 64;

/// Strict RFC 8259 parse of one complete document (surrounding
/// whitespace allowed). Any syntax error, raw control byte inside a
/// string, trailing byte or nesting past kMaxDepth is InvalidArgument.
Result<Value> Parse(std::string_view text);

}  // namespace json
}  // namespace transer

#endif  // TRANSER_UTIL_JSON_H_
