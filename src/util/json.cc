#include "util/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace transer {
namespace json {
namespace {

// Bytes with a short escape, and their letters. '/' is only ever read.
constexpr std::string_view kEscaped = "\"\\\b\f\n\r\t/";
constexpr std::string_view kLetters = "\"\\bfnrt/";
constexpr std::string_view kDigits = "0123456789";
constexpr std::string_view kSpace = " \t\n\r";

Status Invalid(const std::string& message) {
  return Status::InvalidArgument("json: " + message);
}

void AppendUtf8(uint32_t code, std::string* out) {
  const int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  const uint32_t lead = tail == 0 ? 0 : 0xFF00 >> (tail + 1);  // 110, 1110..
  out->push_back(static_cast<char>(lead | code >> (6 * tail)));
  for (int i = tail - 1; i >= 0; --i) {
    out->push_back(static_cast<char>(0x80 | (code >> (6 * i) & 0x3F)));
  }
}

/// Recursive descent over one document. `pos_` never passes the end of
/// `text_`, so a truncated document is an error, not an overread.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Status Document(Value* out) {
    TRANSER_RETURN_IF_ERROR(Parse(out, 0));
    Skip(kSpace);
    return pos_ == text_.size() ? Status::OK() : Error("trailing bytes");
  }

 private:
  Status Error(const char* what) const {
    return Invalid(StrFormat("%s at offset %zu", what, pos_));
  }

  bool Eat(std::string_view word) {  // consumes `word` if it comes next
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  /// Advances past every byte in `set`; true if it advanced at all.
  bool Skip(std::string_view set) {
    const size_t from = pos_;
    pos_ = std::min(text_.find_first_not_of(set, pos_), text_.size());
    return pos_ > from;
  }

  bool Hex4(uint32_t* code) {
    const std::string_view hex = text_.substr(pos_, 4);
    pos_ += hex.size();
    const char* end = hex.data() + hex.size();
    return hex.size() == 4 &&
           std::from_chars(hex.data(), end, *code, 16).ptr == end;
  }

  Status Parse(Value* out, int depth) {
    Skip(kSpace);
    const size_t start = pos_;
    const bool object = Eat("{");
    if (object || Eat("[")) {
      if (depth == kMaxDepth) return Error("nesting deeper than kMaxDepth");
      const std::string_view close = object ? "}" : "]";
      out->type = object ? Value::Type::kObject : Value::Type::kArray;
      Skip(kSpace);
      if (Eat(close)) return Status::OK();
      do {
        if (object) {
          Skip(kSpace);
          if (!Eat("\"")) return Error("expected a key");
          TRANSER_RETURN_IF_ERROR(String(&out->keys.emplace_back()));
          Skip(kSpace);
          if (!Eat(":")) return Error("expected ':'");
        }
        TRANSER_RETURN_IF_ERROR(Parse(&out->items.emplace_back(), depth + 1));
        Skip(kSpace);
      } while (Eat(","));
      return Eat(close) ? Status::OK() : Error("expected ',' or a close");
    }
    if (Eat("\"")) {
      out->type = Value::Type::kString;
      return String(&out->text);
    }
    if (Eat("true") || Eat("false") || Eat("null")) {
      out->text = text_.substr(start, pos_ - start);
      out->type = out->text == "null" ? Value::Type::kNull : Value::Type::kBool;
      return Status::OK();
    }
    // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    Eat("-");
    if (!Eat("0") && !Skip(kDigits)) return Error("expected a value");
    if (Eat(".") && !Skip(kDigits)) return Error("bad fraction");
    if (Eat("e") || Eat("E")) {
      if (!Eat("+")) Eat("-");
      if (!Skip(kDigits)) return Error("bad exponent");
    }
    out->type = Value::Type::kNumber;
    out->text = text_.substr(start, pos_ - start);
    return Status::OK();
  }

  Status String(std::string* out) {  // after the opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      uint32_t code = 0;
      uint32_t low = 0;
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) return Error("control byte");
      if (c != '\\') {
        out->push_back(c);
      } else if (Eat("u")) {
        if (!Hex4(&code) || (code >= 0xDC00 && code < 0xE000)) {
          return Error("bad \\u escape");
        }
        if (code >= 0xD800 && code < 0xDC00) {  // needs its low surrogate
          if (!Eat("\\u") || !Hex4(&low) || low < 0xDC00 || low >= 0xE000) {
            return Error("unpaired surrogate");
          }
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        AppendUtf8(code, out);
      } else {
        const size_t at = pos_ < text_.size() ? kLetters.find(text_[pos_++])
                                              : std::string_view::npos;
        if (at == std::string_view::npos) return Error("bad escape");
        out->push_back(kEscaped[at]);
      }
    }
    return Error("unterminated string");
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Writer& Writer::Put(std::string_view token, bool separate, bool completes) {
  if (separate && need_comma_) out_.push_back(',');
  out_ += token;
  need_comma_ = completes;
  return *this;
}

Writer& Writer::String(std::string_view value) {
  std::string quoted = "\"";
  for (const char c : value) {
    const size_t at = kEscaped.find(c);
    if (at != std::string_view::npos && c != '/') {
      (quoted += '\\') += kLetters[at];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      quoted += StrFormat("\\u%04x", static_cast<unsigned>(c));
    } else {
      quoted += c;
    }
  }
  return Put(quoted += '"');
}

Writer& Writer::Double(double value) {
  return Put(std::isfinite(value) ? StrFormat("%.17g", value) : "null");
}

Status Value::As(std::string* out) const {
  if (type != Type::kString) return Invalid("expected a string");
  *out = text;
  return Status::OK();
}

Status Value::As(double* out) const {
  if (type == Type::kNull) {
    *out = std::numeric_limits<double>::quiet_NaN();
  } else if (type != Type::kNumber || !ParseDouble(text, out)) {
    return Invalid("expected a finite double, got " + text);
  }
  return Status::OK();
}

Result<const Value*> Value::Find(std::string_view key) const {
  for (size_t i = 0; type == Type::kObject && i < keys.size(); ++i) {
    if (keys[i] == key) return &items[i];
  }
  return Invalid("missing field \"" + std::string(key) + "\"");
}

Result<const Value*> Value::Member(std::string_view key, Type wanted) const {
  TRANSER_ASSIGN_OR_RETURN(const Value* member, Find(key));
  if (member->type != wanted) return Invalid("wrong type: " + std::string(key));
  return member;
}

Result<Value> Parse(std::string_view text) {
  Value value;
  TRANSER_RETURN_IF_ERROR(Parser(text).Document(&value));
  return value;
}

}  // namespace json
}  // namespace transer
