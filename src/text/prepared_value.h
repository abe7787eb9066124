#ifndef TRANSER_TEXT_PREPARED_VALUE_H_
#define TRANSER_TEXT_PREPARED_VALUE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace transer {

/// Byte range of one token inside a PreparedValue's storage. Offsets
/// rather than string_views: moving a short std::string (SSO) moves its
/// bytes, so views would dangle when a vector of prepared values grows.
struct TokenSpan {
  uint32_t offset = 0;
  uint32_t length = 0;
};

/// The derived forms a similarity reads besides the value's text; a
/// PrepareSpec ORs together the ones it needs. The two word forms are
/// exclusive: a similarity reads the words in order or as a set.
enum PreparedForm : unsigned {
  kPreparedText = 0,            ///< the text alone
  kPreparedWords = 1u << 0,     ///< word tokens, in order
  kPreparedWordSet = 1u << 1,   ///< sorted, deduplicated word tokens
  kPreparedGramSet = 1u << 2,   ///< sorted, deduplicated padded q-grams
  kPreparedNumber = 1u << 3,    ///< the text parsed as a finite number
};

/// \brief What to derive from a value when preparing it.
struct PrepareSpec {
  unsigned forms = kPreparedText;
  size_t q = 2;  ///< q-gram length of kPreparedGramSet
};

/// \brief One attribute value prepared once for every pair it enters:
/// the text plus the forms its similarity function reads, so scoring a
/// pair never re-tokenises, re-sorts or re-parses either side. Forms not
/// requested by the spec stay empty. Kept compact (at most two heap
/// blocks) because a stream resolver holds one per stored attribute.
class PreparedValue {
 public:
  PreparedValue() = default;
  /// Prepares `value` as given (no normalisation — callers normalise
  /// first when they want it) with the forms `spec` asks for.
  PreparedValue(std::string value, const PrepareSpec& spec);

  std::string_view text() const {
    return std::string_view(storage_).substr(0, text_size_);
  }
  /// kPreparedWords: word tokens, in order.
  std::span<const TokenSpan> words() const {
    return std::span<const TokenSpan>(spans_).first(words_end_);
  }
  /// kPreparedWordSet: word tokens, sorted and deduplicated. The same
  /// range as words(), which the spec fills in one form or the other.
  std::span<const TokenSpan> word_set() const { return words(); }
  /// kPreparedGramSet: padded q-grams, sorted and deduplicated.
  std::span<const TokenSpan> gram_set() const {
    return std::span<const TokenSpan>(spans_).subspan(words_end_);
  }
  /// The bytes of a span returned by words(), word_set() or gram_set().
  std::string_view Token(TokenSpan span) const {
    return std::string_view(storage_).substr(span.offset, span.length);
  }
  /// kPreparedNumber: whether the text parsed as a finite number.
  bool numeric() const { return !std::isnan(number_); }
  double number() const { return number_; }

 private:
  std::string storage_;  ///< the text, then (q-grams) its padded copy
  std::vector<TokenSpan> spans_;  ///< words or word set | gram set
  uint32_t text_size_ = 0;
  uint32_t words_end_ = 0;
  /// The parsed number, NaN when the text is not one (or not parsed).
  double number_ = std::numeric_limits<double>::quiet_NaN();
};

/// Parses `text` as a number, rejecting NaN and infinities: a similarity
/// over non-finite values would leave [0, 1].
bool ParseFiniteNumber(std::string_view text, double* out);

}  // namespace transer

#endif  // TRANSER_TEXT_PREPARED_VALUE_H_
