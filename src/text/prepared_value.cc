#include "text/prepared_value.h"

#include <algorithm>
#include <cmath>

#include "text/tokenize.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace transer {

namespace {

/// Sorts the spans from `first` on by the token each names and drops
/// those naming a duplicate token.
template <typename ViewFn>
void SortUnique(std::vector<TokenSpan>* spans, size_t first, ViewFn view) {
  const auto begin = spans->begin() + static_cast<ptrdiff_t>(first);
  std::sort(begin, spans->end(),
            [&](TokenSpan a, TokenSpan b) { return view(a) < view(b); });
  spans->erase(std::unique(begin, spans->end(),
                           [&](TokenSpan a, TokenSpan b) {
                             return view(a) == view(b);
                           }),
               spans->end());
}

thread_local std::vector<TokenSpan> tls_spans;

TokenSpan SpanOf(size_t offset, size_t length) {
  return TokenSpan{static_cast<uint32_t>(offset),
                   static_cast<uint32_t>(length)};
}

}  // namespace

bool ParseFiniteNumber(std::string_view text, double* out) {
  double value = 0.0;
  if (!ParseDouble(text, &value) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

PreparedValue::PreparedValue(std::string value, const PrepareSpec& spec)
    : storage_(std::move(value)) {
  TRANSER_CHECK_GT(spec.q, 0u);
  TRANSER_CHECK((spec.forms & kPreparedWords) == 0 ||
                (spec.forms & kPreparedWordSet) == 0);
  TRANSER_CHECK_LE(storage_.size(), size_t{UINT32_MAX} / 2);
  text_size_ = static_cast<uint32_t>(storage_.size());
  if ((spec.forms & kPreparedGramSet) != 0) {
    storage_ += PadForQGrams(text(), spec.q);
  }
  // Spans are collected in per-thread scratch and copied out once, so a
  // value owns exactly-sized blocks and leaves no growth garbage between
  // the long-lived profiles of a stream.
  std::vector<TokenSpan>& spans = tls_spans;
  spans.clear();
  auto by_token = [&](TokenSpan s) { return Token(s); };
  if ((spec.forms & (kPreparedWords | kPreparedWordSet)) != 0) {
    ForEachWordToken(text(), [&](size_t offset, size_t length) {
      spans.push_back(SpanOf(offset, length));
    });
    if ((spec.forms & kPreparedWordSet) != 0) SortUnique(&spans, 0, by_token);
  }
  words_end_ = static_cast<uint32_t>(spans.size());
  if ((spec.forms & kPreparedGramSet) != 0) {
    const std::string_view padded =
        std::string_view(storage_).substr(text_size_);
    ForEachQGram(padded, spec.q, [&](std::string_view gram) {
      spans.push_back(SpanOf(
          static_cast<size_t>(gram.data() - storage_.data()), gram.size()));
    });
    SortUnique(&spans, words_end_, by_token);
  }
  spans_.assign(spans.begin(), spans.end());
  if ((spec.forms & kPreparedNumber) != 0) {
    ParseFiniteNumber(text(), &number_);
  }
}

}  // namespace transer
