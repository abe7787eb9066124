#ifndef TRANSER_TEXT_TOKENIZE_H_
#define TRANSER_TEXT_TOKENIZE_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace transer {

/// Calls `fn(offset, length)` for each whitespace-separated token of
/// `text`, in order. The one word tokeniser: WordTokens and the prepared
/// comparison forms both go through it.
template <typename Fn>
void ForEachWordToken(std::string_view text, Fn&& fn) {
  size_t begin = 0;
  bool in_token = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const bool space = std::isspace(static_cast<unsigned char>(text[i])) != 0;
    if (space && in_token) fn(begin, i - begin);
    if (!space && !in_token) begin = i;
    in_token = !space;
  }
  if (in_token) fn(begin, text.size() - begin);
}

/// Calls `fn(gram)` for each character q-gram of `source` (a view into
/// `source`), in order. A non-empty source shorter than q yields itself;
/// an empty source yields nothing. The one q-gram tokeniser: QGrams, the
/// prepared comparison forms and the MinHash shingler go through it.
template <typename Fn>
void ForEachQGram(std::string_view source, size_t q, Fn&& fn) {
  if (source.empty()) return;
  if (source.size() < q) {
    fn(source);
    return;
  }
  for (size_t i = 0; i + q <= source.size(); ++i) fn(source.substr(i, q));
}

/// `text` framed by q-1 sentinel '#' / '$' characters (unchanged for
/// q <= 1), which weights the boundaries of padded q-grams.
std::string PadForQGrams(std::string_view text, size_t q);

/// Splits on whitespace, dropping empty tokens.
std::vector<std::string> WordTokens(std::string_view text);

/// Character q-grams of the string; strings shorter than q yield the
/// string itself (if non-empty). With `padded`, the string is framed by
/// q-1 sentinel '#' / '$' characters first, which weights boundaries.
std::vector<std::string> QGrams(std::string_view text, size_t q,
                                bool padded = false);

/// Sorted unique copy of `tokens` (set semantics for Jaccard/Dice).
std::vector<std::string> UniqueSorted(std::vector<std::string> tokens);

}  // namespace transer

#endif  // TRANSER_TEXT_TOKENIZE_H_
