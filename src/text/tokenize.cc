#include "text/tokenize.h"

#include <algorithm>

#include "util/logging.h"

namespace transer {

std::string PadForQGrams(std::string_view text, size_t q) {
  if (q <= 1) return std::string(text);
  std::string padded(q - 1, '#');
  padded.append(text);
  padded.append(q - 1, '$');
  return padded;
}

std::vector<std::string> WordTokens(std::string_view text) {
  std::vector<std::string> tokens;
  ForEachWordToken(text, [&](size_t offset, size_t length) {
    tokens.emplace_back(text.substr(offset, length));
  });
  return tokens;
}

std::vector<std::string> QGrams(std::string_view text, size_t q,
                                bool padded) {
  TRANSER_CHECK_GT(q, 0u);
  const std::string buffer = padded ? PadForQGrams(text, q) : std::string();
  const std::string_view source = padded ? std::string_view(buffer) : text;
  std::vector<std::string> grams;
  if (source.size() >= q) grams.reserve(source.size() - q + 1);
  ForEachQGram(source, q,
               [&](std::string_view gram) { grams.emplace_back(gram); });
  return grams;
}

std::vector<std::string> UniqueSorted(std::vector<std::string> tokens) {
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

}  // namespace transer
