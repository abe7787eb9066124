#ifndef TRANSER_TEXT_SET_SIMILARITY_H_
#define TRANSER_TEXT_SET_SIMILARITY_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/prepared_value.h"

namespace transer {

/// Jaccard similarity |A∩B| / |A∪B| over the given token multisets
/// (deduplicated internally). Two empty sets are similarity 1.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// Dice similarity 2|A∩B| / (|A|+|B|) over deduplicated tokens.
double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b);

/// Overlap coefficient |A∩B| / min(|A|,|B|) over deduplicated tokens.
double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

/// Jaccard over whitespace word tokens — the paper's comparator for
/// general textual strings (titles, venues, albums).
double WordJaccardSimilarity(std::string_view a, std::string_view b);
/// The definition, over values prepared with kPreparedWordSet.
double WordJaccardSimilarity(const PreparedValue& a, const PreparedValue& b);

/// Jaccard over padded character q-grams (default bigrams), robust to
/// typographical errors in short strings.
double QGramJaccardSimilarity(std::string_view a, std::string_view b,
                              size_t q = 2);
/// The definition, over values prepared with kPreparedGramSet (the q of
/// their PrepareSpec).
double QGramJaccardSimilarity(const PreparedValue& a, const PreparedValue& b);

/// Dice over padded character q-grams.
double QGramDiceSimilarity(std::string_view a, std::string_view b,
                           size_t q = 2);
/// The definition, over values prepared with kPreparedGramSet.
double QGramDiceSimilarity(const PreparedValue& a, const PreparedValue& b);

/// Monge-Elkan: mean over tokens of `a` of the best Jaro-Winkler match in
/// `b`. Asymmetric; use SymmetricMongeElkan for a symmetric score.
double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b);

/// max(ME(a,b), ME(b,a)) — symmetric hybrid token/char similarity used for
/// multi-word names such as author lists.
double SymmetricMongeElkan(std::string_view a, std::string_view b);
/// The definition, over values prepared with kPreparedWords. Evaluates
/// the Jaro-Winkler token matrix once: ME(a,b) takes its row maxima and
/// ME(b,a) its column maxima, exact because Jaro-Winkler is symmetric.
double SymmetricMongeElkan(const PreparedValue& a, const PreparedValue& b);

}  // namespace transer

#endif  // TRANSER_TEXT_SET_SIMILARITY_H_
