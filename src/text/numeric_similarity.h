#ifndef TRANSER_TEXT_NUMERIC_SIMILARITY_H_
#define TRANSER_TEXT_NUMERIC_SIMILARITY_H_

#include <string_view>

#include "text/prepared_value.h"

namespace transer {

/// Absolute-difference similarity for numeric values:
/// max(0, 1 - |a-b| / max_diff). Used for years in the paper's music and
/// bibliographic feature vectors (e.g. 1970 vs 1971 -> 0.9 at max_diff=10).
double AbsoluteDifferenceSimilarity(double a, double b, double max_diff);

/// Parses both strings as numbers and applies AbsoluteDifferenceSimilarity;
/// non-numeric, non-finite (nan, inf) or missing values fall back to
/// exact string match (1/0).
double NumericStringSimilarity(std::string_view a, std::string_view b,
                               double max_diff);
/// The definition, over values prepared with kPreparedNumber.
double NumericStringSimilarity(const PreparedValue& a, const PreparedValue& b,
                               double max_diff);

/// Exact-match similarity: 1.0 iff equal (after no normalisation), else 0.
double ExactSimilarity(std::string_view a, std::string_view b);

}  // namespace transer

#endif  // TRANSER_TEXT_NUMERIC_SIMILARITY_H_
