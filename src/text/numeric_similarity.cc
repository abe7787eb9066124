#include "text/numeric_similarity.h"

#include <cmath>

#include "util/logging.h"

namespace transer {

double AbsoluteDifferenceSimilarity(double a, double b, double max_diff) {
  TRANSER_CHECK_GT(max_diff, 0.0);
  const double diff = std::fabs(a - b);
  if (diff >= max_diff) return 0.0;
  return 1.0 - diff / max_diff;
}

double NumericStringSimilarity(const PreparedValue& a, const PreparedValue& b,
                               double max_diff) {
  if (a.numeric() && b.numeric()) {
    return AbsoluteDifferenceSimilarity(a.number(), b.number(), max_diff);
  }
  return ExactSimilarity(a.text(), b.text());
}

double NumericStringSimilarity(std::string_view a, std::string_view b,
                               double max_diff) {
  const PrepareSpec spec{kPreparedNumber};
  return NumericStringSimilarity(PreparedValue(std::string(a), spec),
                                 PreparedValue(std::string(b), spec),
                                 max_diff);
}

double ExactSimilarity(std::string_view a, std::string_view b) {
  return a == b ? 1.0 : 0.0;
}

}  // namespace transer
