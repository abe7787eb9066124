#include "text/set_similarity.h"

#include <algorithm>

#include "text/jaro_winkler.h"
#include "text/tokenize.h"

namespace transer {

namespace {

/// Intersection size of two sorted unique token lists of sizes `na` and
/// `nb`, whose i-th tokens are `a(i)` and `b(i)`.
template <typename ViewA, typename ViewB>
size_t SortedIntersectionSize(size_t na, ViewA a, size_t nb, ViewB b) {
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    const auto ta = a(i);
    const auto tb = b(j);
    if (ta < tb) {
      ++i;
    } else if (tb < ta) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

double JaccardFromCounts(size_t na, size_t nb, size_t inter) {
  if (na == 0 && nb == 0) return 1.0;
  const size_t uni = na + nb - inter;
  return uni == 0 ? 0.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

double DiceFromCounts(size_t na, size_t nb, size_t inter) {
  if (na == 0 && nb == 0) return 1.0;
  if (na == 0 || nb == 0) return 0.0;
  return 2.0 * static_cast<double>(inter) / static_cast<double>(na + nb);
}

/// |A∩B| of two sorted unique string vectors.
size_t StringSetIntersection(const std::vector<std::string>& a,
                             const std::vector<std::string>& b) {
  return SortedIntersectionSize(
      a.size(), [&](size_t i) -> const std::string& { return a[i]; },
      b.size(), [&](size_t j) -> const std::string& { return b[j]; });
}

/// |A∩B| of two prepared word sets.
size_t WordSetIntersection(const PreparedValue& a, const PreparedValue& b) {
  return SortedIntersectionSize(
      a.word_set().size(), [&](size_t i) { return a.Token(a.word_set()[i]); },
      b.word_set().size(), [&](size_t j) { return b.Token(b.word_set()[j]); });
}

/// |A∩B| of two prepared q-gram sets.
size_t GramSetIntersection(const PreparedValue& a, const PreparedValue& b) {
  return SortedIntersectionSize(
      a.gram_set().size(), [&](size_t i) { return a.Token(a.gram_set()[i]); },
      b.gram_set().size(), [&](size_t j) { return b.Token(b.gram_set()[j]); });
}

/// Per-thread column maxima of the Monge-Elkan token matrix.
thread_local std::vector<double> tls_column_best;

}  // namespace

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  const auto sa = UniqueSorted(a);
  const auto sb = UniqueSorted(b);
  return JaccardFromCounts(sa.size(), sb.size(),
                           StringSetIntersection(sa, sb));
}

double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  const auto sa = UniqueSorted(a);
  const auto sb = UniqueSorted(b);
  return DiceFromCounts(sa.size(), sb.size(), StringSetIntersection(sa, sb));
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  const auto sa = UniqueSorted(a);
  const auto sb = UniqueSorted(b);
  if (sa.empty() && sb.empty()) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  const size_t inter = StringSetIntersection(sa, sb);
  return static_cast<double>(inter) /
         static_cast<double>(std::min(sa.size(), sb.size()));
}

double WordJaccardSimilarity(const PreparedValue& a, const PreparedValue& b) {
  return JaccardFromCounts(a.word_set().size(), b.word_set().size(),
                           WordSetIntersection(a, b));
}

double WordJaccardSimilarity(std::string_view a, std::string_view b) {
  const PrepareSpec spec{kPreparedWordSet};
  return WordJaccardSimilarity(PreparedValue(std::string(a), spec),
                               PreparedValue(std::string(b), spec));
}

double QGramJaccardSimilarity(const PreparedValue& a,
                              const PreparedValue& b) {
  return JaccardFromCounts(a.gram_set().size(), b.gram_set().size(),
                           GramSetIntersection(a, b));
}

double QGramJaccardSimilarity(std::string_view a, std::string_view b,
                              size_t q) {
  const PrepareSpec spec{kPreparedGramSet, q};
  return QGramJaccardSimilarity(PreparedValue(std::string(a), spec),
                                PreparedValue(std::string(b), spec));
}

double QGramDiceSimilarity(const PreparedValue& a, const PreparedValue& b) {
  return DiceFromCounts(a.gram_set().size(), b.gram_set().size(),
                        GramSetIntersection(a, b));
}

double QGramDiceSimilarity(std::string_view a, std::string_view b, size_t q) {
  const PrepareSpec spec{kPreparedGramSet, q};
  return QGramDiceSimilarity(PreparedValue(std::string(a), spec),
                             PreparedValue(std::string(b), spec));
}

double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  for (const auto& ta : a) {
    double best = 0.0;
    for (const auto& tb : b) {
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
}

double SymmetricMongeElkan(const PreparedValue& a, const PreparedValue& b) {
  const std::span<const TokenSpan> wa = a.words();
  const std::span<const TokenSpan> wb = b.words();
  const size_t na = wa.size();
  const size_t nb = wb.size();
  if (na == 0 && nb == 0) return 1.0;
  if (na == 0 || nb == 0) return 0.0;
  std::vector<double>& column_best = tls_column_best;
  column_best.assign(nb, 0.0);
  double row_total = 0.0;
  for (size_t i = 0; i < na; ++i) {
    const std::string_view ta = a.Token(wa[i]);
    double best = 0.0;
    for (size_t j = 0; j < nb; ++j) {
      const double sim = JaroWinklerSimilarity(ta, b.Token(wb[j]));
      best = std::max(best, sim);
      column_best[j] = std::max(column_best[j], sim);
    }
    row_total += best;
  }
  double column_total = 0.0;
  for (size_t j = 0; j < nb; ++j) column_total += column_best[j];
  return std::max(row_total / static_cast<double>(na),
                  column_total / static_cast<double>(nb));
}

double SymmetricMongeElkan(std::string_view a, std::string_view b) {
  const PrepareSpec spec{kPreparedWords};
  return SymmetricMongeElkan(PreparedValue(std::string(a), spec),
                             PreparedValue(std::string(b), spec));
}

}  // namespace transer
