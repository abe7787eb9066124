#ifndef TRANSER_TEXT_SIMILARITY_REGISTRY_H_
#define TRANSER_TEXT_SIMILARITY_REGISTRY_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "text/prepared_value.h"
#include "util/status.h"

namespace transer {

/// A similarity function over two attribute values, returning [0, 1].
using SimilarityFn = std::function<double(std::string_view, std::string_view)>;

/// \brief A similarity defined over prepared values: `spec` names the
/// forms `score` reads, so a caller comparing one value against many
/// prepares it once (PairComparator's record profiles).
struct PreparedSimilarity {
  PrepareSpec spec;
  std::function<double(const PreparedValue&, const PreparedValue&)> score;
};

/// \brief Named similarity functions, so schemas can declare per-attribute
/// comparators by name ("jaro_winkler", "word_jaccard", ...). Homogeneous
/// transfer requires the *same* comparators in both domains; naming them
/// makes that contract explicit and checkable.
class SimilarityRegistry {
 public:
  /// Returns the process-wide registry, pre-populated with the built-ins:
  /// jaro, jaro_winkler, levenshtein, damerau_levenshtein, word_jaccard,
  /// qgram_jaccard, qgram_dice, lcs, monge_elkan, exact, soundex,
  /// year (max_diff 10), numeric_abs (max_diff 100).
  static SimilarityRegistry& Global();

  /// Registers (or replaces) a similarity function under `name`. Its
  /// prepared form is the text alone.
  void Register(const std::string& name, SimilarityFn fn);

  /// Looks up a similarity function: a wrapper that prepares both values
  /// and scores them. NotFound when unregistered.
  Result<SimilarityFn> Lookup(const std::string& name) const;

  /// Looks up the prepared definition of a similarity function. NotFound
  /// when unregistered.
  Result<PreparedSimilarity> LookupPrepared(const std::string& name) const;

  /// True if a function is registered under `name`.
  bool Contains(const std::string& name) const;

  /// Sorted list of registered names.
  std::vector<std::string> Names() const;

 private:
  SimilarityRegistry();
  void Register(const std::string& name, PreparedSimilarity similarity);
  std::vector<std::pair<std::string, PreparedSimilarity>> entries_;
};

}  // namespace transer

#endif  // TRANSER_TEXT_SIMILARITY_REGISTRY_H_
