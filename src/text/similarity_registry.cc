#include "text/similarity_registry.h"

#include <algorithm>

#include "text/edit_distance.h"
#include "text/jaro_winkler.h"
#include "text/numeric_similarity.h"
#include "text/phonetic.h"
#include "text/set_similarity.h"

namespace transer {

namespace {

/// A similarity whose prepared form is the text alone.
PreparedSimilarity OverText(SimilarityFn fn) {
  return PreparedSimilarity{
      PrepareSpec{kPreparedText},
      [fn = std::move(fn)](const PreparedValue& a, const PreparedValue& b) {
        return fn(a.text(), b.text());
      }};
}

}  // namespace

SimilarityRegistry::SimilarityRegistry() {
  Register("jaro", [](std::string_view a, std::string_view b) {
    return JaroSimilarity(a, b);
  });
  Register("jaro_winkler", [](std::string_view a, std::string_view b) {
    return JaroWinklerSimilarity(a, b);
  });
  Register("levenshtein", [](std::string_view a, std::string_view b) {
    return LevenshteinSimilarity(a, b);
  });
  Register("damerau_levenshtein", [](std::string_view a, std::string_view b) {
    const size_t longest = std::max(a.size(), b.size());
    if (longest == 0) return 1.0;
    return 1.0 - static_cast<double>(DamerauLevenshteinDistance(a, b)) /
                     static_cast<double>(longest);
  });
  Register("word_jaccard",
           PreparedSimilarity{PrepareSpec{kPreparedWordSet},
                              [](const PreparedValue& a,
                                 const PreparedValue& b) {
                                return WordJaccardSimilarity(a, b);
                              }});
  Register("qgram_jaccard",
           PreparedSimilarity{PrepareSpec{kPreparedGramSet, 2},
                              [](const PreparedValue& a,
                                 const PreparedValue& b) {
                                return QGramJaccardSimilarity(a, b);
                              }});
  Register("qgram_dice",
           PreparedSimilarity{PrepareSpec{kPreparedGramSet, 2},
                              [](const PreparedValue& a,
                                 const PreparedValue& b) {
                                return QGramDiceSimilarity(a, b);
                              }});
  Register("lcs", [](std::string_view a, std::string_view b) {
    return LongestCommonSubstringSimilarity(a, b);
  });
  Register("monge_elkan",
           PreparedSimilarity{PrepareSpec{kPreparedWords},
                              [](const PreparedValue& a,
                                 const PreparedValue& b) {
                                return SymmetricMongeElkan(a, b);
                              }});
  Register("exact", [](std::string_view a, std::string_view b) {
    return ExactSimilarity(a, b);
  });
  Register("soundex", [](std::string_view a, std::string_view b) {
    return SoundexSimilarity(a, b);
  });
  Register("year",
           PreparedSimilarity{PrepareSpec{kPreparedNumber},
                              [](const PreparedValue& a,
                                 const PreparedValue& b) {
                                return NumericStringSimilarity(
                                    a, b, /*max_diff=*/10.0);
                              }});
  Register("numeric_abs",
           PreparedSimilarity{PrepareSpec{kPreparedNumber},
                              [](const PreparedValue& a,
                                 const PreparedValue& b) {
                                return NumericStringSimilarity(
                                    a, b, /*max_diff=*/100.0);
                              }});
}

SimilarityRegistry& SimilarityRegistry::Global() {
  static SimilarityRegistry* registry = new SimilarityRegistry();
  return *registry;
}

void SimilarityRegistry::Register(const std::string& name, SimilarityFn fn) {
  Register(name, OverText(std::move(fn)));
}

void SimilarityRegistry::Register(const std::string& name,
                                  PreparedSimilarity similarity) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = std::move(similarity);
      return;
    }
  }
  entries_.emplace_back(name, std::move(similarity));
}

Result<SimilarityFn> SimilarityRegistry::Lookup(const std::string& name) const {
  TRANSER_ASSIGN_OR_RETURN(PreparedSimilarity similarity,
                           LookupPrepared(name));
  return SimilarityFn(
      [similarity = std::move(similarity)](std::string_view a,
                                           std::string_view b) {
        return similarity.score(
            PreparedValue(std::string(a), similarity.spec),
            PreparedValue(std::string(b), similarity.spec));
      });
}

Result<PreparedSimilarity> SimilarityRegistry::LookupPrepared(
    const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.first == name) return entry.second;
  }
  return Status::NotFound("no similarity function named '" + name + "'");
}

bool SimilarityRegistry::Contains(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.first == name) return true;
  }
  return false;
}

std::vector<std::string> SimilarityRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& entry : entries_) names.push_back(entry.first);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace transer
