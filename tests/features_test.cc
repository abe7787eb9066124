#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "data/bibliographic_generator.h"
#include "data/demographic_generator.h"
#include "data/music_generator.h"
#include "features/ambiguity.h"
#include "features/comparator.h"
#include "features/feature_matrix.h"
#include "text/jaro_winkler.h"
#include "text/normalize.h"
#include "text/numeric_similarity.h"
#include "text/set_similarity.h"
#include "text/tokenize.h"
#include "util/string_util.h"

namespace transer {
namespace {

FeatureMatrix TwoFeatureMatrix() {
  FeatureMatrix x({"a", "b"});
  x.Append({0.1, 0.2}, kNonMatch, {0, 0});
  x.Append({0.9, 0.8}, kMatch, {1, 2});
  x.Append({0.5, 0.5}, kUnlabeled, {3, 4});
  return x;
}

// ---------- FeatureMatrix ----------

TEST(FeatureMatrixTest, AppendAndAccess) {
  const FeatureMatrix x = TwoFeatureMatrix();
  EXPECT_EQ(x.size(), 3u);
  EXPECT_EQ(x.num_features(), 2u);
  EXPECT_DOUBLE_EQ(x.Row(1)[0], 0.9);
  EXPECT_EQ(x.label(1), kMatch);
  EXPECT_EQ(x.pair(2).left_index, 3u);
  EXPECT_EQ(x.CountMatches(), 1u);
  EXPECT_EQ(x.CountNonMatches(), 1u);
  EXPECT_EQ(x.CountUnlabeled(), 1u);
}

TEST(FeatureMatrixTest, ToMatrixCopiesData) {
  const FeatureMatrix x = TwoFeatureMatrix();
  const Matrix m = x.ToMatrix();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m(2, 1), 0.5);
}

TEST(FeatureMatrixTest, SelectKeepsLabelsAndPairs) {
  const FeatureMatrix x = TwoFeatureMatrix();
  const FeatureMatrix sub = x.Select({2, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.label(0), kUnlabeled);
  EXPECT_EQ(sub.pair(0).right_index, 4u);
  EXPECT_DOUBLE_EQ(sub.Row(1)[0], 0.1);
}

TEST(FeatureMatrixTest, WithoutLabelsHidesEverything) {
  const FeatureMatrix hidden = TwoFeatureMatrix().WithoutLabels();
  EXPECT_EQ(hidden.CountUnlabeled(), 3u);
}

TEST(FeatureMatrixTest, WithLabelsOverrides) {
  const FeatureMatrix relabeled =
      TwoFeatureMatrix().WithLabels({kMatch, kMatch, kNonMatch});
  EXPECT_EQ(relabeled.CountMatches(), 2u);
  EXPECT_EQ(relabeled.label(2), kNonMatch);
}

TEST(FeatureMatrixTest, CsvRoundTrip) {
  const std::string path = testing::TempDir() + "/transer_features.csv";
  ASSERT_TRUE(TwoFeatureMatrix().ToCsvFile(path).ok());
  auto loaded = FeatureMatrix::FromCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 3u);
  EXPECT_EQ(loaded.value().feature_names(),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_NEAR(loaded.value().Row(1)[1], 0.8, 1e-6);
  EXPECT_EQ(loaded.value().label(2), kUnlabeled);
}

// ---------- PairComparator ----------

Schema BibSchema() {
  return Schema({{"title", "word_jaccard"}, {"year", "year"}});
}

TEST(PairComparatorTest, ComputesDeclaredSimilarities) {
  auto comparator = PairComparator::Create(BibSchema(), BibSchema());
  ASSERT_TRUE(comparator.ok());
  Record a{"a", 0, {"Entity Resolution Methods", "1970"}};
  Record b{"b", 0, {"entity resolution", "1971"}};
  const auto features = comparator.value().Compare(a, b);
  ASSERT_EQ(features.size(), 2u);
  EXPECT_NEAR(features[0], 2.0 / 3.0, 1e-12);  // word jaccard after norm
  EXPECT_NEAR(features[1], 0.9, 1e-12);        // |1970-1971| / 10
}

TEST(PairComparatorTest, MissingValuesScoreZeroByDefault) {
  auto comparator = PairComparator::Create(BibSchema(), BibSchema());
  ASSERT_TRUE(comparator.ok());
  Record a{"a", 0, {"", "1970"}};
  Record b{"b", 0, {"anything", "1970"}};
  const auto features = comparator.value().Compare(a, b);
  EXPECT_DOUBLE_EQ(features[0], 0.0);
  EXPECT_DOUBLE_EQ(features[1], 1.0);
}

TEST(PairComparatorTest, RejectsIncompatibleSchemas) {
  Schema other({{"title", "jaro"}, {"year", "year"}});
  EXPECT_FALSE(PairComparator::Create(BibSchema(), other).ok());
}

TEST(PairComparatorTest, RejectsUnknownSimilarity) {
  Schema bad({{"title", "definitely_not_registered"}});
  EXPECT_FALSE(PairComparator::Create(bad, bad).ok());
}

TEST(PairComparatorTest, CompareAllLabelsFromEntityIds) {
  Dataset left("l", BibSchema());
  Dataset right("r", BibSchema());
  left.Add({"l0", 7, {"entity resolution", "1999"}});
  right.Add({"r0", 7, {"entity resolution", "1999"}});
  right.Add({"r1", 8, {"graph mining", "2001"}});
  auto comparator = PairComparator::Create(BibSchema(), BibSchema());
  ASSERT_TRUE(comparator.ok());
  const FeatureMatrix features = comparator.value().CompareAll(
      left, right, {{0, 0}, {0, 1}});
  ASSERT_EQ(features.size(), 2u);
  EXPECT_EQ(features.label(0), kMatch);
  EXPECT_EQ(features.label(1), kNonMatch);
  EXPECT_DOUBLE_EQ(features.Row(0)[0], 1.0);
}

// ---------- Record profiles vs. the per-pair definition ----------

// A custom similarity registered by name: its prepared form is the
// normalised text, and the reference calls it directly.
double FirstTwoBytesAgree(std::string_view a, std::string_view b) {
  return a.substr(0, 2) == b.substr(0, 2) ? 1.0 : 0.25;
}

double ReferenceNumeric(const std::string& a, const std::string& b,
                        double max_diff) {
  double va = 0.0;
  double vb = 0.0;
  if (ParseDouble(a, &va) && ParseDouble(b, &vb) && std::isfinite(va) &&
      std::isfinite(vb)) {
    return AbsoluteDifferenceSimilarity(va, vb, max_diff);
  }
  return ExactSimilarity(a, b);
}

// One similarity from the public per-pair pieces: tokenise, deduplicate
// and score both values afresh, as the comparator did before profiles.
double ReferenceSimilarity(const std::string& name, const std::string& a,
                           const std::string& b) {
  if (name == "word_jaccard") {
    return JaccardSimilarity(WordTokens(a), WordTokens(b));
  }
  if (name == "qgram_jaccard") {
    return JaccardSimilarity(QGrams(a, 2, /*padded=*/true),
                             QGrams(b, 2, /*padded=*/true));
  }
  if (name == "qgram_dice") {
    return DiceSimilarity(QGrams(a, 2, /*padded=*/true),
                          QGrams(b, 2, /*padded=*/true));
  }
  if (name == "monge_elkan") {
    const auto ta = WordTokens(a);
    const auto tb = WordTokens(b);
    return std::max(MongeElkanSimilarity(ta, tb),
                    MongeElkanSimilarity(tb, ta));
  }
  if (name == "jaro_winkler") return JaroWinklerSimilarity(a, b);
  if (name == "year") return ReferenceNumeric(a, b, 10.0);
  if (name == "numeric_abs") return ReferenceNumeric(a, b, 100.0);
  if (name == "test_first_two_bytes") return FirstTwoBytesAgree(a, b);
  ADD_FAILURE() << "no reference for similarity " << name;
  return -1.0;
}

std::vector<double> ReferenceFeatures(const Schema& schema, const Record& l,
                                      const Record& r) {
  std::vector<double> features;
  for (size_t q = 0; q < schema.size(); ++q) {
    const std::string a = NormalizeValue(l.values[q]);
    const std::string b = NormalizeValue(r.values[q]);
    features.push_back(
        a.empty() || b.empty()
            ? ComparatorOptions{}.missing_value_similarity
            : ReferenceSimilarity(schema.attributes()[q].similarity, a, b));
  }
  return features;
}

// Every pair of the problem, compared through CompareAll at 1, 2 and 8
// threads, must equal the reference bit for bit.
void ExpectProfilesMatchReference(const LinkageProblem& problem) {
  const Schema& schema = problem.left.schema();
  std::vector<PairRef> pairs;
  for (size_t i = 0; i < problem.left.size(); ++i) {
    for (size_t j = 0; j < problem.right.size(); ++j) {
      pairs.push_back(PairRef{i, j});
    }
  }
  auto comparator = PairComparator::Create(schema, problem.right.schema());
  ASSERT_TRUE(comparator.ok()) << comparator.status().ToString();
  std::vector<std::vector<double>> reference;
  reference.reserve(pairs.size());
  for (const PairRef& pair : pairs) {
    reference.push_back(ReferenceFeatures(
        schema, problem.left.record(pair.left_index),
        problem.right.record(pair.right_index)));
  }
  for (int threads : {1, 2, 8}) {
    ParallelOptions options;
    options.num_threads = threads;
    auto features = comparator.value().CompareAll(
        problem.left, problem.right, pairs, ExecutionContext::Unlimited(),
        options);
    ASSERT_TRUE(features.ok()) << features.status().ToString();
    ASSERT_EQ(features.value().size(), pairs.size());
    size_t mismatches = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const auto row = features.value().Row(i);
      for (size_t q = 0; q < schema.size(); ++q) {
        if (std::bit_cast<uint64_t>(row[q]) !=
            std::bit_cast<uint64_t>(reference[i][q])) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << "threads " << threads << " pair " << i
                          << " feature " << schema.attributes()[q].name
                          << ": " << row[q] << " vs reference "
                          << reference[i][q];
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "threads " << threads;
  }
}

TEST(RecordProfileTest, BibliographicMatchesPerPairDefinition) {
  BibliographicOptions options;
  options.num_entities = 70;
  options.right_corruption.typo_probability = 0.4;
  options.right_corruption.abbreviate_probability = 0.3;
  options.right_corruption.missing_probability = 0.15;
  ExpectProfilesMatchReference(GenerateBibliographic(options));
}

TEST(RecordProfileTest, DemographicMatchesPerPairDefinition) {
  DemographicOptions options;
  options.link_type = DemographicLinkType::kBirthParentsToBirthParents;
  options.num_families = 30;
  options.right_corruption.missing_probability = 0.15;
  ExpectProfilesMatchReference(GenerateDemographic(options));
}

TEST(RecordProfileTest, MusicMatchesPerPairDefinition) {
  MusicOptions options;
  options.num_entities = 70;
  options.right_corruption.typo_probability = 0.4;
  options.right_corruption.missing_probability = 0.15;
  ExpectProfilesMatchReference(GenerateMusic(options));
}

TEST(RecordProfileTest, MissingAndDegenerateValuesMatchPerPairDefinition) {
  const Schema schema({{"title", "qgram_jaccard"},
                       {"authors", "monge_elkan"},
                       {"venue", "word_jaccard"},
                       {"name", "jaro_winkler"},
                       {"year", "year"},
                       {"length", "numeric_abs"},
                       {"code", "qgram_dice"}});
  const std::vector<std::vector<std::string>> rows = {
      {"", "  ", "...", "", "", "", ""},
      {"a", "j smith", "vldb", "anne", "1999", "210", "x"},
      {"A!", "Smith, J.", "VLDB  Journal", "ann", "nan", "inf", "X"},
      {"?!", "j  j  smith", "vldb vldb", "Anne-Marie", "NaN", "-inf", "xy"},
      {"ab ab", "smith j", "the journal", "marie anne", "1999.5", "2e2", "yx"},
      {"b", "peter christen", "journal the", "", "1e400", "abc", "   "},
  };
  LinkageProblem problem{Dataset("l", schema), Dataset("r", schema)};
  for (size_t i = 0; i < rows.size(); ++i) {
    problem.left.Add(Record{"l" + std::to_string(i),
                            static_cast<int64_t>(i), rows[i]});
    problem.right.Add(Record{"r" + std::to_string(i),
                             static_cast<int64_t>(i), rows[rows.size() - 1 - i]});
  }
  ExpectProfilesMatchReference(problem);
}

TEST(RecordProfileTest, CustomFunctionSeesNormalisedText) {
  SimilarityRegistry::Global().Register("test_first_two_bytes",
                                        FirstTwoBytesAgree);
  const Schema schema(
      {{"title", "test_first_two_bytes"}, {"authors", "monge_elkan"}});
  LinkageProblem problem{Dataset("l", schema), Dataset("r", schema)};
  const std::vector<std::string> titles = {"Entity", "EN-tity", "en",
                                           "", "e", "graph"};
  for (size_t i = 0; i < titles.size(); ++i) {
    problem.left.Add(Record{"l" + std::to_string(i),
                            static_cast<int64_t>(i), {titles[i], "a b"}});
    problem.right.Add(Record{"r" + std::to_string(i),
                             static_cast<int64_t>(i),
                             {titles[titles.size() - 1 - i], "b c"}});
  }
  ExpectProfilesMatchReference(problem);
}

TEST(RecordProfileTest, PreparedRecordsSurviveRelocation) {
  // Profiles hold token offsets, not views: short (SSO) values move their
  // bytes when the vector holding them grows, and scores must not care.
  const Schema schema({{"title", "word_jaccard"},
                       {"authors", "monge_elkan"},
                       {"code", "qgram_jaccard"}});
  auto comparator = PairComparator::Create(schema, schema);
  ASSERT_TRUE(comparator.ok());
  const Record a{"a", 0, {"ab cd", "j smith", "xy"}};
  const Record b{"b", 1, {"cd ef", "smith j", "xz"}};
  std::vector<PreparedValue> grown;
  for (int round = 0; round < 40; ++round) {
    const size_t at = grown.size();
    grown.resize(at + schema.size());
    comparator.value().PrepareRecord(
        round % 2 == 0 ? a : b,
        std::span<PreparedValue>(grown).subspan(at, schema.size()));
  }
  const size_t width = schema.size();
  std::vector<double> features(width);
  comparator.value().CompareProfiles(
      std::span<const PreparedValue>(grown).first(width),
      std::span<const PreparedValue>(grown).subspan(width, width), features);
  EXPECT_EQ(features, comparator.value().Compare(a, b));
  EXPECT_EQ(features, ReferenceFeatures(schema, a, b));
}

// ---------- AmbiguityAnalyzer ----------

TEST(AmbiguityTest, KeyRoundsToRequestedDecimals) {
  AmbiguityAnalyzer analyzer(2);
  const std::vector<double> row = {0.123, 0.126};
  EXPECT_EQ(analyzer.Key(std::span<const double>(row.data(), 2)),
            "0.12|0.13|");
}

TEST(AmbiguityTest, DetectsAmbiguousVectors) {
  FeatureMatrix x({"f"});
  x.Append({0.5}, kMatch);
  x.Append({0.5}, kNonMatch);  // same vector, both labels
  x.Append({0.9}, kMatch);
  x.Append({0.1}, kNonMatch);
  const AmbiguityStats stats = AmbiguityAnalyzer().Analyze(x);
  EXPECT_EQ(stats.total_instances, 4u);
  EXPECT_EQ(stats.distinct_vectors, 3u);
  EXPECT_DOUBLE_EQ(stats.ambiguous_fraction, 0.5);
  EXPECT_DOUBLE_EQ(stats.match_fraction, 0.25);
  EXPECT_DOUBLE_EQ(stats.nonmatch_fraction, 0.25);
}

TEST(AmbiguityTest, RoundingMergesCloseVectors) {
  FeatureMatrix x({"f"});
  x.Append({0.501}, kMatch);
  x.Append({0.499}, kNonMatch);  // rounds to the same 0.50
  const AmbiguityStats stats = AmbiguityAnalyzer(2).Analyze(x);
  EXPECT_EQ(stats.distinct_vectors, 1u);
  EXPECT_DOUBLE_EQ(stats.ambiguous_fraction, 1.0);
}

TEST(AmbiguityTest, CommonVectorClassification) {
  FeatureMatrix a({"f"});
  a.Append({0.9}, kMatch);     // common, same class
  a.Append({0.5}, kMatch);     // common, diff class
  a.Append({0.3}, kMatch);     // common, ambiguous in b
  a.Append({0.7}, kMatch);     // only in a
  FeatureMatrix b({"f"});
  b.Append({0.9}, kMatch);
  b.Append({0.5}, kNonMatch);
  b.Append({0.3}, kMatch);
  b.Append({0.3}, kNonMatch);
  const CommonVectorStats stats =
      AmbiguityAnalyzer().AnalyzeCommon(a, b);
  EXPECT_EQ(stats.common_distinct_vectors, 3u);
  EXPECT_NEAR(stats.same_class_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.diff_class_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.ambiguous_fraction, 1.0 / 3.0, 1e-12);
}

TEST(AmbiguityTest, EmptyMatrixProducesZeroStats) {
  FeatureMatrix x({"f"});
  const AmbiguityStats stats = AmbiguityAnalyzer().Analyze(x);
  EXPECT_EQ(stats.total_instances, 0u);
  EXPECT_DOUBLE_EQ(stats.ambiguous_fraction, 0.0);
}

}  // namespace
}  // namespace transer
