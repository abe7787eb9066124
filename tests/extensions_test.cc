// Tests of the future-work extensions (paper Section 6): the k-NN
// classifier family, multi-source selection, and active-learning TransER.

#include <memory>

#include <gtest/gtest.h>

#include "core/active_transer.h"
#include "core/source_selection.h"
#include "core/transer.h"
#include "data/feature_space_generator.h"
#include "eval/metrics.h"
#include "ml/knn_classifier.h"
#include "ml/random_forest.h"
#include "util/random.h"

namespace transer {
namespace {

ClassifierFactory MakeRfFactory() {
  return []() -> std::unique_ptr<Classifier> {
    RandomForestOptions options;
    options.num_trees = 16;
    return std::make_unique<RandomForest>(options);
  };
}

FeatureMatrix MakeDomain(double match_mean, uint64_t seed, size_t n = 1200,
                         const FeatureSpaceGenerator* shared_gen = nullptr) {
  static const FeatureSpaceGenerator default_gen(
      FeatureSpaceSharedSpec{4, 40, 555});
  const FeatureSpaceGenerator& gen =
      shared_gen != nullptr ? *shared_gen : default_gen;
  FeatureDomainSpec spec;
  spec.num_instances = n;
  spec.match_fraction = 0.3;
  spec.ambiguous_fraction = 0.05;
  spec.match_mean = match_mean;
  spec.seed = seed;
  return gen.Generate(spec);
}

// ---------- KnnClassifier ----------

TEST(KnnClassifierTest, LearnsSeparableData) {
  const FeatureMatrix train = MakeDomain(0.8, 1);
  const FeatureMatrix test = MakeDomain(0.8, 2);
  KnnClassifier knn;
  knn.Fit(train.ToMatrix(), train.labels());
  EXPECT_GT(Accuracy(test.labels(), knn.PredictAll(test.ToMatrix())), 0.85);
}

TEST(KnnClassifierTest, ExactTrainingPointIsConfident) {
  Matrix x = {{0.0, 0.0}, {0.0, 0.1}, {1.0, 1.0}, {1.0, 0.9}};
  std::vector<int> y = {0, 0, 1, 1};
  KnnClassifierOptions options;
  options.k = 2;
  KnnClassifier knn(options);
  knn.Fit(x, y);
  EXPECT_GT(knn.PredictProba(std::vector<double>{1.0, 1.0}), 0.9);
  EXPECT_LT(knn.PredictProba(std::vector<double>{0.0, 0.0}), 0.1);
}

TEST(KnnClassifierTest, SampleWeightsTipTheVote) {
  // Equidistant conflicting neighbours: the heavier one wins.
  Matrix x = {{0.4}, {0.6}};
  std::vector<int> y = {0, 1};
  KnnClassifierOptions options;
  options.k = 2;
  options.distance_weighted = false;
  KnnClassifier knn(options);
  knn.Fit(x, y, {1.0, 5.0});
  EXPECT_GT(knn.PredictProba(std::vector<double>{0.5}), 0.5);
}

TEST(KnnClassifierTest, UnfittedReturnsUninformative) {
  KnnClassifier knn;
  Matrix empty(0, 2);
  knn.Fit(empty, {});
  EXPECT_DOUBLE_EQ(knn.PredictProba(std::vector<double>{0.1, 0.2}), 0.5);
}

// ---------- source selection ----------

TEST(SourceSelectionTest, PrefersTheAlignedSource) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 556});
  const FeatureMatrix target = MakeDomain(0.80, 10, 1200, &gen);
  const FeatureMatrix aligned = MakeDomain(0.80, 11, 1200, &gen);
  const FeatureMatrix shifted = MakeDomain(0.55, 12, 1200, &gen);

  auto ranking = RankSourceDomains({&shifted, &aligned}, target);
  ASSERT_TRUE(ranking.ok());
  ASSERT_EQ(ranking.value().size(), 2u);
  EXPECT_EQ(ranking.value()[0].source_index, 1u);  // aligned wins
  EXPECT_GT(ranking.value()[0].Score(), ranking.value()[1].Score());
}

TEST(SourceSelectionTest, ScoresAreWithinUnitRange) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 557});
  const FeatureMatrix target = MakeDomain(0.8, 13, 800, &gen);
  const FeatureMatrix source = MakeDomain(0.8, 14, 800, &gen);
  auto score = ScoreSourceDomain(source, target, {});
  ASSERT_TRUE(score.ok());
  EXPECT_GE(score.value().transferable_fraction, 0.0);
  EXPECT_LE(score.value().transferable_fraction, 1.0);
  EXPECT_GE(score.value().mean_structural_similarity, 0.0);
  EXPECT_LE(score.value().mean_structural_similarity, 1.0);
}

TEST(SourceSelectionTest, RejectsMismatchedFeatureSpaces) {
  const FeatureMatrix target = MakeDomain(0.8, 15, 400);
  FeatureSpaceGenerator narrow_gen(FeatureSpaceSharedSpec{3, 20, 558});
  FeatureDomainSpec spec;
  spec.num_instances = 200;
  spec.seed = 16;
  const FeatureMatrix narrow = narrow_gen.Generate(spec);
  EXPECT_FALSE(ScoreSourceDomain(narrow, target, {}).ok());
  EXPECT_FALSE(RankSourceDomains({}, target).ok());
}

TEST(SourceSelectionTest, TransferableFractionIsTransERSelectionShare) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 560});
  const FeatureMatrix target = MakeDomain(0.75, 19, 700, &gen).WithoutLabels();
  const FeatureMatrix source = MakeDomain(0.8, 20, 900, &gen);
  for (bool use_sim_v : {false, true}) {
    SourceSelectionOptions options;
    options.transer.t_c = 0.8;
    options.transer.t_l = 0.85;
    options.transer.use_sim_v = use_sim_v;
    auto score = ScoreSourceDomain(source, target, options);
    ASSERT_TRUE(score.ok());
    auto selected =
        TransER(options.transer).SelectInstances(source, target, {});
    ASSERT_TRUE(selected.ok());
    ASSERT_GT(selected.value().size(), 0u);
    ASSERT_LT(selected.value().size(), source.size());
    EXPECT_DOUBLE_EQ(score.value().transferable_fraction *
                         static_cast<double>(source.size()),
                     static_cast<double>(selected.value().size()));
  }
}

// ---------- active TransER ----------

TEST(ActiveTransERTest, OracleQueriesRespectBudget) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 559});
  const FeatureMatrix source = MakeDomain(0.80, 17, 1200, &gen);
  const FeatureMatrix target = MakeDomain(0.72, 18, 1200, &gen);

  ActiveTransEROptions options;
  options.budget = 25;
  ActiveTransER active(options);
  size_t oracle_calls = 0;
  auto result = active.Run(
      source, target.WithoutLabels(), MakeRfFactory(),
      [&](size_t index) {
        ++oracle_calls;
        return target.label(index);
      },
      {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(oracle_calls, 25u);
  EXPECT_EQ(result.value().queried_indices.size(), 25u);
  EXPECT_EQ(result.value().predicted.size(), target.size());
}

TEST(ActiveTransERTest, OracleAnswersAreNeverOverruled) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 560});
  const FeatureMatrix source = MakeDomain(0.80, 19, 1000, &gen);
  const FeatureMatrix target = MakeDomain(0.72, 20, 1000, &gen);
  ActiveTransEROptions options;
  options.budget = 10;
  ActiveTransER active(options);
  auto result = active.Run(
      source, target.WithoutLabels(), MakeRfFactory(),
      [&](size_t index) { return target.label(index); }, {});
  ASSERT_TRUE(result.ok());
  for (size_t index : result.value().queried_indices) {
    EXPECT_EQ(result.value().predicted[index], target.label(index));
  }
}

TEST(ActiveTransERTest, OracleLabelsDoNotHurtQuality) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 561});
  const FeatureMatrix source = MakeDomain(0.80, 21, 1500, &gen);
  FeatureDomainSpec hard;
  hard.num_instances = 1500;
  hard.match_fraction = 0.3;
  hard.ambiguous_fraction = 0.15;
  hard.match_mean = 0.70;
  hard.match_stddev = 0.13;
  hard.seed = 22;
  const FeatureMatrix target = gen.Generate(hard);

  TransER plain;
  auto base = plain.Run(source, target.WithoutLabels(), MakeRfFactory(), {});
  ASSERT_TRUE(base.ok());
  const double base_f =
      EvaluateLinkage(target.labels(), base.value()).f_star;

  ActiveTransEROptions options;
  options.budget = 150;
  ActiveTransER active(options);
  auto result = active.Run(
      source, target.WithoutLabels(), MakeRfFactory(),
      [&](size_t index) { return target.label(index); }, {});
  ASSERT_TRUE(result.ok());
  const double active_f =
      EvaluateLinkage(target.labels(), result.value().predicted).f_star;
  EXPECT_GE(active_f, base_f - 0.03);
}

TEST(ActiveTransERTest, ZeroBudgetMatchesPlainPhases) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 562});
  const FeatureMatrix source = MakeDomain(0.8, 23, 800, &gen);
  const FeatureMatrix target = MakeDomain(0.75, 24, 800, &gen);
  ActiveTransEROptions options;
  options.budget = 0;
  ActiveTransER active(options);
  bool called = false;
  auto result = active.Run(
      source, target.WithoutLabels(), MakeRfFactory(),
      [&](size_t) {
        called = true;
        return kMatch;
      },
      {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(called);
  EXPECT_TRUE(result.value().queried_indices.empty());
}

}  // namespace
}  // namespace transer
