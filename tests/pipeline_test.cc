#include <memory>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/transer.h"
#include "data/bibliographic_generator.h"
#include "data/music_generator.h"
#include "ml/random_forest.h"
#include "transfer/naive_transfer.h"

namespace transer {
namespace {

ClassifierFactory MakeRfFactory() {
  return []() -> std::unique_ptr<Classifier> {
    RandomForestOptions options;
    options.num_trees = 16;
    return std::make_unique<RandomForest>(options);
  };
}

LinkageProblem CleanBibProblem(uint64_t seed) {
  BibliographicOptions options;
  options.num_entities = 400;
  options.overlap = 0.5;
  options.seed = seed;
  options.right_corruption.typo_probability = 0.15;
  return GenerateBibliographic(options);
}

LinkageProblem NoisyBibProblem(uint64_t seed) {
  BibliographicOptions options;
  options.num_entities = 400;
  options.overlap = 0.5;
  options.seed = seed;
  // Scholar-like: heavier corruption in the right database.
  options.right_corruption.typo_probability = 0.45;
  options.right_corruption.abbreviate_probability = 0.25;
  options.right_corruption.drop_word_probability = 0.15;
  return GenerateBibliographic(options);
}

TEST(PipelineTest, BuildDomainFeaturesProducesLabelledMatrix) {
  const LinkageProblem problem = CleanBibProblem(201);
  PipelineBuildInfo info;
  auto features = BuildDomainFeatures(problem, {}, &info);
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features.value().num_features(), 4u);
  EXPECT_GT(features.value().size(), 100u);
  EXPECT_GT(features.value().CountMatches(), 50u);
  EXPECT_GT(info.BlockingRecall(), 0.85);
  EXPECT_EQ(info.candidate_pairs, features.value().size());
}

TEST(PipelineTest, BlockingCountsComeFromTheComparatorLabels) {
  const LinkageProblem problem = CleanBibProblem(203);
  PipelineBuildInfo info;
  auto built = BuildDomainFeatures(problem, {}, &info);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const FeatureMatrix& features = built.value();
  EXPECT_EQ(info.true_matches_in_candidates, features.CountMatches());
  EXPECT_EQ(info.true_matches_total, problem.CountTrueMatches());

  // The labels are the entity-id predicate over the candidate pairs.
  size_t same_entity = 0;
  for (size_t i = 0; i < features.size(); ++i) {
    const Record& l = problem.left.record(features.pair(i).left_index);
    const Record& r = problem.right.record(features.pair(i).right_index);
    if (l.entity_id >= 0 && l.entity_id == r.entity_id) ++same_entity;
  }
  EXPECT_EQ(info.true_matches_in_candidates, same_entity);

  // MinHash-LSH keeps most true matches (pairs completeness) while
  // pruning most of the cross product (reduction ratio), and more than
  // one candidate in 20 is a true match (pairs quality).
  EXPECT_GT(info.BlockingRecall(), 0.9);
  EXPECT_LT(info.candidate_pairs,
            problem.left.size() * problem.right.size() / 2);
  EXPECT_GT(20 * info.true_matches_in_candidates, info.candidate_pairs);

  // No true matches at all: pairs completeness is 0, not NaN.
  EXPECT_EQ(PipelineBuildInfo{}.BlockingRecall(), 0.0);
}

TEST(PipelineTest, MatchPairsScoreHigherThanNonMatches) {
  const LinkageProblem problem = CleanBibProblem(202);
  auto features = BuildDomainFeatures(problem, {});
  ASSERT_TRUE(features.ok());
  double match_mean = 0.0, nonmatch_mean = 0.0;
  size_t matches = 0, nonmatches = 0;
  for (size_t i = 0; i < features.value().size(); ++i) {
    double avg = 0.0;
    for (double v : features.value().Row(i)) avg += v;
    avg /= static_cast<double>(features.value().num_features());
    if (features.value().label(i) == kMatch) {
      match_mean += avg;
      ++matches;
    } else {
      nonmatch_mean += avg;
      ++nonmatches;
    }
  }
  ASSERT_GT(matches, 0u);
  ASSERT_GT(nonmatches, 0u);
  EXPECT_GT(match_mean / matches, nonmatch_mean / nonmatches + 0.2);
}

TEST(PipelineTest, EndToEndTransferOnBibliographicDomains) {
  // Source: clean pair (DBLP-ACM-like); target: noisy pair
  // (DBLP-Scholar-like) — the paper's first scenario, at small scale.
  const LinkageProblem source_problem = CleanBibProblem(203);
  const LinkageProblem target_problem = NoisyBibProblem(204);
  TransER transer;
  auto result = RunTransferPipeline(source_problem, target_problem, transer,
                                    MakeRfFactory());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().quality.f_star, 0.5);
  EXPECT_GT(result.value().source_instances, 100u);
  EXPECT_GT(result.value().target_instances, 100u);
}

TEST(PipelineTest, RejectsIncompatibleDomains) {
  const LinkageProblem bib = CleanBibProblem(205);
  MusicOptions music_options;
  music_options.num_entities = 100;
  const LinkageProblem music = GenerateMusic(music_options);
  NaiveTransfer naive;
  auto result = RunTransferPipeline(bib, music, naive, MakeRfFactory());
  EXPECT_FALSE(result.ok());
}

TEST(PipelineTest, NaivePipelineAlsoRuns) {
  const LinkageProblem source_problem = CleanBibProblem(206);
  const LinkageProblem target_problem = NoisyBibProblem(207);
  NaiveTransfer naive;
  auto result = RunTransferPipeline(source_problem, target_problem, naive,
                                    MakeRfFactory());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().quality.recall, 0.3);
}

}  // namespace
}  // namespace transer
