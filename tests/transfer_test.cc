#include <memory>

#include <gtest/gtest.h>

#include "data/feature_space_generator.h"
#include "eval/metrics.h"
#include "knn/kd_tree.h"
#include "linalg/covariance.h"
#include "linalg/vector_ops.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "transfer/coral.h"
#include "transfer/dr_transfer.h"
#include "transfer/dtal.h"
#include "transfer/embedding_lift.h"
#include "transfer/locit.h"
#include "transfer/naive_transfer.h"
#include "transfer/tca.h"
#include "util/random.h"

namespace transer {
namespace {

ClassifierFactory MakeLrFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<LogisticRegression>();
  };
}

ClassifierFactory MakeRfFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<RandomForest>();
  };
}

/// A well-behaved pair of homogeneous domains with a mild marginal shift.
struct DomainPair {
  FeatureMatrix source;
  FeatureMatrix target;
};

DomainPair MakePair(double target_shift = -0.05, size_t n = 1500,
                    uint64_t seed = 111) {
  FeatureSpaceGenerator generator({4, 40, seed});
  FeatureDomainSpec source;
  source.num_instances = n;
  source.match_fraction = 0.30;
  source.ambiguous_fraction = 0.05;
  source.seed = seed + 1;
  FeatureDomainSpec target = source;
  target.mode_shift = target_shift;
  target.seed = seed + 2;
  return {generator.Generate(source), generator.Generate(target)};
}

double TargetFStar(const TransferMethod& method, const DomainPair& pair,
                   const ClassifierFactory& factory,
                   const TransferRunOptions& run = {}) {
  auto predicted =
      method.Run(pair.source, pair.target.WithoutLabels(), factory, run);
  EXPECT_TRUE(predicted.ok()) << predicted.status().ToString();
  if (!predicted.ok()) return 0.0;
  return EvaluateLinkage(pair.target.labels(), predicted.value()).f_star;
}

// ---------- Naive ----------

TEST(NaiveTransferTest, LearnsWellSeparatedDomains) {
  const DomainPair pair = MakePair(0.0);
  NaiveTransfer naive;
  EXPECT_GT(TargetFStar(naive, pair, MakeLrFactory()), 0.85);
}

TEST(NaiveTransferTest, RejectsMismatchedFeatureSpaces) {
  const DomainPair pair = MakePair();
  FeatureMatrix narrow({"only_one"});
  narrow.Append({0.5}, kMatch);
  NaiveTransfer naive;
  EXPECT_FALSE(
      naive.Run(pair.source, narrow, MakeLrFactory(), {}).ok());
}

// ---------- CORAL ----------

TEST(CoralTest, AlignedSourceMatchesTargetCovariance) {
  const DomainPair pair = MakePair(-0.1);
  CoralTransfer coral;
  const Matrix x_source = pair.source.ToMatrix();
  const Matrix x_target = pair.target.ToMatrix();
  auto aligned = coral.AlignSource(x_source, x_target);
  ASSERT_TRUE(aligned.ok());

  CoralOptions options;
  Matrix cov_aligned = SampleCovariance(aligned.value());
  cov_aligned.AddDiagonal(options.regularization);
  Matrix cov_target = SampleCovariance(x_target);
  cov_target.AddDiagonal(options.regularization);
  // Second-order statistics are matched up to the regularisation ridge.
  EXPECT_LT(cov_aligned.Subtract(cov_target).FrobeniusNorm() /
                cov_target.FrobeniusNorm(),
            0.15);
}

TEST(CoralTest, RunProducesReasonableQuality) {
  const DomainPair pair = MakePair(-0.05);
  CoralTransfer coral;
  EXPECT_GT(TargetFStar(coral, pair, MakeLrFactory()), 0.6);
}

// ---------- TCA ----------

TEST(TcaTest, EmbeddingReducesDomainMeanGap) {
  const DomainPair pair = MakePair(-0.12, 600, 112);
  TcaTransfer tca;
  const Matrix x_source = pair.source.ToMatrix();
  const Matrix x_target = pair.target.ToMatrix();
  auto embedding = tca.Embed(x_source, x_target, {});
  ASSERT_TRUE(embedding.ok());
  EXPECT_EQ(embedding.value().rows(), x_source.rows() + x_target.rows());

  // Compare normalised mean gaps before and after: TCA minimises MMD.
  auto normalized_gap = [](const Matrix& all, size_t ns) {
    std::vector<size_t> src(ns), tgt(all.rows() - ns);
    for (size_t i = 0; i < ns; ++i) src[i] = i;
    for (size_t j = ns; j < all.rows(); ++j) tgt[j - ns] = j;
    const auto mean_s = ColumnMeans(all.SelectRows(src));
    const auto mean_t = ColumnMeans(all.SelectRows(tgt));
    double gap = 0.0, scale = 0.0;
    for (size_t c = 0; c < mean_s.size(); ++c) {
      gap += (mean_s[c] - mean_t[c]) * (mean_s[c] - mean_t[c]);
      scale += mean_s[c] * mean_s[c] + mean_t[c] * mean_t[c];
    }
    return scale > 0.0 ? gap / scale : 0.0;
  };
  const Matrix joined = Matrix::VStack(x_source, x_target);
  const double before = normalized_gap(joined, x_source.rows());
  const double after =
      normalized_gap(embedding.value(), x_source.rows());
  EXPECT_LT(after, before);
}

TEST(TcaTest, MemoryLimitProducesMe) {
  const DomainPair pair = MakePair(-0.05, 800, 113);
  TcaTransfer tca;
  TransferRunOptions run;
  run.memory_limit_bytes = 1 << 20;  // 1 MB: far below the kernel size
  auto result =
      tca.Run(pair.source, pair.target.WithoutLabels(), MakeLrFactory(), run);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("(ME)"), std::string::npos);
}

TEST(TcaTest, SmallProblemRunsToCompletion) {
  const DomainPair pair = MakePair(-0.05, 400, 114);
  TcaTransfer tca;
  const double f_star = TargetFStar(tca, pair, MakeLrFactory());
  EXPECT_GT(f_star, 0.3);  // transfer happens, though not necessarily well
}

// ---------- LocIT ----------

TEST(LocItTest, SelectsSomeSubsetOfSource) {
  const DomainPair pair = MakePair(-0.05, 500, 115);
  LocItTransfer locit;
  auto selected = locit.SelectInstances(pair.source,
                                        pair.target.WithoutLabels(), {});
  ASSERT_TRUE(selected.ok());
  EXPECT_LE(selected.value().size(), pair.source.size());
}

TEST(LocItTest, RunAlwaysReturnsFullPredictionVector) {
  const DomainPair pair = MakePair(-0.05, 400, 116);
  LocItTransfer locit;
  auto predicted = locit.Run(pair.source, pair.target.WithoutLabels(),
                             MakeLrFactory(), {});
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted.value().size(), pair.target.size());
}

TEST(LocItTest, TimeLimitProducesTe) {
  const DomainPair pair = MakePair(-0.05, 2000, 117);
  LocItTransfer locit;
  TransferRunOptions run;
  run.time_limit_seconds = 1e-9;
  auto result = locit.Run(pair.source, pair.target.WithoutLabels(),
                          MakeLrFactory(), run);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("(TE)"), std::string::npos);
}

TEST(LocItTest, MismatchedWidthsAreInvalidArgument) {
  const DomainPair pair = MakePair(-0.05, 200, 118);
  FeatureMatrix narrow({"a", "b", "c"});
  narrow.Append({0.5, 0.5, 0.5}, kUnlabeled);
  narrow.Append({0.2, 0.4, 0.6}, kUnlabeled);
  LocItTransfer locit;
  auto selected = locit.SelectInstances(pair.source, narrow, {});
  ASSERT_FALSE(selected.ok());
  EXPECT_EQ(selected.status().code(), StatusCode::kInvalidArgument);
  auto predicted = locit.Run(pair.source, narrow, MakeLrFactory(), {});
  ASSERT_FALSE(predicted.ok());
  EXPECT_EQ(predicted.status().code(), StatusCode::kInvalidArgument);
}

/// LocIT's selection as serial per-row KD-tree queries: one k-NN and one
/// 1-NN query per target row, two k-NN queries per source row.
std::vector<size_t> ReferenceLocItSelection(const FeatureMatrix& source,
                                            const FeatureMatrix& target,
                                            size_t k_option, uint64_t seed) {
  struct Stats {
    std::vector<double> mean;
    Matrix covariance;
  };
  auto stats_of = [](const Matrix& points, const std::vector<Neighbour>& nbs) {
    std::vector<size_t> rows;
    for (const auto& nb : nbs) rows.push_back(nb.index);
    const Matrix local = points.SelectRows(rows);
    return Stats{ColumnMeans(local), SampleCovariance(local)};
  };
  auto pair_features = [](const Stats& a, const Stats& b) {
    return std::vector<double>{
        L2Distance(a.mean, b.mean),
        a.covariance.Subtract(b.covariance).FrobeniusNorm()};
  };
  const Matrix xs = source.ToMatrix();
  const Matrix xt = target.ToMatrix();
  const size_t k = std::min(k_option, xt.rows() - 1);
  const size_t source_k = std::min(k_option, xs.rows() - 1);
  const KdTree target_tree(xt);
  const KdTree source_tree(xs);
  auto row_of = [](const Matrix& x, size_t i) {
    return std::span<const double>(x.Row(i), x.cols());
  };

  std::vector<Stats> target_stats;
  for (size_t i = 0; i < xt.rows(); ++i) {
    target_stats.push_back(stats_of(
        xt, target_tree.Query(row_of(xt, i), k, static_cast<ptrdiff_t>(i))));
  }
  Rng rng(seed + 29);
  std::vector<double> train_rows;
  std::vector<int> train_labels;
  for (size_t i = 0; i < xt.rows(); ++i) {
    const auto nearest =
        target_tree.Query(row_of(xt, i), 1, static_cast<ptrdiff_t>(i));
    const auto positive =
        pair_features(target_stats[i], target_stats[nearest[0].index]);
    train_rows.insert(train_rows.end(), positive.begin(), positive.end());
    train_labels.push_back(1);
    size_t far = static_cast<size_t>(rng.NextUint64Below(xt.rows()));
    if (far == i) far = (far + 1) % xt.rows();
    const auto negative = pair_features(target_stats[i], target_stats[far]);
    train_rows.insert(train_rows.end(), negative.begin(), negative.end());
    train_labels.push_back(0);
  }
  LinearSvmOptions svm_options;
  svm_options.seed = seed + 31;
  LinearSvm svm(svm_options);
  svm.Fit(Matrix::FromRowMajor(train_labels.size(), 2, train_rows),
          train_labels);

  std::vector<size_t> selected;
  for (size_t s = 0; s < xs.rows(); ++s) {
    const auto n_s =
        source_tree.Query(row_of(xs, s), source_k, static_cast<ptrdiff_t>(s));
    const auto n_t = target_tree.Query(row_of(xs, s), k);
    if (svm.Predict(pair_features(stats_of(xs, n_s), stats_of(xt, n_t))) ==
        1) {
      selected.push_back(s);
    }
  }
  return selected;
}

TEST(LocItTest, MatchesSerialKdTreeReference) {
  const DomainPair pair = MakePair(-0.05, 400, 119);
  const FeatureMatrix target = pair.target.WithoutLabels();
  const LocItTransfer locit;
  TransferRunOptions run;
  run.seed = 7;
  const std::vector<size_t> expected =
      ReferenceLocItSelection(pair.source, target, LocItOptions{}.k, run.seed);
  ASSERT_FALSE(expected.empty());
  for (int threads : {1, 8}) {
    run.num_threads = threads;
    auto selected = locit.SelectInstances(pair.source, target, run);
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    EXPECT_EQ(selected.value(), expected) << threads << " threads";
  }
}

// ---------- embedding lift ----------

TEST(EmbeddingLiftTest, ShapeAndDeterminism) {
  const DomainPair pair = MakePair(-0.05, 200, 118);
  EmbeddingLiftOptions options;
  options.dimension = 16;
  const Matrix a = LiftToEmbedding(pair.source.ToMatrix(), options);
  const Matrix b = LiftToEmbedding(pair.source.ToMatrix(), options);
  EXPECT_EQ(a.rows(), pair.source.size());
  EXPECT_EQ(a.cols(), 16u);
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 0.0);
}

TEST(EmbeddingLiftTest, NoiseDegradesSeparability) {
  // More noise -> worse downstream classification on the lift.
  const DomainPair pair = MakePair(0.0, 800, 119);
  auto accuracy_with_noise = [&](double noise) {
    EmbeddingLiftOptions options;
    options.noise_stddev = noise;
    const Matrix lifted = LiftToEmbedding(pair.source.ToMatrix(), options);
    LogisticRegression lr;
    lr.Fit(lifted, pair.source.labels());
    const auto predicted = lr.PredictAll(lifted);
    size_t correct = 0;
    for (size_t i = 0; i < predicted.size(); ++i) {
      correct += predicted[i] == pair.source.label(i) ? 1 : 0;
    }
    return static_cast<double>(correct) /
           static_cast<double>(predicted.size());
  };
  EXPECT_GT(accuracy_with_noise(0.01), accuracy_with_noise(2.0));
}

// ---------- DR ----------

TEST(DrTest, WeightsAreClippedAndPositive) {
  const DomainPair pair = MakePair(-0.1, 500, 120);
  DrTransfer dr;
  EmbeddingLiftOptions lift;
  const Matrix e_source = LiftToEmbedding(pair.source.ToMatrix(), lift);
  const Matrix e_target = LiftToEmbedding(pair.target.ToMatrix(), lift);
  auto weights = dr.ComputeWeights(e_source, e_target, 7);
  ASSERT_TRUE(weights.ok());
  ASSERT_EQ(weights.value().size(), pair.source.size());
  for (double w : weights.value()) {
    EXPECT_GE(w, 0.1);
    EXPECT_LE(w, 10.0);
  }
}

TEST(DrTest, RunCompletesAndPredictsAllInstances) {
  const DomainPair pair = MakePair(-0.05, 500, 121);
  DrTransfer dr;
  auto predicted = dr.Run(pair.source, pair.target.WithoutLabels(),
                          MakeRfFactory(), {});
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted.value().size(), pair.target.size());
}

// ---------- DTAL ----------

TEST(DtalTest, RunCompletesOnSmallPair) {
  const DomainPair pair = MakePair(-0.05, 300, 122);
  DtalOptions options;
  options.network.epochs = 8;
  DtalTransfer dtal(options);
  auto predicted = dtal.Run(pair.source, pair.target.WithoutLabels(),
                            MakeLrFactory(), {});
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted.value().size(), pair.target.size());
}

TEST(DtalTest, TightDeadlineProducesTe) {
  const DomainPair pair = MakePair(-0.05, 800, 123);
  DtalTransfer dtal;
  TransferRunOptions run;
  run.time_limit_seconds = 1e-9;
  auto result = dtal.Run(pair.source, pair.target.WithoutLabels(),
                         MakeLrFactory(), run);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("(TE)"), std::string::npos);
}

// ---------- quality ordering (the paper's headline) ----------

TEST(TransferOrderingTest, SimilarityFeaturesBeatEmbeddingsOnStructuredData) {
  const DomainPair pair = MakePair(-0.05, 900, 124);
  NaiveTransfer naive;
  DrTransfer dr;
  const double naive_f = TargetFStar(naive, pair, MakeLrFactory());
  const double dr_f = TargetFStar(dr, pair, MakeLrFactory());
  // Section 5.2.1: embedding-based DR underperforms the similarity-
  // feature Naive baseline on structured data.
  EXPECT_GT(naive_f, dr_f);
}

}  // namespace
}  // namespace transer
