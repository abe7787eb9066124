#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/transer.h"
#include "data/feature_space_generator.h"
#include "data/scenario.h"
#include "eval/metrics.h"
#include "features/ambiguity.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "util/random.h"
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

ClassifierFactory MakeLrFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<LogisticRegression>();
  };
}

/// A transfer pair with both marginal shift and conditional shift in the
/// shared ambiguous region — the setting TransER is built for.
struct HardPair {
  FeatureMatrix source;
  FeatureMatrix target;
};

HardPair MakeHardPair(uint64_t seed = 131, size_t n = 1500) {
  FeatureSpaceGenerator generator({5, 60, seed});
  FeatureDomainSpec source;
  source.num_instances = n;
  source.match_fraction = 0.30;
  source.ambiguous_fraction = 0.15;
  source.ambiguous_match_prob = 0.75;  // ambiguous region mostly matches
  source.mode_shift = 0.03;
  source.seed = seed + 1;
  FeatureDomainSpec target = source;
  target.ambiguous_match_prob = 0.25;  // ... but mostly non-match in target
  target.mode_shift = -0.05;
  target.seed = seed + 2;
  return {generator.Generate(source), generator.Generate(target)};
}

double RunFStar(const TransferMethod& method, const HardPair& pair,
                const ClassifierFactory& factory) {
  auto predicted =
      method.Run(pair.source, pair.target.WithoutLabels(), factory, {});
  EXPECT_TRUE(predicted.ok()) << predicted.status().ToString();
  if (!predicted.ok()) return 0.0;
  return EvaluateLinkage(pair.target.labels(), predicted.value()).f_star;
}

// ---------- Equation 2 / Figure 5 ----------

TEST(TransEREquationTest, StructuralSimilarityDecay) {
  // Zero distance -> similarity 1; max distance sqrt(m) -> e^{-5}.
  EXPECT_DOUBLE_EQ(TransER::StructuralSimilarityFromDistance(0.0, 4), 1.0);
  EXPECT_NEAR(TransER::StructuralSimilarityFromDistance(2.0, 4),
              std::exp(-5.0), 1e-12);
  // Monotone decreasing in distance.
  double prev = 2.0;
  for (double dist = 0.0; dist <= 2.0; dist += 0.1) {
    const double sim = TransER::StructuralSimilarityFromDistance(dist, 4);
    EXPECT_LT(sim, prev);
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0);
    prev = sim;
  }
}

// ---------- SEL phase ----------

TEST(TransERSelTest, DropsConflictingPrototypeInstances) {
  const HardPair pair = MakeHardPair(132);
  TransER transer;
  auto selected = transer.SelectInstances(pair.source,
                                          pair.target.WithoutLabels(), {});
  ASSERT_TRUE(selected.ok());
  // Something must be selected but the ambiguous region (15%) and the
  // shifted tail should be dropped.
  EXPECT_GT(selected.value().size(), pair.source.size() / 10);
  EXPECT_LT(selected.value().size(), pair.source.size());

  // Selected instances should be concentrated in clean regions: the
  // fraction of prototype instances among selected is far below 15%.
  AmbiguityAnalyzer analyzer;
  const AmbiguityStats all_stats = analyzer.Analyze(pair.source);
  const AmbiguityStats sel_stats =
      analyzer.Analyze(pair.source.Select(selected.value()));
  EXPECT_LT(sel_stats.ambiguous_fraction, all_stats.ambiguous_fraction);
}

TEST(TransERSelTest, ThresholdOneKeepsOnlyPureNeighbourhoods) {
  const HardPair pair = MakeHardPair(133, 800);
  TransEROptions strict;
  strict.t_c = 1.0;
  strict.t_l = 0.0;  // isolate the confidence filter
  TransER transer_strict(strict);
  TransEROptions loose;
  loose.t_c = 0.0;
  loose.t_l = 0.0;
  TransER transer_loose(loose);
  auto strict_sel = transer_strict.SelectInstances(
      pair.source, pair.target.WithoutLabels(), {});
  auto loose_sel = transer_loose.SelectInstances(
      pair.source, pair.target.WithoutLabels(), {});
  ASSERT_TRUE(strict_sel.ok());
  ASSERT_TRUE(loose_sel.ok());
  EXPECT_LT(strict_sel.value().size(), loose_sel.value().size());
  EXPECT_EQ(loose_sel.value().size(), pair.source.size());
}

TEST(TransERSelTest, TimeLimitProducesTe) {
  const HardPair pair = MakeHardPair(134, 3000);
  TransER transer;
  TransferRunOptions run;
  run.time_limit_seconds = 1e-9;
  auto result = transer.SelectInstances(pair.source,
                                        pair.target.WithoutLabels(), run);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("(TE)"), std::string::npos);
}

TEST(TransERSelTest, MismatchedWidthsAreInvalidArgument) {
  FeatureMatrix source({"a", "b", "c", "d"});
  source.Append({0.9, 0.8, 0.9, 0.7}, kMatch);
  source.Append({0.1, 0.2, 0.1, 0.3}, kNonMatch);
  FeatureMatrix target({"a", "b", "c"});
  target.Append({0.5, 0.5, 0.5}, kUnlabeled);
  auto selected = TransER().SelectInstances(source, target, {});
  ASSERT_FALSE(selected.ok());
  EXPECT_EQ(selected.status().code(), StatusCode::kInvalidArgument);
}

// ---------- SEL scorer vs. a brute-force Algorithm 1 ----------

/// Uniform features in [lo, hi)^3 with a noisy linear match rule — no
/// clipping, so distances have no ties.
FeatureMatrix UniformDomain(size_t n, double lo, double hi, uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix m({"a", "b", "c"});
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double> row = {rng.Uniform(lo, hi), rng.Uniform(lo, hi),
                                     rng.Uniform(lo, hi)};
    const bool match = (row[0] + row[1] + row[2] > 1.6) != rng.Bernoulli(0.1);
    m.Append(row, match ? kMatch : kNonMatch);
  }
  return m;
}

/// ER-like features in [0, 1]^4: every coordinate quantised to
/// j / levels and every fourth row a copy of an earlier one, so
/// neighbourhoods are full of exact distance ties and duplicate rows.
FeatureMatrix QuantisedDomain(size_t n, size_t levels, uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix m({"a", "b", "c", "d"});
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(4);
    if (i % 4 == 3) {
      row = rows[rng.NextUint64Below(i)];
    } else {
      for (double& v : row) {
        v = static_cast<double>(rng.NextUint64Below(levels + 1)) /
            static_cast<double>(levels);
      }
    }
    const bool match =
        (row[0] + row[1] + row[2] + row[3] > 2.0) != rng.Bernoulli(0.1);
    rows.push_back(row);
    m.Append(row, match ? kMatch : kNonMatch);
  }
  return m;
}

/// The k nearest rows of `points` to `query` by plain Euclidean distance,
/// ordered by (distance, index); row `skip` is excluded.
std::vector<size_t> BruteForceNeighbours(const Matrix& points,
                                         const double* query, size_t k,
                                         ptrdiff_t skip) {
  std::vector<std::pair<double, size_t>> all;
  for (size_t j = 0; j < points.rows(); ++j) {
    if (static_cast<ptrdiff_t>(j) == skip) continue;
    double sum = 0.0;
    for (size_t c = 0; c < points.cols(); ++c) {
      const double d = points.Row(j)[c] - query[c];
      sum += d * d;
    }
    all.emplace_back(std::sqrt(sum), j);
  }
  std::sort(all.begin(), all.end());
  std::vector<size_t> rows;
  for (size_t i = 0; i < std::min(k, all.size()); ++i) {
    rows.push_back(all[i].second);
  }
  return rows;
}

/// Mean of the rows, summed in neighbour order.
std::vector<double> Centroid(const Matrix& points,
                             const std::vector<size_t>& rows) {
  std::vector<double> mean(points.cols(), 0.0);
  for (size_t r : rows) {
    for (size_t c = 0; c < points.cols(); ++c) mean[c] += points.Row(r)[c];
  }
  const double inv = 1.0 / static_cast<double>(rows.size());
  for (double& v : mean) v *= inv;
  return mean;
}

/// Eq. 1 and Eq. 2 straight from the paper, per source instance x:
///   sim_c(x) = |{x' in N_x^S : y' = y}| / |N_x^S|
///   sim_l(x) = exp(-5 * ||mean(N_x^S) - mean(N_x^T)|| / sqrt(m))
SelScores ReferenceSelScores(const FeatureMatrix& source,
                             const FeatureMatrix& target, size_t k) {
  const Matrix xs = source.ToMatrix();
  const Matrix xt = target.ToMatrix();
  SelScores scores;
  for (size_t s = 0; s < source.size(); ++s) {
    const auto n_s =
        BruteForceNeighbours(xs, xs.Row(s), k, static_cast<ptrdiff_t>(s));
    const auto n_t = BruteForceNeighbours(xt, xs.Row(s), k, -1);
    size_t same = 0;
    for (size_t r : n_s) same += source.label(r) == source.label(s) ? 1 : 0;
    scores.sim_c.push_back(static_cast<double>(same) /
                           static_cast<double>(n_s.size()));
    const std::vector<double> c_s = Centroid(xs, n_s);
    const std::vector<double> c_t = Centroid(xt, n_t);
    double sum = 0.0;
    for (size_t c = 0; c < c_s.size(); ++c) {
      sum += (c_s[c] - c_t[c]) * (c_s[c] - c_t[c]);
    }
    const double m = static_cast<double>(c_s.size());
    scores.sim_l.push_back(std::exp(-5.0 * (std::sqrt(sum) / std::sqrt(m))));
  }
  return scores;
}

TEST(SelScorerTest, MatchesBruteForceReferenceExactly) {
  const FeatureMatrix source = UniformDomain(300, 0.0, 1.0, 161);
  const FeatureMatrix target =
      UniformDomain(250, 0.05, 1.0, 162).WithoutLabels();
  const size_t k = 7;
  const SelScores reference = ReferenceSelScores(source, target, k);
  for (KnnBackendKind kind :
       {KnnBackendKind::kKdTree, KnnBackendKind::kBruteForce}) {
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(KnnBackendKindName(kind)) + " x" +
                   std::to_string(threads));
      KnnBackendOptions knn;
      knn.kind = kind;
      knn.num_threads = threads;
      auto scores = ScoreSelInstances(source, target, k, false, knn,
                                      ExecutionContext::Unlimited(), nullptr,
                                      threads);
      ASSERT_TRUE(scores.ok()) << scores.status().ToString();
      EXPECT_EQ(scores.value().sim_c, reference.sim_c);
      EXPECT_EQ(scores.value().sim_l, reference.sim_l);
      EXPECT_TRUE(scores.value().sim_v.empty());
    }
  }

  // ER-like input: quantised features with duplicate rows. The paper
  // reference's direct-difference distances may order exact ties
  // differently from the shared ‖a‖²+‖b‖²−2a·b kernel, so here the
  // brute-force backend is the reference, and the kd-tree must match it
  // bit for bit at every thread count.
  const FeatureMatrix er_source = QuantisedDomain(4000, 10, 165);
  const FeatureMatrix er_target =
      QuantisedDomain(3000, 10, 166).WithoutLabels();
  KnnBackendOptions brute;
  brute.kind = KnnBackendKind::kBruteForce;
  auto expected = ScoreSelInstances(er_source, er_target, k, false, brute,
                                    ExecutionContext::Unlimited(), nullptr, 1);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("quantised kd_tree x" + std::to_string(threads));
    KnnBackendOptions knn;
    knn.num_threads = threads;
    auto scores = ScoreSelInstances(er_source, er_target, k, false, knn,
                                    ExecutionContext::Unlimited(), nullptr,
                                    threads);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    EXPECT_EQ(scores.value().sim_c, expected.value().sim_c);
    EXPECT_EQ(scores.value().sim_l, expected.value().sim_l);
  }
}

TEST(SelScorerTest, SelectionIsTheThresholdedScores) {
  const FeatureMatrix source = UniformDomain(300, 0.0, 1.0, 163);
  const FeatureMatrix target =
      UniformDomain(250, 0.05, 1.0, 164).WithoutLabels();
  TransEROptions options;
  options.t_c = 0.7;
  options.t_l = 0.8;
  const SelScores reference = ReferenceSelScores(source, target, options.k);
  std::vector<size_t> expected;
  for (size_t s = 0; s < source.size(); ++s) {
    if (reference.sim_c[s] >= options.t_c &&
        reference.sim_l[s] >= options.t_l) {
      expected.push_back(s);
    }
  }
  ASSERT_FALSE(expected.empty());
  auto selected = TransER(options).SelectInstances(source, target, {});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value(), expected);
}

// ---------- full run & report ----------

TEST(TransERRunTest, ReportTracksPhases) {
  const HardPair pair = MakeHardPair(135);
  TransER transer;
  TransERReport report;
  auto predicted =
      transer.RunWithReport(pair.source, pair.target.WithoutLabels(),
                            MakeRfFactory(), {}, &report);
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted.value().size(), pair.target.size());
  EXPECT_EQ(report.source_instances, pair.source.size());
  EXPECT_GT(report.selected_instances, 0u);
  EXPECT_GT(report.candidate_instances, 0u);
  EXPECT_GE(report.candidate_instances, report.balanced_instances);
  EXPECT_TRUE(report.tcl_trained);
}

TEST(TransERRunTest, RejectsMismatchedFeatureSpaces) {
  const HardPair pair = MakeHardPair(136, 300);
  FeatureMatrix narrow({"x"});
  narrow.Append({0.5}, kUnlabeled);
  TransER transer;
  EXPECT_FALSE(
      transer.Run(pair.source, narrow, MakeRfFactory(), {}).ok());
}

TEST(TransERRunTest, EmptySourceIsInvalid) {
  const HardPair pair = MakeHardPair(137, 300);
  FeatureMatrix empty(pair.source.feature_names());
  TransER transer;
  EXPECT_FALSE(transer
                   .Run(empty, pair.target.WithoutLabels(), MakeRfFactory(),
                        {})
                   .ok());
}

TEST(TransERRunTest, BalancedSetRespectsRatioB) {
  const HardPair pair = MakeHardPair(138);
  TransEROptions options;
  options.b = 2.0;
  TransER transer(options);
  TransERReport report;
  auto predicted =
      transer.RunWithReport(pair.source, pair.target.WithoutLabels(),
                            MakeRfFactory(), {}, &report);
  ASSERT_TRUE(predicted.ok());
  ASSERT_TRUE(report.tcl_trained);
  // balanced = matches + min(nonmatches, 2 * matches) — never more than
  // 3x the pseudo matches that survive confidence filtering.
  EXPECT_LE(report.balanced_instances, 3 * report.pseudo_matches + 3);
}

// ---------- the headline: TransER beats Naive under shift ----------

TEST(TransERQualityTest, BeatsNaiveUnderConditionalAndMarginalShift) {
  const HardPair pair = MakeHardPair(139, 2000);
  TransER transer;
  NaiveTransfer naive;
  const double transer_f = RunFStar(transer, pair, MakeRfFactory());
  const double naive_f = RunFStar(naive, pair, MakeRfFactory());
  EXPECT_GT(transer_f, naive_f);
  EXPECT_GT(transer_f, 0.6);
}

TEST(TransERQualityTest, MatchesNaiveOnIdenticalDomains) {
  // No shift at all: TransER must not hurt.
  FeatureSpaceGenerator generator({4, 30, 140});
  FeatureDomainSpec spec;
  spec.num_instances = 1200;
  spec.match_fraction = 0.3;
  spec.ambiguous_fraction = 0.01;
  spec.seed = 141;
  FeatureDomainSpec spec_t = spec;
  spec_t.seed = 142;
  HardPair pair{generator.Generate(spec), generator.Generate(spec_t)};
  TransER transer;
  NaiveTransfer naive;
  const double transer_f = RunFStar(transer, pair, MakeLrFactory());
  const double naive_f = RunFStar(naive, pair, MakeLrFactory());
  EXPECT_GT(transer_f, naive_f - 0.05);
}

// ---------- ablations (Table 4 behaviour) ----------

TEST(TransERAblationTest, WithoutSelHurtsUnderConditionalShift) {
  const HardPair pair = MakeHardPair(143, 2000);
  TransER full;
  TransEROptions no_sel_options;
  no_sel_options.use_sel = false;
  TransER no_sel(no_sel_options);
  const double full_f = RunFStar(full, pair, MakeRfFactory());
  const double no_sel_f = RunFStar(no_sel, pair, MakeRfFactory());
  EXPECT_GE(full_f, no_sel_f - 0.02);
}

TEST(TransERAblationTest, AblationsProduceValidPredictions) {
  const HardPair pair = MakeHardPair(144, 800);
  for (const bool use_sel : {true, false}) {
    for (const bool use_gen_tcl : {true, false}) {
      TransEROptions options;
      options.use_sel = use_sel;
      options.use_gen_tcl = use_gen_tcl;
      TransER method(options);
      auto predicted = method.Run(pair.source, pair.target.WithoutLabels(),
                                  MakeRfFactory(), {});
      ASSERT_TRUE(predicted.ok());
      EXPECT_EQ(predicted.value().size(), pair.target.size());
    }
  }
}

TEST(TransERAblationTest, SimVFilterSelectsSubset) {
  const HardPair pair = MakeHardPair(145, 800);
  TransEROptions with_v;
  with_v.use_sim_v = true;
  TransEROptions without_v;
  TransER method_v(with_v);
  TransER method_plain(without_v);
  auto sel_v = method_v.SelectInstances(pair.source,
                                        pair.target.WithoutLabels(), {});
  auto sel_plain = method_plain.SelectInstances(
      pair.source, pair.target.WithoutLabels(), {});
  ASSERT_TRUE(sel_v.ok());
  ASSERT_TRUE(sel_plain.ok());
  EXPECT_LE(sel_v.value().size(), sel_plain.value().size());
}

// ---------- experiment runner ----------

TEST(ExperimentTest, RunsSuiteAndAggregates) {
  ScenarioScale scale;
  scale.scale = 0.02;
  scale.min_instances = 300;
  scale.max_instances = 500;
  const TransferScenario scenario =
      BuildScenario(ScenarioId::kDblpAcmToDblpScholar, scale);
  TransER transer;
  const auto suite = DefaultClassifierSuite();
  const MethodScenarioResult result =
      RunMethodOnScenario(transer, scenario, suite, {});
  EXPECT_TRUE(result.failure.empty()) << result.failure;
  EXPECT_EQ(result.completed_runs, suite.size());
  EXPECT_EQ(result.per_classifier.size(), suite.size());
  EXPECT_GT(result.quality.f_star.mean, 0.3);
  EXPECT_GT(result.total_runtime_seconds, 0.0);
}

TEST(ExperimentTest, FailureShorthandClassification) {
  EXPECT_EQ(FailureShorthand(
                Status::FailedPrecondition("x: runtime limit exceeded (TE)")),
            "TE");
  EXPECT_EQ(FailureShorthand(
                Status::FailedPrecondition("x: memory limit exceeded (ME)")),
            "ME");
  EXPECT_NE(FailureShorthand(Status::Internal("boom")), "TE");
}

TEST(ExperimentTest, DefaultLineupMatchesPaperOrder) {
  const auto methods = DefaultMethodLineup();
  ASSERT_EQ(methods.size(), 7u);
  EXPECT_EQ(methods[0]->name(), "transer");
  EXPECT_EQ(methods[1]->name(), "naive");
  EXPECT_EQ(methods[2]->name(), "dtal");
  EXPECT_EQ(methods[3]->name(), "dr");
  EXPECT_EQ(methods[4]->name(), "locit");
  EXPECT_EQ(methods[5]->name(), "tca");
  EXPECT_EQ(methods[6]->name(), "coral");
}

}  // namespace
}  // namespace transer
