#include <cmath>

#include <gtest/gtest.h>

#include "eval/aggregate.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"

namespace transer {
namespace {

// ---------- confusion + quality ----------

TEST(MetricsTest, CountsConfusionCells) {
  const std::vector<int> truth = {1, 1, 0, 0, 1};
  const std::vector<int> predicted = {1, 0, 1, 0, 1};
  const ConfusionCounts counts = CountConfusion(truth, predicted);
  EXPECT_EQ(counts.true_positives, 2u);
  EXPECT_EQ(counts.false_negatives, 1u);
  EXPECT_EQ(counts.false_positives, 1u);
  EXPECT_EQ(counts.true_negatives, 1u);
}

TEST(MetricsTest, QualityKnownValues) {
  ConfusionCounts counts;
  counts.true_positives = 8;
  counts.false_positives = 2;
  counts.false_negatives = 2;
  const LinkageQuality q = ComputeQuality(counts);
  EXPECT_DOUBLE_EQ(q.precision, 0.8);
  EXPECT_DOUBLE_EQ(q.recall, 0.8);
  EXPECT_DOUBLE_EQ(q.f1, 0.8);
  EXPECT_NEAR(q.f_star, 8.0 / 12.0, 1e-12);
}

TEST(MetricsTest, ZeroDenominatorsYieldZeroNotNan) {
  const LinkageQuality q = ComputeQuality(ConfusionCounts{});
  EXPECT_DOUBLE_EQ(q.precision, 0.0);
  EXPECT_DOUBLE_EQ(q.recall, 0.0);
  EXPECT_DOUBLE_EQ(q.f1, 0.0);
  EXPECT_DOUBLE_EQ(q.f_star, 0.0);
}

TEST(MetricsTest, PerfectPrediction) {
  const std::vector<int> labels = {1, 0, 1, 0};
  const LinkageQuality q = EvaluateLinkage(labels, labels);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  EXPECT_DOUBLE_EQ(q.f_star, 1.0);
}

TEST(MetricsTest, AccuracyCountsEqualLabels) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 0, 1}, {1, 1, 1}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy({1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

// Property: F* computed from counts equals the P/R identity
// F* = PR / (P + R - PR) [Hand, Christen & Kirielle 2021], and
// F* <= F1 always.
struct QualityCase {
  size_t tp, fp, fn;
};

class FStarIdentityTest : public ::testing::TestWithParam<QualityCase> {};

TEST_P(FStarIdentityTest, IdentityAndOrdering) {
  const QualityCase param = GetParam();
  ConfusionCounts counts;
  counts.true_positives = param.tp;
  counts.false_positives = param.fp;
  counts.false_negatives = param.fn;
  const LinkageQuality q = ComputeQuality(counts);
  EXPECT_NEAR(q.f_star, FStarFromPrecisionRecall(q.precision, q.recall),
              1e-12);
  EXPECT_LE(q.f_star, q.f1 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FStarIdentityTest,
    ::testing::Values(QualityCase{10, 0, 0}, QualityCase{10, 5, 0},
                      QualityCase{10, 0, 5}, QualityCase{1, 99, 99},
                      QualityCase{50, 25, 10}, QualityCase{0, 10, 10}));

TEST(MetricsTest, ToStringRendersPercentages) {
  LinkageQuality q;
  q.precision = 0.9278;
  q.recall = 0.969;
  q.f_star = 0.9002;
  q.f1 = 0.9469;
  EXPECT_EQ(q.ToString(), "P=92.78 R=96.90 F*=90.02 F1=94.69");
}

// ---------- aggregation ----------

TEST(AggregateTest, MeanAndStd) {
  const MeanStd agg = Aggregate({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(agg.mean, 2.5);
  EXPECT_NEAR(agg.stddev, std::sqrt(1.25), 1e-12);
}

TEST(AggregateTest, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(Aggregate({}).mean, 0.0);
  const MeanStd one = Aggregate({7.0});
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
}

TEST(AggregateTest, QualityAggregateOverClassifiers) {
  LinkageQuality a;
  a.precision = 0.9;
  a.recall = 0.8;
  LinkageQuality b;
  b.precision = 0.7;
  b.recall = 1.0;
  const QualityAggregate agg = AggregateQuality({a, b});
  EXPECT_DOUBLE_EQ(agg.precision.mean, 0.8);
  EXPECT_DOUBLE_EQ(agg.recall.mean, 0.9);
  EXPECT_NEAR(agg.precision.stddev, 0.1, 1e-12);
}

TEST(AggregateTest, MeanStdToStringPercent) {
  MeanStd agg;
  agg.mean = 0.9376;
  agg.stddev = 0.0101;
  EXPECT_EQ(agg.ToString(), " 93.76 ±  1.01");
}

// ---------- table printer ----------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "22"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("name         value"), std::string::npos);
  EXPECT_NE(out.find("longer-name  22"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NO_THROW({ table.Render(); });
}

TEST(TablePrinterTest, HandlesUtf8PlusMinus) {
  TablePrinter table({"m"});
  table.AddRow({"93.76 ± 1.01"});
  table.AddRow({"5.00 ± 0.10"});
  const std::string out = table.Render();
  // Both rows present; no crash on multi-byte width computation.
  EXPECT_NE(out.find("93.76"), std::string::npos);
  EXPECT_NE(out.find("5.00"), std::string::npos);
}

}  // namespace
}  // namespace transer
