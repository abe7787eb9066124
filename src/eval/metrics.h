#ifndef TRANSER_EVAL_METRICS_H_
#define TRANSER_EVAL_METRICS_H_

#include <string>
#include <vector>

namespace transer {

/// \brief Confusion counts of a binary linkage result.
struct ConfusionCounts {
  size_t true_positives = 0;
  size_t false_positives = 0;
  size_t false_negatives = 0;
  size_t true_negatives = 0;
};

/// \brief The paper's linkage-quality measures (Section 5.1.4):
/// precision, recall, F1, and the interpretable F* = TP/(TP+FP+FN)
/// [Hand, Christen & Kirielle 2021].
struct LinkageQuality {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double f_star = 0.0;

  std::string ToString() const;
};

/// Tallies a prediction vector against ground truth (labels in {0, 1}).
ConfusionCounts CountConfusion(const std::vector<int>& truth,
                               const std::vector<int>& predicted);

/// Fraction of equal entries in two equal-length label vectors; 0 when
/// both are empty.
double Accuracy(const std::vector<int>& truth,
                const std::vector<int>& predicted);

/// Derives the quality measures; empty denominators yield 0.
LinkageQuality ComputeQuality(const ConfusionCounts& counts);

/// Convenience: CountConfusion + ComputeQuality.
LinkageQuality EvaluateLinkage(const std::vector<int>& truth,
                               const std::vector<int>& predicted);

/// F* from precision and recall directly:
/// F* = P*R / (P + R - P*R); 0 when P+R is 0. Used in tests to check the
/// identity with the count-based computation.
double FStarFromPrecisionRecall(double precision, double recall);

}  // namespace transer

#endif  // TRANSER_EVAL_METRICS_H_
