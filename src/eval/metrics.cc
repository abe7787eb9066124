#include "eval/metrics.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace transer {

std::string LinkageQuality::ToString() const {
  return StrFormat("P=%.2f R=%.2f F*=%.2f F1=%.2f", precision * 100.0,
                   recall * 100.0, f_star * 100.0, f1 * 100.0);
}

ConfusionCounts CountConfusion(const std::vector<int>& truth,
                               const std::vector<int>& predicted) {
  TRANSER_CHECK_EQ(truth.size(), predicted.size());
  ConfusionCounts counts;
  for (size_t i = 0; i < truth.size(); ++i) {
    const bool actual = truth[i] == 1;
    const bool guessed = predicted[i] == 1;
    if (actual && guessed) {
      ++counts.true_positives;
    } else if (!actual && guessed) {
      ++counts.false_positives;
    } else if (actual && !guessed) {
      ++counts.false_negatives;
    } else {
      ++counts.true_negatives;
    }
  }
  return counts;
}

double Accuracy(const std::vector<int>& truth,
                const std::vector<int>& predicted) {
  TRANSER_CHECK_EQ(truth.size(), predicted.size());
  if (truth.empty()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == predicted[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(truth.size());
}

LinkageQuality ComputeQuality(const ConfusionCounts& counts) {
  LinkageQuality q;
  const double tp = static_cast<double>(counts.true_positives);
  const double fp = static_cast<double>(counts.false_positives);
  const double fn = static_cast<double>(counts.false_negatives);
  if (tp + fp > 0.0) q.precision = tp / (tp + fp);
  if (tp + fn > 0.0) q.recall = tp / (tp + fn);
  if (q.precision + q.recall > 0.0) {
    q.f1 = 2.0 * q.precision * q.recall / (q.precision + q.recall);
  }
  if (tp + fp + fn > 0.0) q.f_star = tp / (tp + fp + fn);
  return q;
}

LinkageQuality EvaluateLinkage(const std::vector<int>& truth,
                               const std::vector<int>& predicted) {
  return ComputeQuality(CountConfusion(truth, predicted));
}

double FStarFromPrecisionRecall(double precision, double recall) {
  const double denom = precision + recall - precision * recall;
  if (denom <= 0.0) return 0.0;
  return precision * recall / denom;
}

}  // namespace transer
