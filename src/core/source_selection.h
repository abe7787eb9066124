#ifndef TRANSER_CORE_SOURCE_SELECTION_H_
#define TRANSER_CORE_SOURCE_SELECTION_H_

#include <vector>

#include "core/transer.h"
#include "features/feature_matrix.h"
#include "util/status.h"

namespace transer {

/// \brief Transferability profile of one candidate source domain against
/// a target domain.
struct SourceScore {
  size_t source_index = 0;
  /// Fraction of source instances TransER's SEL keeps at the options'
  /// thresholds — exactly the share of the source TransER would use.
  double transferable_fraction = 0.0;
  /// Mean structural similarity (Eq. 2) over every source instance,
  /// independent of the thresholds.
  double mean_structural_similarity = 0.0;

  /// Combined ranking score.
  double Score() const {
    return 0.5 * transferable_fraction + 0.5 * mean_structural_similarity;
  }
};

/// \brief Options for multi-source selection.
struct SourceSelectionOptions {
  TransEROptions transer;  ///< k, filters and thresholds of the SEL probe
};

/// Scores one candidate source domain against the target: how much of it
/// is transferable under TransER's SEL criteria, and how similar its
/// local structures are. Every source row is scored with
/// ScoreSelInstances (exact KD-tree, process-default threads).
/// Implements the paper's future-work item "choose the best source
/// domain when multiple semantically related labelled data sets are
/// available" (Section 6).
Result<SourceScore> ScoreSourceDomain(const FeatureMatrix& source,
                                      const FeatureMatrix& target,
                                      const SourceSelectionOptions& options);

/// Scores every candidate and returns them sorted by descending Score().
/// All candidates must share the target's feature space.
Result<std::vector<SourceScore>> RankSourceDomains(
    const std::vector<const FeatureMatrix*>& sources,
    const FeatureMatrix& target, const SourceSelectionOptions& options = {});

}  // namespace transer

#endif  // TRANSER_CORE_SOURCE_SELECTION_H_
