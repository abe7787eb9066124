#include "core/source_selection.h"

#include <algorithm>
#include <numeric>

namespace transer {

Result<SourceScore> ScoreSourceDomain(const FeatureMatrix& source,
                                      const FeatureMatrix& target,
                                      const SourceSelectionOptions& options) {
  if (source.empty() || target.empty()) {
    return Status::InvalidArgument("empty domain");
  }
  TRANSER_ASSIGN_OR_RETURN(
      const SelScores scores,
      ScoreSelInstances(source, target, options.transer.k,
                        options.transer.use_sim_v,
                        ResolveKnnBackendOptions(TransferRunOptions{}, 0),
                        ExecutionContext::Unlimited(), nullptr, 0));
  const size_t kept =
      scores.Select(options.transer, options.transer.t_c, options.transer.t_l)
          .size();
  const double n = static_cast<double>(source.size());
  SourceScore score;
  score.transferable_fraction = static_cast<double>(kept) / n;
  score.mean_structural_similarity =
      std::accumulate(scores.sim_l.begin(), scores.sim_l.end(), 0.0) / n;
  return score;
}

Result<std::vector<SourceScore>> RankSourceDomains(
    const std::vector<const FeatureMatrix*>& sources,
    const FeatureMatrix& target, const SourceSelectionOptions& options) {
  if (sources.empty()) {
    return Status::InvalidArgument("no candidate source domains");
  }
  std::vector<SourceScore> scores;
  scores.reserve(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    auto score = ScoreSourceDomain(*sources[i], target, options);
    if (!score.ok()) return score.status();
    score.value().source_index = i;
    scores.push_back(score.value());
  }
  std::sort(scores.begin(), scores.end(),
            [](const SourceScore& a, const SourceScore& b) {
              return a.Score() > b.Score();
            });
  return scores;
}

}  // namespace transer
