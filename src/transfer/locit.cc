#include "transfer/locit.h"

#include <cmath>

#include "knn/neighbourhood.h"
#include "linalg/vector_ops.h"
#include "ml/linear_svm.h"
#include "util/parallel.h"
#include "util/random.h"

namespace transer {

namespace {

/// Local distribution summary of one instance's neighbourhood.
struct LocalStats {
  std::vector<double> mean;
  Matrix covariance;
};

LocalStats NeighbourhoodStats(const Matrix& points,
                              const std::vector<Neighbour>& neighbours) {
  LocalStats stats;
  NeighbourhoodCentroidInto(points, neighbours, &stats.mean);
  stats.covariance = NeighbourhoodCovariance(points, neighbours);
  return stats;
}

std::vector<double> PairFeatures(const LocalStats& a, const LocalStats& b) {
  return {L2Distance(a.mean, b.mean),
          a.covariance.Subtract(b.covariance).FrobeniusNorm()};
}

}  // namespace

Result<std::vector<size_t>> LocItTransfer::SelectInstances(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const TransferRunOptions& run_options) const {
  if (source.num_features() != target.num_features()) {
    return Status::InvalidArgument(
        "source and target feature spaces differ");
  }
  std::optional<ExecutionContext> local_context;
  const ExecutionContext& context =
      ResolveExecutionContext(run_options, &local_context);
  RunDiagnostics* diagnostics = run_options.diagnostics;
  TRANSER_RETURN_IF_ERROR(context.Check("locit", diagnostics));
  const Matrix x_source = source.ToMatrix();
  const Matrix x_target = target.ToMatrix();
  // k is clamped so the self-excluded queries stay satisfiable.
  auto clamp_k = [&](size_t n) {
    return std::min(options_.k, n > 1 ? n - 1 : size_t{1});
  };
  const size_t k = clamp_k(target.size());
  const size_t source_k = clamp_k(source.size());

  const KnnBackendOptions knn =
      ResolveKnnBackendOptions(run_options, run_options.num_threads);
  TRANSER_ASSIGN_OR_RETURN(
      const std::unique_ptr<KnnBackend> target_index,
      CreateKnnBackend(x_target, knn, context, "locit", diagnostics));
  TRANSER_ASSIGN_OR_RETURN(
      const std::unique_ptr<KnnBackend> source_index,
      CreateKnnBackend(x_source, knn, context, "locit", diagnostics));
  ParallelOptions par;
  par.num_threads = run_options.num_threads;
  par.min_items_per_chunk = 8;
  par.diagnostics = diagnostics;

  // Local stats for every target instance.
  TRANSER_ASSIGN_OR_RETURN(
      const std::vector<std::vector<Neighbour>> target_neighbourhoods,
      target_index->QueryBatch(x_target, k, context, "locit", par,
                               /*skip_self=*/true));
  std::vector<LocalStats> target_stats(x_target.rows());
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "locit", x_target.rows(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t i = begin; i < end; ++i) {
          target_stats[i] =
              NeighbourhoodStats(x_target, target_neighbourhoods[i]);
        }
        return Status::OK();
      },
      par));

  // Supervised transferability training set from the target domain:
  // (x, nearest neighbour) -> positive, (x, random far point) -> negative.
  // Neighbour lists are sorted by (distance, index), so the nearest
  // neighbour is the first element of the k-NN list.
  Rng rng(run_options.seed + 29);
  std::vector<double> train_rows;
  std::vector<int> train_labels;
  for (size_t i = 0; i < x_target.rows(); ++i) {
    if (target_neighbourhoods[i].empty()) continue;
    const size_t near_index = target_neighbourhoods[i][0].index;
    const auto positive = PairFeatures(target_stats[i],
                                       target_stats[near_index]);
    train_rows.insert(train_rows.end(), positive.begin(), positive.end());
    train_labels.push_back(1);

    // A uniformly random other point is far with high probability under
    // LocIT's anomaly-detection assumptions.
    size_t far_index = static_cast<size_t>(
        rng.NextUint64Below(x_target.rows()));
    if (far_index == i) far_index = (far_index + 1) % x_target.rows();
    const auto negative =
        PairFeatures(target_stats[i], target_stats[far_index]);
    train_rows.insert(train_rows.end(), negative.begin(), negative.end());
    train_labels.push_back(0);
  }
  if (train_labels.empty()) {
    return Status::FailedPrecondition("locit: no training pairs");
  }

  LinearSvmOptions svm_options;
  svm_options.seed = run_options.seed + 31;
  LinearSvm svm(svm_options);
  svm.set_execution_context(&context);
  svm.Fit(Matrix::FromRowMajor(train_labels.size(), 2, train_rows),
          train_labels);
  TRANSER_RETURN_IF_ERROR(context.Check("locit", diagnostics));

  // Apply the transferability classifier to each source instance.
  TRANSER_ASSIGN_OR_RETURN(
      const std::vector<std::vector<Neighbour>> source_neighbourhoods,
      source_index->QueryBatch(x_source, source_k, context, "locit", par,
                               /*skip_self=*/true));
  TRANSER_ASSIGN_OR_RETURN(
      const std::vector<std::vector<Neighbour>> cross_neighbourhoods,
      target_index->QueryBatch(x_source, k, context, "locit", par));
  std::vector<char> keep(x_source.rows(), 0);
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "locit", x_source.rows(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t s = begin; s < end; ++s) {
          if (!InParallelRegion()) {
            context.ReportProgress(static_cast<double>(s) /
                                   static_cast<double>(x_source.rows()));
          }
          const std::vector<Neighbour>& n_s = source_neighbourhoods[s];
          const std::vector<Neighbour>& n_t = cross_neighbourhoods[s];
          if (n_s.empty() || n_t.empty()) continue;
          const auto features = PairFeatures(NeighbourhoodStats(x_source, n_s),
                                             NeighbourhoodStats(x_target, n_t));
          keep[s] = svm.Predict(features) == 1;
        }
        return Status::OK();
      },
      par));
  std::vector<size_t> selected;
  for (size_t s = 0; s < keep.size(); ++s) {
    if (keep[s]) selected.push_back(s);
  }
  return selected;
}

Result<std::vector<int>> LocItTransfer::Run(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options) const {
  std::optional<ExecutionContext> local_context;
  const ExecutionContext& context =
      ResolveExecutionContext(run_options, &local_context);
  TRANSER_RETURN_IF_ERROR(context.Check("locit", run_options.diagnostics));
  ScopedReservation working_set;
  TRANSER_RETURN_IF_ERROR(working_set.Acquire(
      context, "locit",
      transfer_internal::DomainWorkingSetBytes(source, target),
      run_options.diagnostics));

  TransferRunOptions select_options = run_options;
  select_options.context = &context;  // share the budget with SEL
  auto selected = SelectInstances(source, target, select_options);
  if (!selected.ok()) return selected.status();

  // With nothing transferable (or a single class), LocIT* labels
  // everything non-match — the all-zero rows of Table 2.
  const FeatureMatrix chosen = source.Select(selected.value());
  if (chosen.CountMatches() == 0 || chosen.CountNonMatches() == 0) {
    return std::vector<int>(target.size(), kNonMatch);
  }
  auto classifier = make_classifier();
  classifier->set_execution_context(&context);
  classifier->Fit(chosen.ToMatrix(), transfer_internal::RequireLabels(chosen));
  TRANSER_RETURN_IF_ERROR(context.Check("locit", run_options.diagnostics));
  return classifier->PredictAll(target.ToMatrix());
}

}  // namespace transer
