#ifndef TRANSER_FEATURES_COMPARATOR_H_
#define TRANSER_FEATURES_COMPARATOR_H_

#include <span>
#include <vector>

#include "data/dataset.h"
#include "features/feature_matrix.h"
#include "text/normalize.h"
#include "text/prepared_value.h"
#include "text/similarity_registry.h"
#include "util/parallel.h"
#include "util/status.h"

namespace transer {

/// \brief Options for the record-pair comparison step.
struct ComparatorOptions {
  /// Value normalisation applied before each similarity call.
  NormalizeOptions normalize;
  /// Similarity assigned when either value is missing (ER convention:
  /// missing tells us nothing, so score 0).
  double missing_value_similarity = 0.0;
};

/// \brief The record-pair comparison step (Figure 1): evaluates the
/// schema's per-attribute similarity functions on candidate pairs and
/// emits the feature matrix. Labels come from ground-truth entity ids.
///
/// Each record is prepared once into a profile — per attribute, the
/// normalised value plus the forms its similarity reads (token spans,
/// sorted token / q-gram sets, the parsed number) — and pairs are scored
/// from profiles. Features are bit-identical to normalising and
/// tokenising both values afresh for every pair (DESIGN.md §9.4).
class PairComparator {
 public:
  /// Fails with NotFound if the schema references an unregistered
  /// similarity function, or InvalidArgument for incompatible schemas.
  static Result<PairComparator> Create(const Schema& left_schema,
                                       const Schema& right_schema,
                                       ComparatorOptions options = {});

  /// Prepares `record` into its profile: one PreparedValue per attribute,
  /// written to `out` (num_features() slots).
  void PrepareRecord(const Record& record, std::span<PreparedValue> out) const;

  /// Feature vector of two prepared profiles into a caller-owned buffer
  /// of num_features() doubles.
  void CompareProfiles(std::span<const PreparedValue> left,
                       std::span<const PreparedValue> right,
                       std::span<double> out) const;

  /// Feature vector of one record pair (prepares both records first).
  std::vector<double> Compare(const Record& left, const Record& right) const;

  /// Compares every candidate pair, labelling each by entity-id equality.
  FeatureMatrix CompareAll(const Dataset& left, const Dataset& right,
                           const std::vector<PairRef>& pairs) const;

  /// CompareAll over the parallel runtime: the profiles of both datasets
  /// are built in parallel (and freed on return), then pairs are filled
  /// into pre-sized rows in chunks, so the matrix is bit-identical for
  /// any thread count. Workers poll `context`; a TE / ME / cancellation
  /// surfaces as the usual FailedPrecondition.
  Result<FeatureMatrix> CompareAll(const Dataset& left, const Dataset& right,
                                   const std::vector<PairRef>& pairs,
                                   const ExecutionContext& context,
                                   const ParallelOptions& options) const;

  /// The feature schema this comparator emits ("attr:similarity" per
  /// attribute) — the names a model trained on its output is bound to.
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  size_t num_features() const { return similarities_.size(); }

 private:
  PairComparator(std::vector<std::string> names,
                 std::vector<PreparedSimilarity> similarities,
                 ComparatorOptions options)
      : feature_names_(std::move(names)),
        similarities_(std::move(similarities)),
        options_(options) {}

  /// Profiles of every record of `dataset`, record-major
  /// (num_features() values per record), built over the parallel runtime.
  Result<std::vector<PreparedValue>> PrepareDataset(
      const Dataset& dataset, const ExecutionContext& context,
      const ParallelOptions& options) const;

  std::vector<std::string> feature_names_;
  std::vector<PreparedSimilarity> similarities_;
  ComparatorOptions options_;
};

}  // namespace transer

#endif  // TRANSER_FEATURES_COMPARATOR_H_
