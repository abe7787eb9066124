#ifndef TRANSER_ML_MODEL_STORE_H_
#define TRANSER_ML_MODEL_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "knn/knn_backend.h"
#include "ml/classifier.h"
#include "ml/scaler.h"
#include "util/status.h"

namespace transer {

/// \file
/// Crash-safe persistence for trained models, built on util/artifact_io.
/// Every artifact is written atomically (temp + fsync + rename), carries
/// the feature-schema fingerprint it was trained against, and is CRC-
/// framed, so loads either succeed bit-exactly or fail with a clean
/// status — never a crash or a silent misprediction (DESIGN.md §8).

/// Artifact kinds written by this store.
inline constexpr char kClassifierArtifactKind[] = "classifier";
inline constexpr char kScalerArtifactKind[] = "scaler";
inline constexpr char kPipelineArtifactKind[] = "transer_pipeline";

/// Creates an untrained classifier of the family serialised under `name`
/// (the Classifier::name() string: "decision_tree", "random_forest",
/// "logistic_regression", "linear_svm", "naive_bayes", "knn", "mlp",
/// "threshold"). Unknown names — artifacts from another build, such as
/// the retired "gradient_boosting" family, or crafted files — yield
/// FailedPrecondition.
/// `knn`, when non-null, picks the index the "knn" family rebuilds on
/// LoadState (the backend is a host runtime choice, never part of the
/// artifact — see ml/knn_classifier.h); other families ignore it.
Result<std::unique_ptr<Classifier>> MakeClassifierByName(
    const std::string& name, const KnnBackendOptions* knn = nullptr);

/// \brief A classifier restored from an artifact, plus the identity it
/// was saved under.
struct LoadedClassifier {
  std::string name;                        ///< Classifier::name() family
  std::vector<std::string> feature_names;  ///< schema it was trained on
  std::unique_ptr<Classifier> classifier;
};

/// Saves `classifier` to `path` bound to the given feature schema.
/// Classifiers that do not implement SaveState (custom user subclasses)
/// yield FailedPrecondition and leave any existing file untouched.
Status SaveClassifierArtifact(const Classifier& classifier,
                              const std::vector<std::string>& feature_names,
                              const std::string& path);

/// Loads the classifier artifact at `path`. When `feature_names` is
/// non-empty its fingerprint must match the artifact's; a mismatch is
/// FailedPrecondition (the model was trained on a different schema).
/// Missing file -> NotFound; corruption -> InvalidArgument.
Result<LoadedClassifier> LoadClassifierArtifact(
    const std::string& path, const std::vector<std::string>& feature_names);

/// Saves / loads a fitted StandardScaler under the same contract.
Status SaveScalerArtifact(const StandardScaler& scaler,
                          const std::vector<std::string>& feature_names,
                          const std::string& path);
Result<StandardScaler> LoadScalerArtifact(
    const std::string& path, const std::vector<std::string>& feature_names);

/// \brief Snapshot of a TransER run after GEN (and optionally TCL):
/// everything needed to warm-start target training or serve predictions
/// without touching the source data again (Algorithm 1 state).
struct TransERPipelineState {
  std::vector<std::string> feature_names;  ///< target schema
  uint64_t seed = 0;                       ///< RunOptions seed of the run
  uint64_t source_rows = 0;                ///< pair count of the source
  uint64_t target_rows = 0;                ///< pair count of the target
  /// SEL output: indices of the transferred source instances.
  std::vector<uint64_t> selected_indices;
  /// GEN output, one entry per target row.
  std::vector<int> pseudo_labels;
  std::vector<double> pseudo_confidences;
  /// Optional domain profile: the per-feature mean of the target rows
  /// the snapshot was adapted to. The serving repository uses it as the
  /// SEL-style structural-similarity probe when an incoming domain's
  /// schema fingerprint matches no artifact exactly. Empty when absent
  /// (artifacts written before the profile section existed load fine
  /// and are simply ineligible for the probe); when non-empty it must
  /// have one entry per feature.
  std::vector<double> target_centroid;
  std::string classifier_name;  ///< family of both classifiers
  /// C^U, trained on the transferred source instances (always present in
  /// a valid snapshot).
  std::unique_ptr<Classifier> classifier_u;
  /// C^V, trained on pseudo-labelled target instances; null when the
  /// snapshot was taken before TCL finished.
  std::unique_ptr<Classifier> classifier_v;
};

/// Writes the snapshot atomically. Requires classifier_u to be set and
/// the per-target vectors to agree with target_rows.
Status SaveTransERPipelineState(const TransERPipelineState& state,
                                const std::string& path);

/// Reads and fully validates a snapshot: CRC-checked container, schema
/// fingerprint cross-checked against the stored names, label values in
/// {0, 1}, confidences in [0, 1], vector lengths consistent, and both
/// classifiers (when present) of the declared family. `knn`, when
/// non-null, picks the index a "knn"-family classifier rebuilds (see
/// MakeClassifierByName).
Result<TransERPipelineState> LoadTransERPipelineState(
    const std::string& path, const KnnBackendOptions* knn = nullptr);

}  // namespace transer

#endif  // TRANSER_ML_MODEL_STORE_H_
