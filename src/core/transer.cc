#include "core/transer.h"

#include <algorithm>
#include <cmath>

#include "knn/neighbourhood.h"
#include "linalg/covariance.h"
#include "linalg/vector_ops.h"
#include "ml/model_store.h"
#include "ml/sampling.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/string_util.h"

namespace transer {

namespace {

/// A snapshot may only replace training when it was taken by an
/// equivalent run: same seed, same domain sizes, same feature schema.
/// Anything else would silently change the experiment's results.
Status SnapshotCompatibleWithRun(const TransERPipelineState& state,
                                 const FeatureMatrix& source,
                                 const FeatureMatrix& target, uint64_t seed) {
  if (state.seed != seed) {
    return Status::FailedPrecondition(
        StrFormat("snapshot was taken under seed %llu, run uses %llu",
                  static_cast<unsigned long long>(state.seed),
                  static_cast<unsigned long long>(seed)));
  }
  if (state.source_rows != source.size() ||
      state.target_rows != target.size()) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot domains (%llu source / %llu target rows) differ from the "
        "run's (%zu / %zu)",
        static_cast<unsigned long long>(state.source_rows),
        static_cast<unsigned long long>(state.target_rows), source.size(),
        target.size()));
  }
  if (state.feature_names != target.feature_names()) {
    return Status::FailedPrecondition(
        "snapshot feature schema differs from the run's data");
  }
  return Status::OK();
}

}  // namespace

TransER::TransER(TransEROptions options) : options_(options) {
  TRANSER_CHECK_GT(options_.k, 0u);
  TRANSER_CHECK_GT(options_.b, 0.0);
}

double TransER::StructuralSimilarityFromDistance(double distance,
                                                 size_t num_features) {
  TRANSER_CHECK_GT(num_features, 0u);
  // Normalise by the maximum possible distance sqrt(m) (features in
  // [0, 1]), then apply the e^{-5x} decay chosen in Figure 5.
  const double normalized =
      distance / std::sqrt(static_cast<double>(num_features));
  return std::exp(-5.0 * normalized);
}

std::vector<size_t> SelScores::Select(const TransEROptions& options,
                                      double t_c, double t_l) const {
  TRANSER_CHECK(!options.use_sim_v || sim_v.size() == sim_c.size());
  std::vector<size_t> kept;
  kept.reserve(sim_c.size());
  for (size_t s = 0; s < sim_c.size(); ++s) {
    if (options.use_sim_c && sim_c[s] < t_c) continue;
    if (options.use_sim_l && sim_l[s] < t_l) continue;
    if (options.use_sim_v && sim_v[s] < options.t_v) continue;
    kept.push_back(s);
  }
  return kept;
}

Result<SelScores> ScoreSelInstances(const FeatureMatrix& source,
                                    const FeatureMatrix& target, size_t k,
                                    bool with_sim_v,
                                    const KnnBackendOptions& knn,
                                    const ExecutionContext& context,
                                    RunDiagnostics* diagnostics,
                                    int num_threads) {
  TRANSER_RETURN_IF_ERROR(context.Check("transer", diagnostics));
  if (source.num_features() != target.num_features()) {
    return Status::InvalidArgument(StrFormat(
        "source and target feature spaces differ (%zu vs %zu features)",
        source.num_features(), target.num_features()));
  }
  const Matrix x_source = source.ToMatrix();
  const Matrix x_target = target.ToMatrix();
  const size_t m = source.num_features();

  // k is clamped so the self-excluded source query stays satisfiable.
  const size_t k_source =
      std::min(k, source.size() > 1 ? source.size() - 1 : size_t{1});
  const size_t k_target = std::min(k, target.size());
  if (k_target == 0) {
    return Status::InvalidArgument("target domain is empty");
  }

  // The two neighbourhood indexes are the phase's dominant allocation;
  // build them against the budget so a tiny limit surfaces as 'ME' here.
  TRANSER_ASSIGN_OR_RETURN(
      const std::unique_ptr<KnnBackend> source_index,
      CreateKnnBackend(x_source, knn, context, "transer", diagnostics));
  TRANSER_ASSIGN_OR_RETURN(
      const std::unique_ptr<KnnBackend> target_index,
      CreateKnnBackend(x_target, knn, context, "transer", diagnostics));

  // Both neighbourhoods of every source instance come from the batched
  // query path up front: N_x^S with the self row excluded, N_x^T over
  // the whole target.
  ParallelOptions par;
  par.num_threads = num_threads;
  par.min_items_per_chunk = 8;
  par.diagnostics = diagnostics;
  TRANSER_ASSIGN_OR_RETURN(
      const std::vector<std::vector<Neighbour>> source_neighbourhoods,
      source_index->QueryBatch(x_source, k_source, context, "transer", par,
                               /*skip_self=*/true));
  TRANSER_ASSIGN_OR_RETURN(
      const std::vector<std::vector<Neighbour>> target_neighbourhoods,
      target_index->QueryBatch(x_source, k_target, context, "transer", par));

  // Each instance writes only its own slots, so the scores are the
  // serial scan's at any thread count.
  SelScores scores;
  scores.sim_c.resize(source.size());
  scores.sim_l.resize(source.size());
  if (with_sim_v) scores.sim_v.resize(source.size());
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "transer", source.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        // Centroid scratch lives across the chunk's instances.
        std::vector<double> centroid_s, centroid_t;
        for (size_t s = begin; s < end; ++s) {
          if (!InParallelRegion()) {
            // Heartbeat only from the single driving thread.
            context.ReportProgress(static_cast<double>(s) /
                                   static_cast<double>(source.size()));
          }
          const std::vector<Neighbour>& n_s = source_neighbourhoods[s];
          const std::vector<Neighbour>& n_t = target_neighbourhoods[s];

          // Equation (1): fraction of source neighbours sharing the label.
          size_t same_label = 0;
          for (const auto& nb : n_s) {
            if (source.label(nb.index) == source.label(s)) ++same_label;
          }
          scores.sim_c[s] = n_s.empty() ? 0.0
                                        : static_cast<double>(same_label) /
                                              static_cast<double>(n_s.size());

          // Equation (2): decayed distance between neighbourhood centroids.
          NeighbourhoodCentroidInto(x_source, n_s, &centroid_s);
          NeighbourhoodCentroidInto(x_target, n_t, &centroid_t);
          scores.sim_l[s] = TransER::StructuralSimilarityFromDistance(
              L2Distance(centroid_s, centroid_t), m);

          if (with_sim_v) {
            const Matrix cov_s = NeighbourhoodCovariance(x_source, n_s);
            const Matrix cov_t = NeighbourhoodCovariance(x_target, n_t);
            scores.sim_v[s] =
                std::exp(-5.0 * cov_s.Subtract(cov_t).FrobeniusNorm() /
                         static_cast<double>(m));
          }
        }
        return Status::OK();
      },
      par));
  return scores;
}

Result<std::vector<size_t>> TransER::SelectInstances(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const TransferRunOptions& run_options) const {
  std::optional<ExecutionContext> local_context;
  const ExecutionContext& context =
      ResolveExecutionContext(run_options, &local_context);
  TRANSER_ASSIGN_OR_RETURN(
      const SelScores scores,
      ScoreSelInstances(
          source, target, options_.k, options_.use_sim_v,
          ResolveKnnBackendOptions(run_options, run_options.num_threads),
          context, run_options.diagnostics, run_options.num_threads));
  return scores.Select(options_, options_.t_c, options_.t_l);
}

Result<std::vector<int>> TransER::RunWithReport(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options, TransERReport* report) const {
  std::optional<ExecutionContext> local_context;
  const ExecutionContext& context =
      ResolveExecutionContext(run_options, &local_context);
  // Budget outcomes go straight to the caller's sink: failure returns
  // bypass publish(), and the context's dedup latches prevent repeats.
  RunDiagnostics* budget_diag = run_options.diagnostics;
  TRANSER_RETURN_IF_ERROR(context.Check("transer", budget_diag));
  ScopedReservation working_set;
  TRANSER_RETURN_IF_ERROR(working_set.Acquire(
      context, "transer",
      transfer_internal::DomainWorkingSetBytes(source, target), budget_diag));

  TRANSER_RETURN_IF_ERROR(ValidateDomainPair(source, target));
  // Non-finite inputs would propagate silently through every distance
  // and classifier; reject them here. Callers with dirty data repair it
  // first via FeatureMatrix::Validate (as the pipeline does).
  ValidationOptions strict;
  if (auto checked = source.Validate(strict); !checked.ok()) {
    return Status::InvalidArgument("source " + checked.status().message());
  }
  strict.check_label_domain = false;  // target is legitimately unlabeled
  if (auto checked = target.Validate(strict); !checked.ok()) {
    return Status::InvalidArgument("target " + checked.status().message());
  }

  TransERReport local_report;
  local_report.source_instances = source.size();
  RunDiagnostics& diag = local_report.diagnostics;
  // Publishes the report (and merges events into the caller's sink) on
  // every return path.
  auto publish = [&]() {
    if (run_options.diagnostics != nullptr) {
      run_options.diagnostics->Merge(diag);
    }
    if (report != nullptr) *report = local_report;
  };

  // A selection must keep at least one neighbourhood's worth of
  // instances of both classes to be trainable.
  const size_t min_selected = std::max(options_.k, size_t{4});
  auto trainable = [&](const FeatureMatrix& m) {
    return m.size() >= min_selected && m.CountMatches() > 0 &&
           m.CountNonMatches() > 0;
  };

  const Matrix x_target = target.ToMatrix();
  const std::string& snapshot_path = run_options.model_snapshot_path;

  // `snap` accumulates the run's durable state: the snapshot of record
  // after GEN (selection, pseudo labels, C^U) and after TCL (plus C^V).
  TransERPipelineState snap;
  snap.feature_names = target.feature_names();
  snap.seed = run_options.seed;
  snap.source_rows = source.size();
  snap.target_rows = target.size();
  // Domain profile: the per-feature target mean, stored in the snapshot
  // so the serving repository can run its SEL-style similarity probe
  // against incoming domains without the training data.
  const std::vector<double> target_centroid = ColumnMeans(x_target);
  snap.target_centroid = target_centroid;
  // Persists the current state atomically; a failed write degrades (the
  // run's answer is unaffected) rather than failing the run.
  auto save_snapshot = [&](const char* phase) {
    if (snapshot_path.empty()) return;
    snap.classifier_name =
        snap.classifier_u != nullptr ? snap.classifier_u->name() : "";
    const Status saved = SaveTransERPipelineState(snap, snapshot_path);
    if (!saved.ok()) {
      diag.Add(DegradationKind::kModelSaveFailed, phase,
               StrFormat("snapshot save to %s failed: %s",
                         snapshot_path.c_str(), saved.message().c_str()),
               0.0, 0.0);
    }
  };

  // --- Optional warm start from a previous run's snapshot ---
  bool resume_after_gen = false;
  if (!snapshot_path.empty()) {
    auto loaded = LoadTransERPipelineState(snapshot_path);
    if (!loaded.ok()) {
      // A missing snapshot is the normal cold-start case; anything else
      // is a rejected artifact the run recovers from by retraining.
      if (loaded.status().code() != StatusCode::kNotFound) {
        diag.Add(DegradationKind::kModelArtifactRejected, "warm_start",
                 StrFormat("snapshot at %s rejected: %s",
                           snapshot_path.c_str(),
                           loaded.status().ToString().c_str()),
                 0.0, 0.0);
      }
    } else {
      const Status compatible = SnapshotCompatibleWithRun(
          loaded.value(), source, target, run_options.seed);
      if (!compatible.ok()) {
        diag.Add(DegradationKind::kModelArtifactRejected, "warm_start",
                 StrFormat("snapshot at %s is incompatible: %s",
                           snapshot_path.c_str(),
                           compatible.message().c_str()),
                 0.0, 0.0);
      } else {
        snap = std::move(loaded).value();
        // Older snapshots carry no domain profile; refresh it so any
        // snapshot this run re-saves is probe-eligible.
        snap.target_centroid = target_centroid;
        local_report.selected_instances = snap.selected_indices.size();
        local_report.warm_started = true;
        if (snap.classifier_v != nullptr && options_.use_gen_tcl) {
          // Fully trained snapshot: serve C^V's predictions directly.
          size_t pseudo_matches = 0;
          for (int label : snap.pseudo_labels) {
            if (label == kMatch) ++pseudo_matches;
          }
          local_report.pseudo_matches = pseudo_matches;
          local_report.tcl_trained = true;
          local_report.served_from_snapshot = true;
          diag.Add(DegradationKind::kModelWarmStarted, "warm_start",
                   "serving predictions from the snapshot's C^V", 0.0, 0.0);
          publish();
          return snap.classifier_v->PredictAll(x_target);
        }
        diag.Add(DegradationKind::kModelWarmStarted, "warm_start",
                 "resuming after GEN from the snapshot", 0.0, 0.0);
        resume_after_gen = true;
      }
    }
  }

  std::vector<int> pseudo_labels;
  std::vector<double> confidence;
  if (resume_after_gen) {
    pseudo_labels = snap.pseudo_labels;
    confidence = snap.pseudo_confidences;
  } else {
    // --- Phase (i): instance selector (SEL), with relaxation ladder ---
    context.BeginStage("sel");
    FeatureMatrix transferred;  // X^U with labels Y^U
    std::vector<size_t> kept_indices;
    // Identity selection for the no-SEL and fallback exits.
    auto all_source_rows = [&]() {
      std::vector<size_t> all(source.size());
      for (size_t s = 0; s < all.size(); ++s) all[s] = s;
      return all;
    };
    if (options_.use_sel) {
      // Score once; each rung of the ladder only re-thresholds. The
      // scores go out of scope before GEN starts.
      TRANSER_ASSIGN_OR_RETURN(
          const SelScores scores,
          ScoreSelInstances(
              source, target, options_.k, options_.use_sim_v,
              ResolveKnnBackendOptions(run_options, run_options.num_threads),
              context, budget_diag, run_options.num_threads));
      double t_c = options_.t_c;
      double t_l = options_.t_l;
      for (size_t step = 0;; ++step) {
        std::vector<size_t> selected = scores.Select(options_, t_c, t_l);
        transferred = source.Select(selected);
        if (trainable(transferred)) {
          kept_indices = std::move(selected);
          break;
        }
        if (step >= options_.max_sel_relax_steps) {
          // Degenerate selections cannot train a two-class model; fall
          // back to the full source (naive transfer for this run).
          diag.Add(DegradationKind::kSelFallbackNaive, "sel",
                   StrFormat("SEL kept %zu usable instances after %zu "
                             "relaxations; using the full source",
                             transferred.size(), step),
                   static_cast<double>(transferred.size()),
                   static_cast<double>(source.size()));
          transferred = source;
          kept_indices = all_source_rows();
          break;
        }
        const double next_t_c = t_c * options_.sel_relax_factor;
        const double next_t_l = t_l * options_.sel_relax_factor;
        diag.Add(DegradationKind::kSelThresholdRelaxed, "sel",
                 StrFormat("SEL kept %zu usable instances (< %zu); relaxing "
                           "t_c/t_l",
                           transferred.size(), min_selected),
                 t_c, next_t_c);
        t_c = next_t_c;
        t_l = next_t_l;
      }
    } else {
      transferred = source;
      kept_indices = all_source_rows();
    }
    local_report.selected_instances = transferred.size();
    snap.selected_indices.assign(kept_indices.begin(), kept_indices.end());

    // --- Phase (ii): pseudo-label generator (GEN) ---
    context.BeginStage("gen");
    snap.classifier_u = make_classifier();
    snap.classifier_u->set_execution_context(&context);
    FitClassifierWithRunOptions(snap.classifier_u.get(), transferred,
                                transfer_internal::RequireLabels(transferred),
                                /*weights=*/{}, run_options);
    // An interrupted Fit stops early with a partial model; surface the
    // TE / cancellation status rather than predict from it.
    TRANSER_RETURN_IF_ERROR(context.Check("transer", budget_diag));

    const std::vector<double> proba =
        snap.classifier_u->PredictProbaAll(x_target);
    pseudo_labels.resize(proba.size());
    confidence.resize(proba.size());
    for (size_t i = 0; i < proba.size(); ++i) {
      pseudo_labels[i] = proba[i] >= 0.5 ? kMatch : kNonMatch;
      confidence[i] = proba[i] >= 0.5 ? proba[i] : 1.0 - proba[i];
    }
    snap.pseudo_labels = pseudo_labels;
    snap.pseudo_confidences = confidence;
    // The GEN state is the expensive part of the run; snapshot it so a
    // later run (or a crash recovery) can resume at TCL.
    save_snapshot("gen");
  }

  if (!options_.use_gen_tcl) {
    // Ablation "without GEN & TCL": classify the target directly with the
    // classifier trained on the transferred instances.
    publish();
    return pseudo_labels;
  }

  // --- Phase (iii): target domain classifier (TCL), with t_p ladder ---
  context.BeginStage("tcl");
  TRANSER_RETURN_IF_ERROR(context.Check("transer", budget_diag));
  double t_p = options_.t_p;
  FeatureMatrix x_vb;
  for (size_t step = 0;; ++step) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < confidence.size(); ++i) {
      if (confidence[i] >= t_p) candidates.push_back(i);
    }
    local_report.candidate_instances = candidates.size();

    FeatureMatrix x_v = target.Select(candidates).WithLabels([&] {
      std::vector<int> labels;
      labels.reserve(candidates.size());
      for (size_t index : candidates) labels.push_back(pseudo_labels[index]);
      return labels;
    }());
    local_report.pseudo_matches = x_v.CountMatches();

    // Balance classes to 1 : b by under-sampling non-matches.
    Rng rng(run_options.seed + 71);
    const std::vector<size_t> balanced_rows =
        UndersampleNonMatches(x_v.labels(), options_.b, &rng);
    x_vb = x_v.Select(balanced_rows);
    local_report.balanced_instances = x_vb.size();
    if (trainable(x_vb)) break;

    constexpr double kMinTp = 0.5;  // below 0.5 the filter means nothing
    if (step >= options_.max_gen_relax_steps || t_p <= kMinTp) {
      // Degenerate candidate sets cannot train C^V; the pseudo labels
      // are the best available answer.
      diag.Add(DegradationKind::kTclSkipped, "tcl",
               StrFormat("confident pseudo-label set degenerate (%zu "
                         "instances) at t_p=%.2f; returning pseudo labels",
                         x_vb.size(), t_p),
               static_cast<double>(x_vb.size()), 0.0);
      publish();
      return pseudo_labels;
    }
    const double next_t_p = std::max(kMinTp, t_p - options_.gen_relax_step);
    diag.Add(DegradationKind::kGenThresholdLowered, "gen",
             StrFormat("t_p filter left %zu usable candidates (< %zu); "
                       "lowering t_p",
                       x_vb.size(), min_selected),
             t_p, next_t_p);
    t_p = next_t_p;
  }

  snap.classifier_v = make_classifier();
  snap.classifier_v->set_execution_context(&context);
  FitClassifierWithRunOptions(snap.classifier_v.get(), x_vb, x_vb.labels(),
                              /*weights=*/{}, run_options);
  TRANSER_RETURN_IF_ERROR(context.Check("transer", budget_diag));
  local_report.tcl_trained = true;
  // Snapshot of record now carries C^V: later runs serve directly.
  save_snapshot("tcl");
  publish();
  return snap.classifier_v->PredictAll(x_target);
}

Result<std::vector<int>> TransER::Run(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options) const {
  return RunWithReport(source, target, make_classifier, run_options,
                       nullptr);
}

}  // namespace transer
