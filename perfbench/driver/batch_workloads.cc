// The two batch workloads: resolve_records (record-level resolve through
// RunTransferPipeline) and transfer_features (TransER::Run on a prebuilt
// feature space, as the paper's Table 3 times it).
#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "blocking/minhash_lsh.h"
#include "core/pipeline.h"
#include "core/transer.h"
#include "data/bibliographic_generator.h"
#include "data/scenario.h"
#include "eval/metrics.h"
#include "features/comparator.h"
#include "knn/knn_backend.h"
#include "ml/random_forest.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

using transer::ClassifierFactory;
using transer::DegradationKind;
using transer::ExecutionContext;
using transer::FeatureMatrix;
using transer::TransER;
using transer::TransERReport;
using transer::TransferRunOptions;

constexpr size_t kResolveEntities = 12000;
constexpr double kFeatureScale = 0.4;
constexpr int kSetupRepeats = 3;
/// Size of the warm-up runs inside set-up.
constexpr size_t kWarmupEntities = 2000;
constexpr size_t kWarmupRows = 8000;

ClassifierFactory RandomForest16() {
  return [] {
    transer::RandomForestOptions options;
    options.num_trees = 16;
    options.num_threads = kThreads;
    return std::make_unique<transer::RandomForest>(options);
  };
}

TransferRunOptions RunOptions(uint64_t seed) {
  TransferRunOptions options;
  options.seed = seed;
  options.num_threads = kThreads;
  return options;
}

/// TransER as the pipeline's transfer method, keeping the labels and the
/// phase report of the last run so the benchmark can check them. `on_return`
/// (optional) fires the moment the method returns to the pipeline.
class CapturingTransER : public transer::TransferMethod {
 public:
  std::string name() const override { return "transer"; }

  transer::Result<std::vector<int>> Run(
      const FeatureMatrix& source, const FeatureMatrix& target,
      const ClassifierFactory& make_classifier,
      const TransferRunOptions& run_options) const override {
    auto labels = method_.RunWithReport(source, target, make_classifier,
                                        run_options, &report);
    if (labels.ok()) this->labels = labels.value();
    if (on_return) on_return();
    return labels;
  }

  mutable std::vector<int> labels;
  mutable TransERReport report;
  std::function<void()> on_return;

 private:
  TransER method_;
};

/// \brief Turns the ExecutionContext progress heartbeat into spans. The
/// build_source / build_target / transfer / eval stages nest under
/// `root`; TransER's sel / gen / tcl nest under transfer.
class StageTracer {
 public:
  StageTracer(SpanLog* log, int root) : log_(log), root_(root) {}

  transer::ProgressCallback Callback() {
    return [this](const transer::ProgressEvent& event) {
      if (event.stage != current_) Enter(event.stage);
    };
  }

  void Enter(const std::string& stage) {
    current_ = stage;
    const bool inner = stage == "sel" || stage == "gen" || stage == "tcl";
    if (inner_ >= 0) log_->End(inner_);
    inner_ = -1;
    if (stage == "gen" && context != nullptr) {
      sel_peak_reserved_bytes = context->peak_reserved_bytes();
    }
    if (inner) {
      inner_ = log_->Begin(stage, outer_ >= 0 ? outer_ : root_);
      ids[stage] = inner_;
      return;
    }
    if (outer_ >= 0) log_->End(outer_);
    outer_ = log_->Begin(stage, root_);
    ids[stage] = outer_;
  }

  void Finish() {
    if (inner_ >= 0) log_->End(inner_);
    if (outer_ >= 0) log_->End(outer_);
    inner_ = outer_ = -1;
  }

  double Seconds(const std::string& stage) const {
    auto it = ids.find(stage);
    return it == ids.end() ? 0.0 : log_->Seconds(it->second);
  }
  double CpuSeconds(const std::string& stage) const {
    auto it = ids.find(stage);
    return it == ids.end() ? 0.0 : log_->span(it->second).cpu_s;
  }

  std::map<std::string, int> ids;
  const ExecutionContext* context = nullptr;
  size_t sel_peak_reserved_bytes = 0;

 private:
  SpanLog* log_;
  int root_;
  int outer_ = -1;
  int inner_ = -1;
  std::string current_;
};

/// Checks the labels TransER returned for `expected` target instances.
void CheckLabels(const std::vector<int>& labels, size_t expected,
                 Report* report) {
  report->Check(labels.size() == expected,
                "resolve returned " + std::to_string(labels.size()) +
                    " labels for " + std::to_string(expected) +
                    " target pairs");
  report->Check(std::all_of(labels.begin(), labels.end(),
                            [](int l) { return l == 0 || l == 1; }),
                "resolve returned a label outside {0,1}");
}

/// Per-layer SEL / GEN / TCL metrics from one traced run.
void ReportTransferLayers(const StageTracer& tracer,
                          const TransERReport& phase, Report* report) {
  report->Set("sel.s", tracer.Seconds("sel"), "s");
  report->Set("sel.cpu_s", tracer.CpuSeconds("sel"), "s");
  report->Set("sel.selected_frac",
              phase.source_instances == 0
                  ? 0.0
                  : static_cast<double>(phase.selected_instances) /
                        static_cast<double>(phase.source_instances),
              "ratio");
  report->Set("sel.relax_events",
              static_cast<double>(phase.diagnostics.CountKind(
                  DegradationKind::kSelThresholdRelaxed)),
              "count");
  report->Set("sel.peak_reserved_mb",
              static_cast<double>(tracer.sel_peak_reserved_bytes) /
                  (1024.0 * 1024.0),
              "MB");
  report->Set("gen.s", tracer.Seconds("gen"), "s");
  report->Set("gen.pseudo_labelled",
              static_cast<double>(phase.candidate_instances), "count");
  report->Set("tcl.s", tracer.Seconds("tcl"), "s");
  report->Set("tcl.balanced", static_cast<double>(phase.balanced_instances),
              "count");
}

/// The kNN layer alone: the two indexes SEL builds (source and target
/// rows) and its two batched neighbourhood scans, with SEL's k.
void ReportKnnLayer(const FeatureMatrix& source, const FeatureMatrix& target,
                    SpanLog* spans, int parent, Report* report) {
  const transer::Matrix x_source = source.ToMatrix();
  const transer::Matrix x_target = target.ToMatrix();
  const TransferRunOptions run_options = RunOptions(0);
  const transer::KnnBackendOptions knn =
      transer::ResolveKnnBackendOptions(run_options, kThreads);
  const size_t k = transer::TransEROptions{}.k;
  const ExecutionContext& context = ExecutionContext::Unlimited();
  std::unique_ptr<transer::KnnBackend> source_index, target_index;
  const double build_s = spans->Time("knn.build", parent, [&] {
    source_index = transer::CreateKnnBackend(x_source, knn, context).value();
    target_index = transer::CreateKnnBackend(x_target, knn, context).value();
  });
  transer::ParallelOptions par;
  par.num_threads = kThreads;
  par.min_items_per_chunk = 8;
  const double query_s = spans->Time("knn.query", parent, [&] {
    (void)source_index->QueryBatch(x_source, k, context, "knn", par, true);
    (void)target_index->QueryBatch(x_source, k, context, "knn", par);
  });
  report->Set("knn.build_s", build_s, "s");
  report->Set("knn.query_ns",
              query_s * 1e9 / static_cast<double>(2 * x_source.rows()), "ns");
}

// --------------------------------------------------------------------
// resolve_records
// --------------------------------------------------------------------

struct RecordProblems {
  transer::LinkageProblem source;
  transer::LinkageProblem target;
};

/// Clean DBLP-ACM-like source and noisy DBLP-Scholar-like target, as in
/// examples/bibliographic_linkage, at kResolveEntities entities each.
RecordProblems GenerateRecordProblems(uint64_t seed) {
  transer::BibliographicOptions source;
  source.left_name = "dblp";
  source.right_name = "acm";
  source.num_entities = kResolveEntities;
  source.seed = seed * 2 + 1;
  source.right_corruption.typo_probability = 0.15;

  transer::BibliographicOptions target;
  target.left_name = "dblp";
  target.right_name = "scholar";
  target.num_entities = kResolveEntities;
  target.seed = seed * 2 + 2;
  target.right_corruption.typo_probability = 0.45;
  target.right_corruption.abbreviate_probability = 0.25;
  target.right_corruption.drop_word_probability = 0.15;
  target.right_corruption.missing_probability = 0.05;
  return {transer::GenerateBibliographic(source),
          transer::GenerateBibliographic(target)};
}

size_t RecordCount(const RecordProblems& problems) {
  return problems.source.left.size() + problems.source.right.size() +
         problems.target.left.size() + problems.target.right.size();
}

transer::PipelineOptions PipelineOpts() {
  transer::PipelineOptions options;
  options.num_threads = kThreads;
  return options;
}

/// Blocking and comparison totals over the domains of one resolve.
struct BuildLayers {
  double block_s = 0, block_cpu_s = 0, compare_s = 0, compare_cpu_s = 0;
  size_t pairs = 0, cross_product = 0, true_total = 0;
};

/// Blocking and comparison of one domain, called layer by layer; returns
/// the domain's validated feature matrix.
FeatureMatrix TraceBuildLayers(const transer::LinkageProblem& problem,
                               const std::string& domain, SpanLog* spans,
                               int parent, BuildLayers* totals) {
  const transer::PipelineOptions options = PipelineOpts();
  const transer::MinHashLshBlocker blocker(options.blocking);
  const int block_id = spans->Begin("blocking." + domain, parent);
  const std::vector<transer::PairRef> pairs =
      blocker.Block(problem.left, problem.right, ExecutionContext::Unlimited())
          .value();
  spans->End(block_id);
  const auto comparator = transer::PairComparator::Create(
                              problem.left.schema(), problem.right.schema(),
                              options.comparison)
                              .value();
  transer::ParallelOptions par;
  par.num_threads = kThreads;
  const int compare_id = spans->Begin("compare." + domain, parent);
  const FeatureMatrix features =
      comparator
          .CompareAll(problem.left, problem.right, pairs,
                      ExecutionContext::Unlimited(), par)
          .value();
  spans->End(compare_id);
  totals->block_s += spans->Seconds(block_id);
  totals->block_cpu_s += spans->span(block_id).cpu_s;
  totals->compare_s += spans->Seconds(compare_id);
  totals->compare_cpu_s += spans->span(compare_id).cpu_s;
  totals->pairs += pairs.size();
  totals->cross_product += problem.left.size() * problem.right.size();
  totals->true_total += problem.CountTrueMatches();
  return features.Validate(options.validation).value();
}

}  // namespace

Report RunResolveRecords(const RunArgs& args, SpanLog* spans) {
  Report report;
  // Set-up: generate both problems, then a warm-up resolve at a smaller
  // size that starts the worker pool and faults the code in.
  RecordProblems problems;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    problems = GenerateRecordProblems(args.seed);
    transer::BibliographicOptions warm;
    warm.num_entities = kWarmupEntities;
    warm.seed = args.seed;
    const auto small = transer::GenerateBibliographic(warm);
    CapturingTransER method;
    (void)transer::RunTransferPipeline(small, small, method, RandomForest16(),
                                       PipelineOpts(), RunOptions(args.seed));
  });
  const size_t records = RecordCount(problems);

  CapturingTransER method;
  std::vector<double> resolve_s;
  std::optional<transer::EndToEndResult> first;
  std::vector<int> first_labels;
  auto resolve_once = [&](const TransferRunOptions& run_options) {
    const double start = NowSeconds();
    auto result = transer::RunTransferPipeline(
        problems.source, problems.target, method, RandomForest16(),
        PipelineOpts(), run_options);
    const double elapsed = NowSeconds() - start;
    ++report.attempted;
    if (!result.ok()) {
      ++report.failed;
      report.Fail("resolve failed: " + result.status().ToString());
      return elapsed;
    }
    CheckLabels(method.labels, result.value().target_instances, &report);
    report.Check(result.value().target_instances ==
                     result.value().target_info.candidate_pairs,
                 "target instances differ from target candidate pairs");
    if (!first.has_value()) {
      first = result.value();
      first_labels = method.labels;
    } else {
      report.Check(method.labels == first_labels &&
                       result.value().quality.f_star == first->quality.f_star,
                   "repeated resolve gave different labels");
    }
    return elapsed;
  };

  if (!args.trace) {
    const double start = NowSeconds();
    do {
      resolve_s.push_back(resolve_once(RunOptions(args.seed)));
    } while (NowSeconds() - start < args.seconds);
  } else {
    // Untraced reference resolve, then the same resolve with the
    // heartbeat spans; the difference is the tracing overhead.
    resolve_s.push_back(resolve_once(RunOptions(args.seed)));
    const int root = spans->Begin("resolve");
    StageTracer tracer(spans, root);
    ExecutionContext context(transer::ExecutionLimits{}, nullptr,
                             tracer.Callback());
    tracer.context = &context;
    method.on_return = [&] { tracer.Enter("eval"); };
    TransferRunOptions traced = RunOptions(args.seed);
    traced.context = &context;
    resolve_once(traced);
    tracer.Finish();
    spans->End(root);
    method.on_return = nullptr;
    const double traced_s = spans->Seconds(root);
    report.Set("trace.resolve_s", traced_s, "s");
    report.Set("trace.overhead_s", traced_s - resolve_s.front(), "s");
    report.Set("eval.s", tracer.Seconds("eval"), "s");
    ReportTransferLayers(tracer, method.report, &report);

    report.Set("data.generate_s",
               spans->Time("data.generate", -1,
                           [&] { problems = GenerateRecordProblems(args.seed); }),
               "s");

    // Blocking and comparison, layer by layer, on both domains.
    const int layers = spans->Begin("build_layers");
    BuildLayers build;
    const FeatureMatrix source_x =
        TraceBuildLayers(problems.source, "source", spans, layers, &build);
    const FeatureMatrix target_x =
        TraceBuildLayers(problems.target, "target", spans, layers, &build);
    spans->End(layers);
    const double pairs = static_cast<double>(build.pairs);
    report.Set("blocking.s", build.block_s, "s");
    report.Set("blocking.cpu_s", build.block_cpu_s, "s");
    report.Set("blocking.pairs_out", pairs, "count");
    report.Set("blocking.pairs_per_match",
               pairs / static_cast<double>(build.true_total), "ratio");
    report.Set("blocking.reduction_ratio",
               1.0 - pairs / static_cast<double>(build.cross_product),
               "ratio");
    report.Set("compare.s", build.compare_s, "s");
    report.Set("compare.cpu_s", build.compare_cpu_s, "s");
    report.Set("compare.ns_per_pair", build.compare_s * 1e9 / pairs, "ns");
    ReportKnnLayer(source_x, target_x.WithoutLabels(), spans, -1, &report);
  }

  if (!first.has_value()) return report;
  const transer::EndToEndResult& result = *first;
  report.Count("records", records);
  report.Count("source_pairs", result.source_info.candidate_pairs);
  report.Count("target_pairs", result.target_info.candidate_pairs);
  report.Count("target_true_in_candidates",
               result.target_info.true_matches_in_candidates);
  report.Count("target_true_total", result.target_info.true_matches_total);
  report.Count("selected_instances", method.report.selected_instances);
  report.Count("pseudo_labelled", method.report.candidate_instances);
  report.CountText("f_star", FormatDouble(result.quality.f_star));
  report.CountText("pairs_completeness",
                   FormatDouble(result.target_info.BlockingRecall()));
  if (!args.trace) {
    const double median = Median(resolve_s);
    report.Set("setup_s", setup_s, "s");
    report.Set("latency_p50_ms", median * 1e3, "ms");
    report.Set("latency_p99_ms", Quantile(resolve_s, 0.99) * 1e3, "ms");
    report.Set("throughput_per_s", static_cast<double>(records) / median,
               "1/s");
    report.Set("f_star", result.quality.f_star, "ratio");
    report.Set("pairs_completeness", result.target_info.BlockingRecall(),
               "ratio");
  }
  return report;
}

// --------------------------------------------------------------------
// transfer_features
// --------------------------------------------------------------------

Report RunTransferFeatures(const RunArgs& args, SpanLog* spans) {
  Report report;
  transer::ScenarioScale scale;
  scale.scale = kFeatureScale;
  scale.max_instances = 1u << 20;
  scale.seed = args.seed;
  // Set-up: build the scenario, then a warm-up run on a slice of it.
  transer::TransferScenario scenario;
  FeatureMatrix target;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    scenario = transer::BuildScenario(transer::ScenarioId::kIosBpDpToKilBpDp,
                                      scale);
    target = scenario.target.WithoutLabels();
    std::vector<size_t> rows(
        std::min<size_t>(kWarmupRows, scenario.source.size()));
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    (void)TransER().Run(scenario.source.Select(rows), target.Select(rows),
                        RandomForest16(), RunOptions(args.seed));
  });

  const TransER method;
  std::vector<double> resolve_s;
  std::vector<int> first_labels;
  TransERReport phase;
  double f_star = 0.0;
  auto resolve_once = [&](const TransferRunOptions& run_options,
                          StageTracer* tracer) {
    const double start = NowSeconds();
    auto labels = method.RunWithReport(scenario.source, target,
                                       RandomForest16(), run_options, &phase);
    const double elapsed = NowSeconds() - start;
    ++report.attempted;
    if (!labels.ok()) {
      ++report.failed;
      report.Fail("resolve failed: " + labels.status().ToString());
      return elapsed;
    }
    if (tracer != nullptr) tracer->Enter("eval");
    const double quality =
        transer::EvaluateLinkage(scenario.target.labels(), labels.value())
            .f_star;
    CheckLabels(labels.value(), target.size(), &report);
    if (first_labels.empty()) {
      first_labels = labels.value();
      f_star = quality;
    } else {
      report.Check(labels.value() == first_labels,
                   "repeated resolve gave different labels");
    }
    return elapsed;
  };

  if (!args.trace) {
    const double start = NowSeconds();
    do {
      resolve_s.push_back(resolve_once(RunOptions(args.seed), nullptr));
    } while (NowSeconds() - start < args.seconds);
  } else {
    resolve_s.push_back(resolve_once(RunOptions(args.seed), nullptr));
    const int root = spans->Begin("resolve");
    StageTracer tracer(spans, root);
    ExecutionContext context(transer::ExecutionLimits{}, nullptr,
                             tracer.Callback());
    tracer.context = &context;
    TransferRunOptions traced = RunOptions(args.seed);
    traced.context = &context;
    const double traced_s = resolve_once(traced, &tracer);
    tracer.Finish();
    spans->End(root);
    report.Set("trace.resolve_s", traced_s, "s");
    report.Set("trace.overhead_s", traced_s - resolve_s.front(), "s");
    report.Set("eval.s", tracer.Seconds("eval"), "s");
    ReportTransferLayers(tracer, phase, &report);
    report.Set("data.generate_s",
               spans->Time("data.generate", -1,
                           [&] {
                             scenario = transer::BuildScenario(
                                 transer::ScenarioId::kIosBpDpToKilBpDp,
                                 scale);
                           }),
               "s");
    ReportKnnLayer(scenario.source, target, spans, -1, &report);
  }

  if (first_labels.empty()) return report;
  report.Count("source_instances", scenario.source.size());
  report.Count("target_instances", target.size());
  report.Count("selected_instances", phase.selected_instances);
  report.Count("pseudo_labelled", phase.candidate_instances);
  report.Count("balanced_instances", phase.balanced_instances);
  report.CountText("f_star", FormatDouble(f_star));
  if (!args.trace) {
    const double median = Median(resolve_s);
    report.Set("setup_s", setup_s, "s");
    report.Set("latency_p50_ms", median * 1e3, "ms");
    report.Set("latency_p99_ms", Quantile(resolve_s, 0.99) * 1e3, "ms");
    report.Set("throughput_per_s", static_cast<double>(target.size()) / median,
               "1/s");
    report.Set("f_star", f_star, "ratio");
    // The scenario hands TransER every pair; nothing is blocked away.
    report.Set("pairs_completeness", 1.0, "ratio");
  }
  return report;
}

}  // namespace perfbench
