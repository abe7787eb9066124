// ingest_stream: journaled, fsynced StreamIngestor::Ingest of an
// interleaved record stream from two bibliographic databases, with
// periodic classifier refresh and snapshot.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "core/pipeline.h"
#include "data/bibliographic_generator.h"
#include "features/comparator.h"
#include "ml/model_store.h"
#include "ml/threshold_classifier.h"
#include "stream/incremental_blocking.h"
#include "stream/stream_ingestor.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using transer::Record;
using transer::stream::StreamIngestor;

constexpr int kSetupRepeats = 3;
constexpr size_t kStreamEntities = 2000;
/// Blocking key: the lower-cased first characters of the title.
constexpr size_t kBlockingPrefix = 8;
constexpr size_t kRefreshInterval = 64;
constexpr size_t kSnapshotInterval = 512;
constexpr size_t kWarmupRecords = 512;
/// Entities of the labelled problem the starting classifier is fit on.
constexpr size_t kModelEntities = 3000;

std::vector<Record> GenerateStream(uint64_t seed) {
  transer::BibliographicOptions options;
  options.num_entities = kStreamEntities;
  options.overlap = 0.8;
  options.seed = seed * 3 + 5;
  options.right_corruption.typo_probability = 0.3;
  const transer::LinkageProblem problem =
      transer::GenerateBibliographic(options);
  std::vector<Record> stream;
  for (const auto& [prefix, dataset] :
       {std::pair{"L", &problem.left}, std::pair{"R", &problem.right}}) {
    for (Record record : dataset->records()) {
      record.id = prefix + record.id;
      stream.push_back(std::move(record));
    }
  }
  // Interleave the two databases in a seeded order (Fisher-Yates).
  transer::Rng rng(seed * 31 + 7);
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.NextUint64Below(i)]);
  }
  return stream;
}

/// Fits the stream's classifier offline and saves it as the pipeline
/// artifact the resolver warm-starts from: the accuracy-optimal average-
/// similarity threshold on the labelled candidate pairs of a separate
/// bibliographic problem, pinned (tune = false) so that the periodic
/// refresh refits without moving it. A self-tuned threshold drifts with
/// the pseudo labels it produces, and F* then swings between 0.2 and 0.8
/// from one seed to the next.
void TrainWarmStartModel(uint64_t seed, const std::string& path) {
  transer::BibliographicOptions options;
  options.num_entities = kModelEntities;
  options.seed = seed * 3 + 6;
  options.right_corruption.typo_probability = 0.3;
  const transer::LinkageProblem problem =
      transer::GenerateBibliographic(options);
  const transer::FeatureMatrix pairs =
      transer::BuildDomainFeatures(problem, transer::PipelineOptions{})
          .value();
  transer::ThresholdClassifier tuned;
  tuned.Fit(pairs.ToMatrix(), pairs.labels());
  transer::ThresholdClassifierOptions pinned;
  pinned.threshold = tuned.threshold();
  pinned.tune = false;
  transer::TransERPipelineState state;
  state.feature_names = pairs.feature_names();
  state.classifier_name = "threshold";
  state.classifier_u = std::make_unique<transer::ThresholdClassifier>(pinned);
  const transer::Status saved = transer::SaveTransERPipelineState(state, path);
  if (!saved.ok()) {
    std::fprintf(stderr, "saving %s failed: %s\n", path.c_str(),
                 saved.ToString().c_str());
    std::exit(1);
  }
}

transer::stream::StreamIngestorOptions IngestOptions(
    const std::string& dir, const std::string& model) {
  transer::stream::StreamIngestorOptions options;
  options.directory = dir;
  options.resolver.warm_start_path = model;
  options.resolver.schema = transer::BibliographicSchema();
  options.resolver.blocking.key_attribute = 0;
  options.resolver.blocking.prefix_length = kBlockingPrefix;
  options.resolver.refresh_interval = kRefreshInterval;
  options.resolver.knn.num_threads = 1;
  options.snapshot_interval = kSnapshotInterval;
  return options;
}

StreamIngestor OpenFresh(
    const std::string& dir,
    const transer::stream::StreamIngestorOptions& options) {
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  auto opened = StreamIngestor::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "opening %s failed: %s\n", dir.c_str(),
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(opened).value();
}

/// Per-record timings of one pass over the stream.
struct Pass {
  std::vector<double> ack_ms;
  std::vector<double> append_ms, apply_ms, snapshot_ms;
  double seconds = 0.0;
  uint64_t digest = 0;
};

/// Candidate pairs of the stream as the resolver's blocking emits them,
/// from a replica of the same incremental index.
std::vector<std::pair<size_t, size_t>> CandidatePairs(
    const std::vector<Record>& stream,
    const transer::stream::IncrementalBlockingOptions& options) {
  transer::stream::IncrementalBlockingIndex index(options);
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < stream.size(); ++i) {
    for (size_t candidate : index.InsertAndCollect(i, stream[i])) {
      pairs.emplace_back(candidate, i);
    }
  }
  return pairs;
}

bool SameEntity(const Record& a, const Record& b) {
  return a.entity_id >= 0 && a.entity_id == b.entity_id;
}

}  // namespace

Report RunIngestStream(const RunArgs& args, SpanLog* spans) {
  Report report;
  const std::string dir = args.work_dir + "/ingest";
  const std::string model = args.work_dir + "/ingest-model.tera";
  const auto options_for = [&] { return IngestOptions(dir, model); };
  std::vector<Record> stream;
  // Set-up: generate the stream, then a warm-up ingest of its first
  // records into a scratch directory.
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    stream = GenerateStream(args.seed);
    TrainWarmStartModel(args.seed, model);
    const std::string warm_dir = args.work_dir + "/ingest-warmup";
    StreamIngestor warm =
        OpenFresh(warm_dir, IngestOptions(warm_dir, model));
    for (size_t i = 0; i < kWarmupRecords && i < stream.size(); ++i) {
      report.Check(warm.Ingest(stream[i]).ok(), "warm-up ingest failed");
    }
  });

  // One pass: ingest the whole stream into a fresh directory, timing the
  // acknowledgement of every record (and, traced, its append / apply /
  // snapshot parts through the ingestor's hooks). The ingestor of the
  // latest pass stays open as the live state.
  std::vector<Pass> passes;
  std::optional<StreamIngestor> live;
  double t_start = 0.0, t_append = 0.0, t_apply = 0.0;
  const auto run_pass = [&](bool traced) {
    live.reset();
    Pass pass;
    transer::stream::StreamIngestorOptions options = options_for();
    if (traced) {
      options.after_append_hook = [&](uint64_t) { t_append = NowSeconds(); };
      options.after_apply_hook = [&](uint64_t) { t_apply = NowSeconds(); };
    }
    live.emplace(OpenFresh(dir, options));
    const double pass_start = NowSeconds();
    for (size_t i = 0; i < stream.size(); ++i) {
      t_start = NowSeconds();
      const transer::Status status = live->Ingest(stream[i]);
      const double t_end = NowSeconds();
      ++report.attempted;
      if (!status.ok()) {
        ++report.failed;
        continue;
      }
      pass.ack_ms.push_back((t_end - t_start) * 1e3);
      if (traced) {
        pass.append_ms.push_back((t_append - t_start) * 1e3);
        pass.apply_ms.push_back((t_apply - t_append) * 1e3);
        if ((i + 1) % kSnapshotInterval == 0) {
          pass.snapshot_ms.push_back((t_end - t_apply) * 1e3);
        }
      }
    }
    pass.seconds = NowSeconds() - pass_start;
    report.failed += live->resolver().quarantined().size();
    pass.digest = live->resolver().StateDigest();
    passes.push_back(std::move(pass));
  };

  const double start = NowSeconds();
  do {
    run_pass(false);
  } while (!args.trace && NowSeconds() - start < args.seconds);
  for (const Pass& pass : passes) {
    report.Check(pass.digest == passes.front().digest,
                 "repeated ingest of the same stream gave another digest");
  }

  // Resolution quality of the live state against the ground truth, over
  // the pairs the incremental blocking compared.
  const transer::stream::StreamResolver& resolver = live->resolver();
  const auto candidates =
      CandidatePairs(stream, options_for().resolver.blocking);
  report.Check(candidates.size() == resolver.comparison_count(),
               "blocking replica disagrees with the resolver's comparisons");
  std::set<std::pair<size_t, size_t>> matched;
  for (const auto& match : resolver.matches()) {
    matched.emplace(match.left, match.right);
  }
  uint64_t true_pos = 0, false_pos = 0, false_neg = 0, true_candidates = 0;
  for (const auto& [a, b] : candidates) {
    const bool truth = SameEntity(stream[a], stream[b]);
    const bool predicted = matched.count({a, b}) > 0;
    true_candidates += truth ? 1 : 0;
    true_pos += truth && predicted;
    false_pos += !truth && predicted;
    false_neg += truth && !predicted;
  }
  std::map<int64_t, uint64_t> per_entity;
  for (const Record& record : stream) {
    if (record.entity_id >= 0) ++per_entity[record.entity_id];
  }
  uint64_t true_total = 0;
  for (const auto& [entity, n] : per_entity) true_total += n * (n - 1) / 2;
  const double f_star =
      static_cast<double>(true_pos) /
      static_cast<double>(
          std::max<uint64_t>(1, true_pos + false_pos + false_neg));
  const double completeness =
      static_cast<double>(true_candidates) /
      static_cast<double>(std::max<uint64_t>(1, true_total));

  // Recovery: reopening the directory must rebuild the live state.
  const uint64_t live_digest = resolver.StateDigest();
  const size_t comparisons = resolver.comparison_count();
  const size_t refreshes = resolver.refresh_count();
  const size_t matches = resolver.matches().size();
  const auto journal = live->journal_stats();
  live.reset();
  {
    auto reopened = StreamIngestor::Open(options_for());
    report.Check(reopened.ok() &&
                     reopened.value().resolver().StateDigest() == live_digest,
                 "reopened ingest directory did not recover the live digest");
  }

  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(live_digest));
  report.Count("records", stream.size());
  report.Count("comparisons", comparisons);
  report.Count("matches", matches);
  report.Count("refreshes", refreshes);
  report.CountText("digest", digest_hex);
  report.CountText("f_star", FormatDouble(f_star));
  report.CountText("pairs_completeness", FormatDouble(completeness));

  if (args.trace) {
    report.Set("data.generate_s",
               spans->Time("data.generate", -1,
                           [&] { (void)GenerateStream(args.seed); }),
               "s");
    const int root = spans->Begin("ingest.pass");
    run_pass(true);
    spans->End(root);
    const Pass& untraced = passes.front();
    const Pass& traced = passes.back();
    report.Check(traced.digest == live_digest,
                 "traced ingest gave another digest");
    report.Set("trace.resolve_s", traced.seconds, "s");
    report.Set("trace.overhead_s", traced.seconds - untraced.seconds, "s");
    report.Set("ingest.append_ms", Median(traced.append_ms), "ms");
    report.Set("ingest.apply_ms", Median(traced.apply_ms), "ms");
    report.Set("ingest.apply_p99_ms", Quantile(traced.apply_ms, 0.99), "ms");
    report.Set("ingest.snapshot_ms", Median(traced.snapshot_ms), "ms");
    report.Set("ingest.comparisons_per_record",
               static_cast<double>(comparisons) /
                   static_cast<double>(stream.size()),
               "count");
    report.Set("ingest.refreshes", static_cast<double>(refreshes), "count");
    report.Set("ingest.journal_live_bytes",
               static_cast<double>(journal.live_bytes), "bytes");

    // Blocking and comparison, called from outside on the same stream.
    transer::stream::IncrementalBlockingOptions blocking =
        options_for().resolver.blocking;
    std::vector<std::pair<size_t, size_t>> pairs;
    const int block_id = spans->Begin("blocking.stream");
    pairs = CandidatePairs(stream, blocking);
    spans->End(block_id);
    const auto comparator =
        transer::PairComparator::Create(transer::BibliographicSchema(),
                                        transer::BibliographicSchema())
            .value();
    // The checksum keeps the comparisons from being optimised away.
    double checksum = 0.0;
    const int compare_id = spans->Begin("compare.stream");
    for (const auto& [a, b] : pairs) {
      checksum += comparator.Compare(stream[a], stream[b])[0];
    }
    spans->End(compare_id);
    report.Check(checksum == checksum, "comparison returned NaN");
    const double n = static_cast<double>(stream.size());
    report.Set("blocking.s", spans->Seconds(block_id), "s");
    report.Set("blocking.cpu_s", spans->span(block_id).cpu_s, "s");
    report.Set("blocking.pairs_out", static_cast<double>(pairs.size()),
               "count");
    report.Set("blocking.pairs_per_match",
               static_cast<double>(pairs.size()) /
                   static_cast<double>(std::max<uint64_t>(1, true_total)),
               "ratio");
    report.Set("blocking.reduction_ratio",
               1.0 - static_cast<double>(pairs.size()) / (n * (n - 1) / 2),
               "ratio");
    report.Set("compare.s", spans->Seconds(compare_id), "s");
    report.Set("compare.cpu_s", spans->span(compare_id).cpu_s, "s");
    report.Set("compare.ns_per_pair",
               spans->Seconds(compare_id) * 1e9 /
                   static_cast<double>(std::max<size_t>(1, pairs.size())),
               "ns");
    return report;
  }

  // Each pass's quantiles, then the median over passes: a stall of the
  // machine or the disk moves one pass, not the result.
  std::vector<double> p50_ms, p99_ms, records_per_s;
  for (const Pass& pass : passes) {
    p50_ms.push_back(Median(pass.ack_ms));
    p99_ms.push_back(Quantile(pass.ack_ms, 0.99));
    records_per_s.push_back(static_cast<double>(stream.size()) / pass.seconds);
    std::fprintf(stderr, "pass: p50 %.3f ms, p99 %.3f ms, %.0f records/s\n",
                 p50_ms.back(), p99_ms.back(), records_per_s.back());
  }
  report.Set("setup_s", setup_s, "s");
  report.Set("latency_p50_ms", Median(p50_ms), "ms");
  report.Set("latency_p99_ms", Median(p99_ms), "ms");
  report.Set("throughput_per_s", Median(records_per_s), "1/s");
  report.Set("f_star", f_star, "ratio");
  report.Set("pairs_completeness", completeness, "ratio");
  return report;
}

}  // namespace perfbench
