// serve_mixed: an open-loop schedule of batched classify / resolve
// frames into ServerCore::HandleFrame, with prediction-only scoring,
// codec, admission and the SEL-style centroid probe (no fitting).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/transer.h"
#include "data/scenario.h"
#include "ml/model_store.h"
#include "ml/random_forest.h"
#include "serve/request_codec.h"
#include "serve/server_core.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using transer::serve::RequestOp;
using transer::serve::ServeOutcome;

constexpr int kSetupRepeats = 3;
/// Scale of the three scenarios the repository's artifacts train on.
constexpr double kArtifactScale = 0.05;
/// Distinct pre-encoded request frames the schedule cycles through.
constexpr size_t kFramePool = 2048;
constexpr size_t kMinRows = 64;
constexpr size_t kMaxRows = 1024;
/// One request in kResolveEvery is a resolve, the rest classify.
constexpr size_t kResolveEvery = 4;
/// One resolve in kRenameEvery carries renamed feature names of the same
/// width, so model selection falls through to the centroid probe.
constexpr size_t kRenameEvery = 2;
/// Serving callers. One core of the four stays free for the system, so
/// a caller is rarely preempted in the middle of a request.
constexpr int kServeLanes = 3;
/// The nominal open-loop rate: about half the capacity (the ladder's
/// result) of the code this benchmark was defined on, which read 12.7k to
/// 22k req/s on a 4-core VM depending on the host's load.
constexpr double kNominalRps = 8000.0;
/// The latency limit on p99 (from each request's due time) that a ladder
/// rate must meet, with no failure and no growing backlog.
constexpr double kLatencyLimitMs = 5.0;
/// The fixed rate ladder: kLadderBaseRps * kLadderStep^j.
constexpr double kLadderBaseRps = 2000.0;
constexpr double kLadderStep = 1.025;
constexpr int kLadderRates = 112;
constexpr double kWarmupSeconds = 0.3;
/// Slices of the nominal phase whose latency quantiles are medianed.
constexpr size_t kSegments = 5;
/// A failed request's latency in the percentiles: past any limit.
constexpr double kFailedLatencyMs = 1e6;

/// One served model: the artifact's id and the offline answer for every
/// row of the target domain it was adapted to.
struct Artifact {
  std::string id;
  std::vector<std::string> feature_names;
  transer::FeatureMatrix rows;  ///< target rows with ground-truth labels
  std::vector<double> proba;    ///< offline C^V probability per row
};

struct PoolFrame {
  std::vector<uint8_t> frame;
  size_t artifact = 0;
  size_t offset = 0;
  size_t rows = 0;
  RequestOp op = RequestOp::kClassify;
  bool renamed = false;
};

struct ServeState {
  std::vector<Artifact> artifacts;
  std::unique_ptr<transer::serve::ServerCore> server;
  std::vector<PoolFrame> frames;
  size_t loaded = 0;
};

const transer::ScenarioId kScenarios[] = {
    transer::ScenarioId::kDblpAcmToDblpScholar,  // 4 features
    transer::ScenarioId::kMsdToMb,               // 5 features
    transer::ScenarioId::kIosBpDpToKilBpDp,      // 8 features
};

transer::ScenarioScale ArtifactScale(uint64_t seed) {
  transer::ScenarioScale scale;
  scale.scale = kArtifactScale;
  scale.seed = seed;
  return scale;
}

/// Trains one TransER artifact per scenario into `dir`, computes the
/// offline predictions, starts the server (repository scan + load) and
/// encodes the request pool.
void SetUp(uint64_t seed, const std::string& dir, ServeState* state,
           Report* report) {
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  *state = ServeState{};
  for (const transer::ScenarioId id : kScenarios) {
    transer::TransferScenario scenario =
        transer::BuildScenario(id, ArtifactScale(seed));
    Artifact artifact;
    artifact.id =
        transer::StrFormat("m%zu.tera", scenario.target.num_features());
    const std::string path = dir + "/" + artifact.id;
    transer::TransferRunOptions options;
    options.seed = seed;
    options.num_threads = kThreads;
    options.model_snapshot_path = path;
    const auto trained = transer::TransER().Run(
        scenario.source, scenario.target.WithoutLabels(),
        [] {
          transer::RandomForestOptions rf;
          rf.num_trees = 16;
          rf.num_threads = kThreads;
          return std::make_unique<transer::RandomForest>(rf);
        },
        options);
    report->Check(trained.ok(), "artifact training failed");
    auto loaded = transer::LoadTransERPipelineState(path);
    report->Check(loaded.ok() && loaded.value().classifier_v != nullptr,
                  "artifact " + artifact.id + " did not load with C^V");
    if (!loaded.ok() || loaded.value().classifier_v == nullptr) continue;
    const transer::Classifier& model = *loaded.value().classifier_v;
    artifact.feature_names = scenario.target.feature_names();
    artifact.rows = std::move(scenario.target);
    artifact.proba.reserve(artifact.rows.size());
    for (size_t r = 0; r < artifact.rows.size(); ++r) {
      artifact.proba.push_back(model.PredictProba(artifact.rows.Row(r)));
    }
    state->artifacts.push_back(std::move(artifact));
  }

  transer::serve::ServerOptions options;
  options.repository.directory = dir;
  options.max_concurrent_requests = kServeLanes;
  options.queue_capacity = kServeLanes;
  state->server = std::make_unique<transer::serve::ServerCore>(options);
  state->loaded = state->server->Start().loaded;

  // The pool holds the same request mix for every seed: an even spread
  // of sizes over [kMinRows, kMaxRows], an equal share per artifact, a
  // quarter resolves and half of those renamed. The seed picks the rows
  // each request carries and the order the schedule sends them in.
  transer::Rng rng(seed * 7919 + 17);
  for (size_t i = 0; i < kFramePool && !state->artifacts.empty(); ++i) {
    PoolFrame pool;
    pool.artifact = i % state->artifacts.size();
    const Artifact& artifact = state->artifacts[pool.artifact];
    pool.rows = std::min<size_t>(
        kMinRows + (kMaxRows - kMinRows) * ((i * 7) % kFramePool) /
                       (kFramePool - 1),
        artifact.rows.size());
    pool.offset = rng.NextUint64Below(artifact.rows.size() - pool.rows + 1);
    pool.op = i % kResolveEvery == 0 ? RequestOp::kResolve
                                     : RequestOp::kClassify;
    pool.renamed = i % (kResolveEvery * kRenameEvery) == 0;
    transer::serve::Request request;
    request.request_id = i + 1;
    request.op = pool.op;
    request.feature_names = artifact.feature_names;
    if (pool.renamed) {
      for (std::string& name : request.feature_names) name = "renamed_" + name;
    }
    request.rows = pool.rows;
    for (size_t r = pool.offset; r < pool.offset + pool.rows; ++r) {
      const auto row = artifact.rows.Row(r);
      request.features.insert(request.features.end(), row.begin(), row.end());
    }
    pool.frame = transer::serve::EncodeRequest(request);
    state->frames.push_back(std::move(pool));
  }
  for (size_t i = state->frames.size(); i > 1; --i) {
    std::swap(state->frames[i - 1], state->frames[rng.NextUint64Below(i)]);
  }
}

/// Everything measured over one open-loop phase.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t degraded = 0;
  uint64_t rejected = 0;
  uint64_t probed = 0;
  uint64_t true_pos = 0, false_pos = 0, false_neg = 0;
  bool stopped_on_backlog = false;
  std::vector<double> latency_ms;  ///< from due time, in schedule order
  std::vector<double> server_ms_classify, server_ms_resolve;
  std::vector<double> codec_us;         ///< HandleFrame wall - server_ms
  std::vector<double> generator_late_ms;
  std::vector<std::string> errors;

  void Merge(Phase&& other) {
    attempted += other.attempted;
    failed += other.failed;
    degraded += other.degraded;
    rejected += other.rejected;
    probed += other.probed;
    true_pos += other.true_pos;
    false_pos += other.false_pos;
    false_neg += other.false_neg;
    stopped_on_backlog = stopped_on_backlog || other.stopped_on_backlog;
    auto append = [](std::vector<double>* to, std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&server_ms_classify, other.server_ms_classify);
    append(&server_ms_resolve, other.server_ms_resolve);
    append(&codec_us, other.codec_us);
    append(&generator_late_ms, other.generator_late_ms);
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  }
};

/// Checks one response against the offline predictions. Returns the
/// server-side handling time, or a negative value (the request counted
/// failed) when it was not answered at the requested level.
double CheckResponse(const ServeState& state, const PoolFrame& pool,
                     const std::vector<uint8_t>& frame, Phase* phase) {
  auto decoded = transer::serve::DecodeResponse(
      frame, transer::serve::CodecLimits{});
  if (!decoded.ok()) {
    ++phase->failed;
    phase->errors.push_back("undecodable response: " +
                            decoded.status().ToString());
    return -1.0;
  }
  const transer::serve::Response& response = decoded.value();
  if (response.outcome != ServeOutcome::kOk) {
    ++phase->failed;
    ++(response.outcome == ServeOutcome::kDegraded ? phase->degraded
                                                   : phase->rejected);
    return -1.0;
  }
  (response.op == RequestOp::kResolve ? phase->server_ms_resolve
                                      : phase->server_ms_classify)
      .push_back(response.server_ms);
  if (response.selected_by_probe) ++phase->probed;
  const Artifact& artifact = state.artifacts[pool.artifact];
  if (response.model_id != artifact.id ||
      response.selected_by_probe != pool.renamed) {
    phase->errors.push_back("request for " + artifact.id + " served by '" +
                            response.model_id + "'");
    return response.server_ms;
  }
  bool labels_ok = response.labels.size() == pool.rows;
  bool proba_ok = pool.op != RequestOp::kResolve ||
                  response.confidences.size() == pool.rows;
  for (size_t r = 0; r < pool.rows && labels_ok && proba_ok; ++r) {
    const double proba = artifact.proba[pool.offset + r];
    labels_ok = response.labels[r] == (proba >= 0.5 ? 1 : 0);
    if (pool.op == RequestOp::kResolve) {
      proba_ok = std::memcmp(&response.confidences[r], &proba,
                             sizeof(double)) == 0;
    }
    const int truth = artifact.rows.label(pool.offset + r);
    if (response.labels[r] == 1 && truth == 1) ++phase->true_pos;
    if (response.labels[r] == 1 && truth == 0) ++phase->false_pos;
    if (response.labels[r] == 0 && truth == 1) ++phase->false_neg;
  }
  if (!labels_ok || !proba_ok) {
    phase->errors.push_back("served " + std::string(labels_ok ? "confidences"
                                                              : "labels") +
                            " differ from " + artifact.id +
                            "'s offline predictions");
  }
  return response.server_ms;
}

/// Drives `count` requests at `rate` per second from kServeLanes lanes of
/// the library's worker pool. Request i is due at start + i / rate; a
/// lane takes the next request as soon as it is free and waits for its
/// due time, so a stall delays later requests (the open-loop queue).
/// With `backlog_stop_ms` > 0 the phase stops early once a request is
/// that late (a ladder rate that is clearly over capacity).
Phase RunPhase(const ServeState& state, double rate, uint64_t count,
               uint64_t first_frame, double backlog_stop_ms) {
  using Clock = std::chrono::steady_clock;
  std::vector<Phase> lanes(kServeLanes);
  std::vector<double> latency(count, kFailedLatencyMs);
  std::atomic<uint64_t> next{0};
  std::atomic<int> lane_ids{0};
  std::atomic<bool> stop{false};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  transer::ThreadPool::Global().Run(kServeLanes, [&] {
    Phase& lane = lanes[static_cast<size_t>(lane_ids.fetch_add(1))];
    for (;;) {
      const uint64_t i = next.fetch_add(1);
      if (i >= count || stop.load(std::memory_order_relaxed)) break;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / rate));
      const bool idle = Clock::now() < due;
      // Spin rather than sleep: a timer wake-up can be late by more than
      // a whole request's service time.
      while (Clock::now() < due) std::this_thread::yield();
      const Clock::time_point begin = Clock::now();
      const PoolFrame& pool =
          state.frames[(first_frame + i) % state.frames.size()];
      const std::vector<uint8_t> response =
          state.server->HandleFrame(pool.frame);
      const Clock::time_point end = Clock::now();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(end - begin).count();
      ++lane.attempted;
      const double server_ms = CheckResponse(state, pool, response, &lane);
      if (server_ms >= 0.0) {
        latency[i] =
            std::chrono::duration<double, std::milli>(end - due).count();
        lane.codec_us.push_back((wall_ms - server_ms) * 1e3);
      }
      if (idle) {
        lane.generator_late_ms.push_back(
            std::chrono::duration<double, std::milli>(begin - due).count());
      }
      if (backlog_stop_ms > 0.0 && latency[i] > backlog_stop_ms) {
        lane.stopped_on_backlog = true;
        stop.store(true, std::memory_order_relaxed);
      }
    }
  });
  Phase phase;
  for (Phase& lane : lanes) phase.Merge(std::move(lane));
  latency.resize(std::min<uint64_t>(count, next.load()));
  phase.latency_ms = std::move(latency);
  return phase;
}

uint64_t Requests(double rate, double seconds) {
  return std::max<uint64_t>(100, static_cast<uint64_t>(rate * seconds));
}

/// The median, over `segments` consecutive slices of the schedule, of
/// each slice's q-quantile latency: one stall of the machine moves one
/// slice, not the result.
double SegmentQuantile(const std::vector<double>& latency_ms, size_t segments,
                       double q) {
  std::vector<double> per_segment;
  const size_t n = latency_ms.size();
  for (size_t s = 0; s < segments; ++s) {
    per_segment.push_back(Quantile(
        std::vector<double>(latency_ms.begin() + static_cast<long>(n * s / segments),
                            latency_ms.begin() +
                                static_cast<long>(n * (s + 1) / segments)),
        q));
  }
  return Median(per_segment);
}

/// A ladder rate passes when nothing failed and the p99 from due time
/// meets the limit in most thirds of the probe: a backlog that grows
/// fails the later thirds.
bool LadderRatePasses(const Phase& phase) {
  return !phase.stopped_on_backlog && phase.failed == 0 &&
         SegmentQuantile(phase.latency_ms, 3, 0.99) <= kLatencyLimitMs;
}

}  // namespace

Report RunServeMixed(const RunArgs& args, SpanLog* spans) {
  Report report;
  ServeState state;
  const std::string dir = args.work_dir + "/models";
  const double setup_s = MedianSetupSeconds(
      kSetupRepeats, [&] { SetUp(args.seed, dir, &state, &report); });
  report.Check(state.loaded == std::size(kScenarios),
               "repository indexed " + std::to_string(state.loaded) +
                   " artifacts");
  if (state.frames.empty() || state.loaded == 0) return report;

  // Warm-up: the first requests are served and discarded.
  RunPhase(state, kNominalRps, Requests(kNominalRps, kWarmupSeconds), 0, 0);

  // The nominal-rate phase: latency from due time and the output checks.
  const double nominal_seconds = args.seconds * 0.5;
  const int nominal_span = spans->Begin("serve.nominal");
  Phase nominal = RunPhase(state, kNominalRps,
                           Requests(kNominalRps, nominal_seconds), 0, 0);
  spans->End(nominal_span);
  report.attempted += nominal.attempted;
  report.failed += nominal.failed;
  for (const std::string& error : nominal.errors) report.Fail(error);

  const uint64_t served = nominal.attempted - nominal.failed;
  const double f_star =
      static_cast<double>(nominal.true_pos) /
      static_cast<double>(std::max<uint64_t>(
          1, nominal.true_pos + nominal.false_pos + nominal.false_neg));
  report.Count("artifacts", state.loaded);
  report.Count("nominal_requests", nominal.attempted);
  report.Count("probed_requests", nominal.probed);
  report.CountText("f_star", FormatDouble(f_star));

  if (args.trace) {
    report.Set("data.generate_s",
               spans->Time("data.generate", -1,
                           [&] {
                             for (const transer::ScenarioId id : kScenarios) {
                               (void)transer::BuildScenario(
                                   id, ArtifactScale(args.seed));
                             }
                           }),
               "s");
    const double n =
        static_cast<double>(std::max<uint64_t>(1, nominal.attempted));
    report.Set("serve.server_ms.classify.p50",
               Median(nominal.server_ms_classify), "ms");
    report.Set("serve.server_ms.classify.p99",
               Quantile(nominal.server_ms_classify, 0.99), "ms");
    report.Set("serve.server_ms.resolve.p50",
               Median(nominal.server_ms_resolve), "ms");
    report.Set("serve.server_ms.resolve.p99",
               Quantile(nominal.server_ms_resolve, 0.99), "ms");
    report.Set("serve.codec_us", Median(nominal.codec_us), "us");
    report.Set("serve.probe_frac",
               static_cast<double>(nominal.probed) /
                   static_cast<double>(std::max<uint64_t>(1, served)),
               "ratio");
    report.Set("serve.degraded_frac",
               static_cast<double>(nominal.degraded) / n, "ratio");
    report.Set("serve.rejected_frac",
               static_cast<double>(nominal.rejected) / n, "ratio");
    report.Set("serve.generator_late_ms",
               Quantile(nominal.generator_late_ms, 0.99), "ms");
    return report;
  }

  // The rate ladder: binary search over the fixed rates for the highest
  // one that meets the limit.
  const double probes = std::ceil(std::log2(kLadderRates + 1.0));
  const double probe_seconds = args.seconds * 0.5 / probes;
  int lo = -1, hi = kLadderRates;
  uint64_t frame_cursor = 0;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = kLadderBaseRps * std::pow(kLadderStep, mid);
    frame_cursor += 7919;
    const int probe_span = spans->Begin("serve.ladder");
    Phase probe = RunPhase(state, rate, Requests(rate, probe_seconds),
                           frame_cursor, 20.0 * kLatencyLimitMs);
    spans->End(probe_span);
    for (const std::string& error : probe.errors) report.Fail(error);
    const bool pass = LadderRatePasses(probe);
    std::fprintf(stderr, "ladder %.0f req/s: p99 %.3f ms %s\n", rate,
                 SegmentQuantile(probe.latency_ms, 3, 0.99),
                 pass ? "pass" : "fail");
    (pass ? lo : hi) = mid;
  }
  const double max_rps =
      lo >= 0 ? kLadderBaseRps * std::pow(kLadderStep, lo) : 0.0;
  report.Check(max_rps > 0.0, "no ladder rate met the latency limit");

  report.Set("setup_s", setup_s, "s");
  report.Set("latency_p50_ms",
             SegmentQuantile(nominal.latency_ms, kSegments, 0.5), "ms");
  report.Set("latency_p99_ms",
             SegmentQuantile(nominal.latency_ms, kSegments, 0.99), "ms");
  report.Set("throughput_per_s", max_rps, "1/s");
  report.Set("f_star", f_star, "ratio");
  report.Set("pairs_completeness", 1.0, "ratio");
  return report;
}

}  // namespace perfbench
