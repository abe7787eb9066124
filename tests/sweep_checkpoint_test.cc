// Tests for the crash-safe sweep checkpoint: JSONL record round-trips,
// torn-tail tolerance, and RunCheckpointedSweep resume semantics
// (bit-identical resumed aggregates, TE/ME skip, bounded transient
// retry, seed-mismatch rejection).

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/sweep_checkpoint.h"
#include "data/feature_space_generator.h"
#include "testing/fault_injection.h"
#include "transfer/naive_transfer.h"
#include "util/execution_context.h"

namespace transer {
namespace {

std::string TempJournalPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name + ".jsonl";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

SweepCellRecord MakeRecord() {
  SweepCellRecord record;
  record.key = {"transer", "A -> B", "svm"};
  record.seed = 12033;
  record.quality.precision = 1.0 / 3.0;  // not representable in decimal
  record.quality.recall = 0.875;
  record.quality.f1 = 2.0 / 7.0;
  record.quality.f_star = 0.1234567890123456789;
  record.runtime_seconds = 1.5e-3;
  return record;
}

TransferScenario MakeScenario(const std::string& name, size_t n,
                              uint64_t seed) {
  FeatureSpaceGenerator generator({4, 40, seed});
  FeatureDomainSpec source;
  source.num_instances = n;
  source.match_fraction = 0.30;
  source.ambiguous_fraction = 0.05;
  source.seed = seed + 1;
  FeatureDomainSpec target = source;
  target.mode_shift = -0.05;
  target.seed = seed + 2;
  TransferScenario scenario;
  scenario.name = name;
  scenario.source_name = "source";
  scenario.target_name = "target";
  scenario.source = generator.Generate(source);
  scenario.target = generator.Generate(target);
  return scenario;
}

std::vector<std::unique_ptr<TransferMethod>> NaiveOnly() {
  std::vector<std::unique_ptr<TransferMethod>> methods;
  methods.push_back(std::make_unique<NaiveTransfer>());
  return methods;
}

void ExpectSameResults(const std::vector<MethodScenarioResult>& a,
                       const std::vector<MethodScenarioResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].method, b[i].method);
    EXPECT_EQ(a[i].scenario, b[i].scenario);
    EXPECT_EQ(a[i].failure, b[i].failure);
    EXPECT_EQ(a[i].completed_runs, b[i].completed_runs);
    ASSERT_EQ(a[i].per_classifier.size(), b[i].per_classifier.size());
    for (size_t j = 0; j < a[i].per_classifier.size(); ++j) {
      // Bit-for-bit: journaled doubles round-trip exactly (%.17g) and
      // live re-runs are seeded identically.
      EXPECT_EQ(a[i].per_classifier[j].precision,
                b[i].per_classifier[j].precision);
      EXPECT_EQ(a[i].per_classifier[j].recall, b[i].per_classifier[j].recall);
      EXPECT_EQ(a[i].per_classifier[j].f1, b[i].per_classifier[j].f1);
      EXPECT_EQ(a[i].per_classifier[j].f_star,
                b[i].per_classifier[j].f_star);
    }
    EXPECT_EQ(a[i].quality.precision.mean, b[i].quality.precision.mean);
    EXPECT_EQ(a[i].quality.recall.mean, b[i].quality.recall.mean);
    EXPECT_EQ(a[i].quality.f1.mean, b[i].quality.f1.mean);
    EXPECT_EQ(a[i].quality.f_star.mean, b[i].quality.f_star.mean);
  }
}

// ---------- record encoding ----------

TEST(SweepCellRecordTest, EncodeDecodeRoundTripsExactly) {
  const SweepCellRecord record = MakeRecord();
  auto decoded = DecodeSweepCellRecord(EncodeSweepCellRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().key, record.key);
  EXPECT_EQ(decoded.value().seed, record.seed);
  EXPECT_EQ(decoded.value().failure, record.failure);
  EXPECT_EQ(decoded.value().quality.precision, record.quality.precision);
  EXPECT_EQ(decoded.value().quality.recall, record.quality.recall);
  EXPECT_EQ(decoded.value().quality.f1, record.quality.f1);
  EXPECT_EQ(decoded.value().quality.f_star, record.quality.f_star);
  EXPECT_EQ(decoded.value().runtime_seconds, record.runtime_seconds);
}

TEST(SweepCellRecordTest, RoundTripsFailureRecords) {
  SweepCellRecord record = MakeRecord();
  record.failure = "TE";
  auto decoded = DecodeSweepCellRecord(EncodeSweepCellRecord(record));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().failure, "TE");
}

TEST(SweepCellRecordTest, RoundTripsEscapedStrings) {
  SweepCellRecord record = MakeRecord();
  record.key.scenario = "a \"quoted\" \\ name";
  record.failure = "disk\nfull";
  record.key.method = "a\x01" "b\x1f\x7f";  // control bytes
  const std::string line = EncodeSweepCellRecord(record);
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << line;
  }
  auto decoded = DecodeSweepCellRecord(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().key.scenario, record.key.scenario);
  EXPECT_EQ(decoded.value().key.method, record.key.method);
  EXPECT_EQ(decoded.value().failure, record.failure);
}

TEST(SweepCellRecordTest, DecodeRejectsMalformedLines) {
  EXPECT_FALSE(DecodeSweepCellRecord("").ok());
  EXPECT_FALSE(DecodeSweepCellRecord("not json at all").ok());
  EXPECT_FALSE(DecodeSweepCellRecord("{\"method\":\"m\"}").ok());
  const std::string full = EncodeSweepCellRecord(MakeRecord());
  // A torn write: the line cut anywhere before its end must not parse.
  EXPECT_FALSE(
      DecodeSweepCellRecord(full.substr(0, full.size() / 2)).ok());
  for (size_t length = 0; length < full.size(); ++length) {
    EXPECT_FALSE(DecodeSweepCellRecord(full.substr(0, length)).ok())
        << full.substr(0, length);
  }
}

TEST(SweepCellRecordTest, SeedsAtAndAbove2To63RoundTrip) {
  for (const uint64_t seed :
       {uint64_t{1} << 63, std::numeric_limits<uint64_t>::max()}) {
    SweepCellRecord record = MakeRecord();
    record.seed = seed;
    auto decoded = DecodeSweepCellRecord(EncodeSweepCellRecord(record));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().seed, seed);
  }
  // `--seed=-1` casts to UINT64_MAX; its journaled cell must resume.
  const std::string path = TempJournalPath("huge_seed");
  SweepCellRecord record = MakeRecord();
  record.seed = std::numeric_limits<uint64_t>::max();
  {
    std::ofstream out(path);
    out << EncodeSweepCellRecord(record) << "\n";
  }
  RunDiagnostics diagnostics;
  auto checkpoint = SweepCheckpoint::Open(path, &diagnostics);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  ASSERT_EQ(checkpoint.value().size(), 1u);
  EXPECT_EQ(checkpoint.value().records()[0].seed, record.seed);
  EXPECT_FALSE(diagnostics.HasKind(DegradationKind::kCheckpointTailDropped));
}

TEST(SweepCellRecordTest, EncodingMatchesTheJournalFormatByteForByte) {
  // Lines as the journal has always written them; existing journals
  // must keep decoding to identical records, and printable names must
  // keep encoding to identical bytes.
  const std::string line =
      "{\"method\":\"transer\",\"scenario\":\"A -> B\",\"classifier\":\"svm\","
      "\"seed\":12033,\"failure\":\"\",\"precision\":0.33333333333333331,"
      "\"recall\":0.875,\"f1\":0.2857142857142857,"
      "\"f_star\":0.12345678901234568,\"runtime_seconds\":0.0015}";
  EXPECT_EQ(EncodeSweepCellRecord(MakeRecord()), line);
  auto decoded = DecodeSweepCellRecord(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeSweepCellRecord(decoded.value()), line);

  const std::string escaped =
      "{\"method\":\"transer\",\"scenario\":\"a \\\"quoted\\\" \\\\ "
      "name\\ttab\",\"classifier\":\"svm\",\"seed\":9223372036854775807,"
      "\"failure\":\"disk\\nfull\\r\",\"precision\":0,\"recall\":0,"
      "\"f1\":0,\"f_star\":0,\"runtime_seconds\":0}";
  auto old_record = DecodeSweepCellRecord(escaped);
  ASSERT_TRUE(old_record.ok()) << old_record.status().ToString();
  EXPECT_EQ(old_record.value().key.scenario, "a \"quoted\" \\ name\ttab");
  EXPECT_EQ(old_record.value().failure, "disk\nfull\r");
  EXPECT_EQ(old_record.value().seed, 9223372036854775807u);
  EXPECT_EQ(EncodeSweepCellRecord(old_record.value()), escaped);
}

// ---------- journal durability ----------

TEST(SweepCheckpointTest, PersistsRecordsAcrossReopen) {
  const std::string path = TempJournalPath("persist");
  {
    auto checkpoint = SweepCheckpoint::Open(path);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    EXPECT_EQ(checkpoint.value().size(), 0u);
    ASSERT_TRUE(checkpoint.value().Record(MakeRecord()).ok());
  }
  auto reopened = SweepCheckpoint::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened.value().size(), 1u);
  const SweepCellRecord* found =
      reopened.value().Find({"transer", "A -> B", "svm"});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->quality.precision, 1.0 / 3.0);
  EXPECT_EQ(reopened.value().Find({"transer", "A -> B", "rf"}), nullptr);
}

TEST(SweepCheckpointTest, ReRecordingAKeySupersedes) {
  const std::string path = TempJournalPath("supersede");
  auto checkpoint = SweepCheckpoint::Open(path);
  ASSERT_TRUE(checkpoint.ok());
  SweepCellRecord failed = MakeRecord();
  failed.failure = "flaky io";
  ASSERT_TRUE(checkpoint.value().Record(failed).ok());
  ASSERT_TRUE(checkpoint.value().Record(MakeRecord()).ok());
  EXPECT_EQ(checkpoint.value().size(), 1u);
  const SweepCellRecord* found = checkpoint.value().Find(failed.key);
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->failure.empty());
}

TEST(SweepCheckpointTest, CorruptTailIsTruncatedAndReported) {
  const std::string path = TempJournalPath("torn_tail");
  SweepCellRecord second = MakeRecord();
  second.key.classifier = "rf";
  {
    std::ofstream out(path);
    out << EncodeSweepCellRecord(MakeRecord()) << "\n";
    out << EncodeSweepCellRecord(second) << "\n";
    out << "{\"method\":\"transer\",\"scenario\":\"A ->";  // torn write
  }
  RunDiagnostics diagnostics;
  auto checkpoint = SweepCheckpoint::Open(path, &diagnostics);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint.value().size(), 2u);
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kCheckpointTailDropped));

  // The truncation was persisted: a reopen is clean.
  RunDiagnostics clean;
  auto reopened = SweepCheckpoint::Open(path, &clean);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().size(), 2u);
  EXPECT_FALSE(clean.HasKind(DegradationKind::kCheckpointTailDropped));
}

TEST(SweepCheckpointTest, CorruptionBeforeTheTailFails) {
  const std::string path = TempJournalPath("corrupt_middle");
  SweepCellRecord second = MakeRecord();
  second.key.classifier = "rf";
  {
    std::ofstream out(path);
    out << EncodeSweepCellRecord(MakeRecord()) << "\n";
    out << "someone edited this journal by hand\n";
    out << EncodeSweepCellRecord(second) << "\n";
  }
  auto checkpoint = SweepCheckpoint::Open(path);
  EXPECT_FALSE(checkpoint.ok());
}

// ---------- checkpointed sweep resume ----------

/// Runs a two-group sweep on `lanes` lanes, "kills" it at the start of
/// its second (method, scenario) group, then resumes it from the journal
/// and checks the resumed aggregate is bit-identical to an uninterrupted
/// run. Returns the number of cells the killed sweep journaled.
size_t InterruptAndResume(const std::string& journal_name, int lanes) {
  const std::string path = TempJournalPath(journal_name);
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 21));
  scenarios.push_back(MakeScenario("C -> D", 300, 22));
  const auto suite = DefaultClassifierSuite();

  SweepOptions base;
  base.base_options.seed = 33;

  // Reference: the whole sweep, uninterrupted and unjournaled.
  auto reference =
      RunCheckpointedSweep(NaiveOnly(), scenarios, suite, base);
  EXPECT_TRUE(reference.ok()) << reference.status().ToString();
  if (!reference.ok()) return 0;
  EXPECT_EQ(reference.value().size(), 2u);

  // The cancellation token fires from the sweep's own heartbeat, exactly
  // as an operator interrupt would. Cells still running on other lanes
  // are cancelled with it and stay out of the journal.
  CancellationToken token;
  int groups_started = 0;
  ExecutionContext sweep_context(
      {}, &token, [&](const ProgressEvent& event) {
        if (event.stage.find('/') == std::string::npos) return;
        if (++groups_started == 2) token.Cancel();
      });
  SweepOptions interrupted = base;
  interrupted.checkpoint_path = path;
  interrupted.base_options.context = &sweep_context;
  interrupted.base_options.num_threads = lanes;
  auto killed =
      RunCheckpointedSweep(NaiveOnly(), scenarios, suite, interrupted);
  EXPECT_FALSE(killed.ok());

  // Whatever was journaled is a set of completed cells, each equal to
  // the reference's.
  size_t journaled = 0;
  {
    auto journal = SweepCheckpoint::Open(path);
    EXPECT_TRUE(journal.ok());
    if (!journal.ok()) return 0;
    journaled = journal.value().size();
    for (const SweepCellRecord& record : journal.value().records()) {
      EXPECT_TRUE(record.failure.empty()) << record.failure;
      const size_t group = record.key.scenario == "A -> B" ? 0 : 1;
      size_t cell = 0;
      while (cell < suite.size() &&
             suite[cell].name != record.key.classifier) {
        ++cell;
      }
      EXPECT_LT(cell, suite.size());
      if (cell >= suite.size()) continue;
      EXPECT_EQ(record.quality.f_star,
                reference.value()[group].per_classifier[cell].f_star);
    }
  }

  // Resume from the journal: completed cells are reused, the rest run
  // live under their recorded seeds — the aggregate is bit-identical.
  SweepOptions resumed = base;
  resumed.checkpoint_path = path;
  auto resume =
      RunCheckpointedSweep(NaiveOnly(), scenarios, suite, resumed);
  EXPECT_TRUE(resume.ok()) << resume.status().ToString();
  if (resume.ok()) ExpectSameResults(resume.value(), reference.value());
  return journaled;
}

TEST(CheckpointedSweepTest, InterruptedResumeMatchesUninterruptedRun) {
  // One lane runs the groups in order, so the kill at the second group's
  // start leaves exactly the first group's cells journaled.
  EXPECT_EQ(InterruptAndResume("resume", /*lanes=*/1),
            DefaultClassifierSuite().size());
}

TEST(CheckpointedSweepTest, InterruptedMultiLaneResumeMatchesUninterruptedRun) {
  // Several lanes run both groups at once, so the kill may land anywhere
  // inside the first group: the journaled prefix can hold any number of
  // its cells, and resuming from it must still be bit-identical.
  EXPECT_LE(InterruptAndResume("resume_multi", /*lanes=*/4),
            DefaultClassifierSuite().size());
}

TEST(CheckpointedSweepTest, JournaledBudgetFailureIsNotReRun) {
  const std::string path = TempJournalPath("te_skip");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 24));
  const auto suite = DefaultClassifierSuite();

  SweepOptions options;
  options.base_options.seed = 33;
  options.checkpoint_path = path;
  {
    auto journal = SweepCheckpoint::Open(path);
    ASSERT_TRUE(journal.ok());
    SweepCellRecord te;
    te.key = {"naive", "A -> B", suite[0].name};
    te.seed = options.base_options.seed;  // classifier index 0
    te.failure = "TE";
    ASSERT_TRUE(journal.value().Record(te).ok());
  }

  auto sweep = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, options);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep.value().size(), 1u);
  EXPECT_EQ(sweep.value()[0].failure, "TE");
  EXPECT_EQ(sweep.value()[0].completed_runs, 0u);
}

TEST(CheckpointedSweepTest, TransientFailureGetsOneRetry) {
  const std::string path = TempJournalPath("retry");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 25));
  const auto suite = DefaultClassifierSuite();

  RunDiagnostics diagnostics;
  SweepOptions options;
  options.base_options.seed = 33;
  options.checkpoint_path = path;
  options.diagnostics = &diagnostics;
  {
    auto journal = SweepCheckpoint::Open(path);
    ASSERT_TRUE(journal.ok());
    SweepCellRecord transient;
    transient.key = {"naive", "A -> B", suite[1].name};
    transient.seed = options.base_options.seed + 1000;  // classifier 1
    transient.failure = "disk hiccup";
    ASSERT_TRUE(journal.value().Record(transient).ok());
  }

  auto sweep = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, options);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_EQ(sweep.value()[0].completed_runs, suite.size());
  EXPECT_EQ(diagnostics.CountKind(DegradationKind::kCheckpointCellRetried),
            1u);

  // The retried cell's success superseded the journaled failure.
  auto journal = SweepCheckpoint::Open(path);
  ASSERT_TRUE(journal.ok());
  const SweepCellRecord* cell =
      journal.value().Find({"naive", "A -> B", suite[1].name});
  ASSERT_NE(cell, nullptr);
  EXPECT_TRUE(cell->failure.empty());
}

TEST(CheckpointedSweepTest, TornTailFromKilledWriterResumesUnderParallelRunner) {
  const std::string path = TempJournalPath("torn_writer");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 27));
  scenarios.push_back(MakeScenario("C -> D", 300, 28));
  const auto suite = DefaultClassifierSuite();

  SweepOptions base;
  base.base_options.seed = 33;
  base.base_options.num_threads = 4;

  // Reference: uninterrupted, unjournaled, on the parallel runner.
  auto reference = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // A full journaled sweep, then the journal writer is "killed" mid-way
  // through appending its last record: the file ends in a torn line.
  SweepOptions journaled = base;
  journaled.checkpoint_path = path;
  ASSERT_TRUE(
      RunCheckpointedSweep(NaiveOnly(), scenarios, suite, journaled).ok());
  std::vector<uint8_t> journal_bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &journal_bytes).ok());
  ASSERT_GT(journal_bytes.size(), 10u);
  ASSERT_TRUE(fault::TruncateFile(path, journal_bytes.size() - 10).ok());

  // Resume under the parallel (scenario, method) runner: the torn tail
  // is dropped with a diagnostic, the lost cell re-runs under its
  // recorded seed, and the aggregate stays bit-identical.
  RunDiagnostics diagnostics;
  SweepOptions resumed = base;
  resumed.checkpoint_path = path;
  resumed.diagnostics = &diagnostics;
  auto resume = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, resumed);
  ASSERT_TRUE(resume.ok()) << resume.status().ToString();
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kCheckpointTailDropped));
  ExpectSameResults(resume.value(), reference.value());
}

TEST(CheckpointedSweepTest, SeedMismatchIsRejected) {
  const std::string path = TempJournalPath("seed_mismatch");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 26));
  const auto suite = DefaultClassifierSuite();

  SweepOptions options;
  options.base_options.seed = 33;
  options.checkpoint_path = path;
  {
    auto journal = SweepCheckpoint::Open(path);
    ASSERT_TRUE(journal.ok());
    SweepCellRecord foreign = MakeRecord();
    foreign.key = {"naive", "A -> B", suite[0].name};
    foreign.seed = 999999;  // journal from a different base seed
    ASSERT_TRUE(journal.value().Record(foreign).ok());
  }
  auto sweep = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, options);
  ASSERT_FALSE(sweep.ok());
  EXPECT_NE(sweep.status().message().find("different sweep"),
            std::string::npos);
}

}  // namespace
}  // namespace transer
