// Tests for the crash-safe model artifact store: bit-identical
// round-trips for every classifier family, integrity rejection of
// truncated / bit-flipped / re-stamped files, and the TransER
// warm-start / serve / fall-back-to-retraining semantics.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/transer.h"
#include "data/feature_space_generator.h"
#include "ml/decision_tree.h"
#include "ml/knn_classifier.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/model_store.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "ml/scaler.h"
#include "ml/threshold_classifier.h"
#include "testing/fault_injection.h"
#include "util/artifact_io.h"
#include "util/random.h"

namespace transer {
namespace {

const std::vector<std::string> kSchema = {"jaro", "jaccard", "trigram",
                                          "exact"};

/// Two-Gaussian binary problem (same shape as ml_test's blobs).
struct Blobs {
  Matrix x;
  std::vector<int> y;
};

Blobs MakeBlobs(size_t n_per_class, size_t dims, double separation,
                uint64_t seed) {
  Rng rng(seed);
  Blobs blobs;
  blobs.x = Matrix(2 * n_per_class, dims);
  blobs.y.resize(2 * n_per_class);
  for (size_t i = 0; i < 2 * n_per_class; ++i) {
    const int label = i < n_per_class ? 0 : 1;
    blobs.y[i] = label;
    const double center = label == 0 ? 0.0 : separation;
    for (size_t d = 0; d < dims; ++d) {
      blobs.x(i, d) = rng.Gaussian(center, 1.0);
    }
  }
  return blobs;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------- Round trips: every shipped classifier family ----------

using MakeFn = std::unique_ptr<Classifier> (*)();

std::unique_ptr<Classifier> MakeDt() {
  return std::make_unique<DecisionTree>();
}
std::unique_ptr<Classifier> MakeRf() {
  RandomForestOptions options;
  options.num_trees = 8;
  return std::make_unique<RandomForest>(options);
}
std::unique_ptr<Classifier> MakeLr() {
  return std::make_unique<LogisticRegression>();
}
std::unique_ptr<Classifier> MakeSvm() {
  return std::make_unique<LinearSvm>();
}
std::unique_ptr<Classifier> MakeNb() {
  return std::make_unique<GaussianNaiveBayes>();
}
std::unique_ptr<Classifier> MakeKnn() {
  return std::make_unique<KnnClassifier>();
}
std::unique_ptr<Classifier> MakeMlp() { return std::make_unique<Mlp>(); }
std::unique_ptr<Classifier> MakeThreshold() {
  return std::make_unique<ThresholdClassifier>();
}

class ModelRoundTripTest : public ::testing::TestWithParam<MakeFn> {};

TEST_P(ModelRoundTripTest, SaveLoadPredictBitIdentical) {
  const Blobs train = MakeBlobs(80, kSchema.size(), 3.0, 71);
  const Blobs test = MakeBlobs(40, kSchema.size(), 3.0, 72);
  auto original = GetParam()();
  original->Fit(train.x, train.y);

  const std::string path =
      TempPath("roundtrip_" + original->name() + ".tera");
  ASSERT_TRUE(SaveClassifierArtifact(*original, kSchema, path).ok());

  auto loaded = LoadClassifierArtifact(path, kSchema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().name, original->name());
  EXPECT_EQ(loaded.value().feature_names, kSchema);

  // Bit-identical probabilities, at serial and at 8-lane scoring: the
  // loaded model must be indistinguishable from the one that was saved.
  const std::vector<double> want = original->PredictProbaAll(test.x, 1);
  const std::vector<double> got_1 =
      loaded.value().classifier->PredictProbaAll(test.x, 1);
  const std::vector<double> got_8 =
      loaded.value().classifier->PredictProbaAll(test.x, 8);
  ASSERT_EQ(want.size(), got_1.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got_1[i]) << original->name() << " row " << i;
    EXPECT_EQ(want[i], got_8[i]) << original->name() << " row " << i;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ModelRoundTripTest,
                         ::testing::Values(MakeDt, MakeRf, MakeLr, MakeSvm,
                                           MakeNb, MakeKnn, MakeMlp,
                                           MakeThreshold));

TEST(ModelStoreTest, ScalerRoundTripIsExact) {
  const Blobs train = MakeBlobs(60, kSchema.size(), 2.0, 73);
  StandardScaler scaler;
  scaler.Fit(train.x);

  const std::string path = TempPath("scaler_roundtrip.tera");
  ASSERT_TRUE(SaveScalerArtifact(scaler, kSchema, path).ok());
  auto loaded = LoadScalerArtifact(path, kSchema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().means(), scaler.means());
  EXPECT_EQ(loaded.value().stddevs(), scaler.stddevs());
  std::remove(path.c_str());
}

TEST(ModelStoreTest, UnsaveableClassifierRefusesCleanly) {
  // A user subclass without SaveState must be refused, not written as an
  // empty artifact.
  class Custom : public Classifier {
   public:
    void Fit(const Matrix&, const std::vector<int>&,
             const std::vector<double>&) override {}
    double PredictProba(std::span<const double>) const override {
      return 0.5;
    }
    std::string name() const override { return "custom"; }
  };
  Custom custom;
  const std::string path = TempPath("custom.tera");
  const Status status = SaveClassifierArtifact(custom, kSchema, path);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::vector<uint8_t> bytes;
  EXPECT_FALSE(fault::ReadFileBytes(path, &bytes).ok());
}

TEST(ModelStoreTest, RetiredGradientBoostingFamilyIsRefusedCleanly) {
  // Gradient boosting is no longer a classifier family. Its name must take
  // the unknown-family path, and so must an intact artifact declaring it.
  auto made = MakeClassifierByName("gradient_boosting");
  EXPECT_EQ(made.status().code(), StatusCode::kFailedPrecondition);

  class Retired : public Classifier {
   public:
    void Fit(const Matrix&, const std::vector<int>&,
             const std::vector<double>&) override {}
    double PredictProba(std::span<const double>) const override {
      return 0.5;
    }
    std::string name() const override { return "gradient_boosting"; }
    Status SaveState(artifact::Encoder* out) const override {
      out->PutU64(2);
      out->PutDoubleVec({0.1, -0.25});
      return Status::OK();
    }
  };
  const std::string path = TempPath("retired_family.tera");
  ASSERT_TRUE(SaveClassifierArtifact(Retired(), kSchema, path).ok());
  auto loaded = LoadClassifierArtifact(path, kSchema);
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("gradient_boosting"),
            std::string::npos);
  std::remove(path.c_str());
}

// ---------- Rejection: missing, mismatched, tampered ----------

TEST(ModelStoreTest, MissingFileIsNotFound) {
  auto loaded = LoadClassifierArtifact(TempPath("nonexistent.tera"), {});
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ModelStoreTest, SchemaMismatchIsFailedPrecondition) {
  const Blobs train = MakeBlobs(40, kSchema.size(), 3.0, 74);
  LogisticRegression model;
  model.Fit(train.x, train.y);
  const std::string path = TempPath("schema_mismatch.tera");
  ASSERT_TRUE(SaveClassifierArtifact(model, kSchema, path).ok());

  auto mismatched =
      LoadClassifierArtifact(path, {"different", "schema", "here", "now"});
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);

  // An empty expected schema skips the check (caller takes the artifact's
  // own binding).
  EXPECT_TRUE(LoadClassifierArtifact(path, {}).ok());
  std::remove(path.c_str());
}

TEST(ModelStoreTest, KindMismatchIsFailedPrecondition) {
  const Blobs train = MakeBlobs(40, kSchema.size(), 2.0, 75);
  StandardScaler scaler;
  scaler.Fit(train.x);
  const std::string path = TempPath("kind_mismatch.tera");
  ASSERT_TRUE(SaveScalerArtifact(scaler, kSchema, path).ok());
  auto loaded = LoadClassifierArtifact(path, kSchema);
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ModelStoreTest, FutureFormatVersionIsFailedPrecondition) {
  const Blobs train = MakeBlobs(40, kSchema.size(), 3.0, 76);
  LogisticRegression model;
  model.Fit(train.x, train.y);
  const std::string path = TempPath("future_version.tera");
  ASSERT_TRUE(SaveClassifierArtifact(model, kSchema, path).ok());

  // Bump the version field (right after the 4-byte magic) and re-stamp
  // the whole-file trailer CRC so only the version check can object.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  ASSERT_GT(bytes.size(), 8u);
  bytes[4] = static_cast<uint8_t>(artifact::kFormatVersion + 1);
  const uint32_t crc = artifact::Crc32(bytes.data(), bytes.size() - 4);
  for (int b = 0; b < 4; ++b) {
    bytes[bytes.size() - 4 + b] =
        static_cast<uint8_t>((crc >> (8 * b)) & 0xFF);
  }
  ASSERT_TRUE(fault::WriteFileBytes(path, bytes).ok());

  auto loaded = LoadClassifierArtifact(path, kSchema);
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ModelStoreTest, EveryTruncationIsRejectedCleanly) {
  const Blobs train = MakeBlobs(30, kSchema.size(), 3.0, 77);
  ThresholdClassifier model;  // smallest artifact -> every prefix testable
  model.Fit(train.x, train.y);
  const std::string path = TempPath("truncation.tera");
  ASSERT_TRUE(SaveClassifierArtifact(model, kSchema, path).ok());
  std::vector<uint8_t> pristine;
  ASSERT_TRUE(fault::ReadFileBytes(path, &pristine).ok());

  const std::string torn = TempPath("truncation_torn.tera");
  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    std::vector<uint8_t> prefix(pristine.begin(), pristine.begin() + keep);
    ASSERT_TRUE(fault::WriteFileBytes(torn, prefix).ok());
    auto loaded = LoadClassifierArtifact(torn, kSchema);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes accepted";
  }
  std::remove(path.c_str());
  std::remove(torn.c_str());
}

TEST(ModelStoreTest, EveryByteFlipIsRejectedCleanly) {
  const Blobs train = MakeBlobs(30, kSchema.size(), 3.0, 78);
  ThresholdClassifier model;
  model.Fit(train.x, train.y);
  const std::string path = TempPath("byteflip.tera");
  ASSERT_TRUE(SaveClassifierArtifact(model, kSchema, path).ok());
  std::vector<uint8_t> pristine;
  ASSERT_TRUE(fault::ReadFileBytes(path, &pristine).ok());

  // A flipped byte anywhere — magic, header, payload, CRC trailer —
  // must yield a clean non-OK load: CRC-32 catches any 8-bit burst.
  const std::string mutated = TempPath("byteflip_mut.tera");
  for (size_t offset = 0; offset < pristine.size(); ++offset) {
    ASSERT_TRUE(fault::WriteFileBytes(mutated, pristine).ok());
    ASSERT_TRUE(fault::FlipFileByte(mutated, offset).ok());
    auto loaded = LoadClassifierArtifact(mutated, kSchema);
    EXPECT_FALSE(loaded.ok()) << "flip at offset " << offset << " accepted";
  }
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

// ---------- Byte-identity pins ----------
// Literal bytes captured from the per-byte encoder and bytewise CRC
// that the bulk codec replaced. Saved artifacts outlive the build that
// wrote them, so these bytes are a contract, not an implementation
// detail.

std::string ToHex(const std::vector<uint8_t>& bytes) {
  std::string hex;
  char digits[3];
  for (uint8_t b : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x", b);
    hex += digits;
  }
  return hex;
}

TEST(ModelStoreTest, EncoderBytesArePinned) {
  artifact::Encoder out;
  out.PutU8(0xA5);
  out.PutU32(0x01020304u);
  out.PutU64(0x1122334455667788ull);
  out.PutI64(-2);
  out.PutDouble(-0.15625);
  out.PutString("tera");
  out.PutDoubleVec({1.0, -0.0, 0.1});
  out.PutIntVec({-1, 0, 2147483647});
  out.PutU64Vec({0, ~0ull});
  out.PutStringVec({"", "ab"});
  out.PutDoubleVec({});
  EXPECT_EQ(ToHex(out.bytes()),
      "a5040302018877665544332211feffffffffffffff000000000000c4bf040000"
      "00746572610300000000000000000000000000f03f00000000000000809a9999"
      "999999b93f0300000000000000ffffffffffffffff0000000000000000ffffff"
      "7f0000000002000000000000000000000000000000ffffffffffffffff020000"
      "0000000000000000000200000061620000000000000000");

  artifact::Decoder in(out.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0.0;
  std::string s;
  std::vector<double> doubles;
  std::vector<int> ints;
  std::vector<uint64_t> u64s;
  std::vector<std::string> strings;
  ASSERT_TRUE(in.GetU8(&u8).ok());
  ASSERT_TRUE(in.GetU32(&u32).ok());
  ASSERT_TRUE(in.GetU64(&u64).ok());
  ASSERT_TRUE(in.GetI64(&i64).ok());
  ASSERT_TRUE(in.GetDouble(&d).ok());
  ASSERT_TRUE(in.GetString(&s).ok());
  ASSERT_TRUE(in.GetDoubleVec(&doubles).ok());
  ASSERT_TRUE(in.GetIntVec(&ints).ok());
  ASSERT_TRUE(in.GetU64Vec(&u64s).ok());
  ASSERT_TRUE(in.GetStringVec(&strings).ok());
  std::vector<double> empty = {9.0};
  ASSERT_TRUE(in.GetDoubleVec(&empty).ok());
  EXPECT_TRUE(in.ExpectEnd().ok());
  EXPECT_EQ(u8, 0xA5);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_EQ(i64, -2);
  EXPECT_EQ(d, -0.15625);
  EXPECT_EQ(s, "tera");
  ASSERT_EQ(doubles.size(), 3u);
  EXPECT_EQ(doubles[0], 1.0);
  EXPECT_TRUE(std::signbit(doubles[1]));
  EXPECT_EQ(doubles[2], 0.1);
  EXPECT_EQ(ints, (std::vector<int>{-1, 0, 2147483647}));
  EXPECT_EQ(u64s, (std::vector<uint64_t>{0, ~0ull}));
  EXPECT_EQ(strings, (std::vector<std::string>{"", "ab"}));
  EXPECT_TRUE(empty.empty());
}

TEST(ModelStoreTest, IntVecRejectsElementsOutsideInt32) {
  for (int64_t bad : {int64_t{2147483648LL}, int64_t{-2147483649LL}}) {
    artifact::Encoder out;
    out.PutU64(2);
    out.PutI64(7);
    out.PutI64(bad);
    artifact::Decoder in(out.bytes());
    std::vector<int> ints;
    EXPECT_EQ(in.GetIntVec(&ints).code(), StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(ModelStoreTest, ClassifierArtifactBytesArePinned) {
  // A kNN model stores its training data verbatim, so the artifact
  // depends on no floating-point arithmetic and is the same on every
  // build flavour.
  Matrix x(4, 2);
  const double cells[] = {0.0, 1.0, 0.25, 0.5, 1.0, 0.75, 0.125, -3.5};
  for (size_t i = 0; i < 8; ++i) x(i / 2, i % 2) = cells[i];
  KnnClassifierOptions options;
  options.k = 3;
  KnnClassifier model(options);
  model.Fit(x, {0, 1, 1, 0}, {1.0, 2.0, 0.5, 0.25});
  const std::string path = TempPath("pinned_knn.tera");
  ASSERT_TRUE(SaveClassifierArtifact(model, {"jaro", "exact"}, path).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  EXPECT_EQ(ToHex(bytes),
      "54455241010000000a000000636c61737369666965724a1367f441d8ebcf0200"
      "0000040000006d6574612000000000000000030000006b6e6e02000000000000"
      "00040000006a61726f050000006578616374453739c2050000006d6f64656cb1"
      "0000000000000003000000000000000104000000000000000200000000000000"
      "08000000000000000000000000000000000000000000f03f000000000000d03f"
      "000000000000e03f000000000000f03f000000000000e83f000000000000c03f"
      "0000000000000cc0040000000000000000000000000000000100000000000000"
      "010000000000000000000000000000000400000000000000000000000000f03f"
      "0000000000000040000000000000e03f000000000000d03fce6ca4fb7359c72d");
  auto loaded = LoadClassifierArtifact(path, {"jaro", "exact"});
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
}

// ---------- TransER pipeline snapshots ----------

TransERPipelineState MakePipelineState(uint64_t seed) {
  const Blobs train = MakeBlobs(50, kSchema.size(), 3.0, seed);
  TransERPipelineState state;
  state.feature_names = kSchema;
  state.seed = seed;
  state.source_rows = 100;
  state.target_rows = 6;
  state.selected_indices = {0, 7, 42, 99};
  state.pseudo_labels = {0, 1, 1, 0, 1, 0};
  state.pseudo_confidences = {0.1, 0.99, 0.8, 0.05, 1.0, 0.0};
  auto u = std::make_unique<LogisticRegression>();
  u->Fit(train.x, train.y);
  state.classifier_name = u->name();
  state.classifier_u = std::move(u);
  return state;
}

TEST(PipelineSnapshotTest, RoundTripPreservesEverything) {
  TransERPipelineState state = MakePipelineState(81);
  auto v = std::make_unique<LogisticRegression>();
  const Blobs target_train = MakeBlobs(50, kSchema.size(), 2.0, 82);
  v->Fit(target_train.x, target_train.y);
  state.classifier_v = std::move(v);

  const std::string path = TempPath("pipeline_roundtrip.tera");
  ASSERT_TRUE(SaveTransERPipelineState(state, path).ok());
  auto loaded = LoadTransERPipelineState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TransERPipelineState& got = loaded.value();
  EXPECT_EQ(got.feature_names, state.feature_names);
  EXPECT_EQ(got.seed, state.seed);
  EXPECT_EQ(got.source_rows, state.source_rows);
  EXPECT_EQ(got.target_rows, state.target_rows);
  EXPECT_EQ(got.selected_indices, state.selected_indices);
  EXPECT_EQ(got.pseudo_labels, state.pseudo_labels);
  EXPECT_EQ(got.pseudo_confidences, state.pseudo_confidences);
  EXPECT_EQ(got.classifier_name, state.classifier_name);
  ASSERT_NE(got.classifier_u, nullptr);
  ASSERT_NE(got.classifier_v, nullptr);

  const Blobs probe = MakeBlobs(20, kSchema.size(), 3.0, 83);
  EXPECT_EQ(got.classifier_u->PredictProbaAll(probe.x, 1),
            state.classifier_u->PredictProbaAll(probe.x, 1));
  EXPECT_EQ(got.classifier_v->PredictProbaAll(probe.x, 1),
            state.classifier_v->PredictProbaAll(probe.x, 1));
  std::remove(path.c_str());
}

TEST(PipelineSnapshotTest, SnapshotWithoutTclLoadsWithNullV) {
  TransERPipelineState state = MakePipelineState(84);
  const std::string path = TempPath("pipeline_no_v.tera");
  ASSERT_TRUE(SaveTransERPipelineState(state, path).ok());
  auto loaded = LoadTransERPipelineState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_NE(loaded.value().classifier_u, nullptr);
  EXPECT_EQ(loaded.value().classifier_v, nullptr);
  std::remove(path.c_str());
}

TEST(PipelineSnapshotTest, InvalidStatesAreRefusedAtSaveTime) {
  TransERPipelineState no_u = MakePipelineState(85);
  no_u.classifier_u.reset();
  EXPECT_FALSE(
      SaveTransERPipelineState(no_u, TempPath("bad1.tera")).ok());

  TransERPipelineState short_labels = MakePipelineState(86);
  short_labels.pseudo_labels.pop_back();
  EXPECT_FALSE(
      SaveTransERPipelineState(short_labels, TempPath("bad2.tera")).ok());
}

TEST(PipelineSnapshotTest, EveryByteFlipOfSnapshotIsRejected) {
  TransERPipelineState state = MakePipelineState(87);
  const std::string path = TempPath("pipeline_fuzz.tera");
  ASSERT_TRUE(SaveTransERPipelineState(state, path).ok());
  std::vector<uint8_t> pristine;
  ASSERT_TRUE(fault::ReadFileBytes(path, &pristine).ok());

  const std::string mutated = TempPath("pipeline_fuzz_mut.tera");
  for (size_t offset = 0; offset < pristine.size(); ++offset) {
    ASSERT_TRUE(fault::WriteFileBytes(mutated, pristine).ok());
    ASSERT_TRUE(fault::FlipFileByte(mutated, offset).ok());
    auto loaded = LoadTransERPipelineState(mutated);
    EXPECT_FALSE(loaded.ok()) << "flip at offset " << offset << " accepted";
  }
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

// ---------- TransER warm start / serve / fall back ----------

struct TransferPair {
  FeatureMatrix source;
  FeatureMatrix target;
};

TransferPair MakePair(uint64_t seed) {
  FeatureSpaceGenerator generator({4, 40, seed});
  FeatureDomainSpec source;
  source.num_instances = 400;
  source.match_fraction = 0.3;
  source.seed = seed + 1;
  FeatureDomainSpec target = source;
  target.mode_shift = -0.04;
  target.seed = seed + 2;
  return {generator.Generate(source), generator.Generate(target)};
}

ClassifierFactory LrFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<LogisticRegression>();
  };
}

TEST(WarmStartTest, ServeAndResumeMatchColdRunExactly) {
  const TransferPair pair = MakePair(91);
  const std::string path = TempPath("warmstart.tera");
  std::remove(path.c_str());
  TransER transer;
  TransferRunOptions options;
  options.seed = 7;
  options.model_snapshot_path = path;

  // Cold run: trains everything, snapshots after GEN and after TCL.
  TransERReport cold_report;
  auto cold = transer.RunWithReport(pair.source,
                                    pair.target.WithoutLabels(),
                                    LrFactory(), options, &cold_report);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold_report.warm_started);

  // Second run finds the complete snapshot and serves from C^V without
  // training; predictions are bit-identical.
  TransERReport serve_report;
  auto served = transer.RunWithReport(pair.source,
                                      pair.target.WithoutLabels(),
                                      LrFactory(), options, &serve_report);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(serve_report.served_from_snapshot);
  EXPECT_TRUE(
      serve_report.diagnostics.HasKind(DegradationKind::kModelWarmStarted));
  EXPECT_EQ(cold.value(), served.value());

  // Strip C^V to emulate a crash between GEN and TCL: the next run
  // resumes at TCL from the stored pseudo labels and still reproduces
  // the cold predictions exactly (TCL re-seeds from the run seed).
  auto snapshot = LoadTransERPipelineState(path);
  ASSERT_TRUE(snapshot.ok());
  TransERPipelineState partial = std::move(snapshot).value();
  partial.classifier_v.reset();
  ASSERT_TRUE(SaveTransERPipelineState(partial, path).ok());

  TransERReport resume_report;
  auto resumed = transer.RunWithReport(pair.source,
                                       pair.target.WithoutLabels(),
                                       LrFactory(), options, &resume_report);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resume_report.warm_started);
  EXPECT_FALSE(resume_report.served_from_snapshot);
  EXPECT_EQ(cold.value(), resumed.value());
  std::remove(path.c_str());
}

TEST(WarmStartTest, IncompatibleSnapshotIsIgnoredWithEvent) {
  const TransferPair pair = MakePair(92);
  const std::string path = TempPath("warmstart_incompat.tera");
  std::remove(path.c_str());
  TransER transer;
  TransferRunOptions options;
  options.seed = 7;
  options.model_snapshot_path = path;

  TransERReport cold_report;
  auto cold = transer.RunWithReport(pair.source,
                                    pair.target.WithoutLabels(),
                                    LrFactory(), options, &cold_report);
  ASSERT_TRUE(cold.ok());

  // A different seed breaks the compatibility contract: the run must
  // retrain (recording the rejection) and match its own cold result.
  TransferRunOptions other_seed = options;
  other_seed.seed = 8;
  TransERReport report;
  auto rerun = transer.RunWithReport(pair.source,
                                     pair.target.WithoutLabels(),
                                     LrFactory(), other_seed, &report);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_FALSE(report.warm_started);
  EXPECT_TRUE(
      report.diagnostics.HasKind(DegradationKind::kModelArtifactRejected));
  std::remove(path.c_str());
}

TEST(WarmStartTest, CorruptSnapshotFallsBackToRetraining) {
  const TransferPair pair = MakePair(93);
  const std::string path = TempPath("warmstart_corrupt.tera");
  std::remove(path.c_str());
  TransER transer;
  TransferRunOptions options;
  options.seed = 11;

  // Reference run with no snapshotting at all.
  auto reference = transer.Run(pair.source, pair.target.WithoutLabels(),
                               LrFactory(), options);
  ASSERT_TRUE(reference.ok());

  // Cold run writes the snapshot; then a byte of it rots.
  options.model_snapshot_path = path;
  TransERReport cold_report;
  ASSERT_TRUE(transer
                  .RunWithReport(pair.source, pair.target.WithoutLabels(),
                                 LrFactory(), options, &cold_report)
                  .ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  ASSERT_TRUE(fault::FlipFileByte(path, bytes.size() / 2).ok());

  TransERReport report;
  auto recovered = transer.RunWithReport(pair.source,
                                         pair.target.WithoutLabels(),
                                         LrFactory(), options, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(report.warm_started);
  EXPECT_TRUE(
      report.diagnostics.HasKind(DegradationKind::kModelArtifactRejected));
  EXPECT_EQ(reference.value(), recovered.value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace transer
