#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "util/artifact_io.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace transer {
namespace {

// ---------- CRC-32 ----------

// The bytewise CRC-32 that artifact::Crc32 replaced: one 256-entry
// table lookup per byte over the reflected 0xEDB88320 polynomial. Kept
// here, not in src/, as the reference the fast path must equal.
uint32_t BytewiseCrc32(const uint8_t* data, size_t size) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesTheCheckValue) {
  EXPECT_EQ(artifact::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(artifact::Crc32(nullptr, 0), 0u);
  EXPECT_EQ(artifact::Crc32("", 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(20051);
  std::vector<uint8_t> buffer(4096 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextUint64());
  for (size_t start = 0; start < 8; ++start) {
    const uint8_t* data = buffer.data() + start;
    for (size_t length = 0; length <= 4096; ++length) {
      ASSERT_EQ(artifact::Crc32(data, length), BytewiseCrc32(data, length))
          << "start " << start << " length " << length;
    }
  }
}

// ---------- Status ----------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: k must be positive");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::OutOfRange("").code(),      Status::FailedPrecondition("").code(),
      Status::Internal("").code(),        Status::IoError("").code(),
  };
  EXPECT_EQ(codes.size(), 6u);
}

TEST(ResultTest, HoldsValueOnSuccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsStatusOnFailure) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, WorksWithoutDefaultConstructibleTypes) {
  struct NoDefault {
    explicit NoDefault(int v) : value(v) {}
    int value;
  };
  Result<NoDefault> r(NoDefault(7));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value, 7);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextUint64() != b.NextUint64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextUint64BelowRespectsBound) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64Below(17), 17u);
  }
}

TEST(RngTest, NextIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextInt(3, 6));
  EXPECT_EQ(seen, (std::set<int>{3, 4, 5, 6}));
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(8);
  const int n = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(9);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(10);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(11);
  const auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(12);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(14);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng rng(15);
  Rng forked = rng.Fork(1);
  // The fork should not replay the parent's sequence.
  bool any_diff = false;
  Rng parent_copy(15);
  parent_copy.NextUint64();  // consume what Fork consumed
  for (int i = 0; i < 8; ++i) {
    if (forked.NextUint64() != parent_copy.NextUint64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ---------- string_util ----------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  const std::vector<std::string> parts = {"alpha", "beta", "gamma"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello world \t\n"), "hello world");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, CaseConversions) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
  EXPECT_EQ(ToUpper("MiXeD 123"), "MIXED 123");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("transfer", "trans"));
  EXPECT_FALSE(StartsWith("trans", "transfer"));
  EXPECT_TRUE(EndsWith("linkage", "age"));
  EXPECT_FALSE(EndsWith("age", "linkage"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("no hits", "x", "y"), "no hits");
  EXPECT_EQ(ReplaceAll("abab", "ab", "c"), "cc");
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
}

TEST(StringUtilTest, ParseDoubleAcceptsAndRejects) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
  // Underflow is not an error: subnormals are finite values and parse
  // exactly. Overflow to infinity is rejected.
  EXPECT_TRUE(ParseDouble("1e-310", &v));
  EXPECT_EQ(v, 1e-310);
  EXPECT_TRUE(ParseDouble("2.2250738585072009e-308", &v));
  EXPECT_EQ(v, std::numeric_limits<double>::min() -
                   std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(ParseDouble("4.9406564584124654e-324", &v));
  EXPECT_EQ(v, std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(ParseDouble("-4.9406564584124654e-324", &v));
  EXPECT_EQ(v, -std::numeric_limits<double>::denorm_min());
  EXPECT_FALSE(ParseDouble("1e400", &v));
  EXPECT_FALSE(ParseDouble("-1e400", &v));
}

TEST(StringUtilTest, ParseInt64AcceptsAndRejects) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("4.2", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

// ---------- Csv ----------

TEST(CsvTest, ParsesSimpleTable) {
  auto table = Csv::Parse("a,b\n1,2\n3,4\n", /*has_header=*/true);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table.value().rows.size(), 2u);
  EXPECT_EQ(table.value().rows[1],
            (std::vector<std::string>{"3", "4"}));
}

TEST(CsvTest, HandlesQuotedFields) {
  auto table =
      Csv::Parse("\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n",
                 /*has_header=*/false);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.value().rows.size(), 1u);
  EXPECT_EQ(table.value().rows[0][0], "x,y");
  EXPECT_EQ(table.value().rows[0][1], "he said \"hi\"");
  EXPECT_EQ(table.value().rows[0][2], "line\nbreak");
}

TEST(CsvTest, ToleratesCrlfAndMissingTrailingNewline) {
  auto table = Csv::Parse("a,b\r\n1,2", /*has_header=*/true);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.value().rows.size(), 1u);
  EXPECT_EQ(table.value().rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  auto table = Csv::Parse("\"open", /*has_header=*/false);
  EXPECT_FALSE(table.ok());
}

TEST(CsvTest, SerializeParseRoundTrip) {
  CsvTable table;
  table.header = {"name", "note"};
  table.rows = {{"a,b", "with \"quotes\""}, {"plain", "multi\nline"}};
  auto parsed = Csv::Parse(Csv::Serialize(table), /*has_header=*/true);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().header, table.header);
  EXPECT_EQ(parsed.value().rows, table.rows);
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable table;
  table.header = {"x"};
  table.rows = {{"1"}, {"2"}};
  const std::string path = testing::TempDir() + "/transer_csv_test.csv";
  ASSERT_TRUE(Csv::WriteFile(path, table).ok());
  auto loaded = Csv::ReadFile(path, /*has_header=*/true);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().rows, table.rows);
}

TEST(CsvTest, ReadMissingFileFails) {
  auto loaded = Csv::ReadFile("/nonexistent/definitely_missing.csv", true);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// ---------- Json ----------

std::string WriteString(const std::string& text) {
  json::Writer writer;
  return writer.String(text).str();
}

void ExpectNoRawControlBytes(const std::string& text) {
  for (const char c : text) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "in " << text;
  }
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// A sidecar in the multi-line layout older writers produced, and a sweep
// journal line as the journal has always written it.
const char kSampleSidecar[] =
    "{\"schema\":\"transer.kernel_perf\",\"version\":1,\"threads\":1,\n"
    "\"entries\":[\n"
    "{\"name\":\"ann.batch.brute_force\",\"threads\":1,"
    "\"ns_per_op\":3.9891e+06,\"ops_per_sec\":250.683},\n"
    "{\"name\":\"ann.batch.kd_tree\",\"threads\":1,"
    "\"ns_per_op\":1.1681e+07,\"ops_per_sec\":85.6089}\n"
    "],\n"
    "\"extra\":{\"ann_recall\":0.994336,\"ann_effective_ef\":116}}";
const char kSampleJournalLine[] =
    "{\"method\":\"transer\",\"scenario\":\"A -> B\",\"classifier\":\"svm\","
    "\"seed\":12033,\"failure\":\"\",\"precision\":0.33333333333333331,"
    "\"recall\":0.875,\"f1\":0.2857142857142857,"
    "\"f_star\":0.12345678901234568,\"runtime_seconds\":0.0015}";

TEST(JsonTest, WriterIsCompactAndKeepsKeyOrder) {
  json::Writer writer;
  writer.BeginObject()
      .Key("z").Int(-7)
      .Key("a").BeginArray().Bool(true).Bool(false).Uint(18446744073709551615u)
      .Double(0.5).BeginObject().EndObject().BeginArray().EndArray()
      .EndArray()
      .Key("s").String("x\"y\\z/")
      .EndObject();
  EXPECT_EQ(writer.str(),
            "{\"z\":-7,\"a\":[true,false,18446744073709551615,0.5,{},[]],"
            "\"s\":\"x\\\"y\\\\z/\"}");
}

TEST(JsonTest, EverySingleByteRoundTrips) {
  for (int byte = 0; byte < 256; ++byte) {
    const std::string text(1, static_cast<char>(byte));
    const std::string written = WriteString(text);
    ExpectNoRawControlBytes(written);
    auto parsed = json::Parse(written);
    ASSERT_TRUE(parsed.ok()) << byte << ": " << parsed.status().ToString();
    std::string back;
    ASSERT_TRUE(parsed.value().As(&back).ok());
    EXPECT_EQ(back, text) << "byte " << byte;
  }
  EXPECT_EQ(WriteString("a\x01" "b"), "\"a\\u0001b\"");
  EXPECT_EQ(WriteString("\n\t"), "\"\\n\\t\"");
}

TEST(JsonTest, RandomByteStringsRoundTrip) {
  Rng rng(20261018);
  for (int trial = 0; trial < 500; ++trial) {
    std::string text(rng.NextUint64Below(64), '\0');
    for (char& c : text) c = static_cast<char>(rng.NextUint64Below(256));
    const std::string written = WriteString(text);
    ExpectNoRawControlBytes(written);
    auto parsed = json::Parse(written);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    std::string back;
    ASSERT_TRUE(parsed.value().As(&back).ok());
    EXPECT_EQ(back, text);
  }
}

TEST(JsonTest, DoublesRoundTripBitExactly) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0 / 3.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::min() / 3.0,
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max()};
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t bits = rng.NextUint64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) values.push_back(value);
  }
  for (int i = 0; i < 2000; ++i) {  // subnormals: exponent bits all zero
    const uint64_t bits = rng.NextUint64() & 0x800FFFFFFFFFFFFFull;
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    values.push_back(value);
  }
  for (const double value : values) {
    json::Writer writer;
    auto parsed = json::Parse(writer.Double(value).str());
    ASSERT_TRUE(parsed.ok()) << writer.str();
    double back = 1.0;
    ASSERT_TRUE(parsed.value().As(&back).ok()) << writer.str();
    EXPECT_EQ(Bits(back), Bits(value)) << writer.str();
  }
}

TEST(JsonTest, NonFiniteDoublesAreWrittenAsNull) {
  json::Writer writer;
  writer.BeginArray()
      .Double(std::numeric_limits<double>::quiet_NaN())
      .Double(std::numeric_limits<double>::infinity())
      .Double(-std::numeric_limits<double>::infinity())
      .EndArray();
  EXPECT_EQ(writer.str(), "[null,null,null]");
  auto parsed = json::Parse(writer.str());
  ASSERT_TRUE(parsed.ok());
  for (const json::Value& item : parsed.value().items) {
    double value = 0.0;
    ASSERT_TRUE(item.As(&value).ok());
    EXPECT_TRUE(std::isnan(value));
  }
}

TEST(JsonTest, IntegersReadBackExactlyAndInRange) {
  json::Writer writer;
  writer.BeginObject()
      .Key("big").Uint(uint64_t{1} << 63)
      .Key("max").Uint(std::numeric_limits<uint64_t>::max())
      .Key("min").Int(std::numeric_limits<int64_t>::min())
      .Key("frac").Double(1.5)
      .EndObject();
  auto parsed = json::Parse(writer.str());
  ASSERT_TRUE(parsed.ok());
  const json::Value& doc = parsed.value();
  uint64_t u = 0;
  int64_t i = 0;
  int narrow = 0;
  ASSERT_TRUE(doc.Get("big", &u).ok());
  EXPECT_EQ(u, uint64_t{1} << 63);
  ASSERT_TRUE(doc.Get("max", &u).ok());
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  ASSERT_TRUE(doc.Get("min", &i).ok());
  EXPECT_EQ(i, std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(doc.Get("big", &i).ok());     // past int64
  EXPECT_FALSE(doc.Get("max", &narrow).ok());  // past int
  EXPECT_FALSE(doc.Get("min", &u).ok());     // negative
  EXPECT_FALSE(doc.Get("frac", &i).ok());    // not an integer
}

TEST(JsonTest, TypedLookupsReportMissingAndWrongTypes) {
  auto parsed = json::Parse(kSampleSidecar);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value& doc = parsed.value();
  std::string schema;
  ASSERT_TRUE(doc.Get("schema", &schema).ok());
  EXPECT_EQ(schema, "transer.kernel_perf");
  auto entries = doc.Member("entries", json::Value::Type::kArray);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value()->items.size(), 2u);
  double ns = 0.0;
  ASSERT_TRUE(entries.value()->items[1].Get("ns_per_op", &ns).ok());
  EXPECT_EQ(ns, 1.1681e+07);
  auto extra = doc.Member("extra", json::Value::Type::kObject);
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(extra.value()->keys,
            (std::vector<std::string>{"ann_recall", "ann_effective_ef"}));

  int64_t version = 0;
  EXPECT_EQ(doc.Get("missing", &schema).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(doc.Get("schema", &version).ok());
  EXPECT_FALSE(doc.Get("version", &schema).ok());
  EXPECT_FALSE(doc.Member("entries", json::Value::Type::kObject).ok());
  EXPECT_FALSE(doc.Member("schema", json::Value::Type::kArray).ok());
  EXPECT_FALSE(entries.value()->Get("name", &schema).ok());  // not an object
}

TEST(JsonTest, ParseIsStrict) {
  for (const char* good :
       {"{}", "[]", " {\"a\" : [ 1 , -0.5e+3 , true , null ] }\r\n", "0",
        "-0", "1E5", "\"\\/\\b\\f\\u00e9\\uD83D\\uDE00\""}) {
    EXPECT_TRUE(json::Parse(good).ok()) << good;
  }
  auto text = json::Parse("\"\\u00e9\\ud83d\\ude00\"");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value().text, "\xc3\xa9\xf0\x9f\x98\x80");
  for (const char* bad :
       {"", " ", "{", "}", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "{a:1}",
        "{'a':1}", "[1 2]", "01", "-", "1.", ".5", "+1", "1e", "1e+",
        "0x10", "NaN", "Infinity", "-Infinity", "tru", "nul", "True",
        "\"abc", "\"\\x\"", "\"\\u12\"", "\"\\ud800\"", "\"\\udc00\"",
        "\"\\ud800\\u0041\"", "\"a\tb\"", "\"a\nb\"", "{} x", "[] []",
        "{\"a\":1}}"}) {
    EXPECT_FALSE(json::Parse(bad).ok()) << bad;
  }
  // Numbers keep their token; a number read as a double that overflows
  // is an error, not infinity.
  auto huge = json::Parse("1e400");
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge.value().text, "1e400");
  double value = 0.0;
  EXPECT_FALSE(huge.value().As(&value).ok());
}

TEST(JsonTest, EveryPrefixOfADocumentIsAnError) {
  for (const std::string document : {kSampleSidecar, kSampleJournalLine}) {
    ASSERT_TRUE(json::Parse(document).ok());
    for (size_t length = 0; length < document.size(); ++length) {
      EXPECT_FALSE(json::Parse(document.substr(0, length)).ok())
          << "prefix of length " << length;
    }
  }
}

TEST(JsonTest, ByteFlipsNeverCrash) {
  size_t parsed_ok = 0;
  for (const std::string document : {kSampleSidecar, kSampleJournalLine}) {
    for (size_t offset = 0; offset < document.size(); ++offset) {
      for (const unsigned char mask : {0x01, 0x20, 0x80, 0xFF}) {
        std::string flipped = document;
        flipped[offset] = static_cast<char>(flipped[offset] ^ mask);
        auto parsed = json::Parse(flipped);
        if (!parsed.ok()) continue;
        ++parsed_ok;
        std::string schema;
        (void)parsed.value().Get("schema", &schema);
      }
    }
  }
  EXPECT_GT(parsed_ok, 0u);  // e.g. a flipped digit is still a document
}

TEST(JsonTest, NestingPastTheDepthCapIsAnError) {
  const auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_TRUE(json::Parse(nested(json::kMaxDepth)).ok());
  EXPECT_FALSE(json::Parse(nested(json::kMaxDepth + 1)).ok());
  EXPECT_FALSE(json::Parse(std::string(100000, '[')).ok());
  std::string objects;
  for (int i = 0; i <= json::kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(json::kMaxDepth + 1, '}');
  EXPECT_FALSE(json::Parse(objects).ok());
}

// ---------- Stopwatch ----------

TEST(StopwatchTest, ElapsedIsMonotonicNonNegative) {
  Stopwatch sw;
  const double a = sw.ElapsedSeconds();
  const double b = sw.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_NEAR(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1000.0, 50.0);
}

}  // namespace
}  // namespace transer
