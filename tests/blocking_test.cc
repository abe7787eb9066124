#include <set>

#include <gtest/gtest.h>

#include "blocking/minhash_lsh.h"
#include "data/bibliographic_generator.h"

namespace transer {
namespace {

Schema TwoAttrSchema() {
  return Schema({{"name", "jaro_winkler"}, {"city", "jaro_winkler"}});
}

LinkageProblem SmallProblem() {
  LinkageProblem problem;
  problem.left = Dataset("l", TwoAttrSchema());
  problem.right = Dataset("r", TwoAttrSchema());
  problem.left.Add({"l0", 0, {"alice smith", "portree"}});
  problem.left.Add({"l1", 1, {"bob jones", "glasgow"}});
  problem.left.Add({"l2", 2, {"carol brown", "portree"}});
  problem.right.Add({"r0", 0, {"alice smith", "portree"}});
  problem.right.Add({"r1", 3, {"zed quux", "aberdeen"}});
  problem.right.Add({"r2", 2, {"carol browne", "portree"}});
  return problem;
}

std::set<std::pair<size_t, size_t>> ToSet(const std::vector<PairRef>& pairs) {
  std::set<std::pair<size_t, size_t>> out;
  for (const auto& pair : pairs) {
    out.insert({pair.left_index, pair.right_index});
  }
  return out;
}

// ---------- MinHash LSH ----------

TEST(MinHashLshTest, SignatureIsDeterministicAndSized) {
  MinHashLshOptions options;
  options.num_bands = 4;
  options.rows_per_band = 3;
  MinHashLshBlocker blocker(options);
  Record record{"r", 0, {"entity resolution survey", "portree"}};
  const auto sig1 = blocker.Signature(record);
  const auto sig2 = blocker.Signature(record);
  EXPECT_EQ(sig1.size(), 12u);
  EXPECT_EQ(sig1, sig2);
}

TEST(MinHashLshTest, IdenticalRecordsShareAllSignatureRows) {
  MinHashLshBlocker blocker;
  Record a{"a", 0, {"the quick brown fox", "x"}};
  Record b{"b", 1, {"the quick brown fox", "x"}};
  EXPECT_EQ(blocker.Signature(a), blocker.Signature(b));
}

TEST(MinHashLshTest, SimilarRecordsShareMoreRowsThanDissimilar) {
  MinHashLshOptions options;
  options.num_bands = 16;
  options.rows_per_band = 2;
  MinHashLshBlocker blocker(options);
  Record base{"a", 0, {"efficient entity resolution methods", "portree"}};
  Record close_record{"b", 1,
                {"efficient entity resolution method", "portree"}};
  Record far{"c", 2, {"completely different topic", "aberdeen"}};
  const auto sig_base = blocker.Signature(base);
  const auto sig_close = blocker.Signature(close_record);
  const auto sig_far = blocker.Signature(far);
  size_t close_agree = 0, far_agree = 0;
  for (size_t i = 0; i < sig_base.size(); ++i) {
    close_agree += sig_base[i] == sig_close[i] ? 1 : 0;
    far_agree += sig_base[i] == sig_far[i] ? 1 : 0;
  }
  EXPECT_GT(close_agree, far_agree);
}

TEST(MinHashLshTest, BlocksFindTrueMatchesWithHighRecall) {
  BibliographicOptions gen_options;
  gen_options.num_entities = 300;
  gen_options.right_corruption.typo_probability = 0.3;
  const LinkageProblem problem = GenerateBibliographic(gen_options);

  MinHashLshBlocker blocker;
  const auto pairs = blocker.Block(problem.left, problem.right);
  size_t found_matches = 0;
  for (const auto& pair : pairs) {
    if (problem.left.record(pair.left_index).entity_id ==
        problem.right.record(pair.right_index).entity_id) {
      ++found_matches;
    }
  }
  const size_t total_matches = problem.CountTrueMatches();
  // LSH blocking must retain the vast majority of true matches while
  // pruning most of the |L| x |R| comparison space.
  EXPECT_GT(static_cast<double>(found_matches) /
                static_cast<double>(total_matches),
            0.9);
  EXPECT_LT(pairs.size(), problem.left.size() * problem.right.size() / 4);
}

TEST(MinHashLshTest, PairsAreDeduplicated) {
  const LinkageProblem problem = SmallProblem();
  MinHashLshBlocker blocker;
  const auto pairs = blocker.Block(problem.left, problem.right);
  const auto unique = ToSet(pairs);
  EXPECT_EQ(unique.size(), pairs.size());
}

TEST(MinHashLshTest, AttributeSubsetRestrictsShingles) {
  MinHashLshOptions options;
  options.attributes = {1};  // only the city attribute
  MinHashLshBlocker blocker(options);
  Record a{"a", 0, {"totally different title", "portree"}};
  Record b{"b", 1, {"another unrelated title!", "portree"}};
  EXPECT_EQ(blocker.Signature(a), blocker.Signature(b));
}

TEST(MinHashLshTest, PairsAndTheirOrderAreThreadInvariant) {
  BibliographicOptions gen_options;
  gen_options.num_entities = 600;
  gen_options.right_corruption.typo_probability = 0.3;
  gen_options.right_corruption.missing_probability = 0.1;
  const LinkageProblem problem = GenerateBibliographic(gen_options);
  MinHashLshBlocker blocker;
  const std::vector<PairRef> plain =
      blocker.Block(problem.left, problem.right);
  ASSERT_GT(plain.size(), problem.left.size() / 2);
  for (int threads : {1, 2, 8}) {
    auto pairs = blocker.Block(problem.left, problem.right,
                               ExecutionContext::Unlimited(),
                               /*diagnostics=*/nullptr, threads);
    ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
    ASSERT_EQ(pairs.value().size(), plain.size()) << "threads " << threads;
    for (size_t i = 0; i < plain.size(); ++i) {
      ASSERT_EQ(pairs.value()[i].left_index, plain[i].left_index)
          << "threads " << threads << " pair " << i;
      ASSERT_EQ(pairs.value()[i].right_index, plain[i].right_index)
          << "threads " << threads << " pair " << i;
    }
  }
}

}  // namespace
}  // namespace transer
