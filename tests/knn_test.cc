#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "knn/brute_force.h"
#include "knn/kd_tree.h"
#include "linalg/kernels.h"
#include "util/random.h"

namespace transer {
namespace {

Matrix RandomPoints(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Matrix points(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) points(i, d) = rng.NextDouble();
  }
  return points;
}

TEST(KdTreeTest, FindsExactPoint) {
  Matrix points = {{0.0, 0.0}, {1.0, 1.0}, {0.5, 0.5}};
  KdTree tree(points);
  const auto result = tree.Query(std::vector<double>{1.0, 1.0}, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].index, 1u);
  EXPECT_DOUBLE_EQ(result[0].distance, 0.0);
}

TEST(KdTreeTest, ReturnsSortedByDistance) {
  Matrix points = RandomPoints(200, 3, 31);
  KdTree tree(points);
  const std::vector<double> query = {0.3, 0.7, 0.5};
  const auto result = tree.Query(query, 10);
  ASSERT_EQ(result.size(), 10u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].distance, result[i].distance);
  }
}

TEST(KdTreeTest, SkipIndexExcludesSelf) {
  Matrix points = {{0.1, 0.1}, {0.1, 0.1}, {0.9, 0.9}};
  KdTree tree(points);
  const auto result =
      tree.Query(std::vector<double>{0.1, 0.1}, 2, /*skip_index=*/0);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_NE(result[0].index, 0u);
  EXPECT_NE(result[1].index, 0u);
}

TEST(KdTreeTest, KLargerThanDataReturnsAll) {
  Matrix points = RandomPoints(5, 2, 32);
  KdTree tree(points);
  const auto result = tree.Query(std::vector<double>{0.5, 0.5}, 50);
  EXPECT_EQ(result.size(), 5u);
}

TEST(KdTreeTest, EmptyTreeAndZeroK) {
  Matrix none(0, 2);
  KdTree tree(none);
  EXPECT_TRUE(tree.Query(std::vector<double>{0.5, 0.5}, 3).empty());
  Matrix some = RandomPoints(10, 2, 33);
  KdTree tree2(some);
  EXPECT_TRUE(tree2.Query(std::vector<double>{0.5, 0.5}, 0).empty());
}

TEST(KdTreeTest, HandlesDuplicatePoints) {
  Matrix points(64, 2, 0.5);  // all identical
  KdTree tree(points);
  const auto result = tree.Query(std::vector<double>{0.5, 0.5}, 7);
  EXPECT_EQ(result.size(), 7u);
  for (const auto& nb : result) EXPECT_DOUBLE_EQ(nb.distance, 0.0);
}

// Property: KD-tree agrees with brute force on sizes, dims and k. A
// non-zero `levels` quantises every coordinate to j / levels, so many
// rows coincide and many distances tie: the (distance, index) order must
// still match bit for bit.
struct KnnCase {
  size_t n;
  size_t dims;
  size_t k;
  uint64_t seed;
  size_t levels = 0;
};

/// Coordinate draw of a sweep case: continuous, or quantised to
/// j / levels for j in [0, levels].
double SweepValue(const KnnCase& param, Rng& rng) {
  if (param.levels == 0) return rng.NextDouble();
  return static_cast<double>(rng.NextUint64Below(param.levels + 1)) /
         static_cast<double>(param.levels);
}

Matrix SweepPoints(const KnnCase& param) {
  Rng rng(param.seed);
  Matrix points(param.n, param.dims);
  for (size_t i = 0; i < param.n; ++i) {
    for (size_t d = 0; d < param.dims; ++d) {
      points(i, d) = SweepValue(param, rng);
    }
  }
  return points;
}

void ExpectSameNeighbours(const std::vector<Neighbour>& actual,
                          const std::vector<Neighbour>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].index, expected[i].index) << "rank " << i;
    EXPECT_EQ(actual[i].distance, expected[i].distance) << "rank " << i;
  }
}

class KdTreeEquivalenceTest : public ::testing::TestWithParam<KnnCase> {};

TEST_P(KdTreeEquivalenceTest, MatchesBruteForce) {
  const KnnCase param = GetParam();
  const Matrix points = SweepPoints(param);
  KdTree tree(points);
  BruteForceKnn brute(points);
  Rng rng(param.seed + 1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> query(param.dims);
    for (double& v : query) v = SweepValue(param, rng);
    const ptrdiff_t skip =
        trial % 3 == 0 ? static_cast<ptrdiff_t>(
                             rng.NextUint64Below(param.n))
                       : -1;
    // Both backends rank by (distance, index) over the same per-pair
    // kernel, so even tied answers agree exactly.
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameNeighbours(tree.Query(query, param.k, skip),
                         brute.Query(query, param.k, skip));
  }
}

TEST_P(KdTreeEquivalenceTest, SelfQueriesMatchBruteForceExactly) {
  const KnnCase param = GetParam();
  const Matrix points = SweepPoints(param);
  const KdTree tree(points);
  const BruteForceKnn brute(points);
  std::vector<std::vector<Neighbour>> expected(param.n);
  for (size_t i = 0; i < param.n; ++i) {
    const std::span<const double> row(points.Row(i), param.dims);
    expected[i] = brute.Query(row, param.k, static_cast<ptrdiff_t>(i));
    SCOPED_TRACE("row " + std::to_string(i));
    ExpectSameNeighbours(tree.Query(row, param.k, static_cast<ptrdiff_t>(i)),
                         expected[i]);
  }
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ParallelOptions options;
    options.num_threads = threads;
    const auto batch =
        tree.QueryBatch(points, param.k, ExecutionContext::Unlimited(),
                        "test", options, /*skip_self=*/true);
    ASSERT_TRUE(batch.ok());
    for (size_t i = 0; i < param.n; ++i) {
      SCOPED_TRACE("row " + std::to_string(i));
      ExpectSameNeighbours(batch.value()[i], expected[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeEquivalenceTest,
    ::testing::Values(KnnCase{50, 2, 5, 41}, KnnCase{500, 4, 7, 42},
                      KnnCase{1000, 8, 3, 43}, KnnCase{300, 11, 10, 44},
                      KnnCase{17, 1, 17, 45}, KnnCase{2000, 5, 1, 46},
                      KnnCase{4000, 4, 7, 7, 10},
                      KnnCase{4000, 4, 7, 7, 20}));

// Reference for the bounded-heap Query: compute every distance with the
// same pairwise kernel, sort all n by (distance, index), take k. The
// heap rewrite must reproduce this exactly — ties included.
std::vector<Neighbour> FullSortTopK(const Matrix& points,
                                    std::span<const double> query, size_t k,
                                    ptrdiff_t skip_index) {
  std::vector<double> norms(points.rows());
  kernels::SquaredNorms(points.rows() > 0 ? points.Row(0) : nullptr,
                        points.rows(), points.cols(), norms.data());
  const double query_norm = kernels::SquaredNorm(query);
  std::vector<Neighbour> all;
  for (size_t row = 0; row < points.rows(); ++row) {
    if (static_cast<ptrdiff_t>(row) == skip_index) continue;
    const std::span<const double> p(points.Row(row), points.cols());
    all.push_back(Neighbour{
        row, std::sqrt(kernels::PairSquaredL2(query, query_norm, p,
                                              norms[row]))});
  }
  std::sort(all.begin(), all.end(), NeighbourBefore);
  all.resize(std::min(k, all.size()));
  return all;
}

TEST(BruteForceTest, HeapQueryMatchesFullSortIncludingTies) {
  // A 5x5 integer grid replicated 3x: every query distance is massively
  // tied, so any heap mistake in tie ordering shows up immediately.
  Matrix points(75, 2);
  for (size_t copy = 0; copy < 3; ++copy) {
    for (size_t i = 0; i < 25; ++i) {
      points(copy * 25 + i, 0) = static_cast<double>(i % 5);
      points(copy * 25 + i, 1) = static_cast<double>(i / 5);
    }
  }
  const BruteForceKnn brute(points);
  Rng rng(91);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> query = {static_cast<double>(rng.NextUint64Below(5)),
                                 static_cast<double>(rng.NextUint64Below(5))};
    const size_t k = 1 + rng.NextUint64Below(75);
    const ptrdiff_t skip =
        trial % 2 == 0
            ? static_cast<ptrdiff_t>(rng.NextUint64Below(points.rows()))
            : -1;
    const auto expected = FullSortTopK(points, query, k, skip);
    const auto actual = brute.Query(query, k, skip);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].index, expected[i].index) << "trial " << trial;
      EXPECT_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

TEST(BruteForceTest, HeapQueryMatchesFullSortOnRandomData) {
  const Matrix points = RandomPoints(600, 5, 92);
  const BruteForceKnn brute(points);
  Rng rng(93);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> query(5);
    for (double& v : query) v = rng.NextDouble();
    const size_t k = 1 + rng.NextUint64Below(40);
    const auto expected = FullSortTopK(points, query, k, -1);
    const auto actual = brute.Query(query, k);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].index, expected[i].index);
      EXPECT_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

TEST(QueryBatchTest, SkipSelfMatchesPerRowQueryWithSkipIndex) {
  const Matrix points = RandomPoints(250, 4, 94);
  const BruteForceKnn brute(points);
  const KdTree tree(points);
  const ExecutionContext& context = ExecutionContext::Unlimited();
  const auto batch_brute = brute.QueryBatch(points, 6, context, "test", {},
                                            /*skip_self=*/true);
  const auto batch_tree = tree.QueryBatch(points, 6, context, "test", {},
                                          /*skip_self=*/true);
  ASSERT_TRUE(batch_brute.ok());
  ASSERT_TRUE(batch_tree.ok());
  for (size_t i = 0; i < points.rows(); ++i) {
    const std::span<const double> row(points.Row(i), points.cols());
    const auto single =
        brute.Query(row, 6, static_cast<ptrdiff_t>(i));
    ASSERT_EQ(batch_brute.value()[i].size(), single.size());
    for (size_t j = 0; j < single.size(); ++j) {
      EXPECT_NE(batch_brute.value()[i][j].index, i);
      EXPECT_EQ(batch_brute.value()[i][j].index, single[j].index);
      EXPECT_EQ(batch_brute.value()[i][j].distance, single[j].distance);
      EXPECT_EQ(batch_tree.value()[i][j].index, single[j].index);
      EXPECT_EQ(batch_tree.value()[i][j].distance, single[j].distance);
    }
  }
}

}  // namespace
}  // namespace transer
