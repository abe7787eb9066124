#ifndef TRANSER_KNN_KD_TREE_H_
#define TRANSER_KNN_KD_TREE_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "knn/knn_backend.h"
#include "linalg/matrix.h"
#include "util/execution_context.h"
#include "util/parallel.h"
#include "util/status.h"

namespace transer {

// Neighbour, NeighbourBefore and PushBoundedNeighbour live in
// knn/knn_backend.h (included above) together with the KnnBackend
// interface every index implements.

/// \brief KD-tree over the rows of a feature matrix [Bentley 1975] — the
/// nearest-neighbour index the paper assumes for the SEL phase complexity
/// (Section 4.1). Build is O(n log n) by median splitting; queries are
/// branch-and-bound with a bounded max-heap of candidates.
///
/// Rows are stored in leaf order, so a leaf scan is one contiguous
/// PairwiseSquaredL2 call, and every leaf keeps its tight bounding box.
/// The search carries the query's squared distance to the current cell
/// (Arya & Mount's incremental per-dimension offsets) and skips a far
/// subtree or a leaf box only when that bound exceeds the worst kept
/// distance by more than the kernel's rounding slack, so the answers are
/// bit-identical to BruteForceKnn's (see DESIGN.md §9.1).
class KdTree : public KnnBackend {
 public:
  /// Builds the tree over all rows of `points` (copied). With
  /// `num_threads` != 1 the lower subtrees build in parallel; the
  /// resulting tree is identical to the serial build (the split frontier
  /// is a fixed depth, never a function of the thread count).
  explicit KdTree(const Matrix& points, int num_threads = 1);

  /// Budgeted build: reserves the tree's storage (point copy, order
  /// permutation, nodes) against `context`'s memory budget — released
  /// when the tree is destroyed — and honours its deadline /
  /// cancellation. Returns 'ME' / 'TE' FailedPrecondition instead of
  /// allocating past the budget.
  static Result<KdTree> Create(const Matrix& points,
                               const ExecutionContext& context,
                               const std::string& scope = "kd_tree",
                               RunDiagnostics* diagnostics = nullptr,
                               int num_threads = 1);

  /// Bytes the tree over `points` keeps resident (used for budgeting).
  static size_t StorageBytes(const Matrix& points);

  /// Returns the `k` nearest stored points to `query`, closest first.
  /// Fewer are returned when the tree holds fewer than `k` points.
  /// `skip_index`, when >= 0, excludes that stored row — used to query a
  /// point's neighbourhood within its own data set without itself.
  std::vector<Neighbour> Query(std::span<const double> query, size_t k,
                               ptrdiff_t skip_index = -1) const override;

  /// Query that observes an execution context: returns the TE /
  /// cancellation status instead of scanning once the context expires.
  Result<std::vector<Neighbour>> Query(std::span<const double> query,
                                       size_t k, ptrdiff_t skip_index,
                                       const ExecutionContext& context,
                                       const std::string& scope = "kd_tree")
      const override;

  /// Answers one Query per row of `queries` over the parallel runtime.
  /// Results land in row order, bit-identical at any thread count;
  /// workers poll `context` per chunk. With `skip_self`, query row i
  /// excludes stored row i — the batched form of Query's `skip_index`
  /// for self-neighbourhood scans (queries must be the indexed matrix).
  /// Self scans run in the tree's leaf order, so consecutive queries
  /// walk the same paths and touch the same leaves.
  Result<std::vector<std::vector<Neighbour>>> QueryBatch(
      const Matrix& queries, size_t k, const ExecutionContext& context,
      const std::string& scope = "kd_tree",
      const ParallelOptions& options = {},
      bool skip_self = false) const override;

  std::string backend_name() const override { return "kd_tree"; }
  size_t size() const override { return points_.rows(); }
  size_t dimensions() const override { return points_.cols(); }

 private:
  struct Node {
    size_t split_dim = 0;
    double split_value = 0.0;
    ptrdiff_t left = -1;    ///< node index or -1
    ptrdiff_t right = -1;   ///< node index or -1
    size_t begin = 0;       ///< leaf: range into order_ (and stored rows)
    size_t end = 0;
    size_t box = 0;         ///< leaf: offset of its [lo, hi] box in boxes_
    bool is_leaf = false;
  };

  /// Per-query search state threaded through the recursion.
  struct SearchState;

  /// Splits order_[begin, end) of `points`: picks the widest-spread
  /// dimension, nth_elements the range around its median, and returns
  /// the internal node (children unset). Deterministic per range.
  Node SplitRange(const Matrix& points, size_t begin, size_t end,
                  size_t depth);

  /// Builds the subtree over order_[begin, end) into `arena` (child
  /// indices local to the arena); returns its arena node index.
  ptrdiff_t BuildInto(const Matrix& points, std::vector<Node>* arena,
                      size_t begin, size_t end, size_t depth);

  /// A subtree deferred to the parallel phase of the build.
  struct PendingSubtree {
    size_t begin = 0;
    size_t end = 0;
    size_t depth = 0;
  };

  /// Serial top expansion: splits order_ down to kParallelStopDepth,
  /// registering deeper subtrees in `pending` (child slots encode the
  /// pending index as -2 - i until the splice fixes them up).
  ptrdiff_t ExpandTop(const Matrix& points, size_t begin, size_t end,
                      size_t depth, std::vector<PendingSubtree>* pending);

  /// Fills points_/norms_ (sized by the constructor, before the build, so
  /// the heap sees the same allocation order as a plain row copy) with
  /// the rows of `points` in leaf order and records every leaf's box.
  void StoreLeafOrdered(const Matrix& points);

  /// Branch-and-bound descent; `cell_bound` is the running sum of the
  /// squared per-dimension offsets from the query to the node's cell.
  void Search(ptrdiff_t node_index, double cell_bound,
              SearchState* state) const;

  /// Scans one leaf into the heap unless its box is provably too far.
  void ScanLeaf(const Node& leaf, SearchState* state) const;

  static constexpr size_t kLeafSize = 16;
  /// Depth of the serial/parallel frontier: a constant (never derived
  /// from the thread count), so the split ranges — and therefore the
  /// final order_ permutation and tree geometry — match the serial
  /// build exactly. 2^6 = 64 subtrees is ample lane fan-out.
  static constexpr size_t kParallelStopDepth = 6;

  /// The indexed rows in leaf order: stored row p is input row order_[p].
  Matrix points_;
  /// Cached kernels::SquaredNorm of every stored row, for the
  /// ‖a‖²+‖b‖²−2a·b leaf-scan kernel (see DESIGN.md §9).
  std::vector<double> norms_;
  /// Largest entry of norms_ (+inf if any is NaN): bounds every row's
  /// share of the rounding slack the prune allows for.
  double max_norm_ = 0.0;
  std::vector<size_t> order_;  ///< permutation of row indices
  std::vector<Node> nodes_;
  /// Per leaf, its m per-dimension minima then its m maxima.
  std::vector<double> boxes_;
  ptrdiff_t root_ = -1;
  /// Holds the budget reservation of a Create()d tree (empty for
  /// directly constructed trees); released on destruction.
  ScopedReservation memory_;
};

}  // namespace transer

#endif  // TRANSER_KNN_KD_TREE_H_
