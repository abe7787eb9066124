#include "knn/kd_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/kernels.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace transer {

namespace {

/// Per-thread candidate heap and cell offsets reused across queries (the
/// SEL loop issues millions of small queries; one allocation per thread,
/// not per call).
thread_local std::vector<Neighbour> tls_query_heap;
thread_local std::vector<double> tls_offsets;

/// Σ v[d]², recomputed in index order: the rounding of a fresh sum is
/// bounded by its value, unlike a running sum's.
double SumOfSquares(const double* v, size_t n) {
  double sum = 0.0;
  for (size_t d = 0; d < n; ++d) sum += v[d] * v[d];
  return sum;
}

}  // namespace

struct KdTree::SearchState {
  std::span<const double> query;
  double query_norm = 0.0;
  size_t k = 0;
  ptrdiff_t skip_index = -1;
  std::vector<Neighbour>* heap = nullptr;
  /// Per-dimension offset from the query to the current cell: the
  /// distance to the nearest split plane bounding the cell in that
  /// dimension, 0 while the query lies inside the cell's slab.
  double* offsets = nullptr;
  /// This query's rounding slack (derived in Query).
  double slack = 0.0;
  /// worst² + slack once the heap holds k candidates, +inf before. A
  /// region whose computed bound is strictly above it holds no point
  /// that can beat or tie the worst kept neighbour.
  double prune_above = std::numeric_limits<double>::infinity();
};

KdTree::KdTree(const Matrix& points, int num_threads)
    : points_(points.rows(), points.cols()), norms_(points.rows()) {
  order_.resize(points.rows());
  std::iota(order_.begin(), order_.end(), size_t{0});
  nodes_.reserve(2 * order_.size() / kLeafSize + 2);

  const int threads = EffectiveThreadCount(num_threads);
  if (threads <= 1 || order_.size() <= kLeafSize * 4) {
    if (!order_.empty()) {
      root_ = BuildInto(points, &nodes_, 0, order_.size(), 0);
    }
    StoreLeafOrdered(points);
    return;
  }

  // Serial expansion down to a fixed frontier depth, then the pending
  // subtrees build concurrently into private arenas over disjoint
  // order_ ranges. Every nth_element call sees exactly the range the
  // serial build would hand it, so the permutation and geometry are
  // identical to the serial build for any thread count.
  std::vector<PendingSubtree> pending;
  root_ = ExpandTop(points, 0, order_.size(), 0, &pending);

  std::vector<std::vector<Node>> arenas(pending.size());
  std::vector<ptrdiff_t> subtree_roots(pending.size(), -1);
  ParallelOptions build_options;
  build_options.num_threads = threads;
  const Status built = ParallelFor(
      ExecutionContext::Unlimited(), "kd_build", pending.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t i = begin; i < end; ++i) {
          subtree_roots[i] = BuildInto(points, &arenas[i], pending[i].begin,
                                       pending[i].end, pending[i].depth);
        }
        return Status::OK();
      },
      build_options);
  TRANSER_CHECK(built.ok());

  // Splice the arenas in pending order and patch the encoded child
  // slots (-2 - i) left by ExpandTop.
  std::vector<ptrdiff_t> spliced_roots(pending.size(), -1);
  for (size_t i = 0; i < pending.size(); ++i) {
    const ptrdiff_t offset = static_cast<ptrdiff_t>(nodes_.size());
    for (const Node& node : arenas[i]) {
      Node fixed = node;
      if (fixed.left >= 0) fixed.left += offset;
      if (fixed.right >= 0) fixed.right += offset;
      nodes_.push_back(fixed);
    }
    spliced_roots[i] = subtree_roots[i] + offset;
  }
  for (Node& node : nodes_) {
    if (node.left <= -2) node.left = spliced_roots[-2 - node.left];
    if (node.right <= -2) node.right = spliced_roots[-2 - node.right];
  }
  StoreLeafOrdered(points);
}

void KdTree::StoreLeafOrdered(const Matrix& points) {
  const size_t dims = points.cols();
  const size_t leaves = static_cast<size_t>(std::count_if(
      nodes_.begin(), nodes_.end(), [](const Node& n) { return n.is_leaf; }));
  boxes_.resize(leaves * 2 * dims);
  size_t next_box = 0;
  for (Node& leaf : nodes_) {
    if (!leaf.is_leaf) continue;
    for (size_t pos = leaf.begin; pos < leaf.end; ++pos) {
      std::copy_n(points.Row(order_[pos]), dims, points_.Row(pos));
    }
    kernels::SquaredNorms(points_.Row(leaf.begin), leaf.end - leaf.begin,
                          dims, norms_.data() + leaf.begin);
    leaf.box = next_box;
    next_box += 2 * dims;
    double* lo = boxes_.data() + leaf.box;
    double* hi = lo + dims;
    std::copy_n(points_.Row(leaf.begin), dims, lo);
    std::copy_n(points_.Row(leaf.begin), dims, hi);
    for (size_t pos = leaf.begin + 1; pos < leaf.end; ++pos) {
      const double* row = points_.Row(pos);
      for (size_t d = 0; d < dims; ++d) {
        lo[d] = std::min(lo[d], row[d]);
        hi[d] = std::max(hi[d], row[d]);
      }
    }
  }

  // A NaN row disables pruning (an infinite slack) rather than being
  // skipped by std::max.
  for (const double norm : norms_) {
    max_norm_ = std::isnan(norm) ? std::numeric_limits<double>::infinity()
                                 : std::max(max_norm_, norm);
  }
}

size_t KdTree::StorageBytes(const Matrix& points) {
  const size_t n = points.rows();
  // Leaves hold at least kLeafSize / 2 rows once the root splits.
  const size_t max_leaves = n / (kLeafSize / 2) + 1;
  return n * points.cols() * sizeof(double)  // leaf-ordered point copy
         + n * sizeof(double)                // cached squared norms
         + n * sizeof(size_t)                // order permutation
         + (2 * n / kLeafSize + 2) * sizeof(Node)
         + max_leaves * 2 * points.cols() * sizeof(double);  // leaf boxes
}

Result<KdTree> KdTree::Create(const Matrix& points,
                              const ExecutionContext& context,
                              const std::string& scope,
                              RunDiagnostics* diagnostics, int num_threads) {
  TRANSER_RETURN_IF_ERROR(context.Check(scope, diagnostics));
  ScopedReservation reservation;
  TRANSER_RETURN_IF_ERROR(reservation.Acquire(context, scope,
                                              StorageBytes(points),
                                              diagnostics));
  KdTree tree(points, num_threads);
  tree.memory_ = std::move(reservation);
  return tree;
}

KdTree::Node KdTree::SplitRange(const Matrix& points, size_t begin,
                                size_t end, size_t depth) {
  // Pick the dimension with the largest spread for balanced splits.
  const size_t dims = points.cols();
  size_t best_dim = depth % dims;
  double best_spread = -1.0;
  for (size_t d = 0; d < dims; ++d) {
    double lo = points(order_[begin], d);
    double hi = lo;
    for (size_t i = begin + 1; i < end; ++i) {
      const double v = points(order_[i], d);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_dim = d;
    }
  }

  const size_t mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + static_cast<ptrdiff_t>(begin),
                   order_.begin() + static_cast<ptrdiff_t>(mid),
                   order_.begin() + static_cast<ptrdiff_t>(end),
                   [&points, best_dim](size_t a, size_t b) {
                     return points(a, best_dim) < points(b, best_dim);
                   });

  Node node;
  node.split_dim = best_dim;
  node.split_value = points(order_[mid], best_dim);
  return node;
}

ptrdiff_t KdTree::BuildInto(const Matrix& points, std::vector<Node>* arena,
                            size_t begin, size_t end, size_t depth) {
  if (end - begin <= kLeafSize) {
    Node node;
    node.is_leaf = true;
    node.begin = begin;
    node.end = end;
    arena->push_back(node);
    return static_cast<ptrdiff_t>(arena->size() - 1);
  }

  arena->push_back(SplitRange(points, begin, end, depth));
  const ptrdiff_t index = static_cast<ptrdiff_t>(arena->size() - 1);
  const size_t mid = begin + (end - begin) / 2;
  const ptrdiff_t left = BuildInto(points, arena, begin, mid, depth + 1);
  const ptrdiff_t right = BuildInto(points, arena, mid, end, depth + 1);
  (*arena)[static_cast<size_t>(index)].left = left;
  (*arena)[static_cast<size_t>(index)].right = right;
  return index;
}

ptrdiff_t KdTree::ExpandTop(const Matrix& points, size_t begin, size_t end,
                            size_t depth,
                            std::vector<PendingSubtree>* pending) {
  if (end - begin <= kLeafSize) {
    return BuildInto(points, &nodes_, begin, end, depth);
  }
  if (depth >= kParallelStopDepth) {
    pending->push_back(PendingSubtree{begin, end, depth});
    return -2 - static_cast<ptrdiff_t>(pending->size() - 1);
  }
  // Split exactly as BuildInto would, deferring the children to the
  // parallel phase.
  nodes_.push_back(SplitRange(points, begin, end, depth));
  const ptrdiff_t index = static_cast<ptrdiff_t>(nodes_.size() - 1);
  const size_t mid = begin + (end - begin) / 2;
  const ptrdiff_t left = ExpandTop(points, begin, mid, depth + 1, pending);
  const ptrdiff_t right = ExpandTop(points, mid, end, depth + 1, pending);
  nodes_[static_cast<size_t>(index)].left = left;
  nodes_[static_cast<size_t>(index)].right = right;
  return index;
}

void KdTree::Search(ptrdiff_t node_index, double cell_bound,
                    SearchState* state) const {
  const Node& node = nodes_[static_cast<size_t>(node_index)];
  if (node.is_leaf) {
    ScanLeaf(node, state);
    return;
  }

  const size_t dim = node.split_dim;
  const double delta = state->query[dim] - node.split_value;
  const ptrdiff_t near = delta <= 0.0 ? node.left : node.right;
  const ptrdiff_t far = delta <= 0.0 ? node.right : node.left;
  Search(near, cell_bound, state);

  // Every far-side row lies at least |delta| from the query in `dim`, and
  // the cell's offset there only grows on the way down, so the far cell's
  // bound swaps the old offset for delta (Arya & Mount). The running sum
  // decides cheaply to visit; a prune is confirmed on a fresh sum, whose
  // rounding the slack covers (see Query).
  const double old = state->offsets[dim];
  state->offsets[dim] = delta;
  const double far_bound = cell_bound - old * old + delta * delta;
  const bool prune =
      far_bound > state->prune_above &&
      SumOfSquares(state->offsets, points_.cols()) > state->prune_above;
  if (!prune) Search(far, far_bound, state);
  state->offsets[dim] = old;
}

void KdTree::ScanLeaf(const Node& leaf, SearchState* state) const {
  const size_t dims = points_.cols();
  const double* query = state->query.data();
  if (state->heap->size() == state->k) {
    const double* lo = boxes_.data() + leaf.box;
    const double* hi = lo + dims;
    double box_bound = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      const double gap = query[d] < lo[d]   ? lo[d] - query[d]
                         : query[d] > hi[d] ? query[d] - hi[d]
                                            : 0.0;
      box_bound += gap * gap;
    }
    if (box_bound > state->prune_above) return;
  }

  // The leaf's rows are contiguous, so one pairwise-kernel call gives
  // their squared distances — the same per-pair computation as the
  // brute-force paths. Leaves hold <= kLeafSize rows.
  const size_t count = leaf.end - leaf.begin;
  double dist_sq[kLeafSize];
  kernels::PairwiseSquaredL2(query, 1, &state->query_norm,
                             points_.Row(leaf.begin), count,
                             norms_.data() + leaf.begin, dims, dist_sq);
  for (size_t i = 0; i < count; ++i) {
    const size_t row = order_[leaf.begin + i];
    if (static_cast<ptrdiff_t>(row) == state->skip_index) continue;
    PushBoundedNeighbour(state->heap, state->k,
                         Neighbour{row, std::sqrt(dist_sq[i])});
  }
  if (state->heap->size() == state->k) {
    const double worst = state->heap->front().distance;
    state->prune_above = worst * worst + state->slack;
  }
}

std::vector<Neighbour> KdTree::Query(std::span<const double> query, size_t k,
                                     ptrdiff_t skip_index) const {
  TRANSER_CHECK_EQ(query.size(), points_.cols());
  if (root_ < 0 || k == 0) return {};
  std::vector<Neighbour>& heap = tls_query_heap;
  heap.clear();
  heap.reserve(k + 1);
  const size_t dims = points_.cols();
  std::vector<double>& offsets = tls_offsets;
  offsets.assign(dims, 0.0);

  SearchState state;
  state.query = query;
  state.query_norm = kernels::SquaredNorm(query);
  state.k = k;
  state.skip_index = skip_index;
  state.heap = &heap;
  state.offsets = offsets.data();
  // Rounding slack. Let u = 2^-53 (DBL_EPSILON = 2u), m = dims and
  // S = ‖q‖² + max‖p‖². For a row p at true squared distance D² ≤ 2S:
  //  (1) the kernel's x = (‖q‖² + ‖p‖²) − 2q·p rounds three length-m
  //      sums (each off by at most γ_m ≈ mu of its absolute sum), one
  //      add and one subtract of values ≤ 2S: |x − D²| ≤ (2m+4)u·S;
  //  (2) a bound B = Σ o_d² over once-rounded offsets o_d is off by at
  //      most γ_{m+2} relative, and its exact value is ≤ D² ≤ 2S for any
  //      row of the (non-empty) region: |B − exact| ≤ (2m+5)u·S;
  //  (3) the heap keeps w = fl(√y); x can only enter if fl(√x) ≤ w,
  //      which x > fl(w·w)·(1+4u) rules out, so the worst side costs
  //      4u·2S plus rounding ≤ 9u·S, and adding slack to fl(w·w)
  //      rounds once more, ≤ 3u·S.
  // Total (4m+21)u·S < (2m+11)·DBL_EPSILON·S; one more ε·S covers the
  // rounding of S and of this product. So a region with computed bound
  // B > fl(w·w) + slack holds no row that beats or ties w — ties at the
  // worst distance are always scanned, and the (distance, index) order
  // of the result equals the brute-force scan's.
  state.slack = (2.0 * static_cast<double>(dims) + 12.0) *
                std::numeric_limits<double>::epsilon() *
                (state.query_norm + max_norm_);
  Search(root_, 0.0, &state);
  std::sort_heap(heap.begin(), heap.end(), NeighbourBefore);
  return std::vector<Neighbour>(heap.begin(), heap.end());
}

Result<std::vector<Neighbour>> KdTree::Query(std::span<const double> query,
                                             size_t k, ptrdiff_t skip_index,
                                             const ExecutionContext& context,
                                             const std::string& scope) const {
  TRANSER_RETURN_IF_ERROR(context.Check(scope));
  return Query(query, k, skip_index);
}

Result<std::vector<std::vector<Neighbour>>> KdTree::QueryBatch(
    const Matrix& queries, size_t k, const ExecutionContext& context,
    const std::string& scope, const ParallelOptions& options,
    bool skip_self) const {
  if (skip_self) TRANSER_CHECK_EQ(queries.rows(), points_.rows());
  std::vector<std::vector<Neighbour>> results(queries.rows());
  ParallelOptions chunk_options = options;
  chunk_options.min_items_per_chunk =
      std::max<size_t>(chunk_options.min_items_per_chunk, 16);
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, scope, queries.rows(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t pos = begin; pos < end; ++pos) {
          // A self scan answers the rows in leaf order, so consecutive
          // queries walk the same paths and scan the same leaves; each
          // answer still lands in its own row's slot. Other batches keep
          // row order: sorting them by home leaf was about 7% faster on
          // transfer_features but raised its peak RSS by about 10 MB.
          const size_t i = skip_self ? order_[pos] : pos;
          results[i] = Query(
              std::span<const double>(queries.Row(i), queries.cols()), k,
              skip_self ? static_cast<ptrdiff_t>(i) : ptrdiff_t{-1});
        }
        return Status::OK();
      },
      chunk_options));
  return results;
}

}  // namespace transer
