#include "knn/neighbourhood.h"

#include <span>

#include "linalg/covariance.h"
#include "linalg/kernels.h"

namespace transer {

void NeighbourhoodCentroidInto(const Matrix& points,
                               const std::vector<Neighbour>& neighbours,
                               std::vector<double>* centroid) {
  centroid->assign(points.cols(), 0.0);
  if (neighbours.empty()) return;
  for (const auto& nb : neighbours) {
    kernels::AddInPlace(
        *centroid,
        std::span<const double>(points.Row(nb.index), points.cols()));
  }
  kernels::ScaleInPlace(
      *centroid, 1.0 / static_cast<double>(neighbours.size()));
}

Matrix NeighbourhoodCovariance(const Matrix& points,
                               const std::vector<Neighbour>& neighbours) {
  std::vector<size_t> rows;
  rows.reserve(neighbours.size());
  for (const auto& nb : neighbours) rows.push_back(nb.index);
  return SampleCovarianceOfRows(points, rows);
}

}  // namespace transer
