#ifndef TRANSER_KNN_NEIGHBOURHOOD_H_
#define TRANSER_KNN_NEIGHBOURHOOD_H_

#include <vector>

#include "knn/knn_backend.h"
#include "linalg/matrix.h"

namespace transer {

/// \brief Mean of the neighbour rows of `points`, accumulated into the
/// caller-owned `centroid` scratch (resized to points.cols()).
///
/// SEL computes two of these per source instance, so the scratch reuse
/// removes the phase's dominant small-allocation churn. Accumulation is
/// element-wise in neighbour order followed by one scale — bit-identical
/// to ColumnMeans over the same rows.
void NeighbourhoodCentroidInto(const Matrix& points,
                               const std::vector<Neighbour>& neighbours,
                               std::vector<double>* centroid);

/// Sample covariance of the neighbour rows of `points` (TransER's sim_v
/// filter and LocIT's local distributions).
Matrix NeighbourhoodCovariance(const Matrix& points,
                               const std::vector<Neighbour>& neighbours);

}  // namespace transer

#endif  // TRANSER_KNN_NEIGHBOURHOOD_H_
