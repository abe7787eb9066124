#ifndef TRANSER_BLOCKING_MINHASH_LSH_H_
#define TRANSER_BLOCKING_MINHASH_LSH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "features/feature_matrix.h"
#include "util/execution_context.h"
#include "util/parallel.h"
#include "util/status.h"

namespace transer {

/// \brief Options for MinHash-LSH blocking.
struct MinHashLshOptions {
  size_t num_bands = 8;        ///< LSH bands
  size_t rows_per_band = 4;    ///< minhash rows per band
  size_t shingle_q = 3;        ///< character shingle length
  /// Attribute indices to shingle; empty = all attributes.
  std::vector<size_t> attributes;
  uint64_t seed = 42;
  /// Buckets larger than this (per side) are skipped.
  size_t max_bucket_size = 500;
};

/// \brief The paper's blocking step (Section 5.1.1): records are shingled
/// into character q-gram sets, min-hashed, and banded so records with
/// similar attribute values collide in at least one band bucket with high
/// probability (LSH for Jaccard similarity).
class MinHashLshBlocker {
 public:
  explicit MinHashLshBlocker(MinHashLshOptions options = {});

  /// Returns deduplicated candidate pairs between `left` and `right`.
  std::vector<PairRef> Block(const Dataset& left, const Dataset& right) const;

  /// Context-observing variant: min-hashes the records over the parallel
  /// runtime on `num_threads` lanes (0 = process default), checking the
  /// deadline / cancellation per chunk of records there and per band
  /// while bucketing, and reserves the signature storage against the
  /// memory budget. The pairs and their order are the same for every
  /// thread count.
  Result<std::vector<PairRef>> Block(const Dataset& left,
                                     const Dataset& right,
                                     const ExecutionContext& context,
                                     RunDiagnostics* diagnostics = nullptr,
                                     int num_threads = 0) const;

  /// The minhash signature of one record (num_bands*rows_per_band values);
  /// exposed for tests of the LSH property.
  std::vector<uint64_t> Signature(const Record& record) const;

 private:
  /// Writes the signature of `record` into `out` (one value per row).
  void SignatureInto(const Record& record, std::span<uint64_t> out) const;

  /// Signatures of every record of `dataset`, record-major.
  Status Signatures(const Dataset& dataset, const ExecutionContext& context,
                    const ParallelOptions& options,
                    std::vector<uint64_t>* out) const;

  MinHashLshOptions options_;
  std::vector<uint64_t> hash_seeds_;  ///< one per minhash row
};

}  // namespace transer

#endif  // TRANSER_BLOCKING_MINHASH_LSH_H_
