#ifndef TRANSER_STREAM_INCREMENTAL_BLOCKING_H_
#define TRANSER_STREAM_INCREMENTAL_BLOCKING_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/record.h"

namespace transer {
namespace stream {

/// \brief Options for the incremental blocking index.
struct IncrementalBlockingOptions {
  /// Attribute whose value derives the blocking key.
  size_t key_attribute = 0;
  /// Key length: the key is the first `prefix_length` bytes of the key
  /// attribute's value, each ASCII-lower-cased, with no other
  /// normalisation.
  size_t prefix_length = 3;
  /// Blocks past this size stop emitting candidate pairs. A key shared by
  /// thousands of records does not discriminate between them, and every
  /// insert into its block would be compared against all earlier members,
  /// making ingest cost quadratic in the block size.
  size_t max_block_size = 256;
};

/// \brief Key-equality blocking for a record stream: records are inserted
/// one at a time and each insert returns the candidate partners the new
/// record must be compared against, the earlier records with the same
/// key. This is the long-lived index the ingest loop owns. Inserts are
/// deterministic in insert order, which is the replay-determinism
/// requirement (DESIGN.md §11).
class IncrementalBlockingIndex {
 public:
  explicit IncrementalBlockingIndex(IncrementalBlockingOptions options = {})
      : options_(options) {}

  /// The blocking key of `record` (lower-cased attribute prefix; records
  /// missing the key attribute key as the empty string).
  std::string KeyOf(const Record& record) const;

  /// Inserts the record under index `record_index` and returns the
  /// indices of previously inserted records in the same block, ascending.
  /// Once the block exceeds max_block_size the record is still inserted
  /// (the block keeps counting) but no candidates are emitted.
  std::vector<size_t> InsertAndCollect(size_t record_index,
                                       const Record& record);

  size_t size() const { return inserted_; }
  size_t block_count() const { return blocks_.size(); }
  /// Inserts whose block was over the cap (no candidates emitted).
  size_t suppressed_inserts() const { return suppressed_; }

  /// FNV-1a digest of the full index state for the bit-identity checks:
  /// every key in key order, each followed by its member indices in
  /// insert order. Two indices fed the same inserts digest equal.
  uint64_t Digest() const;

 private:
  IncrementalBlockingOptions options_;
  /// std::map, not unordered: Digest() iterates in key order so the
  /// digest is a pure function of the content.
  std::map<std::string, std::vector<size_t>> blocks_;
  size_t inserted_ = 0;
  size_t suppressed_ = 0;
};

}  // namespace stream
}  // namespace transer

#endif  // TRANSER_STREAM_INCREMENTAL_BLOCKING_H_
