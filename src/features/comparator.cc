#include "features/comparator.h"

#include <algorithm>

#include "text/similarity_registry.h"
#include "util/logging.h"

namespace transer {

namespace {

/// Profile of record `index` in record-major `profiles`.
std::span<const PreparedValue> ProfileAt(
    const std::vector<PreparedValue>& profiles, size_t index, size_t width) {
  return std::span<const PreparedValue>(profiles).subspan(index * width,
                                                          width);
}

}  // namespace

Result<PairComparator> PairComparator::Create(const Schema& left_schema,
                                              const Schema& right_schema,
                                              ComparatorOptions options) {
  if (!left_schema.CompatibleWith(right_schema)) {
    return Status::InvalidArgument(
        "left and right schemas are not feature-space compatible");
  }
  std::vector<std::string> names;
  std::vector<PreparedSimilarity> similarities;
  names.reserve(left_schema.size());
  similarities.reserve(left_schema.size());
  for (const auto& attr : left_schema.attributes()) {
    auto similarity =
        SimilarityRegistry::Global().LookupPrepared(attr.similarity);
    if (!similarity.ok()) return similarity.status();
    names.push_back(attr.name + ":" + attr.similarity);
    similarities.push_back(std::move(similarity.value()));
  }
  return PairComparator(std::move(names), std::move(similarities), options);
}

void PairComparator::PrepareRecord(const Record& record,
                                   std::span<PreparedValue> out) const {
  TRANSER_CHECK_EQ(record.values.size(), similarities_.size());
  TRANSER_CHECK_EQ(out.size(), similarities_.size());
  for (size_t q = 0; q < similarities_.size(); ++q) {
    std::string normalized =
        NormalizeValue(record.values[q], options_.normalize);
    // A missing value is never scored, so it needs no derived forms.
    const PrepareSpec spec = normalized.empty() ? PrepareSpec{}
                                                : similarities_[q].spec;
    out[q] = PreparedValue(std::move(normalized), spec);
  }
}

void PairComparator::CompareProfiles(std::span<const PreparedValue> left,
                                     std::span<const PreparedValue> right,
                                     std::span<double> out) const {
  TRANSER_CHECK_EQ(left.size(), similarities_.size());
  TRANSER_CHECK_EQ(right.size(), similarities_.size());
  TRANSER_CHECK_EQ(out.size(), similarities_.size());
  for (size_t q = 0; q < similarities_.size(); ++q) {
    if (left[q].text().empty() || right[q].text().empty()) {
      out[q] = options_.missing_value_similarity;
    } else {
      out[q] = similarities_[q].score(left[q], right[q]);
    }
  }
}

std::vector<double> PairComparator::Compare(const Record& left,
                                            const Record& right) const {
  std::vector<PreparedValue> profiles(2 * similarities_.size());
  const std::span<PreparedValue> all(profiles);
  PrepareRecord(left, all.first(similarities_.size()));
  PrepareRecord(right, all.last(similarities_.size()));
  std::vector<double> features(similarities_.size(), 0.0);
  CompareProfiles(all.first(similarities_.size()),
                  all.last(similarities_.size()), features);
  return features;
}

FeatureMatrix PairComparator::CompareAll(
    const Dataset& left, const Dataset& right,
    const std::vector<PairRef>& pairs) const {
  // The unlimited context never interrupts and the fill body never
  // fails, so the parallel overload's status is always OK here.
  auto out = CompareAll(left, right, pairs, ExecutionContext::Unlimited(),
                        ParallelOptions{});
  TRANSER_CHECK(out.ok());
  return std::move(out.value());
}

Result<std::vector<PreparedValue>> PairComparator::PrepareDataset(
    const Dataset& dataset, const ExecutionContext& context,
    const ParallelOptions& options) const {
  const size_t width = similarities_.size();
  std::vector<PreparedValue> profiles(dataset.size() * width);
  ParallelOptions chunk_options = options;
  chunk_options.min_items_per_chunk =
      std::max<size_t>(chunk_options.min_items_per_chunk, 16);
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "compare", dataset.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t i = begin; i < end; ++i) {
          PrepareRecord(dataset.record(i),
                        std::span<PreparedValue>(profiles).subspan(
                            i * width, width));
        }
        return Status::OK();
      },
      chunk_options));
  return profiles;
}

Result<FeatureMatrix> PairComparator::CompareAll(
    const Dataset& left, const Dataset& right,
    const std::vector<PairRef>& pairs, const ExecutionContext& context,
    const ParallelOptions& options) const {
  const size_t width = similarities_.size();
  TRANSER_ASSIGN_OR_RETURN(const std::vector<PreparedValue> left_profiles,
                           PrepareDataset(left, context, options));
  TRANSER_ASSIGN_OR_RETURN(const std::vector<PreparedValue> right_profiles,
                           PrepareDataset(right, context, options));
  FeatureMatrix out(feature_names_);
  out.Resize(pairs.size());
  ParallelOptions chunk_options = options;
  chunk_options.min_items_per_chunk =
      std::max<size_t>(chunk_options.min_items_per_chunk, 64);
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "compare", pairs.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t i = begin; i < end; ++i) {
          const PairRef& pair = pairs[i];
          const Record& l = left.record(pair.left_index);
          const Record& r = right.record(pair.right_index);
          CompareProfiles(ProfileAt(left_profiles, pair.left_index, width),
                          ProfileAt(right_profiles, pair.right_index, width),
                          out.MutableRow(i));
          out.set_label(i, (l.entity_id >= 0 && l.entity_id == r.entity_id)
                               ? kMatch
                               : kNonMatch);
          out.set_pair(i, pair);
        }
        return Status::OK();
      },
      chunk_options));
  return out;
}

}  // namespace transer
