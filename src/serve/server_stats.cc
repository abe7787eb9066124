#include "serve/server_stats.h"

#include "util/json.h"

namespace transer {
namespace serve {

std::string StatsSnapshot::ToJson() const {
  json::Writer writer;
  writer.BeginObject().Key("ready").Bool(ready).Key("draining").Bool(draining)
      .Key("received").Uint(received).Key("served_full").Uint(served_full)
      .Key("served_degraded").Uint(served_degraded).Key("shed").Uint(shed)
      .Key("rejected").Uint(rejected).Key("malformed").Uint(malformed)
      .Key("active_requests").Uint(active_requests)
      .Key("latency_samples").Uint(latency_samples)
      .Key("p50_ms").Double(p50_ms).Key("p99_ms").Double(p99_ms)
      .Key("models").Uint(models).Key("refreshes").Uint(refreshes)
      .Key("load_retries").Uint(load_retries)
      .Key("quarantined").Uint(quarantined)
      .Key("knn_backend").String(knn_backend)
      .Key("ann_models").Uint(ann_models).Key("ann_points").Uint(ann_points)
      .Key("ann_edges").Uint(ann_edges).EndObject();
  return writer.str();
}

double ServerStats::BucketUpperMs(size_t i) {
  // 1, 2, 4, ... 1024 ms; the last bucket absorbs everything slower.
  return static_cast<double>(uint64_t{1} << i);
}

void ServerStats::RecordLatencyMs(double milliseconds) {
  size_t bucket = 0;
  while (bucket + 1 < kLatencyBuckets &&
         milliseconds >= BucketUpperMs(bucket)) {
    ++bucket;
  }
  latency_buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

StatsSnapshot ServerStats::Snapshot() const {
  StatsSnapshot snapshot;
  snapshot.received = received_.load(std::memory_order_relaxed);
  snapshot.served_full = served_full_.load(std::memory_order_relaxed);
  snapshot.served_degraded = served_degraded_.load(std::memory_order_relaxed);
  snapshot.shed = shed_.load(std::memory_order_relaxed);
  snapshot.rejected = rejected_.load(std::memory_order_relaxed);
  snapshot.malformed = malformed_.load(std::memory_order_relaxed);

  std::array<uint64_t, kLatencyBuckets> buckets;
  uint64_t total = 0;
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    buckets[i] = latency_buckets_[i].load(std::memory_order_relaxed);
    total += buckets[i];
  }
  snapshot.latency_samples = total;
  auto percentile = [&](double p) -> double {
    if (total == 0) return 0.0;
    const uint64_t rank =
        static_cast<uint64_t>(p * static_cast<double>(total - 1)) + 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kLatencyBuckets; ++i) {
      seen += buckets[i];
      if (seen >= rank) return BucketUpperMs(i);
    }
    return BucketUpperMs(kLatencyBuckets - 1);
  };
  snapshot.p50_ms = percentile(0.50);
  snapshot.p99_ms = percentile(0.99);
  return snapshot;
}

}  // namespace serve
}  // namespace transer
