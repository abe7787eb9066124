// The four benchmark workloads. Each builds its inputs from the seed,
// drives the library through its public entry points, checks the
// outputs, and fills a Report with end-to-end metrics (untraced run) or
// per-layer metrics (traced run, RunArgs::trace).
#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

/// RunTransferPipeline (MinHash-LSH blocking, comparison, TransER with a
/// 16-tree random forest) on a clean -> noisy bibliographic problem.
Report RunResolveRecords(const RunArgs& args, SpanLog* spans);

/// TransER::Run on the prebuilt IOS-Bp-Dp -> KIL-Bp-Dp feature space.
Report RunTransferFeatures(const RunArgs& args, SpanLog* spans);

/// Open-loop classify/resolve traffic into ServerCore::HandleFrame.
Report RunServeMixed(const RunArgs& args, SpanLog* spans);

/// Journaled, fsynced StreamIngestor::Ingest of a bibliographic stream.
Report RunIngestStream(const RunArgs& args, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
