// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir D
//
// Runs one workload (resolve_records, transfer_features, serve_mixed,
// ingest_stream), prints a human-readable summary and the deterministic
// counters to stderr, the traced run's spans as JSON lines to stderr,
// and as the last line of stdout one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..},"counters":{..}}
// perfbench/run.py builds this binary and reshapes that line into the
// benchmark's result contract.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "util/parallel.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               message);
  return 2;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.work_dir.empty()) return Usage("--work-dir is required");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");
  std::filesystem::create_directories(args.work_dir);

  // Every parallel region of the library runs on exactly kThreads lanes.
  transer::SetDefaultThreadCount(kThreads);

  SpanLog spans;
  Report report;
  if (args.workload == "resolve_records") {
    report = RunResolveRecords(args, &spans);
  } else if (args.workload == "transfer_features") {
    report = RunTransferFeatures(args, &spans);
  } else if (args.workload == "serve_mixed") {
    report = RunServeMixed(args, &spans);
  } else if (args.workload == "ingest_stream") {
    report = RunIngestStream(args, &spans);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (!args.trace) report.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (report.attempted == 0) report.Fail("no operation was attempted");

  std::fprintf(stderr, "workload %s seed %llu: attempted %llu failed %llu\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed));
  for (const auto& failure : report.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  for (const auto& [name, metric] : report.metrics) {
    std::fprintf(stderr, "  %-28s %14.6f %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  for (const auto& [name, value] : report.counters) {
    std::fprintf(stderr, "  counter %-20s %s\n", name.c_str(), value.c_str());
  }
  if (args.trace) {
    std::fputs(spans.ToJsonLines(args.workload).c_str(), stderr);
  }

  std::string line = "{\"correct\":";
  line += report.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(report.attempted);
  line += ",\"failed\":" + std::to_string(report.failed);
  line += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    if (!first) line += ",";
    first = false;
    line += JsonString(name) + ":{\"value\":" + FormatDouble(metric.value) +
            ",\"unit\":" + JsonString(metric.unit) + "}";
  }
  line += "},\"counters\":{";
  first = true;
  for (const auto& [name, value] : report.counters) {
    if (!first) line += ",";
    first = false;
    line += JsonString(name) + ":" + JsonString(value);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
