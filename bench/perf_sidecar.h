#ifndef TRANSER_BENCH_PERF_SIDECAR_H_
#define TRANSER_BENCH_PERF_SIDECAR_H_

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.h"

namespace transer {
namespace bench {

/// Schema identity of the kernel perf sidecar. perf_compare refuses to
/// diff sidecars whose schema or version differ — a silent format drift
/// must fail loudly, not produce a bogus comparison.
inline constexpr char kPerfSchema[] = "transer.kernel_perf";
inline constexpr int kPerfSchemaVersion = 1;

/// \brief One measured primitive: ns per operation at a given thread
/// count. `ops_per_sec` is redundant (1e9 / ns_per_op) but kept in the
/// sidecar so humans and plots never re-derive it.
struct PerfEntry {
  std::string name;
  int threads = 1;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
};

/// \brief The full perf report of one micro_primitives run: schema
/// header, the thread count the binary resolved, every measured entry,
/// and free-form numeric extras (speedup ratios).
struct PerfSidecar {
  std::string schema = kPerfSchema;
  int version = kPerfSchemaVersion;
  int threads = 1;
  std::vector<PerfEntry> entries;
  std::vector<std::pair<std::string, double>> extras;

  const PerfEntry* Find(const std::string& name, int entry_threads) const {
    for (const PerfEntry& entry : entries) {
      if (entry.name == name && entry.threads == entry_threads) return &entry;
    }
    return nullptr;
  }
};

/// Writes the sidecar as one compact JSON object. Returns false (with a
/// message on stderr) if the file cannot be written.
inline bool WritePerfSidecar(const std::string& path,
                             const PerfSidecar& sidecar) {
  json::Writer writer;
  writer.BeginObject().Key("schema").String(sidecar.schema)
      .Key("version").Int(sidecar.version).Key("threads").Int(sidecar.threads)
      .Key("entries").BeginArray();
  for (const PerfEntry& entry : sidecar.entries) {
    writer.BeginObject().Key("name").String(entry.name)
        .Key("threads").Int(entry.threads)
        .Key("ns_per_op").Double(entry.ns_per_op)
        .Key("ops_per_sec").Double(entry.ops_per_sec).EndObject();
  }
  writer.EndArray().Key("extra").BeginObject();
  for (const auto& [key, value] : sidecar.extras) writer.Key(key).Double(value);
  writer.EndObject().EndObject();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "%s\n", writer.str().c_str());
  std::fclose(out);
  return true;
}

/// Decodes a sidecar document. Any JSON error or missing/mistyped field
/// is an error; schema/version acceptance is the caller's decision.
inline Status DecodePerfSidecar(std::string_view text, PerfSidecar* sidecar) {
  TRANSER_ASSIGN_OR_RETURN(const json::Value doc, json::Parse(text));
  TRANSER_RETURN_IF_ERROR(doc.Get("schema", &sidecar->schema));
  TRANSER_RETURN_IF_ERROR(doc.Get("version", &sidecar->version));
  TRANSER_RETURN_IF_ERROR(doc.Get("threads", &sidecar->threads));
  TRANSER_ASSIGN_OR_RETURN(
      const json::Value* entries,
      doc.Member("entries", json::Value::Type::kArray));
  TRANSER_ASSIGN_OR_RETURN(const json::Value* extras,
                           doc.Member("extra", json::Value::Type::kObject));
  sidecar->entries.clear();
  for (const json::Value& item : entries->items) {
    PerfEntry entry;
    TRANSER_RETURN_IF_ERROR(item.Get("name", &entry.name));
    TRANSER_RETURN_IF_ERROR(item.Get("threads", &entry.threads));
    TRANSER_RETURN_IF_ERROR(item.Get("ns_per_op", &entry.ns_per_op));
    TRANSER_RETURN_IF_ERROR(item.Get("ops_per_sec", &entry.ops_per_sec));
    sidecar->entries.push_back(std::move(entry));
  }
  sidecar->extras.clear();
  for (size_t i = 0; i < extras->keys.size(); ++i) {
    double value = 0.0;
    TRANSER_RETURN_IF_ERROR(extras->items[i].As(&value));
    sidecar->extras.emplace_back(extras->keys[i], value);
  }
  return Status::OK();
}

/// Reads and decodes the sidecar at `path`. On failure the error string
/// names the file and the problem, and false is returned.
inline bool ReadPerfSidecar(const std::string& path, PerfSidecar* sidecar,
                            std::string* error) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  const Status status = in ? DecodePerfSidecar(content.str(), sidecar)
                           : Status::IoError("cannot open file");
  if (!status.ok()) *error = path + ": " + status.message();
  return status.ok();
}

}  // namespace bench
}  // namespace transer

#endif  // TRANSER_BENCH_PERF_SIDECAR_H_
