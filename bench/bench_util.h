#ifndef TRANSER_BENCH_BENCH_UTIL_H_
#define TRANSER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "util/build_info.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace transer {
namespace bench {

/// \brief Tiny --key=value flag parser shared by the bench binaries.
/// Every flag the binary understands must be named in `allowed`; any
/// other argument (a typo, a positional, a stray -x) exits with code 2
/// instead of being silently ignored — a mistyped --time-limit must not
/// quietly run unlimited. `--version` is handled here so every bench
/// binary reports its build identity uniformly.
class Flags {
 public:
  Flags(int argc, char** argv,
        std::initializer_list<const char*> allowed) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
    for (const char* name : allowed) allowed_.emplace_back(name);
    for (const auto& arg : args_) {
      if (arg == "--version") {
        std::printf("%s\n",
                    FormatVersion(argc > 0 ? argv[0] : "bench").c_str());
        std::exit(0);
      }
      if (!StartsWith(arg, "--")) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      const size_t eq = arg.find('=');
      const std::string name =
          arg.substr(2, eq == std::string::npos ? eq : eq - 2);
      bool known = false;
      for (const auto& candidate : allowed_) known |= candidate == name;
      if (!known) {
        std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
        std::exit(2);
      }
    }
  }

  double GetDouble(const std::string& name, double fallback) const {
    const std::string* raw = Find(name);
    double value = fallback;
    if (raw != nullptr && !ParseDouble(*raw, &value)) {
      std::fprintf(stderr, "bad value for --%s: %s\n", name.c_str(),
                   raw->c_str());
      std::exit(2);
    }
    return value;
  }

  int64_t GetInt(const std::string& name, int64_t fallback) const {
    const std::string* raw = Find(name);
    int64_t value = fallback;
    if (raw != nullptr && !ParseInt64(*raw, &value)) {
      std::fprintf(stderr, "bad value for --%s: %s\n", name.c_str(),
                   raw->c_str());
      std::exit(2);
    }
    return value;
  }

  bool GetBool(const std::string& name, bool fallback) const {
    const std::string* raw = Find(name);
    if (raw == nullptr) return fallback;
    return *raw != "false" && *raw != "0";
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    const std::string* raw = Find(name);
    return raw != nullptr ? *raw : fallback;
  }

 private:
  const std::string* Find(const std::string& name) const {
    const std::string prefix = "--" + name + "=";
    for (const auto& arg : args_) {
      if (StartsWith(arg, prefix)) {
        static thread_local std::string value;
        value = arg.substr(prefix.size());
        return &value;
      }
      if (arg == "--" + name) {
        static thread_local std::string truthy = "true";
        return &truthy;
      }
    }
    return nullptr;
  }

  std::vector<std::string> args_;
  std::vector<std::string> allowed_;
};

/// Reads --threads (default 0 = hardware width), installs it as the
/// process-wide default lane count, and returns the resolved value.
/// Every binary taking this flag produces bit-identical tables at any
/// --threads value; only wall time changes.
inline int ConfigureThreads(const Flags& flags) {
  const int64_t threads = flags.GetInt("threads", 0);
  if (threads < 0) {
    std::fprintf(stderr, "--threads=%lld is invalid: must be >= 0\n",
                 static_cast<long long>(threads));
    std::exit(2);
  }
  SetDefaultThreadCount(static_cast<int>(threads));
  return DefaultThreadCount();
}

/// \brief Machine-readable run report of one bench binary, written to
/// BENCH_<name>.json in the working directory: per-stage wall time, the
/// thread count the binary ran with, and free-form numeric extras (e.g.
/// speedup_vs_1_thread). Consumed by scripts; the human-readable table
/// stays on stdout.
class BenchReport {
 public:
  BenchReport(std::string name, int threads)
      : name_(std::move(name)), threads_(threads) {}

  void AddStage(const std::string& stage, double seconds) {
    stages_.emplace_back(stage, seconds);
  }

  void AddExtra(const std::string& key, double value) {
    extras_.emplace_back(key, value);
  }

  /// Writes BENCH_<name>.json. A write failure warns on stderr but never
  /// fails the bench — the JSON sidecar is an artefact, not the result.
  void Write() const {
    json::Writer writer;
    writer.BeginObject().Key("name").String(name_).Key("threads").Int(threads_)
        .Key("stages").BeginArray();
    for (const auto& [stage, seconds] : stages_) {
      writer.BeginObject().Key("stage").String(stage)
          .Key("seconds").Double(seconds).EndObject();
    }
    writer.EndArray().Key("extra").BeginObject();
    for (const auto& [key, value] : extras_) writer.Key(key).Double(value);
    writer.EndObject().EndObject();
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(out, "%s\n", writer.str().c_str());
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  int threads_;
  std::vector<std::pair<std::string, double>> stages_;
  std::vector<std::pair<std::string, double>> extras_;
};

}  // namespace bench
}  // namespace transer

#endif  // TRANSER_BENCH_BENCH_UTIL_H_
