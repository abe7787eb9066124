// Shared plumbing of the end-to-end benchmark driver: run arguments, the
// metric report every workload fills, wall/CPU clocks, percentiles, and
// the span recorder of the traced run.
#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Worker lanes for every parallel region of the library (pinned, never
/// the hardware default), and the total thread budget of a run.
inline constexpr int kThreads = 4;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory owned by this run
};

/// What one workload run hands back to main(): accounting, the output
/// checks, and the metrics it measured (end-to-end or per-layer,
/// depending on RunArgs::trace).
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> check_failures;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Deterministic counters: identical across runs with the same seed.
  std::map<std::string, std::string> counters;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Count(const std::string& name, uint64_t value);
  void CountText(const std::string& name, const std::string& value) {
    counters[name] = value;
  }
  /// Records a failed output check; the run then reports correct=false.
  void Fail(const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

/// Monotonic seconds.
double NowSeconds();
/// User + system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds();
/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Times `setup` `repeats` times and returns the median wall seconds;
/// the state of the last call is what the workload keeps.
double MedianSetupSeconds(int repeats, const std::function<void()>& setup);

/// \brief In-memory span log of the traced run: one span per call into a
/// layer, with its parent, wall interval and process-CPU delta. Spans
/// are written out once, when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;  ///< seconds since the log was created
    double end = 0.0;
    double cpu_s = 0.0;
    double cpu_start = 0.0;
  };

  SpanLog();
  /// Opens a span; returns its id.
  int Begin(const std::string& name, int parent = -1);
  void End(int id);
  /// Opens+closes a span around `fn`, returning its wall seconds.
  double Time(const std::string& name, int parent,
              const std::function<void()>& fn);

  const Span& span(int id) const { return spans_[static_cast<size_t>(id)]; }
  double Seconds(int id) const { return span(id).end - span(id).start; }
  /// Wall seconds of the span minus the part its children cover.
  double SelfSeconds(int id) const;
  /// JSON lines, one per span, with its self time.
  std::string ToJsonLines(const std::string& workload) const;

 private:
  double origin_ = 0.0;
  std::vector<Span> spans_;
};

/// Formats a double with all its digits (round-trips exactly).
std::string FormatDouble(double value);

/// Removes `path` and everything below it; missing paths are fine.
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
