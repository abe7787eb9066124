#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>

namespace perfbench {

void Report::Count(const std::string& name, uint64_t value) {
  counters[name] = std::to_string(value);
}

void Report::Fail(const std::string& what) {
  correct = false;
  check_failures.push_back(what);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double MedianSetupSeconds(int repeats, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const double start = NowSeconds();
    setup();
    times.push_back(NowSeconds() - start);
  }
  return Median(times);
}

SpanLog::SpanLog() : origin_(NowSeconds()) {}

int SpanLog::Begin(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.cpu_start = ProcessCpuSeconds();
  span.start = NowSeconds() - origin_;
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = NowSeconds() - origin_;
  span.cpu_s = ProcessCpuSeconds() - span.cpu_start;
}

double SpanLog::Time(const std::string& name, int parent,
                     const std::function<void()>& fn) {
  const int id = Begin(name, parent);
  fn();
  End(id);
  return Seconds(id);
}

double SpanLog::SelfSeconds(int id) const {
  double children = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == id) children += span.end - span.start;
  }
  return Seconds(id) - children;
}

std::string SpanLog::ToJsonLines(const std::string& workload) const {
  std::string out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"workload\":\"%s\",\"id\":%zu,\"name\":\"%s\","
                  "\"parent\":%d,\"start_s\":%.6f,\"end_s\":%.6f,"
                  "\"self_s\":%.6f,\"cpu_s\":%.6f}\n",
                  workload.c_str(), i, span.name.c_str(), span.parent,
                  span.start, span.end, SelfSeconds(static_cast<int>(i)),
                  span.cpu_s);
    out += line;
  }
  return out;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void RemoveTree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace perfbench
