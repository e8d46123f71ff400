#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef RG_PERFBENCH_BUILD_TYPE
#define RG_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef RG_PERFBENCH_CXX_FLAGS
#define RG_PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef RG_PERFBENCH_COMPILER
#define RG_PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

}  // namespace

double process_cpu_s() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

double thread_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void sleep_until_ns(std::uint64_t deadline_ns) noexcept {
  const std::uint64_t now = now_ns();
  if (deadline_ns <= now) return;
  // steady_clock is CLOCK_MONOTONIC on Linux; a relative sleep from a
  // fresh reading avoids mixing clock epochs.
  const std::uint64_t wait = deadline_ns - now;
  timespec ts{static_cast<time_t>(wait / 1'000'000'000ULL),
              static_cast<long>(wait % 1'000'000'000ULL)};
  while (nanosleep(&ts, &ts) != 0) {
  }
}

CpuStat read_cpu_stat() {
  CpuStat out;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return out;
  // user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already inside user/nice, so it is not added again.
  std::uint64_t v[8] = {};
  for (std::uint64_t& x : v) {
    if (!(in >> x)) return out;
  }
  for (const std::uint64_t x : v) out.total += x;
  out.steal = v[7];
  return out;
}

double steal_pct(const CpuStat& before, const CpuStat& after) noexcept {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

Samples::Samples(std::size_t capacity) : buf_(std::max<std::size_t>(capacity, 1), 0.0) {}

void Samples::add(double v) noexcept {
  ++seen_;
  if (size_ < buf_.size()) {
    buf_[size_++] = v;
    return;
  }
  // Reservoir sampling (Algorithm R) with a splitmix64 stream.
  rng_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = rng_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const std::uint64_t j = z % seen_;
  if (j < buf_.size()) buf_[j] = v;
}

double Samples::quantile(double q) const {
  return perfbench::quantile(values(), q);
}

std::vector<double> Samples::values() const {
  return std::vector<double>(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(size_));
}

std::vector<double> SpanLog::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"parent\":\"" << s.parent << "\",\"id\":" << s.id
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(os);
}

void write_spans(const Options& opts, const SpanLog& spans) {
  const std::string path =
      opts.work_dir + "/spans-" + opts.workload + "-" + std::to_string(opts.seed) + ".jsonl";
  if (!make_dirs(opts.work_dir) || !spans.write(path)) {
    std::printf("# spans not written: %s\n", path.c_str());
  }
}

void RunResult::fail(const std::string& what, std::uint64_t ops) {
  correct = false;
  failed += ops;
  std::printf("# FAIL %s (%llu operations)\n", what.c_str(), static_cast<unsigned long long>(ops));
}

void RunResult::known_defect(const std::string& what, std::uint64_t ops) {
  failed += ops;
  std::printf("# KNOWN-DEFECT %s (%llu operations)\n", what.c_str(),
              static_cast<unsigned long long>(ops));
}

std::string RunResult::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The clone the dynamics kernels' target_clones resolver picks
/// (src/dynamics/batch_model.cpp: default, x86-64-v3, x86-64-v4).
const char* dispatched_isa() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return "x86-64-v4";
  if (__builtin_cpu_supports("x86-64-v3")) return "x86-64-v3";
  return "default";
#else
  return "default";
#endif
}

}  // namespace

void print_fingerprint() {
  std::printf("# host nproc %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# host cpu %s\n", cpu_model().c_str());
  std::printf("# host isa_clone %s\n", dispatched_isa());
  std::printf("# host compiler %s\n", RG_PERFBENCH_COMPILER);
  std::printf("# host build_type %s\n", RG_PERFBENCH_BUILD_TYPE);
  std::printf("# host cxx_flags %s\n", RG_PERFBENCH_CXX_FLAGS);
}

void diag(const std::string& name, double value, const std::string& unit) {
  std::printf("# diag %s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void report_diagnostics(RunResult& out, const std::vector<Metric>& diagnostics, bool trace) {
  for (const Metric& m : diagnostics) {
    diag(m.name, m.value, m.unit);
    if (trace) out.metrics.push_back(m);
  }
}

bool make_dirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
