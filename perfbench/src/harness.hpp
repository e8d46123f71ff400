// Measurement plumbing shared by the benchmark workloads: clocks, CPU and
// steal accounting, fixed-footprint sample buffers, the in-memory span
// log, the per-thread allocation counter, and the result record the
// driver prints as its last line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- command line ----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short self-test pass: tiny sizes, every correctness check still runs.
  bool smoke = false;
  /// Scratch directory for state-plane files and span dumps (inside the
  /// checkout; created on demand).
  std::string work_dir = ".bench_build/work";
};

// --- clocks and host counters ----------------------------------------------

[[nodiscard]] std::uint64_t now_ns() noexcept;
/// Process CPU time (user + system, every thread), seconds.
[[nodiscard]] double process_cpu_s() noexcept;
/// Calling thread's CPU time, seconds.
[[nodiscard]] double thread_cpu_s() noexcept;
/// Peak resident set of the process so far, MB.
[[nodiscard]] double peak_rss_mb() noexcept;
/// Sleep until an absolute steady-clock time (no-op when already past).
void sleep_until_ns(std::uint64_t deadline_ns) noexcept;

/// Aggregate jiffies from the first line of /proc/stat.
struct CpuStat {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuStat read_cpu_stat();
/// Steal share of all CPU time between two reads, percent.
[[nodiscard]] double steal_pct(const CpuStat& before, const CpuStat& after) noexcept;

/// Heap allocations (global operator new calls) made by the calling
/// thread since it started.  Counted by the replaced operator new in
/// alloc_count.cpp.
[[nodiscard]] std::uint64_t thread_allocs() noexcept;

// --- seeded inputs -----------------------------------------------------------

/// splitmix64: every random choice the driver makes derives from --seed.
struct Rng {
  std::uint64_t s = 0;
  std::uint64_t next() noexcept {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
};

/// Independent stream `stream` of the run's seed.
[[nodiscard]] inline Rng rng_for(std::uint64_t seed, std::uint64_t stream) noexcept {
  Rng r{seed * 0x2545f4914f6cdd1dULL + stream};
  (void)r.next();
  return r;
}

// --- statistics --------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of a copy of `values`;
/// 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Fixed-capacity sample buffer.  Storage is allocated and touched at
/// construction, so a run's resident memory does not depend on how many
/// samples it records; past capacity it keeps a uniform reservoir.
class Samples {
 public:
  explicit Samples(std::size_t capacity = std::size_t{1} << 16);

  void add(double v) noexcept;
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::vector<double> values() const;

 private:
  std::vector<double> buf_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

// --- spans -------------------------------------------------------------------

/// One timed call made by the driver into the program.  Spans of one
/// period (or job) share `id`; `parent` names the enclosing span.
struct Span {
  const char* name = "";
  const char* parent = "";
  std::uint64_t id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span log, written out once when the run ends.
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  void record(const char* name, const char* parent, std::uint64_t id, std::uint64_t start_ns,
              std::uint64_t end_ns) {
    spans_.push_back(Span{name, parent, id, start_ns, end_ns});
  }
  /// Durations (ns) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const char* name) const;
  /// One JSON object per line; returns false when the file can't be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Write a traced run's spans to <work_dir>/spans-<workload>-<seed>.jsonl.
void write_spans(const Options& opts, const SpanLog& spans);

// --- result ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: correctness, operation counts, metrics.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Record a failed correctness check: `ops` operations failed and the
  /// run is incorrect.
  void fail(const std::string& what, std::uint64_t ops = 1);
  /// A failed operation that does not make the run incorrect (a known,
  /// documented defect the benchmark must show rather than hide).
  void known_defect(const std::string& what, std::uint64_t ops = 1);
  void check(bool ok, const std::string& what, std::uint64_t ops = 1) {
    if (!ok) fail(what, ops);
  }
  /// The driver's last line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;
};

/// Print "# host ..." fingerprint lines (nproc, CPU model, dispatched ISA
/// clone, compiler, build type and flags).
void print_fingerprint();

/// Print one "# diag name value unit" line (diagnostics never gated).
void diag(const std::string& name, double value, const std::string& unit);
/// Print each diagnostic; a traced run also reports them as metrics.
void report_diagnostics(RunResult& out, const std::vector<Metric>& diagnostics, bool trace);

/// Create `dir` (and parents); false on failure.
bool make_dirs(const std::string& dir);
/// Remove `dir` recursively (best effort).
void remove_tree(const std::string& dir);

}  // namespace perfbench
