// rg_perfbench: the repository benchmark driver.
//
//   rg_perfbench --workload fleet_paced|churn_hostile|campaign_table4
//                --seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//
// Prints "# host ..." fingerprint lines, "# diag ..." diagnostics, and as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics, or with --trace 1 the per-layer
// ones the workload exercises (run.py reports the others as 0).  Exits 1
// when a correctness check fails, 2 on a usage error.
// perfbench/README.md documents the workloads and every metric.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rg_perfbench: %s\n"
               "usage: rg_perfbench --workload fleet_paced|churn_hostile|campaign_table4 "
               "--seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opts.trace = v == "1";
      have_trace = true;
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--work-dir") {
      opts.work_dir = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opts.workload.empty() || !have_trace) usage("--workload and --trace are required");
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");

  RunResult result;
  try {
    if (opts.workload == "fleet_paced") {
      result = run_fleet_paced(opts);
    } else if (opts.workload == "churn_hostile") {
      result = run_churn_hostile(opts);
    } else if (opts.workload == "campaign_table4") {
      result = run_campaign_table4(opts);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rg_perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
