// The benchmark's three workloads.  Each returns the run's result record;
// with Options::trace set it reports the per-layer metrics, otherwise the
// end-to-end ones.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Clean engaged sessions, open loop at 1 kHz, threaded gateway.
[[nodiscard]] RunResult run_fleet_paced(const Options& opts);
/// Churning MAC-framed sessions under hostile traffic, scenario-A
/// attacks, journaling state plane.
[[nodiscard]] RunResult run_churn_hostile(const Options& opts);
/// Closed-loop Table IV detection campaign with armed mitigation.
[[nodiscard]] RunResult run_campaign_table4(const Options& opts);

/// Set-ups per run; setup_s is their median.
inline constexpr std::uint64_t kSetupReps = 5;

}  // namespace perfbench
