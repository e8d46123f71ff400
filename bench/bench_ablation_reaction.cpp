// ABLATION: the physical reaction chain behind mitigation.
//
// When the monitor (or RAVEN itself) fires, three hardware latencies
// bound how much jump still happens: the PLC watchdog timeout, and the
// mechanical engagement delay of the spring-applied brakes.  This bench
// sweeps both for a fixed scenario-B attack under dynamic-model
// mitigation, reporting the residual jump — quantifying the paper's
// observation that detection must be preemptive precisely *because* the
// downstream reaction is slow.
#include <cstdio>

#include "bench_util.hpp"

namespace rg {
namespace {

double residual_jump_mm(double brake_delay_s, std::uint32_t watchdog_ticks,
                        const DetectionThresholds& thresholds, int reps) {
  std::vector<CampaignJob> jobs(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    CampaignJob& job = jobs[static_cast<std::size_t>(rep)];
    job.attack.variant = AttackVariant::kTorqueInjection;
    job.attack.magnitude = 24000;
    job.attack.duration_packets = 128;
    job.attack.delay_packets = 400 + static_cast<std::uint32_t>(rep) * 149;
    job.attack.seed = 81000 + static_cast<std::uint64_t>(rep) * 31;

    job.params = bench::standard_session();
    job.params.seed = 7000 + static_cast<std::uint64_t>(rep) * 57;
    job.thresholds = thresholds;
    job.mitigation = MitigationMode::kArmed;
    job.configure = [brake_delay_s, watchdog_ticks](SimConfig& cfg) {
      cfg.engine.plant.brake_engage_delay = brake_delay_s;
      cfg.engine.plc.watchdog_timeout_ticks = watchdog_ticks;
    };
  }

  double total = 0.0;
  for (const CampaignJobResult& r : bench::run_campaign(std::move(jobs)).results) {
    total += r.run.outcome.max_ee_jump_window;
  }
  return 1000.0 * total / reps;
}

}  // namespace
}  // namespace rg

int main() {
  using namespace rg;
  bench::header(
      "ABLATION: reaction-chain latencies vs residual jump under mitigation\n"
      "(scenario B, 24000 counts for 128 ms, dynamic-model mitigation armed)");

  const DetectionThresholds thresholds = bench::standard_thresholds();
  const int reps = bench::reps(10);

  std::printf("\n  residual jump (mm) vs brake engagement delay (watchdog = 10 ms):\n");
  std::printf("  %12s %12s\n", "delay (ms)", "jump (mm)");
  for (double delay_ms : {0.0, 10.0, 25.0, 50.0, 100.0}) {
    std::printf("  %12.0f %12.2f\n", delay_ms,
                residual_jump_mm(delay_ms / 1000.0, 10, thresholds, reps));
  }

  std::printf("\n  residual jump (mm) vs PLC watchdog timeout (brake delay = 50 ms):\n");
  std::printf("  %12s %12s\n", "timeout (ms)", "jump (mm)");
  for (std::uint32_t timeout : {2u, 5u, 10u, 25u, 50u}) {
    std::printf("  %12u %12.2f\n", timeout,
                residual_jump_mm(0.05, timeout, thresholds, reps));
  }

  std::printf("\n  Reading: a hypothetical instant brake would contain the jump, but\n"
              "  real spring-applied brakes need tens of ms — by ~25 ms the momentum\n"
              "  the motors gained before the alarm has fully expressed, and the PLC\n"
              "  watchdog timeout no longer matters at all (the monitor asserts the\n"
              "  E-STOP line directly).  With reaction hardware this slow, only\n"
              "  *preemptive* detection keeps the jump small — the paper's case for\n"
              "  predicting consequences before execution.\n");
  return 0;
}
