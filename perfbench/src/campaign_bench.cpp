// campaign_table4: the paper's offline job.  Set-up learns detection
// thresholds from a fault-free calibration campaign; the timed region
// runs rounds of fault-free, scenario-A and scenario-B sessions with armed
// mitigation through CampaignRunner (2 workers, 8 lockstep lanes).
//
// Checks: every attacked job injects and alarms; the first round re-run
// serially and unbatched gives the same per-job outcome (alarm, impact,
// RAVEN and E-STOP ticks, largest jump) bit for bit; calibration repeats
// give the same thresholds.  The traced run times LockstepGroup::step
// against SurgicalSim::step on a slice of the first round's jobs.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <memory>

#include "obs/metrics.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/lockstep.hpp"
#include "sim/surgical_sim.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kWorkers = 2;
constexpr int kLanes = 8;
constexpr int kCalibrationRuns = 16;
constexpr double kJobSeconds = 3.0;
// Four lockstep groups, two per worker: rounds stay balanced.  Jobs cycle
// fault-free, scenario A, scenario B.
constexpr std::size_t kRoundJobs = 32;
const std::string kLabels[3] = {"clean", "A", "B"};

rg::SessionParams session(std::uint64_t seed) {
  rg::SessionParams p;
  p.duration_sec = kJobSeconds;
  p.seed = seed;
  return p;
}

struct Calibration {
  rg::DetectionThresholds thresholds{};
  std::uint64_t digest = 0;
};

Calibration calibrate(std::uint64_t seed, int runs) {
  rg::LearnOptions options;
  options.jobs = kWorkers;
  const auto learned = rg::run_calibration_campaign(session(1 + seed % 100000), runs, options);
  if (!learned.ok()) throw std::runtime_error("calibration campaign failed");
  const auto th = learned.value().extract();
  if (!th.ok()) throw std::runtime_error("threshold extraction failed");
  return Calibration{th.value(), learned.value().digest()};
}

/// Round `round` of the timed campaign: jobs interleave fault-free,
/// scenario-A (injected operator increments, m per packet) and scenario-B
/// (injected DAC offsets, counts) sessions.  The magnitudes come from
/// bench_table4_detection's grid: scenario A from its middle, where the
/// detector fires before RAVEN's own checks halt the arm, scenario B from
/// its top; at these, every attacked run alarms.
std::vector<rg::CampaignJob> make_round(std::uint64_t seed, std::uint64_t round,
                                        const rg::DetectionThresholds& thresholds) {
  Rng rng = rng_for(seed, 1000 + round);
  std::vector<rg::CampaignJob> jobs(kRoundJobs);
  for (std::size_t i = 0; i < kRoundJobs; ++i) {
    rg::CampaignJob& job = jobs[i];
    job.params = session(1 + rng.below(1'000'000'000));
    job.thresholds = thresholds;
    job.mitigation = rg::MitigationMode::kArmed;
    rg::AttackSpec& a = job.attack;
    a.delay_packets = 300 + static_cast<std::uint32_t>(rng.below(400));
    a.duration_packets = rng.below(2) == 0 ? 64 : 128;
    a.seed = 1 + rng.below(1'000'000'000);
    job.label = kLabels[i % 3];
    if (i % 3 == 1) {
      a.variant = rg::AttackVariant::kUserInputInjection;
      a.magnitude = rng.below(2) == 0 ? 8.0e-5 : 1.3e-4;
    } else if (i % 3 == 2) {
      a.variant = rg::AttackVariant::kTorqueInjection;
      a.magnitude = rng.below(2) == 0 ? 24000.0 : 32000.0;
    }
  }
  return jobs;
}

/// The parts of a run's outcome that must repeat exactly.
bool same_outcome(const rg::AttackRunResult& a, const rg::AttackRunResult& b) {
  const rg::RunOutcome& x = a.outcome;
  const rg::RunOutcome& y = b.outcome;
  return x.detector_alarm_tick == y.detector_alarm_tick &&
         x.adverse_impact_tick == y.adverse_impact_tick &&
         x.raven_fault_tick == y.raven_fault_tick && x.plc_estop_tick == y.plc_estop_tick &&
         x.cable_snapped == y.cable_snapped &&
         std::bit_cast<std::uint64_t>(x.max_ee_jump_1ms) ==
             std::bit_cast<std::uint64_t>(y.max_ee_jump_1ms) &&
         a.injections == b.injections;
}

struct Rounds {
  std::vector<double> wall_us;
  std::vector<double> ticks_per_s;
  std::vector<double> parallel_eff;
  Samples exec_ms{4096};
  Samples queue_ms{4096};
  std::uint64_t ticks = 0;
  std::uint64_t jobs = 0;
  std::uint64_t impacts = 0;
  std::uint64_t preemptive = 0;
  std::uint64_t injections = 0;
  std::uint64_t false_alarms = 0;
  double cpu_s = 0.0;
  double steal = 0.0;

  [[nodiscard]] double cpu_us_per_tick() const {
    return ticks == 0 ? 0.0 : 1e6 * cpu_s / static_cast<double>(ticks);
  }
};

/// Run timed rounds until `seconds` of wall clock have passed.
void run_rounds(const Options& opts, const rg::DetectionThresholds& thresholds,
                std::uint64_t& next_round, double seconds, Rounds& out, RunResult& result,
                std::vector<rg::CampaignJobResult>* first_round, SpanLog* spans) {
  rg::CampaignOptions copts;
  copts.jobs = kWorkers;
  copts.lanes = kLanes;
  const rg::CampaignRunner runner(copts);
  const CpuStat st0 = read_cpu_stat();
  const double cpu0 = process_cpu_s();
  double driver_cpu = 0.0;
  const std::uint64_t start = now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const double tc0 = thread_cpu_s();
    std::vector<rg::CampaignJob> jobs = make_round(opts.seed, next_round, thresholds);
    driver_cpu += thread_cpu_s() - tc0;
    const std::uint64_t t0 = now_ns();
    const rg::CampaignReport report = runner.run(std::move(jobs));
    const std::uint64_t t1 = now_ns();
    const double wall_s = 1e-9 * static_cast<double>(t1 - t0);
    out.wall_us.push_back(1e-3 * static_cast<double>(t1 - t0));
    out.ticks_per_s.push_back(static_cast<double>(report.counters.ticks) / wall_s);
    out.parallel_eff.push_back(report.session_ms / (1e3 * wall_s * report.workers));
    out.ticks += report.counters.ticks;
    out.jobs += report.jobs();
    out.impacts += report.counters.impacts;
    out.preemptive += report.counters.preemptive;
    out.injections += report.counters.injections;
    if (spans != nullptr) spans->record("round", "", next_round, t0, t1);
    for (const rg::CampaignJobResult& job : report.results) {
      out.exec_ms.add(job.wall_ms);
      out.queue_ms.add(job.queue_wait_ms);
      const bool attacked = job.label != "clean";
      if (attacked) {
        result.check(job.run.injections > 0 && job.run.outcome.detector_alarmed(),
                     "round " + std::to_string(next_round) + " job " + std::to_string(job.index) +
                         " (" + job.label + ", magnitude " +
                         std::to_string(job.run.spec.magnitude) + ", " +
                         std::to_string(job.run.injections) + " injections) alarmed");
      } else if (job.run.outcome.detector_alarmed()) {
        ++out.false_alarms;
      }
      if (spans != nullptr) {
        const auto begin = t0 + static_cast<std::uint64_t>(job.queue_wait_ms * 1e6);
        spans->record("job", "round", next_round, begin,
                      begin + static_cast<std::uint64_t>(job.wall_ms * 1e6));
      }
    }
    if (first_round != nullptr && first_round->empty()) *first_round = report.results;
    ++next_round;
  } while (now_ns() - start < budget_ns);
  out.cpu_s = process_cpu_s() - cpu0 - driver_cpu;
  out.steal = steal_pct(st0, read_cpu_stat());
}

/// Mean duration (ns) of the program's own RG_SPAN `name` since the last
/// registry reset, divided by `per`; 0 when it never ran.
double span_mean_ns(const std::string& name, double per = 1.0) {
  const rg::obs::MetricsSnapshot snap = rg::obs::Registry::global().snapshot();
  const rg::obs::HistogramData* h = snap.histogram("rg.span." + name);
  if (h == nullptr || h->count == 0) return 0.0;
  return static_cast<double>(h->sum) / static_cast<double>(h->count) / per;
}

/// Build the sim a campaign job runs (CampaignRunner::execute's path).
std::unique_ptr<rg::SurgicalSim> make_sim(const rg::CampaignJob& job) {
  auto sim = std::make_unique<rg::SurgicalSim>(
      rg::make_session(job.params, job.thresholds, job.mitigation));
  rg::AttackSpec seeded = job.attack;
  if (seeded.seed == 0) seeded.seed = job.params.seed * 131 + 17;
  sim->install(rg::build_attack(seeded));
  return sim;
}

}  // namespace

RunResult run_campaign_table4(const Options& opts) {
  RunResult out;
  print_fingerprint();
  const int calibration_runs = opts.smoke ? 4 : kCalibrationRuns;

  std::vector<double> setups;
  Calibration cal;
  const std::uint64_t reps = opts.smoke ? 1 : kSetupReps;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const std::uint64_t t0 = now_ns();
    const Calibration c = calibrate(opts.seed, calibration_runs);
    setups.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    if (rep > 0) out.check(c.digest == cal.digest, "calibration repeats bit for bit");
    cal = c;
  }
  const double setup_s = median(setups);

  Rounds measured;
  Rounds traced;
  SpanLog spans;
  std::uint64_t next_round = 0;
  std::vector<rg::CampaignJobResult> first_round;
  if (opts.trace) {
    run_rounds(opts, cal.thresholds, next_round, opts.seconds / 2, measured, out, &first_round,
               nullptr);
    rg::obs::Registry::global().reset();
    run_rounds(opts, cal.thresholds, next_round, opts.seconds / 2, traced, out, nullptr, &spans);
  } else {
    run_rounds(opts, cal.thresholds, next_round, opts.seconds, measured, out, &first_round,
               nullptr);
  }
  const double rss_mb = peak_rss_mb();
  out.attempted = measured.jobs + traced.jobs;

  // The first round again, serial and unbatched: same outcomes per job.
  {
    rg::CampaignOptions serial;
    serial.jobs = 1;
    serial.lanes = 1;
    const rg::CampaignReport again =
        rg::CampaignRunner(serial).run(make_round(opts.seed, 0, cal.thresholds));
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < again.results.size() && i < first_round.size(); ++i) {
      if (!same_outcome(again.results[i].run, first_round[i].run)) ++mismatches;
    }
    out.check(again.results.size() == first_round.size() && mismatches == 0,
              "alarm/impact/preemptive outcomes repeat exactly serial and unbatched (" +
                  std::to_string(mismatches) + " jobs differ)",
              std::max<std::size_t>(mismatches, 1));
  }

  const Rounds& m = measured;
  if (!opts.trace) {
    out.metric("setup_s", setup_s, "s");
    // A round's verdict time: submitting its jobs to the last job's result.
    out.metric("verdict_p50_us", median(m.wall_us), "us");
    out.metric("cpu_us_per_tick", m.cpu_us_per_tick(), "us");
    out.metric("ticks_per_s", median(m.ticks_per_s), "ticks/s");
    out.metric("peak_rss_mb", rss_mb, "MB");
  }
  report_diagnostics(out,
                     {{"driver.verdict_p90_us", quantile(m.wall_us, 0.9), "us"},
                      {"driver.due_verdict_samples", static_cast<double>(m.wall_us.size()),
                       "count"},
                      {"host.steal_pct", m.steal, "%"}},
                     opts.trace);
  diag("driver.false_alarms", static_cast<double>(m.false_alarms), "count");
  for (const double v : setups) diag("setup_s.rep", v, "s");

  if (opts.trace) {
    const Rounds& t = traced;
    out.metric("trace.overhead_pct",
               m.cpu_us_per_tick() > 0 ? 100.0 * (t.cpu_us_per_tick() / m.cpu_us_per_tick() - 1.0)
                                       : 0.0,
               "%");
    out.metric("sim.exec_ms_p50", t.exec_ms.quantile(0.5), "ms");
    out.metric("sim.exec_ms_p99", t.exec_ms.quantile(0.99), "ms");
    out.metric("sim.queue_wait_ms_p50", t.queue_ms.quantile(0.5), "ms");
    out.metric("sim.parallel_eff", median(t.parallel_eff), "ratio");
    out.metric("sim.calibration_s", setup_s, "s");
    out.metric("sim.impacts", static_cast<double>(t.impacts), "count");
    out.metric("sim.preemptive", static_cast<double>(t.preemptive), "count");
    out.metric("attack.injections", static_cast<double>(t.injections), "count");
    // The lockstep groups' batched plant period and estimator solve, from
    // the program's own spans over the traced rounds, per lane.
    out.metric("plant.step_ns.batched", span_mean_ns("plant.step_batch", kLanes), "ns");
    out.metric("dynamics.solve_ns.batched", span_mean_ns("estimator.solve_batch", kLanes), "ns");

    // Phase split on a slice of the first round: one lockstep group of
    // kLanes sims against the same sims stepped one at a time.
    const std::vector<rg::CampaignJob> slice_jobs = [&] {
      std::vector<rg::CampaignJob> all = make_round(opts.seed, 0, cal.thresholds);
      all.resize(std::min<std::size_t>(all.size(), kLanes));
      return all;
    }();
    const std::uint64_t ticks = first_round.front().ticks;
    std::vector<std::unique_ptr<rg::SurgicalSim>> lock_sims;
    std::vector<rg::SurgicalSim*> lock_ptrs;
    for (const rg::CampaignJob& job : slice_jobs) {
      lock_sims.push_back(make_sim(job));
      lock_ptrs.push_back(lock_sims.back().get());
    }
    rg::LockstepGroup group(std::span<rg::SurgicalSim* const>{lock_ptrs.data(), lock_ptrs.size()});
    const std::uint64_t l0 = now_ns();
    for (std::uint64_t k = 0; k < ticks; ++k) group.step();
    const double lock_ns = static_cast<double>(now_ns() - l0);
    rg::obs::Registry::global().reset();
    double scalar_ns = 0.0;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < slice_jobs.size(); ++i) {
      auto sim = make_sim(slice_jobs[i]);
      const std::uint64_t s0 = now_ns();
      for (std::uint64_t k = 0; k < ticks; ++k) sim->step();
      scalar_ns += static_cast<double>(now_ns() - s0);
      rg::AttackRunResult a;
      a.outcome = sim->outcome();
      rg::AttackRunResult b;
      b.outcome = lock_sims[i]->outcome();
      rg::AttackRunResult c = first_round[i].run;
      c.injections = 0;
      if (!same_outcome(a, b) || !same_outcome(a, c)) ++mismatches;
    }
    out.check(mismatches == 0, "lockstep, scalar and campaign outcomes agree on the slice",
              std::max<std::size_t>(mismatches, 1));
    out.metric("plant.step_ns.scalar", span_mean_ns("plant.step"), "ns");
    out.metric("dynamics.solve_ns.scalar", span_mean_ns("estimator.solve"), "ns");
    const double lane_ticks = static_cast<double>(ticks * slice_jobs.size());
    out.metric("sim.lockstep_step_us", lane_ticks > 0 ? 1e-3 * lock_ns / lane_ticks : 0.0, "us");
    out.metric("sim.scalar_step_us", lane_ticks > 0 ? 1e-3 * scalar_ns / lane_ticks : 0.0, "us");

    write_spans(opts, spans);
  }
  return out;
}

}  // namespace perfbench
