// Tests for the campaign engine: determinism across worker counts,
// cancellation on failure, telemetry, and the JSON report.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"

namespace rg {
namespace {

SessionParams quick(std::uint64_t seed) {
  SessionParams p;
  p.seed = seed;
  p.duration_sec = 2.0;
  return p;
}

/// A 16-job mixed campaign: fault-free, attacked, mitigated sessions.
std::vector<CampaignJob> mixed_campaign() {
  std::vector<CampaignJob> jobs;
  DetectionThresholds tight;
  tight.motor_vel = tight.motor_acc = tight.joint_vel = Vec3::filled(1.0);
  for (int i = 0; i < 16; ++i) {
    CampaignJob job;
    job.params = quick(100 + static_cast<std::uint64_t>(i) * 7);
    if (i % 2 == 1) {
      job.attack.variant = AttackVariant::kTorqueInjection;
      job.attack.magnitude = 12000 + 2000 * i;
      job.attack.duration_packets = 64;
      job.attack.delay_packets = 300 + static_cast<std::uint32_t>(i) * 41;
      job.attack.seed = 9000 + static_cast<std::uint64_t>(i) * 11;
    }
    if (i % 4 == 3) {
      job.thresholds = tight;
      job.mitigation = MitigationMode::kArmed;
    }
    job.label = "job" + std::to_string(i);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

CampaignReport run_with_jobs(int workers) {
  CampaignOptions options;
  options.jobs = workers;
  return CampaignRunner(options).run(mixed_campaign());
}

void expect_identical(const CampaignReport& a, const CampaignReport& b) {
  ASSERT_EQ(a.jobs(), b.jobs());
  for (std::size_t i = 0; i < a.jobs(); ++i) {
    const AttackRunResult& ra = a.results[i].run;
    const AttackRunResult& rb = b.results[i].run;
    EXPECT_EQ(a.results[i].index, i);
    EXPECT_EQ(a.results[i].label, b.results[i].label);
    EXPECT_EQ(ra.injections, rb.injections) << "job " << i;
    EXPECT_EQ(ra.first_injection_tick, rb.first_injection_tick) << "job " << i;
    EXPECT_EQ(ra.outcome.max_ee_jump_window, rb.outcome.max_ee_jump_window) << "job " << i;
    EXPECT_EQ(ra.outcome.max_ee_jump_1ms, rb.outcome.max_ee_jump_1ms) << "job " << i;
    EXPECT_EQ(ra.outcome.max_ee_jump_2ms, rb.outcome.max_ee_jump_2ms) << "job " << i;
    EXPECT_EQ(ra.outcome.adverse_impact_tick, rb.outcome.adverse_impact_tick) << "job " << i;
    EXPECT_EQ(ra.outcome.raven_fault_tick, rb.outcome.raven_fault_tick) << "job " << i;
    EXPECT_EQ(ra.outcome.plc_estop_tick, rb.outcome.plc_estop_tick) << "job " << i;
    EXPECT_EQ(ra.outcome.detector_alarm_tick, rb.outcome.detector_alarm_tick) << "job " << i;
    EXPECT_EQ(ra.outcome.cable_snapped, rb.outcome.cable_snapped) << "job " << i;
  }
  EXPECT_EQ(a.counters.impacts, b.counters.impacts);
  EXPECT_EQ(a.counters.detector_alarms, b.counters.detector_alarms);
  EXPECT_EQ(a.counters.injections, b.counters.injections);
  EXPECT_EQ(a.counters.ticks, b.counters.ticks);
}

TEST(Campaign, BitIdenticalAcrossWorkerCounts) {
  const CampaignReport serial = run_with_jobs(1);
  const CampaignReport parallel8 = run_with_jobs(8);
  EXPECT_EQ(serial.workers, 1);
  EXPECT_GT(parallel8.workers, 1);
  expect_identical(serial, parallel8);
  // An odd, non-divisor worker count must not change the results either.
  expect_identical(serial, run_with_jobs(3));
}

TEST(Campaign, LearnedThresholdsIdenticalAcrossWorkerCounts) {
  const SessionParams base = quick(42);
  LearnOptions serial;
  serial.jobs = 1;
  LearnOptions parallel;
  parallel.jobs = 8;
  const DetectionThresholds a = learn_thresholds(base, 16, serial).value();
  const DetectionThresholds b = learn_thresholds(base, 16, parallel).value();
  EXPECT_EQ(a.motor_vel, b.motor_vel);
  EXPECT_EQ(a.motor_acc, b.motor_acc);
  EXPECT_EQ(a.joint_vel, b.joint_vel);
}

TEST(Campaign, ThrowingJobCancelsCampaign) {
  std::vector<CampaignJob> jobs;
  std::atomic<int> executed{0};
  for (int i = 0; i < 24; ++i) {
    CampaignJob job;
    job.params = quick(200 + static_cast<std::uint64_t>(i));
    job.body = [i, &executed]() -> AttackRunResult {
      ++executed;
      if (i == 5) throw std::runtime_error("injected failure");
      return AttackRunResult{};
    };
    jobs.push_back(std::move(job));
  }
  CampaignOptions options;
  options.jobs = 4;
  const CampaignRunner runner(options);
  try {
    (void)runner.run(std::move(jobs));
    FAIL() << "expected CampaignError";
  } catch (const CampaignError& e) {
    EXPECT_EQ(e.job_index(), 5u);
    EXPECT_NE(std::string(e.what()).find("injected failure"), std::string::npos);
  }
  // Cancellation: workers stop pulling new jobs after the failure, so not
  // all 24 bodies may run — but the failing one certainly did.
  EXPECT_GE(executed.load(), 1);
  EXPECT_LE(executed.load(), 24);
}

TEST(Campaign, SerialFailureSkipsRemainingJobs) {
  std::vector<CampaignJob> jobs;
  int executed = 0;
  for (int i = 0; i < 8; ++i) {
    CampaignJob job;
    job.params = quick(300 + static_cast<std::uint64_t>(i));
    job.body = [i, &executed]() -> AttackRunResult {
      ++executed;
      if (i == 2) throw std::runtime_error("boom");
      return AttackRunResult{};
    };
    jobs.push_back(std::move(job));
  }
  CampaignOptions options;
  options.jobs = 1;
  EXPECT_THROW((void)CampaignRunner(options).run(std::move(jobs)), CampaignError);
  EXPECT_EQ(executed, 3);  // jobs 0,1,2 ran; 3..7 cancelled
}

TEST(Campaign, ProgressReportsEveryJob) {
  std::vector<CampaignJob> jobs;
  for (int i = 0; i < 6; ++i) {
    CampaignJob job;
    job.params = quick(400 + static_cast<std::uint64_t>(i));
    job.body = []() { return AttackRunResult{}; };
    jobs.push_back(std::move(job));
  }
  std::size_t events = 0;
  std::size_t last_completed = 0;
  CampaignOptions options;
  options.jobs = 2;
  options.progress = [&](const CampaignProgress& p) {
    ++events;
    EXPECT_EQ(p.total, 6u);
    EXPECT_GT(p.completed, last_completed);  // monotone under the lock
    last_completed = p.completed;
    EXPECT_LT(p.index, 6u);
  };
  const CampaignReport report = CampaignRunner(options).run(std::move(jobs));
  EXPECT_EQ(events, 6u);
  EXPECT_EQ(report.jobs(), 6u);
}

TEST(Campaign, ReportTelemetryAndCounters) {
  CampaignOptions options;
  options.jobs = 2;
  std::vector<CampaignJob> jobs;
  for (int i = 0; i < 4; ++i) {
    CampaignJob job;
    job.params = quick(500 + static_cast<std::uint64_t>(i) * 3);
    job.attack.variant = AttackVariant::kTorqueInjection;
    job.attack.magnitude = 26000;
    job.attack.duration_packets = 96;
    job.attack.delay_packets = 400;
    job.attack.seed = 1000 + static_cast<std::uint64_t>(i);
    jobs.push_back(std::move(job));
  }
  const CampaignReport report = CampaignRunner(options).run(std::move(jobs));
  EXPECT_EQ(report.jobs(), 4u);
  EXPECT_GT(report.wall_ms, 0.0);
  EXPECT_GT(report.session_ms, 0.0);
  EXPECT_GT(report.counters.ticks, 0u);
  EXPECT_GT(report.counters.injections, 0u);
  EXPECT_GT(report.ticks_per_sec(), 0.0);
  for (const CampaignJobResult& r : report.results) {
    EXPECT_GT(r.ticks, 0u);
    EXPECT_GE(r.wall_ms, 0.0);
    EXPECT_GE(r.queue_wait_ms, 0.0);
  }
  // The per-job timing histograms see every job exactly once.
  EXPECT_EQ(report.exec_us.count, 4u);
  EXPECT_EQ(report.queue_wait_us.count, 4u);
  EXPECT_GT(report.exec_us.max, 0u);
  EXPECT_GE(report.exec_us.percentile(99.0), report.exec_us.percentile(50.0));
}

TEST(Campaign, SimTickCounterSameAtAnyLaneCount) {
  // rg.sim.ticks counts the 1 kHz ticks the simulator executed, whether a
  // job ran as a scalar sim or as a lockstep lane.
  const auto counted_ticks = [](int lanes) {
    std::vector<CampaignJob> jobs(4);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].params = quick(300 + i);
      jobs[i].params.duration_sec = 0.5;
    }
    obs::Registry::global().reset();
    const CampaignReport report =
        CampaignRunner(CampaignOptions{.jobs = 1, .lanes = lanes}).run(std::move(jobs));
    EXPECT_EQ(report.counters.ticks, 2000u) << "lanes " << lanes;
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    const obs::MetricsSnapshot::CounterValue* counter = snap.counter("rg.sim.ticks");
    return counter == nullptr ? std::uint64_t{0} : counter->value;
  };
  const std::uint64_t scalar = counted_ticks(1);
  EXPECT_EQ(counted_ticks(8), scalar);
#ifndef RG_OBS_DISABLED
  EXPECT_EQ(scalar, 2000u);
#endif
}

TEST(Campaign, JsonReportIsWellFormed) {
  CampaignOptions options;
  options.jobs = 1;
  std::vector<CampaignJob> jobs;
  CampaignJob job;
  job.params = quick(600);
  job.label = "needs \"escaping\"\\";
  jobs.push_back(std::move(job));
  const CampaignReport report = CampaignRunner(options).run(std::move(jobs));

  std::ostringstream os;
  report.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"rg.campaign.report/2\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"needs \\\"escaping\\\"\\\\\""), std::string::npos);
  EXPECT_NE(json.find("\"results\""), std::string::npos);
  EXPECT_NE(json.find("\"timing\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"exec_ms\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity for the schema.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  // The timing section is strictly additive: stripping it must leave a
  // report with no wall-clock-dependent field at all.
  std::ostringstream stripped;
  report.write_json(stripped, /*include_timing=*/false);
  EXPECT_EQ(stripped.str().find("\"timing\""), std::string::npos);
  EXPECT_EQ(stripped.str().find("wall_ms"), std::string::npos);
  EXPECT_EQ(stripped.str().find("workers"), std::string::npos);
}

TEST(Campaign, TimingStrippedJsonIdenticalAcrossWorkerCounts) {
  // The report/2 determinism contract as a plain string comparison: with
  // the "timing" section omitted, the serialized report must be
  // byte-identical for any worker count — telemetry attached or not.
  const auto render = [](const CampaignReport& r) {
    std::ostringstream os;
    r.write_json(os, /*include_timing=*/false);
    return os.str();
  };
  const std::string serial = render(run_with_jobs(1));
  EXPECT_EQ(serial, render(run_with_jobs(3)));
  EXPECT_EQ(serial, render(run_with_jobs(8)));
}

TEST(Campaign, RunAttackSessionMatchesSingleJobCampaign) {
  // The redesigned run_attack_session() is a thin wrapper over the
  // campaign executor; a one-job campaign must agree exactly.
  SessionParams p = quick(700);
  AttackSpec spec;
  spec.variant = AttackVariant::kTorqueInjection;
  spec.magnitude = 20000;
  spec.duration_packets = 64;
  spec.delay_packets = 350;
  spec.seed = 77;
  const AttackRunResult direct = run_attack_session(p, spec, std::nullopt);

  CampaignJob job;
  job.params = p;
  job.attack = spec;
  CampaignOptions options;
  options.jobs = 1;
  const CampaignReport report = CampaignRunner(options).run({std::move(job)});
  const AttackRunResult& via_campaign = report.results[0].run;
  EXPECT_EQ(direct.injections, via_campaign.injections);
  EXPECT_EQ(direct.outcome.max_ee_jump_window, via_campaign.outcome.max_ee_jump_window);
  EXPECT_EQ(direct.outcome.detector_alarm_tick, via_campaign.outcome.detector_alarm_tick);
}

TEST(Campaign, DefaultJobsRespectsEnvironment) {
  EXPECT_GE(default_campaign_jobs(), 1);
}

}  // namespace
}  // namespace rg
