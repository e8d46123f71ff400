// Tests for the co-simulation harness itself: the adverse-impact oracle,
// attack installation, start-delay semantics, experiment helpers.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/surgical_sim.hpp"
#include "sim/threshold_store.hpp"

namespace rg {
namespace {

TEST(SimHarness, StartDelayKeepsRobotInEstop) {
  SimConfig cfg = make_session(SessionParams{.seed = 50}, std::nullopt, MitigationMode::kObserveOnly);
  cfg.engine.start_delay_ticks = 300;
  SurgicalSim sim(std::move(cfg));
  sim.run(0.25);
  EXPECT_EQ(sim.control().state(), RobotState::kEStop);
  sim.run(0.2);
  EXPECT_EQ(sim.control().state(), RobotState::kInit);
}

TEST(SimHarness, OracleIgnoresCommandedMotion) {
  // A fast-but-commanded trajectory must not be labelled an abrupt jump.
  SessionParams p;
  p.seed = 51;
  p.trajectory_speed = 0.05;  // aggressive surgical speed
  SimConfig cfg = make_session(p, std::nullopt, MitigationMode::kObserveOnly);
  SurgicalSim sim(std::move(cfg));
  sim.run(5.0);
  EXPECT_FALSE(sim.outcome().adverse_impact());
  EXPECT_LT(sim.outcome().max_ee_jump_window, 1.0e-3);
}

TEST(SimHarness, InstallPlacesArtifactsOnTheRightHops) {
  SimConfig cfg = make_session(SessionParams{.seed = 52}, std::nullopt, MitigationMode::kObserveOnly);
  SurgicalSim sim(std::move(cfg));
  AttackSpec spec;
  spec.variant = AttackVariant::kTorqueInjection;
  spec.magnitude = 1000;
  const AttackArtifacts art = build_attack(spec);
  sim.install(art);
  EXPECT_EQ(sim.write_chain().size(), 1u);
  EXPECT_TRUE(sim.itp_chain().empty());
  EXPECT_TRUE(sim.read_chain().empty());

  AttackSpec spec_a;
  spec_a.variant = AttackVariant::kUserInputInjection;
  spec_a.magnitude = 1e-4;
  sim.install(build_attack(spec_a));
  EXPECT_EQ(sim.itp_chain().size(), 1u);
}

TEST(SimHarness, MissingTrajectoryRejected) {
  SimConfig cfg;
  EXPECT_THROW(SurgicalSim{std::move(cfg)}, std::invalid_argument);
}

TEST(SimHarness, RunOutcomeAccessors) {
  RunOutcome out;
  EXPECT_FALSE(out.adverse_impact());
  EXPECT_FALSE(out.detected_preemptively());
  out.detector_alarm_tick = 10;
  EXPECT_TRUE(out.detected_preemptively());  // alarm, no impact at all
  out.adverse_impact_tick = 5;
  EXPECT_FALSE(out.detected_preemptively());  // alarm after the impact
  out.adverse_impact_tick = 15;
  EXPECT_TRUE(out.detected_preemptively());
  out.cable_snapped = true;
  EXPECT_TRUE(out.adverse_impact());
}

DetectionThresholds sample_thresholds(double scale = 1.0) {
  DetectionThresholds th;
  th.motor_vel = Vec3{1.5 * scale, 2.5 * scale, 3.5 * scale};
  th.motor_acc = Vec3{100.0 * scale, 200.0 * scale, 300.0 * scale};
  th.joint_vel = Vec3{0.1 * scale, 0.2 * scale, 0.3 * scale};
  return th;
}

TEST(ThresholdStore, CommitActiveRoundTrip) {
  const std::string path = "/tmp/rg_test_thresholds.txt";
  std::filesystem::remove(path);
  const DetectionThresholds th = sample_thresholds();
  ThresholdStore store(path);
  ThresholdProvenance prov;
  prov.source = "unit test";
  prov.runs = 7;
  const auto id = store.commit(th, prov);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(store.present());
  const auto active = store.active();
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(active.value().id, id.value());
  EXPECT_EQ(active.value().parent, ThresholdEpoch::kNoParent);
  EXPECT_EQ(active.value().provenance.runs, 7u);
  EXPECT_EQ(active.value().provenance.source, "unit-test");  // whitespace sanitized
  EXPECT_EQ(active.value().thresholds.motor_vel, th.motor_vel);
  EXPECT_EQ(active.value().thresholds.motor_acc, th.motor_acc);
  EXPECT_EQ(active.value().thresholds.joint_vel, th.joint_vel);
  std::filesystem::remove(path);
}

TEST(ThresholdStore, MissingFileReportsNotReady) {
  ThresholdStore store("/tmp/definitely_not_here_12345.txt");
  EXPECT_FALSE(store.present());
  const auto active = store.active();
  ASSERT_FALSE(active.ok());
  EXPECT_EQ(active.error().code(), ErrorCode::kNotReady);
}

TEST(ThresholdStore, CorruptFileReportsMalformed) {
  const std::string path = "/tmp/rg_test_thresholds_corrupt.txt";
  {
    std::ofstream os(path);
    os << "raven-guard-thresholds 2\n1.0 2.0 3.0\n";  // truncated: 3 of 9 values
  }
  ThresholdStore store(path);
  const auto truncated = store.active();
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code(), ErrorCode::kMalformedPacket);

  {
    std::ofstream os(path);
    os << "1 2 3 4 5 6 7 8 9\n";  // legacy headerless format
  }
  const auto headerless = store.active();
  ASSERT_FALSE(headerless.ok());
  EXPECT_EQ(headerless.error().code(), ErrorCode::kMalformedPacket);

  // A corrupt store must refuse commits rather than clobber history.
  EXPECT_FALSE(store.commit(sample_thresholds(), {}).ok());
  {
    std::ifstream is(path);
    std::string first;
    std::getline(is, first);
    EXPECT_EQ(first, "1 2 3 4 5 6 7 8 9");  // untouched
  }
  std::filesystem::remove(path);
}

TEST(ThresholdStore, EpochHistoryAndRollback) {
  const std::string path = "/tmp/rg_test_threshold_epochs.txt";
  std::filesystem::remove(path);
  ThresholdStore store(path);
  const auto e0 = store.commit(sample_thresholds(1.0), {});
  const auto e1 = store.commit(sample_thresholds(2.0), {});
  ASSERT_TRUE(e0.ok());
  ASSERT_TRUE(e1.ok());
  EXPECT_NE(e0.value(), e1.value());

  const auto active = store.active();
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(active.value().id, e1.value());
  EXPECT_EQ(active.value().parent, static_cast<std::int64_t>(e0.value()));

  const auto history = store.history();
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history.value().size(), 2u);
  EXPECT_EQ(history.value()[0].id, e0.value());
  EXPECT_EQ(history.value()[1].id, e1.value());

  // Roll back to the first epoch; the history keeps both.
  ASSERT_TRUE(store.rollback(e0.value()).ok());
  const auto after = store.active();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().id, e0.value());
  EXPECT_EQ(after.value().thresholds.motor_vel, sample_thresholds(1.0).motor_vel);
  EXPECT_EQ(store.history().value().size(), 2u);

  // Rolling back to an unknown epoch is an explicit error.
  EXPECT_EQ(store.rollback(999).error().code(), ErrorCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(ThresholdStore, LegacyV2LoadsAsEpochZero) {
  const std::string path = "/tmp/rg_test_threshold_v2.txt";
  {
    std::ofstream os(path);
    os << "raven-guard-thresholds 2\n1.5 2.5 3.5 100 200 300 0.1 0.2 0.3\n";
  }
  ThresholdStore store(path);
  const auto active = store.active();
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(active.value().id, 0u);
  EXPECT_EQ(active.value().provenance.source, "v2-migration");
  EXPECT_EQ(active.value().thresholds.motor_vel, (Vec3{1.5, 2.5, 3.5}));

  // Committing on top upgrades the file to v3 and keeps epoch 0.
  const auto e1 = store.commit(sample_thresholds(3.0), {});
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1.value(), 1u);
  const auto history = store.history();
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history.value().size(), 2u);
  EXPECT_EQ(history.value()[0].thresholds.motor_vel, (Vec3{1.5, 2.5, 3.5}));
  EXPECT_EQ(store.active().value().id, 1u);
  std::filesystem::remove(path);
}

TEST(Experiment, MakeSessionWiresDetection) {
  DetectionThresholds th;
  th.motor_vel = th.motor_acc = th.joint_vel = Vec3::filled(1.0);
  SessionParams p;
  p.seed = 61;
  p.fusion = FusionPolicy::kTwoOfThree;
  p.detector_solver = SolverKind::kRk4;
  const SimConfig with = make_session(p, th, MitigationMode::kArmed);
  ASSERT_TRUE(with.engine.screening);
  EXPECT_TRUE(with.engine.detection.mitigation_enabled);
  EXPECT_EQ(with.engine.detection.detector.fusion, FusionPolicy::kTwoOfThree);
  EXPECT_EQ(with.engine.detection.estimator.solver, SolverKind::kRk4);

  const SimConfig without = make_session(p, std::nullopt, MitigationMode::kObserveOnly);
  EXPECT_FALSE(without.engine.screening);
}

TEST(Experiment, SessionsAreSeedDeterministic) {
  AttackSpec spec;
  spec.variant = AttackVariant::kTorqueInjection;
  spec.magnitude = 20000;
  spec.duration_packets = 32;
  spec.delay_packets = 400;
  spec.seed = 5;
  SessionParams p;
  p.seed = 62;
  p.duration_sec = 3.0;
  const AttackRunResult a = run_attack_session(p, spec, std::nullopt, MitigationMode::kObserveOnly);
  const AttackRunResult b = run_attack_session(p, spec, std::nullopt, MitigationMode::kObserveOnly);
  EXPECT_EQ(a.outcome.max_ee_jump_window, b.outcome.max_ee_jump_window);
  EXPECT_EQ(a.injections, b.injections);
}

TEST(Experiment, LearnThresholdsValidates) {
  SessionParams p;
  const auto learned = learn_thresholds(p, 0);
  ASSERT_FALSE(learned.ok());
  EXPECT_EQ(learned.error().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace rg
