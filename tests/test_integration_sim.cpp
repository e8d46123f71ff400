// Integration tests: the full closed loop (console -> control -> hw ->
// plant) must home, enter teleoperation, and track the surgeon's
// trajectory without tripping any safety mechanism when no attack is
// installed.
#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/surgical_sim.hpp"

namespace rg {
namespace {

SessionParams quick_session(std::uint64_t seed) {
  SessionParams p;
  p.seed = seed;
  p.duration_sec = 4.0;
  return p;
}

TEST(IntegrationSim, HomingReachesPedalUpWithoutFaults) {
  SimConfig cfg = make_session(quick_session(3), std::nullopt, MitigationMode::kObserveOnly);
  SurgicalSim sim(std::move(cfg));
  sim.run(1.0);  // homing takes 0.8 s
  EXPECT_EQ(sim.control().state(), RobotState::kPedalUp);
  EXPECT_FALSE(sim.control().safety_fault_latched());
  EXPECT_FALSE(sim.plc().estop_latched());

  // Homing should have parked the arm near the workspace midpoint.
  const JointVector home = sim.control().config().limits.midpoint();
  const JointVector q = sim.plant().joint_positions();
  EXPECT_NEAR(q[0], home[0], 0.02);
  EXPECT_NEAR(q[1], home[1], 0.02);
  EXPECT_NEAR(q[2], home[2], 0.005);
}

TEST(IntegrationSim, PedalDownEngagesAndReleasesBrakes) {
  SimConfig cfg = make_session(quick_session(4), std::nullopt, MitigationMode::kObserveOnly);
  SurgicalSim sim(std::move(cfg));
  sim.run(1.1);
  EXPECT_TRUE(sim.plc().brakes_engaged());  // pedal still up
  sim.run(0.3);                             // pedal goes down at 1.2 s
  EXPECT_EQ(sim.control().state(), RobotState::kPedalDown);
  EXPECT_FALSE(sim.plc().brakes_engaged());
}

TEST(IntegrationSim, FaultFreeRunTracksTrajectory) {
  SimConfig cfg = make_session(quick_session(5), std::nullopt, MitigationMode::kObserveOnly);
  SurgicalSim sim(std::move(cfg));
  sim.run(4.0);

  EXPECT_FALSE(sim.control().safety_fault_latched());
  EXPECT_FALSE(sim.plc().estop_latched());
  EXPECT_FALSE(sim.plant().cable_snapped());
  EXPECT_EQ(sim.control().state(), RobotState::kPedalDown);

  // Ground truth end effector should be close to the commanded desired
  // pose (sub-millimetre tracking is what RAVEN achieves).
  const Position desired = sim.control().debug().ee_desired;
  const Position actual = sim.plant().end_effector();
  EXPECT_LT(distance(desired, actual), 2.0e-3)
      << "desired (" << desired[0] << "," << desired[1] << "," << desired[2] << ") actual ("
      << actual[0] << "," << actual[1] << "," << actual[2] << ")";
}

TEST(IntegrationSim, FaultFreeRunHasNoAdverseImpact) {
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    SimConfig cfg = make_session(quick_session(seed), std::nullopt, MitigationMode::kObserveOnly);
    SurgicalSim sim(std::move(cfg));
    sim.run(4.0);
    EXPECT_FALSE(sim.outcome().adverse_impact()) << "seed " << seed;
    EXPECT_LT(sim.outcome().max_ee_jump_1ms, 1.0e-3) << "seed " << seed;
  }
}

TEST(IntegrationSim, ToleratesLossyNetwork) {
  // Prior-work threat (Bonaci et al.): datagram loss degrades teleop but
  // must not fault the stock system or fake an abrupt jump.
  SimConfig cfg = make_session(quick_session(21), std::nullopt, MitigationMode::kObserveOnly);
  cfg.network.loss_probability = 0.10;
  cfg.network.seed = 77;
  SurgicalSim sim(std::move(cfg));
  sim.run(4.0);
  EXPECT_FALSE(sim.control().safety_fault_latched());
  EXPECT_FALSE(sim.outcome().adverse_impact());
}

TEST(IntegrationSim, EncoderCorruptionCausesJump) {
  // Table I row 4 (read path): offsetting an encoder channel makes the
  // PID "correct" a phantom error and the real arm jumps.
  AttackSpec spec;
  spec.variant = AttackVariant::kEncoderCorruption;
  spec.magnitude = 800;  // counts
  spec.duration_packets = 128;
  spec.delay_packets = 2600;  // mid-teleoperation
  const AttackRunResult r = run_attack_session(quick_session(22), spec, std::nullopt, MitigationMode::kObserveOnly);
  EXPECT_GT(r.injections, 0u);
  // Table I's reported impact class is "abrupt jump / unwanted E-STOP":
  // a large phantom error makes the PID saturate, which either jumps the
  // arm or trips the DAC check (and often both) — never "no effect".
  EXPECT_TRUE(r.impact() || r.outcome.raven_detected());
  EXPECT_GT(r.outcome.max_ee_jump_window, 2.0e-4);  // visible unintended motion
}

TEST(IntegrationSim, StateSpoofHaltsTheRobot) {
  // Table I row 3: spoofing the PLC state echo desynchronizes hardware
  // and software; the cross-check ends the session in a halt, with no
  // physical jump (the "homing failure" impact class).
  AttackSpec spec;
  spec.variant = AttackVariant::kStateSpoof;
  spec.duration_packets = 0;
  const AttackRunResult r = run_attack_session(quick_session(23), spec, std::nullopt, MitigationMode::kObserveOnly);
  EXPECT_TRUE(r.outcome.raven_detected());
  EXPECT_FALSE(r.impact());
}

TEST(IntegrationSim, TrajectoryHijackMovesRobotOffOperatorPath) {
  AttackSpec spec;
  spec.variant = AttackVariant::kTrajectoryHijack;
  spec.magnitude = 0.008;  // 8 mm circle
  spec.duration_packets = 1500;
  spec.delay_packets = 200;
  const AttackRunResult r = run_attack_session(quick_session(24), spec, std::nullopt, MitigationMode::kObserveOnly);
  EXPECT_GT(r.injections, 500u);
  // The robot physically executed motion the operator never commanded.
  EXPECT_GT(r.outcome.max_ee_jump_window, 1.0e-3);
}

TEST(IntegrationSim, DetectionObserverSeesEveryScreenedCommand) {
  DetectionThresholds huge;
  huge.motor_vel = huge.motor_acc = huge.joint_vel = Vec3::filled(1e18);
  SessionParams p = quick_session(25);
  SimConfig cfg = make_session(p, huge, MitigationMode::kObserveOnly);
  cfg.engine.detection.detector.ee_jump_limit = 0.0;
  SurgicalSim sim(std::move(cfg));
  std::size_t observed = 0;
  sim.set_detection_observer([&observed](const DetectionPipeline::Outcome&) { ++observed; });
  sim.run(2.0);
  EXPECT_EQ(observed, 2000u);  // one per tick once the board path is live
}

}  // namespace
}  // namespace rg
