// Batched SoA dynamics vs the scalar reference: every lane of a batched
// integration must be *bit-identical* to a scalar integration of that
// lane — the property that lets the campaign engine run homogeneous jobs
// in lockstep without perturbing a byte of the deterministic report.
// Also covers the estimator's predict/commit solve-dedup (one model solve
// per screened tick) and the campaign-level byte-identity of batched vs
// scalar execution.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "attack/attack_engine.hpp"
#include "core/pipeline.hpp"
#include "dynamics/batch_model.hpp"
#include "hw/usb_packet.hpp"
#include "plant/batch_plant.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/lockstep.hpp"
#include "sim/surgical_sim.hpp"
#include "sim/trace.hpp"

namespace rg {
namespace {

using State = RavenDynamicsModel::State;

/// Randomized lane states spanning the normal workspace and hard-stop
/// violations (|q| beyond the limits exercises the branch-free stops).
std::array<State, kBatchLanes> random_states(std::mt19937_64& gen, double span) {
  std::uniform_real_distribution<double> u(-span, span);
  std::array<State, kBatchLanes> states{};
  for (auto& x : states) {
    for (std::size_t i = 0; i < 12; ++i) x[i] = u(gen);
  }
  return states;
}

std::array<Vec3, kBatchLanes> random_currents(std::mt19937_64& gen) {
  std::uniform_real_distribution<double> u(-6.0, 6.0);
  std::array<Vec3, kBatchLanes> currents{};
  for (auto& c : currents) c = {u(gen), u(gen), u(gen)};
  return currents;
}

TEST(BatchDynamics, DerivativeBitIdenticalToScalar) {
  for (bool hard_stops : {false, true}) {
    RavenDynamicsParams params;
    params.enforce_hard_stops = hard_stops;
    const RavenDynamicsModel scalar(params);
    const BatchRavenModel batch(params);

    std::mt19937_64 gen(7);
    for (int round = 0; round < 20; ++round) {
      const auto states = random_states(gen, 3.0);
      const auto currents = random_currents(gen);

      BatchState x;
      BatchLanes3 cur{};
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        x.set_lane(l, states[l]);
        for (std::size_t i = 0; i < 3; ++i) cur[i][l] = currents[l][i];
      }
      BatchLanes3 tau_em;
      batch.tau_em_from_currents(cur, tau_em);
      BatchState dx;
      batch.derivative(x, tau_em, dx);

      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        const State ref = scalar.derivative(states[l], currents[l]);
        const State got = dx.lane(l);
        for (std::size_t i = 0; i < 12; ++i) {
          EXPECT_EQ(got[i], ref[i]) << "lane " << l << " component " << i
                                    << " hard_stops=" << hard_stops;
        }
      }
    }
  }
}

TEST(BatchDynamics, CableForceBitIdenticalToScalar) {
  const RavenDynamicsParams params;
  const RavenDynamicsModel scalar(params);
  const BatchRavenModel batch(params);

  std::mt19937_64 gen(11);
  const auto states = random_states(gen, 2.0);
  BatchState x;
  for (std::size_t l = 0; l < kBatchLanes; ++l) x.set_lane(l, states[l]);

  BatchLanes3 tension;
  batch.cable_force(x, tension);
  for (std::size_t l = 0; l < kBatchLanes; ++l) {
    const Vec3 ref = scalar.cable_force(states[l]);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(tension[i][l], ref[i]) << "lane " << l << " axis " << i;
    }
  }
}

TEST(BatchDynamics, StepBitIdenticalToScalarForEverySolver) {
  RavenDynamicsParams params;
  params.enforce_hard_stops = true;
  const RavenDynamicsModel scalar(params);
  const BatchRavenModel batch(params);

  std::mt19937_64 gen(23);
  for (SolverKind solver : {SolverKind::kEuler, SolverKind::kMidpoint, SolverKind::kRk4,
                            SolverKind::kRkf45}) {
    auto states = random_states(gen, 2.5);
    const auto currents = random_currents(gen);

    BatchState x;
    BatchLanes3 cur{};
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      x.set_lane(l, states[l]);
      for (std::size_t i = 0; i < 3; ++i) cur[i][l] = currents[l][i];
    }

    // 200 chained substeps: any lane-ordering or expression-shape
    // difference would compound into visible drift long before this.
    for (int step = 0; step < 200; ++step) {
      batch.step(x, cur, 5.0e-5, solver);
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        states[l] = scalar.step(states[l], currents[l], 5.0e-5, solver);
      }
    }
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      const State got = x.lane(l);
      for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_EQ(got[i], states[l][i])
            << to_string(solver) << " lane " << l << " component " << i;
      }
    }
  }
}

// --- BatchPlant vs scalar PhysicalRobot ------------------------------------

PlantConfig snapping_plant(std::uint64_t seed) {
  PlantConfig config;
  config.seed = seed;
  // Axis 0 snaps under modest drive so both code paths exercise the
  // overload watch and the post-snap decoupled dynamics.
  config.cable_snap_threshold = {6.0, 40.0, 400.0};
  return config;
}

/// Deterministic per-lane drive profile: strong enough to hit the
/// axis-0 snap threshold mid-run.
PlantDrive snapping_drive(int period, std::size_t lane, bool brakes) {
  const double phase = 0.013 * period + 0.4 * static_cast<double>(lane);
  PlantDrive drive;
  drive.currents = {6.0 * std::sin(phase), 3.0 * std::cos(phase), 1.5 * std::sin(2.0 * phase)};
  drive.brakes_engaged = brakes;
  drive.wrist_currents = {0.2 * std::sin(phase), 0.1, -0.05};
  return drive;
}

/// One period: every scalar plant stepped alone, the batch stepped once.
void step_both(std::vector<PhysicalRobot>& scalar_plants, BatchPlant& batch,
               std::span<const PlantDrive> drives) {
  for (std::size_t l = 0; l < drives.size(); ++l) {
    scalar_plants[l].step_control_period(drives[l].currents, drives[l].brakes_engaged,
                                         drives[l].wrist_currents);
  }
  batch.step_control_period(drives);
}

/// Every observable of a plant pair, compared bitwise.
void expect_same_plant(const PhysicalRobot& scalar, const PhysicalRobot& batched,
                       std::size_t lane) {
  EXPECT_EQ(scalar.snapped_axes(), batched.snapped_axes()) << "lane " << lane;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(scalar.motor_positions()[i], batched.motor_positions()[i])
        << "lane " << lane << " axis " << i;
    EXPECT_EQ(scalar.motor_velocities()[i], batched.motor_velocities()[i])
        << "lane " << lane << " axis " << i;
    EXPECT_EQ(scalar.joint_positions()[i], batched.joint_positions()[i])
        << "lane " << lane << " axis " << i;
    EXPECT_EQ(scalar.joint_velocities()[i], batched.joint_velocities()[i])
        << "lane " << lane << " axis " << i;
    EXPECT_EQ(scalar.wrist_positions()[i], batched.wrist_positions()[i])
        << "lane " << lane << " axis " << i;
  }
}

TEST(BatchPlant, LanesMatchScalarPlantsBitwise) {
  constexpr std::size_t kLanes = 5;
  std::vector<PhysicalRobot> scalar_plants;
  std::vector<PhysicalRobot> batch_plants;
  for (std::size_t l = 0; l < kLanes; ++l) {
    scalar_plants.emplace_back(snapping_plant(100 + l));
    batch_plants.emplace_back(snapping_plant(100 + l));
  }
  std::array<PhysicalRobot*, kLanes> ptrs{};
  for (std::size_t l = 0; l < kLanes; ++l) ptrs[l] = &batch_plants[l];
  BatchPlant batch(std::span<PhysicalRobot* const>{ptrs.data(), kLanes});
  ASSERT_EQ(batch.lanes(), kLanes);

  for (int period = 0; period < 400; ++period) {
    // A braked window at the end.
    std::array<PlantDrive, kLanes> drives{};
    for (std::size_t l = 0; l < kLanes; ++l) drives[l] = snapping_drive(period, l, period >= 320);
    step_both(scalar_plants, batch, drives);
  }

  bool any_snapped = false;
  for (std::size_t l = 0; l < kLanes; ++l) {
    expect_same_plant(scalar_plants[l], batch_plants[l], l);
    any_snapped = any_snapped || scalar_plants[l].cable_snapped();
  }
  // The profile is tuned to snap at least one cable; keep the coverage
  // honest if the physics drifts.
  EXPECT_TRUE(any_snapped);
}

TEST(BatchPlant, FullBatchWithMixedPerLaneStateMatchesScalarPlantsBitwise) {
  // All eight lanes, with the kernel's per-lane inputs differing inside
  // one period: brakes engage at staggered periods (free, coasting and
  // held lanes share periods, and lanes release again), one lane presses
  // on tissue (a non-zero joint force), and axis 1 never snaps
  // (kNeverSnaps: unwatched) while axis 0 snaps under drive.
  constexpr std::size_t kLanes = kBatchLanes;
  constexpr std::size_t kTissueLane = 3;
  std::vector<PhysicalRobot> scalar_plants;
  std::vector<PhysicalRobot> batch_plants;
  for (std::size_t l = 0; l < kLanes; ++l) {
    PlantConfig config = snapping_plant(200 + l);
    config.cable_snap_threshold[1] = kNeverSnaps;
    scalar_plants.emplace_back(config);
    batch_plants.emplace_back(config);
  }
  for (std::vector<PhysicalRobot>* plants : {&scalar_plants, &batch_plants}) {
    PhysicalRobot& robot = (*plants)[kTissueLane];
    TissueParams tissue;
    tissue.surface_point = robot.end_effector() + Vec3{0.0, 0.0, 2e-3};  // tool embedded 2 mm
    tissue.normal = Vec3{0.0, 0.0, 1.0};
    robot.add_tissue(tissue);
  }
  std::array<PhysicalRobot*, kLanes> ptrs{};
  for (std::size_t l = 0; l < kLanes; ++l) ptrs[l] = &batch_plants[l];
  BatchPlant batch(std::span<PhysicalRobot* const>{ptrs.data(), kLanes});

  // Periods lane l's brakes have been requested for (0 = released): 120
  // periods from 40 + 20 l.  The shafts hold after brake_engage_delay (50
  // periods), so well under 50 is coasting and well over is held.
  const auto braked_for = [](int period, std::size_t lane) {
    const int start = 40 + 20 * static_cast<int>(lane);
    return period >= start && period < start + 120 ? period - start + 1 : 0;
  };
  bool mixed_period = false;
  for (int period = 0; period < 360; ++period) {
    std::array<PlantDrive, kLanes> drives{};
    bool any_free = false;
    bool any_coasting = false;
    bool any_held = false;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const int braked = braked_for(period, l);
      drives[l] = snapping_drive(period, l, braked > 0);
      any_free = any_free || braked == 0;
      any_coasting = any_coasting || (braked > 0 && braked < 40);
      any_held = any_held || braked > 60;
    }
    mixed_period = mixed_period || (any_free && any_coasting && any_held);
    step_both(scalar_plants, batch, drives);
    for (std::size_t l = 0; l < kLanes; ++l) {
      ASSERT_EQ(scalar_plants[l].joint_positions()[0], batch_plants[l].joint_positions()[0])
          << "lane " << l << " diverged at period " << period;
    }
  }

  bool any_snapped = false;
  for (std::size_t l = 0; l < kLanes; ++l) {
    expect_same_plant(scalar_plants[l], batch_plants[l], l);
    EXPECT_FALSE(scalar_plants[l].snapped_axes()[1]) << "lane " << l;
    any_snapped = any_snapped || scalar_plants[l].snapped_axes()[0];
  }
  ASSERT_NE(batch_plants[kTissueLane].tissue(), nullptr);
  EXPECT_EQ(scalar_plants[kTissueLane].tissue()->max_depth(),
            batch_plants[kTissueLane].tissue()->max_depth());
  // Keep the coverage honest if the physics drifts: the run must mix
  // brake states in one period, touch the tissue and snap a cable.
  EXPECT_TRUE(mixed_period);
  EXPECT_GT(scalar_plants[kTissueLane].tissue()->max_depth(), 0.0);
  EXPECT_TRUE(any_snapped);
}

TEST(BatchPlant, CompatibleIgnoresSeedOnly) {
  PlantConfig a;
  PlantConfig b;
  b.seed = a.seed + 99;
  EXPECT_TRUE(BatchPlant::compatible(a, b));
  b.substep = a.substep * 0.5;
  EXPECT_FALSE(BatchPlant::compatible(a, b));
}

// --- estimator solve dedup --------------------------------------------------

TEST(EstimatorSolves, PredictThenCommitSameCommandCostsOneSolve) {
  DynamicModelEstimator estimator;
  estimator.observe_feedback(Vec3{0.1, -0.2, 0.05});
  EXPECT_EQ(estimator.solves(), 0u);

  const std::array<std::int16_t, 3> dac{1200, -800, 300};
  const Prediction pred = estimator.predict(dac);
  ASSERT_TRUE(pred.valid);
  EXPECT_EQ(estimator.solves(), 1u);

  estimator.commit(dac);
  EXPECT_EQ(estimator.solves(), 1u);  // cache hit: no re-integration

  // The cached next-state must be exactly what predict integrated.
  const State after = estimator.state();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(RavenDynamicsModel::motor_pos(after)[i], pred.mpos_next[i]);
    EXPECT_EQ(RavenDynamicsModel::motor_vel(after)[i], pred.mvel_next[i]);
    EXPECT_EQ(RavenDynamicsModel::joint_pos(after)[i], pred.jpos_next[i]);
    EXPECT_EQ(RavenDynamicsModel::joint_vel(after)[i], pred.jvel_next[i]);
  }
}

TEST(EstimatorSolves, CommitOfDifferentCommandReintegrates) {
  DynamicModelEstimator estimator;
  estimator.observe_feedback(Vec3{0.0, 0.0, 0.0});
  (void)estimator.predict(std::array<std::int16_t, 3>{500, 500, 500});
  EXPECT_EQ(estimator.solves(), 1u);
  estimator.commit({0, 0, 0});  // mitigation replaced the command
  EXPECT_EQ(estimator.solves(), 2u);
}

TEST(EstimatorSolves, FeedbackBetweenPredictAndCommitInvalidatesCache) {
  DynamicModelEstimator estimator;
  estimator.observe_feedback(Vec3{0.0, 0.0, 0.0});
  const std::array<std::int16_t, 3> dac{700, -700, 0};
  (void)estimator.predict(dac);
  estimator.observe_feedback(Vec3{0.001, 0.0, 0.0});  // moves the state
  estimator.commit(dac);
  EXPECT_EQ(estimator.solves(), 2u);  // cache correctly discarded
}

TEST(EstimatorSolves, ScreenedPipelineTickCostsOneSolve) {
  PipelineConfig config;
  DetectionThresholds huge;
  huge.motor_vel = huge.motor_acc = huge.joint_vel = Vec3::filled(1.0e18);
  config.detector.thresholds = huge;
  config.detector.ee_jump_limit = 0.0;
  DetectionPipeline pipeline(config);

  pipeline.set_engaged(true);
  pipeline.observe_feedback(Vec3{0.05, 0.05, 0.05});

  CommandPacket cmd;
  cmd.dac = {900, -400, 150};
  const CommandBytes bytes = encode_command(cmd);
  for (std::uint64_t tick = 1; tick <= 5; ++tick) {
    const DetectionPipeline::Outcome out = pipeline.process(std::span{bytes});
    EXPECT_TRUE(out.prediction.valid);
    EXPECT_FALSE(out.alarm);
    // One solve per screened tick — the predict/commit pair shares it.
    EXPECT_EQ(pipeline.estimator().solves(), tick);
    pipeline.observe_feedback(Vec3{0.05, 0.05, 0.05});
  }
}

// --- campaign-level byte identity -------------------------------------------

std::vector<CampaignJob> homogeneous_campaign() {
  std::vector<CampaignJob> jobs;
  DetectionThresholds tight;
  tight.motor_vel = tight.motor_acc = tight.joint_vel = Vec3::filled(1.0);
  for (int i = 0; i < 10; ++i) {
    CampaignJob job;
    job.params.seed = 400 + static_cast<std::uint64_t>(i) * 13;
    job.params.duration_sec = 1.5;
    job.thresholds = tight;
    if (i % 2 == 1) {
      job.attack.variant = AttackVariant::kTorqueInjection;
      job.attack.magnitude = 10000 + 1500 * i;
      job.attack.duration_packets = 48;
      job.attack.delay_packets = 280 + static_cast<std::uint32_t>(i) * 37;
    }
    job.label = "batchjob" + std::to_string(i);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::string deterministic_report(int workers, int lanes) {
  CampaignOptions options;
  options.jobs = workers;
  options.lanes = lanes;
  const CampaignReport report = CampaignRunner(options).run(homogeneous_campaign());
  std::ostringstream os;
  report.write_json(os, /*include_timing=*/false);
  return os.str();
}

TEST(BatchCampaign, ReportByteIdenticalAcrossLaneAndWorkerCounts) {
  const std::string scalar = deterministic_report(/*workers=*/1, /*lanes=*/1);
  EXPECT_EQ(scalar, deterministic_report(1, 8));
  EXPECT_EQ(scalar, deterministic_report(3, 8));
  EXPECT_EQ(scalar, deterministic_report(8, 8));
  EXPECT_EQ(scalar, deterministic_report(8, 3));
}

TEST(BatchCampaign, LockstepGroupMatchesSoloRunsIncludingTraces) {
  // Three sims with different seeds/attacks but shared physics: run them
  // once solo and once as a lockstep group; traces must match bitwise.
  const auto build = [](std::uint64_t seed, bool attacked) {
    CampaignJob job;
    job.params.seed = seed;
    job.params.duration_sec = 1.2;
    DetectionThresholds tight;
    tight.motor_vel = tight.motor_acc = tight.joint_vel = Vec3::filled(1.0);
    job.thresholds = tight;
    if (attacked) {
      job.attack.variant = AttackVariant::kTorqueInjection;
      job.attack.magnitude = 16000;
      job.attack.duration_packets = 64;
      job.attack.delay_packets = 300;
      job.attack.seed = 77;
    }
    return job;
  };
  const std::array<CampaignJob, 3> jobs{build(21, false), build(22, true), build(23, true)};

  auto run_one = [](const CampaignJob& job, TraceRecorder& trace,
                    SurgicalSim* group_lane[], std::size_t lane) {
    SimConfig cfg = make_session(job.params, job.thresholds, job.mitigation);
    auto sim = std::make_unique<SurgicalSim>(std::move(cfg));
    sim->set_trace(&trace);
    AttackSpec seeded = job.attack;
    if (seeded.seed == 0) seeded.seed = job.params.seed * 131 + 17;
    sim->install(build_attack(seeded));
    if (group_lane == nullptr) {
      sim->run(job.params.duration_sec);
    } else {
      group_lane[lane] = sim.get();
    }
    return sim;
  };

  std::array<TraceRecorder, 3> solo_traces;
  std::vector<std::unique_ptr<SurgicalSim>> solo_sims;
  for (std::size_t k = 0; k < 3; ++k) {
    solo_sims.push_back(run_one(jobs[k], solo_traces[k], nullptr, k));
  }

  std::array<TraceRecorder, 3> group_traces;
  SurgicalSim* lanes[3] = {};
  std::vector<std::unique_ptr<SurgicalSim>> group_sims;
  for (std::size_t k = 0; k < 3; ++k) {
    group_sims.push_back(run_one(jobs[k], group_traces[k], lanes, k));
  }
  LockstepGroup group(std::span<SurgicalSim* const>{lanes, 3});
  group.run(jobs[0].params.duration_sec);

  for (std::size_t k = 0; k < 3; ++k) {
    const auto solo = solo_traces[k].samples();
    const auto batched = group_traces[k].samples();
    ASSERT_EQ(solo.size(), batched.size()) << "lane " << k;
    for (std::size_t t = 0; t < solo.size(); ++t) {
      EXPECT_EQ(solo[t].tick, batched[t].tick);
      for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(solo[t].ee_truth[i], batched[t].ee_truth[i]) << "lane " << k << " tick " << t;
        EXPECT_EQ(solo[t].motor_pos[i], batched[t].motor_pos[i]) << "lane " << k << " tick " << t;
        EXPECT_EQ(solo[t].motor_vel[i], batched[t].motor_vel[i]) << "lane " << k << " tick " << t;
        EXPECT_EQ(solo[t].joint_pos[i], batched[t].joint_pos[i]) << "lane " << k << " tick " << t;
        EXPECT_EQ(solo[t].dac[i], batched[t].dac[i]) << "lane " << k << " tick " << t;
      }
      EXPECT_EQ(solo[t].state, batched[t].state) << "lane " << k << " tick " << t;
      EXPECT_EQ(solo[t].brakes, batched[t].brakes) << "lane " << k << " tick " << t;
      EXPECT_EQ(solo[t].detector_alarm, batched[t].detector_alarm)
          << "lane " << k << " tick " << t;
      EXPECT_EQ(solo[t].predicted_ee_disp, batched[t].predicted_ee_disp)
          << "lane " << k << " tick " << t;
    }
    EXPECT_EQ(solo_sims[k]->outcome().max_ee_jump_window,
              group_sims[k]->outcome().max_ee_jump_window);
    EXPECT_EQ(solo_sims[k]->outcome().detector_alarm_tick,
              group_sims[k]->outcome().detector_alarm_tick);
    EXPECT_EQ(solo_sims[k]->outcome().cable_snapped, group_sims[k]->outcome().cable_snapped);
  }
}

}  // namespace
}  // namespace rg
