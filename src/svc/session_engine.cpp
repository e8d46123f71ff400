#include "svc/session_engine.hpp"

#include <array>
#include <bit>

#include "dynamics/batch_model.hpp"
#include "obs/span.hpp"
#include "plant/batch_plant.hpp"

namespace rg::svc {

namespace {

JointVector default_initial_joints(const ControlConfig& control) {
  // Slightly off the homing target so the Init phase does real work
  // before teleoperation.
  JointVector q = control.limits.midpoint();
  q[0] += 0.05;
  q[1] -= 0.04;
  q[2] += 0.01;
  return q;
}

}  // namespace

SessionEngine::SessionEngine(const SessionEngineConfig& config)
    : config_(config),
      control_(config.control),
      plc_(config.plc),
      board_(plc_, config.channel),
      plant_(config.plant) {
  if (config_.screening) pipeline_.emplace(config_.detection);
  plant_.set_joint_config(config_.initial_joints.value_or(default_initial_joints(config_.control)));
  board_.latch_encoders(plant_.motor_positions(), plant_.wrist_positions());
  feedback_ = board_.build_feedback();
  if (config_.calibration.enabled) {
    sketch_ = std::make_unique<ThresholdSketch>(config_.calibration.target_quantile);
  }
}

RG_REALTIME void SessionEngine::tick_begin(std::optional<std::span<const std::uint8_t>> itp) {
  screened_ = false;
  last_ = TickResult{};

  // 1. The physical start buttons (control software and PLC together),
  //    after the configured E-STOP lead-in.
  if (!started_ && ticks_ >= config_.start_delay_ticks) {
    control_.press_start();
    plc_.press_start();
    started_ = true;
  }

  // 2. USB read: the encoders the plant latched at the end of the previous
  //    tick, through the read interposers (a dropped read leaves the
  //    software consuming its previous buffer).
  FeedbackBytes feedback = board_.build_feedback();
  if (read_chain_.process(std::span{feedback}, ticks_)) feedback_ = feedback;

  // 3. The 1 kHz control cycle under this tick's datagram.
  cmd_ = control_.tick(itp, std::span{feedback_});

  // 4. USB write: a malicious wrapper mutates the buffer after every
  //    software safety check has already passed (the TOCTOU window).
  delivered_ = write_chain_.process(std::span{cmd_}, ticks_);

  // 5. Detection pipeline (trusted hardware, downstream of the attacker):
  //    feedback + screening up to the model solve.
  if (pipeline_) {
    pipeline_->set_engaged(!plc_.brakes_engaged());
    MotorVector encoder_angles;
    for (std::size_t i = 0; i < 3; ++i) encoder_angles[i] = board_.encoder_angle(i);
    pipeline_->observe_feedback(encoder_angles);
    if (delivered_) {
      screen_ = pipeline_->begin_process(std::span{cmd_});
      screened_ = true;
    }
  }
}

RG_REALTIME void SessionEngine::tick_resolve(const RavenDynamicsModel::State& next) {
  // 6. Verdict + mitigation from the solved one-step-ahead state.
  if (screened_) {
    out_ = pipeline_->finish_process(screen_, next);
    last_ = TickResult{true, out_.alarm, out_.blocked};
    if (out_.alarm) ++alarms_;
    if (out_.blocked) {
      ++blocked_;
      cmd_ = out_.bytes;
      // E-STOP mitigation: the trusted module also asserts the estop line
      // so the PLC drops the brakes immediately.
      if (config_.detection.mitigation == MitigationStrategy::kEStop &&
          config_.detection.mitigation_enabled) {
        plc_.press_estop();
      }
    }
    fold_digest(out_);
    if (sketch_) sketch_->observe(out_.prediction);
  }

  // 7. The board latches whatever bytes arrived.  It refuses malformed
  //    commands and keeps its previous latch; then no new command
  //    executed, so the tick reports unscreened rather than pretending the
  //    verdict drove the plant.
  if (delivered_) {
    const Status accepted = board_.receive_command(std::span<const std::uint8_t>{cmd_});
    if (!accepted.ok()) last_.screened = false;
  }

  // 8. PLC safety processor tick (watchdog timeout check), then the drive
  //    the plant executes this period.  9, the plant step, runs between
  //    tick_resolve and tick_finish: advance_lanes executes drive().
  plc_.tick();
  drive_ = PlantDrive{board_.modeled_currents(), plc_.brakes_engaged(), board_.wrist_currents()};
}

RG_REALTIME SessionEngine::TickResult SessionEngine::tick_finish() {
  // 10. Encoders for the next cycle.
  board_.latch_encoders(plant_.motor_positions(), plant_.wrist_positions());
  ++ticks_;
  return last_;
}

RG_REALTIME SessionEngine::TickResult SessionEngine::tick(
    std::optional<std::span<const std::uint8_t>> itp) {
  tick_begin(itp);
  SessionEngine* const self = this;
  advance_lanes(std::span<SessionEngine* const>{&self, 1}, nullptr, nullptr);
  return tick_finish();
}

RG_REALTIME void SessionEngine::fold_digest(const DetectionPipeline::Outcome& out) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto fold = [&](std::uint64_t v) {
    digest_ ^= v;
    digest_ *= kPrime;
  };
  fold(static_cast<std::uint64_t>(out.alarm) | (static_cast<std::uint64_t>(out.blocked) << 1) |
       (static_cast<std::uint64_t>(out.verdict.worst_axis) << 2));
  fold(std::bit_cast<std::uint64_t>(out.prediction.ee_displacement));
}

RG_REALTIME RG_DETERMINISTIC void advance_lanes(std::span<SessionEngine* const> lanes,
                                                const BatchRavenModel* est_model,
                                                BatchPlant* plants) {
  const std::size_t n = lanes.size();
  if (n == 1) {
    SessionEngine& lane = *lanes[0];
    RavenDynamicsModel::State next{};
    if (lane.needs_solve()) next = lane.pipeline().estimator().solve(lane.pending_solve());
    lane.tick_resolve(next);
    RG_SPAN("plant.step");
    const PlantDrive& d = lane.drive();
    lane.plant().step_control_period(d.currents, d.brakes_engaged, d.wrist_currents);
    return;
  }

  // Phase B — one batched solve for the lanes that screened a command this
  // tick.  Lanes that didn't (disengaged, undecodable, no feedback, no
  // pipeline) get a discarded broadcast lane.
  std::array<RavenDynamicsModel::State, kBatchLanes> next{};
  std::array<bool, kBatchLanes> solving{};
  std::size_t first_solving = kBatchLanes;
  for (std::size_t l = 0; l < n; ++l) {
    solving[l] = lanes[l]->needs_solve();
    if (solving[l] && first_solving == kBatchLanes) first_solving = l;
  }
  if (first_solving != kBatchLanes) {
    RG_SPAN("estimator.solve_batch");
    const PendingSolve& ref = lanes[first_solving]->pending_solve();
    BatchState x;
    BatchLanes3 currents{};
    x.set_lane(0, ref.x0);
    for (std::size_t i = 0; i < 3; ++i) currents[i].fill(ref.currents[i]);
    x.broadcast(0);
    for (std::size_t l = 0; l < n; ++l) {
      if (!solving[l]) continue;
      // The lanes share model/solver/step, so every pending carries the
      // reference's h and solver.
      const PendingSolve& pending = lanes[l]->pending_solve();
      x.set_lane(l, pending.x0);
      for (std::size_t i = 0; i < 3; ++i) currents[i][l] = pending.currents[i];
    }
    est_model->step(x, currents, ref.h, ref.solver);
    for (std::size_t l = 0; l < n; ++l) {
      if (solving[l]) next[l] = x.lane(l);
    }
  }

  // Phase C — verdicts, mitigation, board latch, PLC.
  std::array<PlantDrive, kBatchLanes> drives{};
  for (std::size_t l = 0; l < n; ++l) {
    lanes[l]->tick_resolve(next[l]);
    drives[l] = lanes[l]->drive();
  }

  // Phase D — one batched plant period over all lanes.
  std::array<PhysicalRobot*, kBatchLanes> robots{};
  for (std::size_t l = 0; l < n; ++l) robots[l] = &lanes[l]->plant();
  std::optional<BatchPlant> built;
  if (plants == nullptr) plants = &built.emplace(std::span<PhysicalRobot* const>{robots.data(), n});
  RG_SPAN("plant.step_batch");
  plants->step_control_period(std::span<const PlantDrive>{drives.data(), n});
}

}  // namespace rg::svc
