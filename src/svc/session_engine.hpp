// SessionEngine: the trusted chain of one teleoperation session.
//
// Steps 3–10 of the paper's Fig. 2 pipeline, implemented once:
//
//   board feedback --USB read--> [read interposers] --> control software
//   control software --USB write--> [write interposers] --> detection
//   pipeline (trusted) --> verdict + mitigation --> USB board --> PLC
//   --> plant drive --> plant --> encoder latch
//
// plus the verdict digest and the optional calibration sketch.  Two hosts
// drive it.  The gateway feeds it *externally ingested* ITP datagrams: one
// accepted datagram advances the session by exactly one 1 kHz control
// tick, so a session's verdict stream is a pure function of its datagram
// stream, which is what makes gateway runs deterministic at any shard
// count.  The simulator (sim/surgical_sim.hpp) wraps one engine with the
// master console, the UDP channel, the ITP interposers and the impact
// oracle.  On the gateway the USB interposer chains stay empty; attacks
// install there only in simulation.
//
// The tick is phase-split (begin / solve / resolve / plant / finish) so
// advance_lanes() below can run the two model-physics hot spots — the
// estimator's one-step solve and the plant's RK4 substep loop — through
// the batched SoA kernels (dynamics/batch_model.hpp) across up to
// kBatchLanes engines.  The batched kernels are bit-identical to the
// scalar ones, so batching never perturbs a verdict.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "attack/interposer.hpp"
#include "common/realtime.hpp"
#include "control/control_software.hpp"
#include "core/pipeline.hpp"
#include "core/quantile_sketch.hpp"
#include "hw/plc.hpp"
#include "hw/usb_board.hpp"
#include "plant/physical_robot.hpp"

namespace rg {
class BatchPlant;
class BatchRavenModel;
}  // namespace rg

namespace rg::svc {

/// Per-session streaming calibration: when enabled the engine feeds every
/// valid prediction into a ThresholdSketch on the tick path (observe() is
/// RG_REALTIME), so the gateway can compare a live session's quantiles
/// against its cohort's committed thresholds (drift detection) and merge
/// session sketches into a cohort calibration.
struct SessionCalibrationConfig {
  bool enabled = false;
  /// Quantile the sketch tracks exactly (see target_quantile_for()).
  double target_quantile = kDefaultThresholdPercentile / 100.0;
};

struct SessionEngineConfig {
  ControlConfig control{};
  PlantConfig plant{};
  PlcConfig plc{};
  MotorChannelConfig channel{};
  PipelineConfig detection{};
  /// Screen every delivered command through `detection`.  false runs the
  /// stock RAVEN chain with no detection pipeline (the simulator's runs
  /// without thresholds).
  bool screening = true;
  SessionCalibrationConfig calibration{};
  /// Plant start configuration (defaults to just off the homing target so
  /// homing does real work).
  std::optional<JointVector> initial_joints{};
  /// E-STOP lead-in: the control software and PLC start buttons are
  /// pressed at this tick.  A live gateway session starts on its first
  /// tick; the simulator waits so the robot shows E-STOP first, as on the
  /// real system (the offline packet analysis needs all four states).
  std::uint32_t start_delay_ticks = 0;
};

class SessionEngine {
 public:
  /// What one tick produced (the session's externally visible verdict).
  struct TickResult {
    bool screened = false;
    bool alarm = false;
    bool blocked = false;
  };

  explicit SessionEngine(const SessionEngineConfig& config);

  /// Scalar convenience: one full control tick consuming `itp` (nullopt
  /// models a tick with no datagram: lost, dropped, or a gap the caller
  /// chose to tick through).
  RG_REALTIME TickResult tick(std::optional<std::span<const std::uint8_t>> itp);

  // --- phase-split tick (advance_lanes drives B–D across engines) ----------
  /// Start buttons, feedback, control cycle, USB write hop and screening
  /// up to the model solve.
  RG_REALTIME void tick_begin(std::optional<std::span<const std::uint8_t>> itp);
  [[nodiscard]] RG_REALTIME bool needs_solve() const noexcept {
    return screened_ && !screen_.complete;
  }
  [[nodiscard]] RG_REALTIME const PendingSolve& pending_solve() const noexcept {
    return screen_.pending;
  }
  /// Verdict + mitigation + board latch + PLC tick; stashes the plant
  /// drive for this period.  `next` is ignored unless needs_solve().
  RG_REALTIME void tick_resolve(const RavenDynamicsModel::State& next);
  [[nodiscard]] RG_REALTIME const PlantDrive& drive() const noexcept { return drive_; }
  /// Encoder latch + per-session bookkeeping; the caller has stepped the
  /// plant (scalar or batched lane) with drive() in between.
  RG_REALTIME TickResult tick_finish();

  // --- USB hops (attack installation points; empty on the gateway) --------
  [[nodiscard]] InterposerChain& read_chain() noexcept { return read_chain_; }
  [[nodiscard]] InterposerChain& write_chain() noexcept { return write_chain_; }

  // --- introspection -------------------------------------------------------
  [[nodiscard]] RG_REALTIME PhysicalRobot& plant() noexcept { return plant_; }
  /// The detection pipeline; only valid when the config enables screening.
  [[nodiscard]] RG_REALTIME DetectionPipeline& pipeline() noexcept { return *pipeline_; }
  [[nodiscard]] ControlSoftware& control() noexcept { return control_; }
  [[nodiscard]] const Plc& plc() const noexcept { return plc_; }
  [[nodiscard]] const UsbBoard& board() const noexcept { return board_; }
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
  [[nodiscard]] std::uint64_t alarms() const noexcept { return alarms_; }
  [[nodiscard]] std::uint64_t blocked() const noexcept { return blocked_; }
  /// Whether the session's PLC has latched E-STOP (absorbing until reset;
  /// surfaced through ShardSessionStats and the admin /readyz probe).
  [[nodiscard]] bool estop_latched() const noexcept { return plc_.estop_latched(); }
  [[nodiscard]] const TickResult& last() const noexcept { return last_; }
  /// This tick's detection outcome, or nullptr when nothing was screened
  /// (no pipeline, or the write interposers dropped the command).  Valid
  /// from tick_resolve until the next tick_begin.
  [[nodiscard]] const DetectionPipeline::Outcome* detection() const noexcept {
    return screened_ ? &out_ : nullptr;
  }

  /// FNV-1a fold of every screened tick's verdict (alarm/blocked/worst
  /// axis and the bit pattern of the predicted end-effector displacement).
  /// Two runs that fed a session the same datagram stream must produce the
  /// same digest regardless of sharding or batching — the determinism
  /// probe tests/test_gateway.cpp asserts.
  [[nodiscard]] std::uint64_t verdict_digest() const noexcept { return digest_; }

  /// The session's streaming calibration sketch, or nullptr when
  /// calibration is disabled.  Owned by the engine; read it only from the
  /// thread that advances the session (the owning shard).
  [[nodiscard]] const ThresholdSketch* calibration_sketch() const noexcept {
    return sketch_.get();
  }

 private:
  RG_REALTIME void fold_digest(const DetectionPipeline::Outcome& out) noexcept;

  SessionEngineConfig config_;
  ControlSoftware control_;
  Plc plc_;
  UsbBoard board_;
  PhysicalRobot plant_;
  std::optional<DetectionPipeline> pipeline_;
  InterposerChain read_chain_;
  InterposerChain write_chain_;

  // Per-tick scratch carried across the phase boundaries.
  CommandBytes cmd_{};
  bool delivered_ = false;  ///< the write interposers passed the command on
  bool screened_ = false;
  DetectionPipeline::ScreenState screen_{};
  DetectionPipeline::Outcome out_{};
  PlantDrive drive_{};
  /// The feedback buffer the control software reads; a dropped USB read
  /// leaves it holding the previous delivery.
  FeedbackBytes feedback_{};

  /// Heap-allocated (once, at construction) so disabled sessions don't
  /// pay the sketch's ~74 KB of exact-phase buffers.
  std::unique_ptr<ThresholdSketch> sketch_;

  bool started_ = false;
  std::uint64_t ticks_ = 0;
  std::uint64_t alarms_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  TickResult last_{};
};

/// One lane round, phases B–D of a control tick, over engines that have
/// each run tick_begin():
///
///   B. the estimator solves — one batched solve for the lanes that need
///      one (the others get a discarded broadcast lane);
///   C. every lane's tick_resolve (verdict, mitigation, board, PLC);
///   D. the plant period — one BatchPlant period over all lanes.
///
/// A single lane takes the scalar path (DynamicModelEstimator::solve and
/// PhysicalRobot::step_control_period).  Otherwise the lanes must share
/// plant physics and estimator model/solver/step, `est_model` must be the
/// batched twin of that estimator model, and `plants` is either a
/// BatchPlant over exactly these lanes' plants (kept across rounds by
/// callers whose lanes never change) or null to build one for this round.
/// Each lane ends in the state its own scalar tick would have left it in.
RG_REALTIME void advance_lanes(std::span<SessionEngine* const> lanes,
                               const BatchRavenModel* est_model, BatchPlant* plants);

}  // namespace rg::svc
