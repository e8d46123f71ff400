// SurgicalSim: the co-simulation harness (paper Fig. 7(a)).
//
// Wires the full system at 1 kHz around one svc::SessionEngine, the
// trusted chain the gateway runs too:
//
//   master console --ITP/UDP--> [itp interposers] --> SessionEngine:
//     control software --USB write--> [write interposers] --> detection
//     pipeline (optional, trusted) --> USB board --> motors --> PLANT
//     PLANT --> encoders --> USB board --USB read--> [read interposers]
//     --> control software;  PLC watches Byte 0's watchdog bit throughout.
//
// The sim adds only what the gateway does not have: the console, the UDP
// channel, the ITP interposer chain, the ground-truth impact oracle and
// telemetry.  Attack wrappers are installed on the interposer chains —
// the same hops a malicious LD_PRELOAD library grabs on the real robot.
// The detection pipeline sits downstream of the write interposers
// (trusted hardware), so it screens post-attack bytes.
//
// The oracle is the paper's adverse-impact criterion: a >1 mm
// end-effector displacement within 1–2 ms ("based on feedback from
// expert surgeons"), plus cable-snap damage latching.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "attack/attack_engine.hpp"
#include "attack/interposer.hpp"
#include "common/clock.hpp"
#include "net/master_console.hpp"
#include "net/udp_channel.hpp"
#include "obs/events.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/trace.hpp"
#include "svc/session_engine.hpp"

namespace rg {

struct SimConfig {
  /// The trusted chain.  By default it runs without a detection pipeline
  /// (the stock RAVEN system; make_session() arms one when given
  /// thresholds) and presses start after a 100-tick E-STOP lead-in.
  svc::SessionEngineConfig engine{.screening = false, .start_delay_ticks = 100};
  UdpChannelConfig network{};
  std::shared_ptr<const Trajectory> trajectory;
  PedalSchedule pedal = PedalSchedule::hold_from(1.2);
  OrientationMotion orientation{};
};

/// Aggregated per-run outcome used by the experiment harnesses.
struct RunOutcome {
  double max_ee_jump_1ms = 0.0;   ///< largest |ee(t) - ee(t-1ms)| (m)
  double max_ee_jump_2ms = 0.0;   ///< largest |ee(t) - ee(t-2ms)| (m)
  double max_ee_jump_window = 0.0;  ///< largest excess displacement in any <=kOracleWindow ms window (m)
  std::optional<std::uint64_t> adverse_impact_tick{};  ///< first >1mm abrupt jump
  std::optional<std::uint64_t> raven_fault_tick{};     ///< software safety check fired
  std::optional<std::uint64_t> plc_estop_tick{};       ///< PLC latched E-STOP
  std::optional<std::uint64_t> detector_alarm_tick{};  ///< pipeline alarm
  bool cable_snapped = false;

  [[nodiscard]] bool adverse_impact() const noexcept {
    return adverse_impact_tick.has_value() || cable_snapped;
  }
  [[nodiscard]] bool raven_detected() const noexcept {
    return raven_fault_tick.has_value();
  }
  [[nodiscard]] bool detector_alarmed() const noexcept {
    return detector_alarm_tick.has_value();
  }
  /// Did the detector fire before the physical impact (preemptive)?
  [[nodiscard]] bool detected_preemptively() const noexcept {
    if (!detector_alarm_tick) return false;
    if (!adverse_impact_tick) return true;
    return *detector_alarm_tick <= *adverse_impact_tick;
  }
};

class SurgicalSim {
 public:
  explicit SurgicalSim(SimConfig config);

  /// Interposer chains (attack installation points).
  [[nodiscard]] InterposerChain& itp_chain() noexcept { return itp_chain_; }
  [[nodiscard]] InterposerChain& write_chain() noexcept { return engine_.write_chain(); }
  [[nodiscard]] InterposerChain& read_chain() noexcept { return engine_.read_chain(); }

  /// Install a full attack artifact set on the hops it compromises.
  void install(const AttackArtifacts& artifacts);

  /// One 1 kHz tick.
  void step();

  /// Run for a duration of simulated seconds.
  void run(double seconds);

  // --- component access -----------------------------------------------------
  [[nodiscard]] const SimClock& clock() const noexcept { return clock_; }
  /// The trusted chain (control, PLC, board, plant, detection pipeline).
  [[nodiscard]] svc::SessionEngine& engine() noexcept { return engine_; }
  [[nodiscard]] ControlSoftware& control() noexcept { return engine_.control(); }
  [[nodiscard]] PhysicalRobot& plant() noexcept { return engine_.plant(); }
  [[nodiscard]] const Plc& plc() const noexcept { return engine_.plc(); }
  [[nodiscard]] MasterConsole& console() noexcept { return console_; }
  [[nodiscard]] DetectionPipeline* pipeline() noexcept {
    return config_.engine.screening ? &engine_.pipeline() : nullptr;
  }
  [[nodiscard]] const RunOutcome& outcome() const noexcept { return outcome_; }

  /// Attach a trace recorder (caller owns it; must outlive the sim run).
  void set_trace(TraceRecorder* trace) noexcept { trace_ = trace; }

  /// Attach a structured safety-event log (caller owns it).  The sim
  /// emits state transitions, attack injections, detector alarms,
  /// mitigation actions, RAVEN faults, and PLC E-stops as they happen.
  /// `context` fields (e.g. a campaign job index) are prepended to every
  /// event so interleaved multi-session logs stay attributable.
  void set_event_log(obs::EventLog* events,
                     std::vector<obs::EventField> context = {}) {
    events_ = events;
    event_context_ = std::move(context);
  }

  /// Attach a flight recorder (caller owns it).  Every tick appends one
  /// frame; the first detector alarm or E-stop freezes the ring and — if
  /// an event log is attached — dumps the frames as a `flight_dump`
  /// event.
  void set_flight_recorder(obs::FlightRecorder* flight) noexcept { flight_ = flight; }

  /// Observe every detection-pipeline outcome (threshold learning, ROC
  /// sweeps).  Caller-owned callable; must outlive the sim run.
  using DetectionObserver = std::function<void(const DetectionPipeline::Outcome&)>;
  void set_detection_observer(DetectionObserver observer) {
    detection_observer_ = std::move(observer);
  }

 private:
  // --- phase-split tick ----------------------------------------------------
  // step() == tick_begin → svc::advance_lanes over this sim's engine →
  // tick_finish.  LockstepGroup (sim/lockstep.hpp) runs the same round over
  // many sims' engines so the estimator solves and the plant substeps run
  // batched.

  /// Console → network → ITP interposers → the engine's tick_begin.
  void tick_begin();
  /// The engine's tick_finish, then the oracle, trace/flight/event
  /// bookkeeping and the clock tick.
  void tick_finish();

  friend class LockstepGroup;

  void update_oracle();
  void emit_event(std::string_view kind, std::initializer_list<obs::EventField> fields);
  void dump_flight(std::string_view reason);

  SimConfig config_;
  SimClock clock_;
  MasterConsole console_;
  UdpChannel udp_;
  svc::SessionEngine engine_;
  InterposerChain itp_chain_;

  // Oracle state: rings of recent ground-truth end-effector positions and
  // of the operator's *clean* (pre-attack) commanded positions; "abrupt
  // jump" is excess actual displacement over commanded displacement.
  // 32 ms window: long enough for the arm's mechanics to express a real
  // jump (motor -> cable -> joint takes ~10-30 ms), short enough that a
  // slow drift at surgical speeds is not mislabelled as "abrupt".
  static constexpr std::size_t kOracleWindow = 32;  // ticks (= ms)
  std::array<Position, kOracleWindow + 1> ee_ring_{};
  std::array<Position, kOracleWindow + 1> cmd_ring_{};
  std::size_t ee_head_ = 0;
  std::size_t ee_history_ = 0;
  bool clean_pedal_ = false;
  Vec3 clean_increment_{};
  Position clean_desired_{};
  bool clean_desired_valid_ = false;
  RunOutcome outcome_{};

  TraceRecorder* trace_ = nullptr;
  DetectionObserver detection_observer_;

  // --- telemetry (optional, caller-owned sinks) ---------------------------
  obs::EventLog* events_ = nullptr;
  std::vector<obs::EventField> event_context_;
  obs::FlightRecorder* flight_ = nullptr;
  AttackArtifacts installed_{};       ///< for injection-count bookkeeping
  std::uint64_t last_injections_ = 0;
  RobotState last_state_ = RobotState::kEStop;
  bool last_alarm_ = false;
  bool last_blocked_ = false;
  bool raven_fault_reported_ = false;
  bool plc_estop_reported_ = false;
  bool adverse_impact_reported_ = false;
};

}  // namespace rg
