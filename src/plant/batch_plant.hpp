// Lane-parallel plant stepping: up to kBatchLanes PhysicalRobots advanced
// through the same control period by one batched kernel call.
//
// Each lane runs the *same* per-period logic as the scalar
// PhysicalRobot::step_control_period.  begin_period (brake timing, drive
// noise from the lane's own RNG, tissue reaction, shaft-lock velocity
// zeroing) and finish_period (wrist axes) stay per-plant scalar code.
// The middle — 20 RK4 substeps with the shaft-lock select and the cable
// overload watch, ~all of the work — is one BatchRavenModel::step_period
// call over inputs packed once per period (dynamics/batch_model.hpp).
// Because that kernel is bit-identical to the scalar substep loop, every
// lane's trajectory matches what that plant would produce stepped alone.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "common/realtime.hpp"
#include "dynamics/batch_model.hpp"
#include "plant/physical_robot.hpp"

namespace rg {

class BatchPlant {
 public:
  /// All plants must be pairwise compatible() and at most kBatchLanes.
  /// The plants are borrowed, not owned — they must outlive the batch.
  explicit BatchPlant(std::span<PhysicalRobot* const> plants);

  /// True when two plant configs may share a batch: identical physics and
  /// integration settings; only the RNG seed may differ (each lane keeps
  /// its own noise stream).
  [[nodiscard]] static bool compatible(const PlantConfig& a, const PlantConfig& b) noexcept;

  /// Batched twin of PhysicalRobot::step_control_period: executes one
  /// control period on every lane.  drives.size() must equal lanes().
  RG_REALTIME void step_control_period(std::span<const PlantDrive> drives);

  [[nodiscard]] std::size_t lanes() const noexcept { return n_; }

 private:
  std::array<PhysicalRobot*, kBatchLanes> plants_{};
  std::size_t n_ = 0;
  BatchRavenModel model_;
};

}  // namespace rg
