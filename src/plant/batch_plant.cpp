#include "plant/batch_plant.hpp"

#include <limits>

#include "common/clock.hpp"
#include "common/error.hpp"

namespace rg {

BatchPlant::BatchPlant(std::span<PhysicalRobot* const> plants)
    : model_([&]() -> const RavenDynamicsModel& {
        require(!plants.empty(), "BatchPlant needs at least one plant");
        return plants.front()->model();
      }()) {
  require(plants.size() <= kBatchLanes, "BatchPlant: too many plants for the lane count");
  n_ = plants.size();
  for (std::size_t l = 0; l < n_; ++l) {
    require(plants[l] != nullptr, "BatchPlant: null plant");
    require(compatible(plants.front()->config(), plants[l]->config()),
            "BatchPlant: incompatible plant configs in one batch");
    plants_[l] = plants[l];
  }
}

bool BatchPlant::compatible(const PlantConfig& a, const PlantConfig& b) noexcept {
  PlantConfig a_modulo_seed = a;
  a_modulo_seed.seed = b.seed;
  return a_modulo_seed == b;
}

RG_REALTIME void BatchPlant::step_control_period(std::span<const PlantDrive> drives) {
  // rg-lint: allow(call) -- caller-contract check; never throws on a sized batch
  require(drives.size() == n_, "BatchPlant: one PlantDrive per lane required");

  // Phase 1 — per-lane scalar period setup (brake timing, noise draw from
  // the lane's own RNG, tissue reaction, shaft-lock velocity zeroing).
  std::array<PhysicalRobot::PeriodSetup, kBatchLanes> setups{};
  for (std::size_t l = 0; l < n_; ++l) {
    setups[l] = plants_[l]->begin_period(drives[l].currents, drives[l].brakes_engaged,
                                         kControlPeriodSec, drives[l].wrist_currents);
  }

  // Gather lane states; unused lanes replicate lane 0 so their (discarded)
  // math stays finite.
  BatchState x;
  x.set_lane(0, plants_[0]->state_);
  x.broadcast(0);
  for (std::size_t l = 1; l < n_; ++l) x.set_lane(l, plants_[l]->state_);

  // Pack the period's lane inputs once.  An axis is watched for overload
  // under the scalar integrate_period's rule — intact, with a threshold
  // below kNeverSnaps; every other lane-axis gets +inf.
  BatchPeriod period;
  BatchLanes3 currents{};
  for (std::size_t l = 0; l < kBatchLanes; ++l) {
    const bool used = l < n_;
    const PhysicalRobot::PeriodSetup& su = setups[used ? l : 0];
    for (std::size_t i = 0; i < 3; ++i) {
      currents[i][l] = su.currents[i];
      period.extra_motor_torque[i][l] = su.fx.extra_motor_torque[i];
      period.cable_scale[i][l] = su.fx.cable_scale[i];
      period.extra_joint_force[i][l] = su.fx.extra_joint_force[i];
      double threshold = std::numeric_limits<double>::infinity();
      if (used && !plants_[l]->snapped_[i] &&
          plants_[l]->config_.cable_snap_threshold[i] < kNeverSnaps) {
        threshold = plants_[l]->config_.cable_snap_threshold[i];
      }
      period.snap_threshold[i][l] = threshold;
    }
    period.shaft_held[l] = su.shaft_locked ? 1.0 : 0.0;
  }
  model_.tau_em_from_currents(currents, period.tau_em);

  // Phase 2 — the whole substep loop in one kernel call.
  model_.step_period(x, period, plants_[0]->config_.substep, kControlPeriodSec);

  // Phase 3 — scatter states and snaps back, then the per-lane wrist
  // update.  A zero cable scale is an axis that was already snapped or
  // snapped this period.
  for (std::size_t l = 0; l < n_; ++l) {
    plants_[l]->state_ = x.lane(l);
    for (std::size_t i = 0; i < 3; ++i) {
      if (period.cable_scale[i][l] == 0.0) plants_[l]->snapped_[i] = true;
    }
    plants_[l]->finish_period(setups[l]);
  }
}

}  // namespace rg
