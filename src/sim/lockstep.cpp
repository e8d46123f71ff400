#include "sim/lockstep.hpp"

#include "common/error.hpp"

namespace rg {

namespace {

std::array<PhysicalRobot*, kBatchLanes> gather_plants(std::span<SurgicalSim* const> sims) {
  std::array<PhysicalRobot*, kBatchLanes> plants{};
  for (std::size_t l = 0; l < sims.size(); ++l) plants[l] = &sims[l]->plant();
  return plants;
}

}  // namespace

LockstepGroup::LockstepGroup(std::span<SurgicalSim* const> sims)
    : plants_([&]() {
        require(!sims.empty() && sims.size() <= kBatchLanes,
                "LockstepGroup: 1..kBatchLanes sims required");
        for (SurgicalSim* sim : sims) require(sim != nullptr, "LockstepGroup: null sim");
        const auto plants = gather_plants(sims);
        return BatchPlant(std::span<PhysicalRobot* const>{plants.data(), sims.size()});
      }()),
      est_model_(sims[0]->config_.engine.detection.estimator.model) {
  n_ = sims.size();
  for (std::size_t l = 0; l < n_; ++l) {
    require(compatible(*sims[0], *sims[l]), "LockstepGroup: incompatible sims in one group");
    sims_[l] = sims[l];
    engines_[l] = &sims[l]->engine();
  }
}

bool LockstepGroup::compatible(const SurgicalSim& a, const SurgicalSim& b) {
  const svc::SessionEngineConfig& ca = a.config_.engine;
  const svc::SessionEngineConfig& cb = b.config_.engine;
  if (!BatchPlant::compatible(ca.plant, cb.plant)) return false;
  if (ca.screening != cb.screening) return false;
  if (!ca.screening) return true;
  const EstimatorConfig& ea = ca.detection.estimator;
  const EstimatorConfig& eb = cb.detection.estimator;
  return ea.model == eb.model && ea.solver == eb.solver && ea.step == eb.step;
}

void LockstepGroup::step() {
  for (std::size_t l = 0; l < n_; ++l) sims_[l]->tick_begin();
  svc::advance_lanes(std::span<svc::SessionEngine* const>{engines_.data(), n_}, &est_model_,
                     &plants_);
  for (std::size_t l = 0; l < n_; ++l) sims_[l]->tick_finish();
}

void LockstepGroup::run(double seconds) {
  const auto ticks = static_cast<std::uint64_t>(seconds / kControlPeriodSec);
  for (std::uint64_t i = 0; i < ticks; ++i) step();
}

}  // namespace rg
