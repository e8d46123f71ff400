// LockstepGroup: up to kBatchLanes SurgicalSims advanced tick-by-tick in
// lockstep, so the two model-physics hot spots — the estimator's one-step
// solve and the plant's 20-substep RK4 loop — run as batched SoA kernels
// across the group instead of lane-at-a-time scalar code.
//
// Each tick interleaves the sims' phase-split step():
//
//   A.   every sim runs tick_begin()   (console → control → screening)
//   B–D. svc::advance_lanes over the sims' engines: one batched estimator
//        solve, every lane's verdict/mitigation/board/PLC, one BatchPlant
//        period — the same round a gateway shard runs
//   E.   every sim runs tick_finish()  (encoders, oracle, telemetry)
//
// Because the batched kernels are bit-identical to their scalar twins and
// every per-sim phase executes the exact statements the scalar step()
// would, each sim's trajectory, telemetry, and outcome are byte-for-byte
// what a solo sim.run() would have produced.  The campaign engine relies
// on that to batch homogeneous jobs without perturbing report determinism
// (tests/test_batch_dynamics.cpp asserts it).
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "dynamics/batch_model.hpp"
#include "plant/batch_plant.hpp"
#include "sim/surgical_sim.hpp"

namespace rg {

class LockstepGroup {
 public:
  /// All sims must be pairwise compatible() and at most kBatchLanes.
  /// Borrowed, not owned — the sims must outlive the group.
  explicit LockstepGroup(std::span<SurgicalSim* const> sims);

  /// True when two sims may share a lockstep batch: plant configs equal
  /// modulo seed, pipelines either both absent or running the same
  /// estimator model/solver/step (the parts the batched solve shares;
  /// thresholds, gains, and attacks may differ per lane).
  [[nodiscard]] static bool compatible(const SurgicalSim& a, const SurgicalSim& b);

  /// One lockstep tick across every sim.
  void step();

  /// Run all sims for a duration of simulated seconds (same tick count
  /// SurgicalSim::run(seconds) would execute).
  void run(double seconds);

  [[nodiscard]] std::size_t lanes() const noexcept { return n_; }

 private:
  std::array<SurgicalSim*, kBatchLanes> sims_{};
  std::array<svc::SessionEngine*, kBatchLanes> engines_{};
  std::size_t n_ = 0;
  /// Built once: a group's lanes never change.
  BatchPlant plants_;
  /// Batched twin of the sims' estimator model (unused when the group
  /// runs without detection pipelines).
  BatchRavenModel est_model_;
};

}  // namespace rg
