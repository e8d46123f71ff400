// Batched SoA dynamics: K lanes of the RAVEN arm model stepped in
// lockstep.
//
// BatchState holds 12 state components x kBatchLanes doubles
// structure-of-arrays, so every expression in the derivative and in the
// solver update is a flat, branch-light loop over lanes that the
// auto-vectorizer turns into SIMD.  All lane math is the *same inline
// kernel* (dynamics/lane_kernel.hpp) the scalar RavenDynamicsModel runs,
// and the solver updates replicate rg::Vec's expression shapes exactly —
// so lane `l` of a batched integration is bit-identical to a scalar
// integration of that lane's state.  That equivalence is what lets the
// campaign engine batch homogeneous jobs without perturbing a byte of the
// deterministic report (asserted by tests/test_batch_dynamics.cpp).
//
// Two entry points carry the hot work (batch_model.cpp compiles the lane
// loops once per ISA):
//   - step() — one solver step under per-lane currents, no external
//     effects: the estimator's batched solve, one cloned derivative call
//     per stage;
//   - step_period() — a whole plant control period in one cloned call:
//     every RK4 substep with the per-lane external effects and shaft
//     holds, plus the cable overload watch after each substep.
//     BatchPlant (plant/batch_plant.hpp) packs the inputs once per
//     period and drives it.
#pragma once

#include <array>
#include <cstddef>

#include "common/realtime.hpp"

#include "dynamics/lane_kernel.hpp"
#include "dynamics/raven_model.hpp"
#include "math/vec.hpp"
#include "ode/integrators.hpp"

namespace rg {

/// Compile-time lane count.  Eight lanes fill an AVX-512 register of
/// doubles and two AVX2 registers; the sweet spot between vector width
/// and per-worker cache footprint (see docs/performance.md).
inline constexpr std::size_t kBatchLanes = 8;

/// One batched 3-vector (e.g. per-lane motor currents or cable tensions).
using BatchLanes3 = std::array<std::array<double, kBatchLanes>, 3>;

/// 12 x K state, component-major (component c of lane l at c[c][l]).
struct alignas(64) BatchState {
  std::array<std::array<double, kBatchLanes>, 12> c{};

  [[nodiscard]] RG_REALTIME Vec<12> lane(std::size_t l) const noexcept {
    Vec<12> x;
    for (std::size_t i = 0; i < 12; ++i) x[i] = c[i][l];
    return x;
  }
  RG_REALTIME void set_lane(std::size_t l, const Vec<12>& x) noexcept {
    for (std::size_t i = 0; i < 12; ++i) c[i][l] = x[i];
  }
  /// Copy lane `from` into every lane of the batch — how callers give
  /// unused lanes safe numerics (their results are discarded).
  RG_REALTIME void broadcast(std::size_t from) noexcept {
    for (std::size_t i = 0; i < 12; ++i) {
      const double v = c[i][from];
      for (std::size_t l = 0; l < kBatchLanes; ++l) c[i][l] = v;
    }
  }
};

/// One plant control period's per-lane inputs, held for the whole period
/// — the SoA twin of the scalar plant's period setup.  Component i of
/// lane l sits at [i][l].
struct alignas(64) BatchPeriod {
  BatchLanes3 tau_em{};              ///< electromagnetic torque (N*m)
  BatchLanes3 extra_motor_torque{};  ///< N*m
  /// Cable stiffness/damping scale (1 intact, 0 snapped).  step_period
  /// zeroes a lane-axis when its cable snaps, so the caller reads the
  /// period's snaps back from here.
  BatchLanes3 cable_scale{};
  BatchLanes3 extra_joint_force{};  ///< N*m, N*m, N
  /// Non-zero where the brakes hold the lane's motor shafts: their
  /// position and velocity derivatives are forced to zero.
  std::array<double, kBatchLanes> shaft_held{};
  /// Overload threshold per axis and lane; +inf where the axis is not
  /// watched (already snapped, never snaps, or an unused lane).
  BatchLanes3 snap_threshold{};
};

/// K-lane RAVEN dynamics over a single parameter set (the lanes of a
/// batch share physics; only state and inputs differ per lane).
class BatchRavenModel {
 public:
  explicit BatchRavenModel(const RavenDynamicsParams& params);
  /// Share an existing scalar model's flattened constants (no model
  /// build: BatchPlant is constructed every gateway round).
  explicit BatchRavenModel(const RavenDynamicsModel& scalar) noexcept;

  /// dx/dt for all lanes under per-lane electromagnetic torque (see
  /// tau_em_from_currents); nominal model, no external effects.
  RG_REALTIME void derivative(const BatchState& x, const BatchLanes3& tau_em,
                              BatchState& dx) const noexcept;

  /// Unscaled joint-side cable tension per lane.
  RG_REALTIME void cable_force(const BatchState& x, BatchLanes3& tau) const noexcept;

  /// Advance all lanes by h with the given (pre-validated) solver under
  /// per-lane motor currents; no external effects.  This is the batched
  /// twin of RavenDynamicsModel::step — the estimator path.
  RG_REALTIME void step(BatchState& x, const BatchLanes3& currents, double h,
            SolverKind solver) const noexcept;

  /// Integrate one plant period of `duration` seconds on every lane — the
  /// scalar plant's schedule: RK4 substeps of min(h, remaining) while
  /// more than 1e-12 s remain, each followed by the overload watch.  A
  /// lane-axis whose |tension| exceeds its threshold has its cable scale
  /// zeroed for the rest of the period (a NaN tension never snaps).
  RG_REALTIME void step_period(BatchState& x, BatchPeriod& period, double h,
                               double duration) const noexcept;

  /// Per-lane electromagnetic torque from commanded currents (hoisted out
  /// of the per-stage loop; state-independent).
  RG_REALTIME void tau_em_from_currents(const BatchLanes3& currents, BatchLanes3& tau_em) const noexcept;

 private:
  DynParams kp_;
  bool hard_stops_ = false;
};

}  // namespace rg
