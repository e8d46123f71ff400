#include "dynamics/batch_model.hpp"

#include <algorithm>
#include <cmath>

// Runtime ISA dispatch for the lane loops.  The SSE2 baseline packs only
// two doubles per vector, which caps the batched speedup near 2x minus
// loop overhead; x86-64-v3 (AVX2) and v4 (AVX-512) quadruple/octuple the
// width.  target_clones compiles each dispatch function once per ISA and
// picks the best at load time via ifunc, so one portable binary gets the
// wide vectors where the CPU has them.  Bit-identity with the scalar
// model is preserved at every width: rg_dynamics builds with
// -ffp-contract=off (no FMA fusing on the wide clones) and IEEE add/mul/
// div are per-lane identical regardless of vector width.
// Sanitizer builds skip the clones: the ifunc resolvers target_clones
// emits run before the sanitizer runtime initializes and crash at load.
// Results are identical either way — only the vector width changes.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define RG_LANES_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define RG_LANES_CLONES
#endif

namespace rg {

namespace {

constexpr std::size_t K = kBatchLanes;

/// Unit cable scale: tension for the overload watch is unscaled.
constexpr double kUnitScale[3] = {1.0, 1.0, 1.0};

// Elementwise solver-update helpers.  Each replicates the exact
// expression shape rg::Vec's operators produce for the scalar solvers in
// ode/integrators.hpp (left-associated sums, coefficient on the right of
// each k), so batched lanes match scalar integration bit for bit.

/// out = x + k * a
RG_REALTIME inline void axpy(const BatchState& x, const BatchState& k, double a, BatchState& out) noexcept {
  for (std::size_t c = 0; c < 12; ++c) {
    for (std::size_t l = 0; l < K; ++l) out.c[c][l] = x.c[c][l] + k.c[c][l] * a;
  }
}

RG_REALTIME RG_LANE_INLINE LaneState load_lane(const BatchState& x, std::size_t l) noexcept {
  return LaneState{x.c[0][l], x.c[1][l], x.c[2][l],  x.c[3][l], x.c[4][l],  x.c[5][l],
                   x.c[6][l], x.c[7][l], x.c[8][l],  x.c[9][l], x.c[10][l], x.c[11][l]};
}

}  // namespace

BatchRavenModel::BatchRavenModel(const RavenDynamicsParams& params)
    : BatchRavenModel(RavenDynamicsModel(params)) {}

// The scalar model's flattened constants, byte for byte: batched lanes
// evaluate exactly what the scalar model does.
BatchRavenModel::BatchRavenModel(const RavenDynamicsModel& scalar) noexcept
    : kp_(scalar.kernel_params()), hard_stops_(scalar.params().enforce_hard_stops) {}

RG_REALTIME RG_DETERMINISTIC void BatchRavenModel::tau_em_from_currents(const BatchLanes3& currents,
                                           BatchLanes3& tau_em) const noexcept {
  for (std::size_t l = 0; l < K; ++l) {
    const double i[3] = {currents[0][l], currents[1][l], currents[2][l]};
    double te[3];
    electromagnetic_torque(kp_, i, te);
    tau_em[0][l] = te[0];
    tau_em[1][l] = te[1];
    tau_em[2][l] = te[2];
  }
}

namespace {

// Both bodies below take HardStops as a template parameter (not a runtime
// branch in one body) so each instantiation inlines exactly ONE copy of
// the lane kernel — two copies in a single function blow GCC's inlining
// budget, the kernel gets outlined, and no lane loop vectorizes.  The
// period body likewise runs its four RK4 stages as a loop around one
// kernel copy.
template <bool HardStops>
RG_REALTIME RG_LANE_INLINE void derivative_body(const DynParams& kp, const BatchState& x,
                                                const BatchLanes3& tau_em,
                                                BatchState& dx) noexcept {
  // Compute into a local, then copy out.  A local provably never aliases
  // the inputs, so the lane loop has no read-write conflicts; writing dx
  // directly would demand a runtime alias check per (input, output) array
  // pair — 12x12 of them — and the vectorizer gives up instead.
  BatchState tmp;
  for (std::size_t l = 0; l < K; ++l) {
    const double te[3] = {tau_em[0][l], tau_em[1][l], tau_em[2][l]};
    double d[12];
    derivative_lane<HardStops>(kp, load_lane(x, l), LaneFx{}, te, d);
    for (std::size_t i = 0; i < 12; ++i) tmp.c[i][l] = d[i];
  }
  dx = tmp;
}

/// One plant control period (see BatchRavenModel::step_period).  State,
/// inputs and RK4 stages live in locals for the whole period, so every
/// lane loop is alias-free and the period costs one call.
template <bool HardStops>
RG_REALTIME RG_LANE_INLINE void period_body(const DynParams& kp, BatchState& state,
                                            BatchPeriod& period, double h,
                                            double duration) noexcept {
  BatchState x = state;
  BatchPeriod in = period;
  BatchState xs;                // the next stage's input
  std::array<BatchState, 4> k;  // the RK4 stages
  double remaining = duration;
  while (remaining > 1e-12) {
    const double dt = std::min(h, remaining);
    // Stage s's k feeds stage s+1 as x + k * a[s] (the last stage's
    // input is never read).
    const double a[4] = {0.5 * dt, 0.5 * dt, dt, 0.0};
    xs = x;
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t l = 0; l < K; ++l) {
        const LaneFx fx{{in.extra_motor_torque[0][l], in.extra_motor_torque[1][l],
                         in.extra_motor_torque[2][l]},
                        {in.cable_scale[0][l], in.cable_scale[1][l], in.cable_scale[2][l]},
                        {in.extra_joint_force[0][l], in.extra_joint_force[1][l],
                         in.extra_joint_force[2][l]}};
        const double te[3] = {in.tau_em[0][l], in.tau_em[1][l], in.tau_em[2][l]};
        double d[12];
        derivative_lane<HardStops>(kp, load_lane(xs, l), fx, te, d);
        // Held shafts: motor position and velocity derivatives vanish
        // (the scalar plant's substep lambda).  Select, don't scale:
        // 0.0 * wd would flip the sign bit of zero for negative wd.
        for (std::size_t i = 0; i < 6; ++i) d[i] = in.shaft_held[l] != 0.0 ? 0.0 : d[i];
        for (std::size_t i = 0; i < 12; ++i) {
          k[s].c[i][l] = d[i];
          xs.c[i][l] = x.c[i][l] + d[i] * a[s];
        }
      }
    }
    // x + (h/6) * (((k1 + 2 k2) + 2 k3) + k4)
    const double h6 = dt / 6.0;
    for (std::size_t c = 0; c < 12; ++c) {
      for (std::size_t l = 0; l < K; ++l) {
        x.c[c][l] = x.c[c][l] + (((k[0].c[c][l] + k[1].c[c][l] * 2.0) + k[2].c[c][l] * 2.0) +
                                 k[3].c[c][l]) *
                                    h6;
      }
    }

    // Overload watch at the new state: a snapped cable decouples its axis
    // for the rest of the period.  NaN > threshold is false, so a NaN
    // tension never snaps, as in the scalar loop.
    for (std::size_t l = 0; l < K; ++l) {
      double t[3];
      cable_force_lane(kp, load_lane(x, l), kUnitScale, t);
      for (std::size_t i = 0; i < 3; ++i) {
        const bool snaps = std::abs(t[i]) > in.snap_threshold[i][l];
        in.cable_scale[i][l] = snaps ? 0.0 : in.cable_scale[i][l];
      }
    }
    remaining -= dt;
  }
  state = x;
  period.cable_scale = in.cable_scale;
}

// One ISA-cloned entry point per instantiation.  The always_inline bodies
// are re-expanded inside every clone, so each ISA gets its own fully
// vectorized copy of the lane loops.
RG_REALTIME RG_LANES_CLONES void derivative_hs(const DynParams& kp, const BatchState& x,
                                               const BatchLanes3& tau_em,
                                               BatchState& dx) noexcept {
  derivative_body<true>(kp, x, tau_em, dx);
}
RG_REALTIME RG_LANES_CLONES void derivative_nohs(const DynParams& kp, const BatchState& x,
                                                 const BatchLanes3& tau_em,
                                                 BatchState& dx) noexcept {
  derivative_body<false>(kp, x, tau_em, dx);
}
RG_REALTIME RG_LANES_CLONES void period_hs(const DynParams& kp, BatchState& x, BatchPeriod& period,
                                           double h, double duration) noexcept {
  period_body<true>(kp, x, period, h, duration);
}
RG_REALTIME RG_LANES_CLONES void period_nohs(const DynParams& kp, BatchState& x,
                                             BatchPeriod& period, double h,
                                             double duration) noexcept {
  period_body<false>(kp, x, period, h, duration);
}

}  // namespace

RG_REALTIME RG_DETERMINISTIC void BatchRavenModel::derivative(const BatchState& x, const BatchLanes3& tau_em,
                                 BatchState& dx) const noexcept {
  if (hard_stops_) {
    derivative_hs(kp_, x, tau_em, dx);
  } else {
    derivative_nohs(kp_, x, tau_em, dx);
  }
}

RG_REALTIME RG_DETERMINISTIC void BatchRavenModel::step_period(BatchState& x, BatchPeriod& period,
                                                              double h,
                                                              double duration) const noexcept {
  if (hard_stops_) {
    period_hs(kp_, x, period, h, duration);
  } else {
    period_nohs(kp_, x, period, h, duration);
  }
}

RG_REALTIME RG_DETERMINISTIC void BatchRavenModel::cable_force(const BatchState& x, BatchLanes3& tau) const noexcept {
  for (std::size_t l = 0; l < K; ++l) {
    double t[3];
    cable_force_lane(kp_, load_lane(x, l), kUnitScale, t);
    tau[0][l] = t[0];
    tau[1][l] = t[1];
    tau[2][l] = t[2];
  }
}

RG_REALTIME RG_DETERMINISTIC void BatchRavenModel::step(BatchState& x, const BatchLanes3& currents, double h,
                           SolverKind solver) const noexcept {
  BatchLanes3 tau_em;
  tau_em_from_currents(currents, tau_em);
  BatchState k1;
  derivative(x, tau_em, k1);

  switch (solver) {
    case SolverKind::kEuler: {
      // x + h * k1
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) x.c[c][l] = x.c[c][l] + k1.c[c][l] * h;
      }
      return;
    }
    case SolverKind::kMidpoint: {
      BatchState xs, k2;
      axpy(x, k1, 0.5 * h, xs);
      derivative(xs, tau_em, k2);
      // x + h * k2
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) x.c[c][l] = x.c[c][l] + k2.c[c][l] * h;
      }
      return;
    }
    case SolverKind::kRk4: {
      BatchState xs, k2, k3, k4;
      axpy(x, k1, 0.5 * h, xs);
      derivative(xs, tau_em, k2);
      axpy(x, k2, 0.5 * h, xs);
      derivative(xs, tau_em, k3);
      axpy(x, k3, h, xs);
      derivative(xs, tau_em, k4);
      // x + (h/6) * (((k1 + 2 k2) + 2 k3) + k4)
      const double h6 = h / 6.0;
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          x.c[c][l] =
              x.c[c][l] +
              (((k1.c[c][l] + k2.c[c][l] * 2.0) + k3.c[c][l] * 2.0) + k4.c[c][l]) * h6;
        }
      }
      return;
    }
    case SolverKind::kRkf45: {
      BatchState xs, k2, k3, k4, k5, k6;
      const double c21 = h / 4.0;
      const double c31 = 3.0 * h / 32.0, c32 = 9.0 * h / 32.0;
      const double c41 = 1932.0 * h / 2197.0, c42 = 7200.0 * h / 2197.0,
                   c43 = 7296.0 * h / 2197.0;
      const double c51 = 439.0 * h / 216.0, c52 = 8.0 * h, c53 = 3680.0 * h / 513.0,
                   c54 = 845.0 * h / 4104.0;
      const double c61 = 8.0 * h / 27.0, c62 = 2.0 * h, c63 = 3544.0 * h / 2565.0,
                   c64 = 1859.0 * h / 4104.0, c65 = 11.0 * h / 40.0;

      axpy(x, k1, c21, xs);
      derivative(xs, tau_em, k2);
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          xs.c[c][l] = (x.c[c][l] + k1.c[c][l] * c31) + k2.c[c][l] * c32;
        }
      }
      derivative(xs, tau_em, k3);
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          xs.c[c][l] = ((x.c[c][l] + k1.c[c][l] * c41) - k2.c[c][l] * c42) + k3.c[c][l] * c43;
        }
      }
      derivative(xs, tau_em, k4);
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          xs.c[c][l] = (((x.c[c][l] + k1.c[c][l] * c51) - k2.c[c][l] * c52) +
                        k3.c[c][l] * c53) -
                       k4.c[c][l] * c54;
        }
      }
      derivative(xs, tau_em, k5);
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          xs.c[c][l] = ((((x.c[c][l] - k1.c[c][l] * c61) + k2.c[c][l] * c62) -
                         k3.c[c][l] * c63) +
                        k4.c[c][l] * c64) -
                       k5.c[c][l] * c65;
        }
      }
      derivative(xs, tau_em, k6);
      // x + h * ((((16/135 k1 + 6656/12825 k3) + 28561/56430 k4) - 9/50 k5) + 2/55 k6)
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          x.c[c][l] = x.c[c][l] + ((((k1.c[c][l] * (16.0 / 135.0) +
                                      k3.c[c][l] * (6656.0 / 12825.0)) +
                                     k4.c[c][l] * (28561.0 / 56430.0)) -
                                    k5.c[c][l] * (9.0 / 50.0)) +
                                   k6.c[c][l] * (2.0 / 55.0)) *
                                      h;
        }
      }
      return;
    }
  }
}

}  // namespace rg
