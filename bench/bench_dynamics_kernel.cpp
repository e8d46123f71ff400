// Microbenchmark for the dynamics hot kernels: scalar RavenDynamicsModel
// vs the batched SoA BatchRavenModel (dynamics/batch_model.hpp), the
// plant's control period (PhysicalRobot vs BatchPlant), plus an
// end-to-end campaign throughput comparison with lane batching off/on.
//
// The batched kernels are bit-identical to the scalar ones (asserted by
// tests/test_batch_dynamics.cpp); this binary quantifies what that buys:
// derivative-eval and solver-step throughput, and sessions/sec at the
// campaign level.  Results land in BENCH_dynamics.json (schema
// "rg.bench.dynamics/1"; RG_BENCH_DYNAMICS_JSON overrides the path) via
// the same atexit flush pattern bench_util.hpp uses for campaign logs.
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dynamics/batch_model.hpp"
#include "dynamics/raven_model.hpp"
#include "plant/batch_plant.hpp"
#include "sim/campaign.hpp"

namespace rg::bench {
namespace {

struct DynamicsBenchEntry {
  std::string kernel;
  std::uint64_t evals = 0;          ///< per side (scalar == batched count)
  double scalar_evals_per_sec = 0.0;
  double batched_evals_per_sec = 0.0;
  double speedup = 0.0;
};

std::vector<DynamicsBenchEntry>& entries() {
  static std::vector<DynamicsBenchEntry> v;
  return v;
}

std::string bench_path() {
  if (const char* env = std::getenv("RG_BENCH_DYNAMICS_JSON")) return env;
  return "BENCH_dynamics.json";
}

void write_bench_json() {
  const auto& rows = entries();
  if (rows.empty()) return;
  std::ofstream os(bench_path());
  if (!os) return;
  os.precision(17);
  os << "{\n  \"schema\": \"rg.bench.dynamics/1\",\n  \"lanes\": " << kBatchLanes
     << ",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DynamicsBenchEntry& e = rows[i];
    os << "    {\"kernel\": \"" << e.kernel << "\", \"evals\": " << e.evals
       << ", \"scalar_evals_per_sec\": " << e.scalar_evals_per_sec
       << ", \"batched_evals_per_sec\": " << e.batched_evals_per_sec
       << ", \"speedup\": " << e.speedup << "}" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

void record(const std::string& kernel, std::uint64_t evals, double scalar_sec,
            double batched_sec) {
  std::vector<DynamicsBenchEntry>& rows = entries();
  static const bool registered = [] {
    std::atexit(write_bench_json);
    return true;
  }();
  (void)registered;
  DynamicsBenchEntry e;
  e.kernel = kernel;
  e.evals = evals;
  e.scalar_evals_per_sec = static_cast<double>(evals) / scalar_sec;
  e.batched_evals_per_sec = static_cast<double>(evals) / batched_sec;
  e.speedup = scalar_sec / batched_sec;
  std::printf("%-12s %10.3fM evals/s scalar, %10.3fM evals/s batched  (%.2fx)\n",
              kernel.c_str(), e.scalar_evals_per_sec / 1.0e6, e.batched_evals_per_sec / 1.0e6,
              e.speedup);
  rows.push_back(e);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Passes per side for the kernel microbenches.  Scalar and batched chunks
/// alternate and each side keeps its *best* chunk time, so a scheduler
/// hiccup during one chunk cannot skew the ratio — both sides are measured
/// at their peak on the same machine state.
constexpr int kPasses = 5;

/// Deterministic lane states spread over the workspace; no RNG so both
/// sides chew on identical numbers.
void seed_states(std::array<RavenDynamicsModel::State, kBatchLanes>& states,
                 std::array<Vec3, kBatchLanes>& currents) {
  for (std::size_t l = 0; l < kBatchLanes; ++l) {
    for (std::size_t i = 0; i < 12; ++i) {
      states[l][i] = 0.05 * static_cast<double>(i + 1) - 0.03 * static_cast<double>(l);
    }
    currents[l] = {1.5 - 0.2 * static_cast<double>(l), -0.8 + 0.1 * static_cast<double>(l),
                   0.4};
  }
}

void bench_derivative(std::uint64_t iters) {
  const RavenDynamicsParams params = RavenDynamicsParams::raven_defaults();
  const RavenDynamicsModel scalar(params);
  const BatchRavenModel batch(params);

  std::array<RavenDynamicsModel::State, kBatchLanes> states{};
  std::array<Vec3, kBatchLanes> currents{};
  seed_states(states, currents);

  BatchState x;
  BatchLanes3 cur{};
  for (std::size_t l = 0; l < kBatchLanes; ++l) {
    x.set_lane(l, states[l]);
    for (std::size_t i = 0; i < 3; ++i) cur[i][l] = currents[l][i];
  }
  BatchLanes3 tau_em;
  batch.tau_em_from_currents(cur, tau_em);
  BatchState dx;

  const std::uint64_t chunk = iters / kPasses + 1;
  double sink = 0.0;
  double scalar_best = 1.0e300;
  double batched_best = 1.0e300;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t it = 0; it < chunk; ++it) {
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        const auto sdx = scalar.derivative(states[l], currents[l]);
        sink += sdx[3];
      }
    }
    const double ssec = seconds_since(t0);
    scalar_best = ssec < scalar_best ? ssec : scalar_best;

    t0 = std::chrono::steady_clock::now();
    for (std::uint64_t it = 0; it < chunk; ++it) {
      batch.derivative(x, tau_em, dx);
      sink += dx.c[3][0];
    }
    const double bsec = seconds_since(t0);
    batched_best = bsec < batched_best ? bsec : batched_best;
  }

  if (sink == 42.0) std::printf("#");  // defeat dead-code elimination
  record("derivative", chunk * kBatchLanes, scalar_best, batched_best);
}

void bench_step_rk4(std::uint64_t iters) {
  const RavenDynamicsParams params = RavenDynamicsParams::raven_defaults();
  const RavenDynamicsModel scalar(params);
  const BatchRavenModel batch(params);

  std::array<RavenDynamicsModel::State, kBatchLanes> states{};
  std::array<Vec3, kBatchLanes> currents{};
  seed_states(states, currents);

  BatchState x;
  BatchLanes3 cur{};
  for (std::size_t l = 0; l < kBatchLanes; ++l) {
    x.set_lane(l, states[l]);
    for (std::size_t i = 0; i < 3; ++i) cur[i][l] = currents[l][i];
  }

  const std::uint64_t chunk = iters / kPasses + 1;
  double sink = 0.0;
  double scalar_best = 1.0e300;
  double batched_best = 1.0e300;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t it = 0; it < chunk; ++it) {
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        states[l] = scalar.step(states[l], currents[l], 5.0e-5, SolverKind::kRk4);
      }
      sink += states[0][0];
    }
    const double ssec = seconds_since(t0);
    scalar_best = ssec < scalar_best ? ssec : scalar_best;

    t0 = std::chrono::steady_clock::now();
    for (std::uint64_t it = 0; it < chunk; ++it) {
      batch.step(x, cur, 5.0e-5, SolverKind::kRk4);
      sink += x.c[0][0];
    }
    const double bsec = seconds_since(t0);
    batched_best = bsec < batched_best ? bsec : batched_best;
  }

  if (sink == 42.0) std::printf("#");
  record("step_rk4", chunk * kBatchLanes, scalar_best, batched_best);
}

/// One plant control period on kBatchLanes plants: each plant's
/// PhysicalRobot::step_control_period against one BatchPlant period over
/// eight twins of them ("evals" are lane-periods).  The drive cycles
/// through a precomputed oscillating profile, so the arms stay inside
/// their range and no cable snaps.
void bench_plant_period(std::uint64_t iters) {
  std::vector<PhysicalRobot> scalar_plants;
  std::vector<PhysicalRobot> batch_plants;
  for (std::size_t l = 0; l < kBatchLanes; ++l) {
    PlantConfig config;
    config.seed = 1 + l;
    scalar_plants.emplace_back(config);
    batch_plants.emplace_back(config);
  }
  std::array<PhysicalRobot*, kBatchLanes> ptrs{};
  for (std::size_t l = 0; l < kBatchLanes; ++l) ptrs[l] = &batch_plants[l];
  BatchPlant batch(std::span<PhysicalRobot* const>{ptrs.data(), kBatchLanes});

  constexpr std::size_t kProfile = 64;
  std::vector<std::array<PlantDrive, kBatchLanes>> profile(kProfile);
  for (std::size_t p = 0; p < kProfile; ++p) {
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      const double phase = 0.1 * static_cast<double>(p) + 0.4 * static_cast<double>(l);
      profile[p][l].currents = {0.8 * std::sin(phase), 0.5 * std::cos(phase),
                                0.2 * std::sin(phase)};
      profile[p][l].wrist_currents = {0.01, 0.0, -0.01};
    }
  }

  const std::uint64_t chunk = iters / kPasses + 1;
  double sink = 0.0;
  double scalar_best = 1.0e300;
  double batched_best = 1.0e300;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t it = 0; it < chunk; ++it) {
      const auto& drives = profile[it % kProfile];
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        scalar_plants[l].step_control_period(drives[l].currents, drives[l].brakes_engaged,
                                             drives[l].wrist_currents);
      }
    }
    sink += scalar_plants[0].joint_positions()[0];
    const double ssec = seconds_since(t0);
    scalar_best = ssec < scalar_best ? ssec : scalar_best;

    t0 = std::chrono::steady_clock::now();
    for (std::uint64_t it = 0; it < chunk; ++it) {
      batch.step_control_period(profile[it % kProfile]);
    }
    sink += batch_plants[0].joint_positions()[0];
    const double bsec = seconds_since(t0);
    batched_best = bsec < batched_best ? bsec : batched_best;
  }

  if (sink == 42.0) std::printf("#");
  record("plant_period", chunk * kBatchLanes, scalar_best, batched_best);
}

/// End-to-end: the same homogeneous campaign with lane batching disabled
/// (lanes=1) and enabled (lanes=kBatchLanes) on one worker thread, so the
/// wall-clock delta is purely the batched kernels.
void bench_campaign(int sessions, double duration_sec) {
  std::vector<CampaignJob> jobs;
  DetectionThresholds tight;
  tight.motor_vel = tight.motor_acc = tight.joint_vel = Vec3::filled(1.0);
  for (int i = 0; i < sessions; ++i) {
    CampaignJob job;
    job.params.seed = 9000 + static_cast<std::uint64_t>(i) * 31;
    job.params.duration_sec = duration_sec;
    job.thresholds = tight;
    jobs.push_back(std::move(job));
  }

  const auto run_with_lanes = [&jobs](int lanes) {
    CampaignOptions options;
    options.jobs = 1;
    options.lanes = lanes;
    const auto t0 = std::chrono::steady_clock::now();
    const CampaignReport report = CampaignRunner(options).run(jobs);
    const double sec = seconds_since(t0);
    (void)report;
    return sec;
  };

  const double scalar_sec = run_with_lanes(1);
  const double batched_sec = run_with_lanes(static_cast<int>(kBatchLanes));
  // "evals" here = simulated ticks, the campaign's unit of work.
  const auto ticks =
      static_cast<std::uint64_t>(sessions) * static_cast<std::uint64_t>(duration_sec * 1000.0);
  record("campaign", ticks, scalar_sec, batched_sec);
}

}  // namespace
}  // namespace rg::bench

int main() {
  using namespace rg::bench;
  std::printf("== dynamics kernel throughput (lanes=%zu) ==\n", rg::kBatchLanes);
  const auto iters = static_cast<std::uint64_t>(200000 * scale());
  bench_derivative(iters > 0 ? iters : 1);
  bench_step_rk4((iters > 0 ? iters : 1) / 4 + 1);
  bench_plant_period(iters / 200 + 1);
  bench_campaign(reps(16), 1.0);
  return 0;
}
