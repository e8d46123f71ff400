// FIGURE 8 reproduction: validation of the dynamic model against the
// (simulated) physical robot.
//
// Paper: the model runs in parallel with the robot, both receiving the
// same control input; the table reports average wall-clock time per
// integration step and average motor/joint position error per joint for
// 4th-order Runge-Kutta vs explicit Euler (1 ms step), over 10 runs; the
// plots show the model trajectory tracking the robot's.
//
// Output: the same table (per-solver time/step + per-joint MAE in motor
// and joint coordinates, absolute and % of the run's motion range) and a
// CSV with one run's model-vs-plant trajectories.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.hpp"
#include "core/estimator.hpp"
#include "math/stats.hpp"
#include "sim/surgical_sim.hpp"
#include "viz/trace_plots.hpp"

namespace rg {
namespace {

struct Series {
  std::vector<double> model_mpos[3];
  std::vector<double> plant_mpos[3];
  std::vector<double> model_jpos[3];
  std::vector<double> plant_jpos[3];
};

/// Run one session with the model in parallel (huge thresholds => the
/// pipeline never interferes) and collect aligned model/plant series.
Series run_paired(SolverKind solver, std::uint64_t seed, double observer_gain_scale) {
  SessionParams p = bench::standard_session();
  p.seed = seed;
  p.duration_sec = 6.0;
  p.detector_solver = solver;

  DetectionThresholds huge;
  huge.motor_vel = huge.motor_acc = huge.joint_vel = Vec3::filled(1e18);
  SimConfig cfg = make_session(p, huge, MitigationMode::kObserveOnly);
  cfg.engine.detection.detector.ee_jump_limit = 0.0;
  cfg.engine.detection.estimator.observer_position_gain *= observer_gain_scale;
  cfg.engine.detection.estimator.observer_velocity_gain *= observer_gain_scale;

  SurgicalSim sim(std::move(cfg));

  Series out;
  // The prediction's "now" state is the parallel model after the previous
  // tick's commit — align it with the plant sampled at the end of the
  // previous tick.
  bool have_prev_plant = false;
  MotorVector prev_plant_m{};
  JointVector prev_plant_j{};
  sim.set_detection_observer([&](const DetectionPipeline::Outcome& o) {
    if (!o.prediction.valid || !have_prev_plant) return;
    for (std::size_t i = 0; i < 3; ++i) {
      out.model_mpos[i].push_back(o.prediction.mpos_now[i]);
      out.plant_mpos[i].push_back(prev_plant_m[i]);
      out.model_jpos[i].push_back(o.prediction.jpos_now[i]);
      out.plant_jpos[i].push_back(prev_plant_j[i]);
    }
  });

  const auto ticks = static_cast<std::uint64_t>(p.duration_sec * 1000.0);
  for (std::uint64_t t = 0; t < ticks; ++t) {
    sim.step();
    prev_plant_m = sim.plant().motor_positions();
    prev_plant_j = sim.plant().joint_positions();
    have_prev_plant = true;
  }
  return out;
}

double series_range(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  const double range = max_value(xs) - min_value(xs);
  return range > 1e-12 ? range : 1.0;
}

/// Wall-clock cost of one predict+commit (the per-cycle model work).
double time_per_step_ms(SolverKind solver) {
  EstimatorConfig cfg;
  cfg.solver = solver;
  DynamicModelEstimator est(cfg);
  const RavenDynamicsModel model;
  est.observe_feedback(model.coupling().joint_to_motor(JointVector{0.0, 1.5, 0.15}));
  const std::array<std::int16_t, 3> dac{500, -300, 200};
  const int iters = 20000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    (void)est.predict(dac);
    est.commit(dac);
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count() / iters;
}

/// Collect the paired model/plant series for `runs` sessions through the
/// campaign engine: each job's custom body drives its own paired session
/// and writes into its pre-sized slot, so runs execute in parallel while
/// the aggregation below still sees them in submission order.
std::vector<Series> paired_series(SolverKind solver, int runs, double observer_scale) {
  std::vector<Series> series(static_cast<std::size_t>(runs));
  std::vector<CampaignJob> jobs(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    CampaignJob& job = jobs[static_cast<std::size_t>(r)];
    job.params = bench::standard_session();
    job.params.seed = 42 + static_cast<std::uint64_t>(r) * 7;
    job.params.duration_sec = 6.0;
    job.label = "fig8-paired";
    job.body = [solver, observer_scale, seed = job.params.seed,
                slot = &series[static_cast<std::size_t>(r)]]() {
      *slot = run_paired(solver, seed, observer_scale);
      return AttackRunResult{};
    };
  }
  (void)bench::run_campaign(std::move(jobs));
  return series;
}

void report_solver(SolverKind solver, int runs, double observer_scale, const char* label) {
  double mae_m[3] = {0, 0, 0};
  double mae_j[3] = {0, 0, 0};
  double pct_m[3] = {0, 0, 0};
  double pct_j[3] = {0, 0, 0};
  for (const Series& s : paired_series(solver, runs, observer_scale)) {
    for (std::size_t i = 0; i < 3; ++i) {
      const double em = mean_absolute_error(s.model_mpos[i], s.plant_mpos[i]);
      const double ej = mean_absolute_error(s.model_jpos[i], s.plant_jpos[i]);
      mae_m[i] += em / runs;
      mae_j[i] += ej / runs;
      pct_m[i] += 100.0 * em / series_range(s.plant_mpos[i]) / runs;
      pct_j[i] += 100.0 * ej / series_range(s.plant_jpos[i]) / runs;
    }
  }
  const double step_ms = time_per_step_ms(solver);
  constexpr double kRadToDegree = 57.29577951308232;
  std::printf("  %-18s %9.4f   ", label, step_ms);
  std::printf("%7.3f(%4.1f%%) %7.3f(%4.1f%%)   ", mae_m[0] * kRadToDegree, pct_m[0],
              mae_j[0] * kRadToDegree, pct_j[0]);
  std::printf("%7.3f(%4.1f%%) %7.3f(%4.1f%%)   ", mae_m[1] * kRadToDegree, pct_m[1],
              mae_j[1] * kRadToDegree, pct_j[1]);
  std::printf("%7.3f(%4.1f%%) %7.3f(%4.1f%%)\n", mae_m[2] * kRadToDegree, pct_m[2],
              mae_j[2] * 1000.0, pct_j[2]);
}

void dump_svg(const Series& s) {
  std::vector<double> t;
  t.reserve(s.model_jpos[1].size());
  for (std::size_t i = 0; i < s.model_jpos[1].size(); ++i) {
    t.push_back(static_cast<double>(i) / 1000.0);
  }
  const char* names[3] = {"fig8_shoulder.svg", "fig8_elbow.svg", "fig8_insertion.svg"};
  const char* titles[3] = {"Fig 8: shoulder joint, model vs robot",
                           "Fig 8: elbow joint, model vs robot",
                           "Fig 8: insertion joint, model vs robot"};
  const char* units[3] = {"rad", "rad", "m"};
  for (std::size_t j = 0; j < 3; ++j) {
    std::ofstream os(names[j]);
    model_vs_plant_chart(t, s.model_jpos[j], s.plant_jpos[j], titles[j], units[j]).render(os);
  }
  std::printf("  model-vs-robot joint plots: fig8_shoulder.svg fig8_elbow.svg fig8_insertion.svg\n");
}

void dump_csv(const char* path) {
  const Series s = run_paired(SolverKind::kEuler, 42, 1.0);
  dump_svg(s);
  std::ofstream os(path);
  os << "tick,model_m1,plant_m1,model_m2,plant_m2,model_m3,plant_m3,"
        "model_q1,plant_q1,model_q2,plant_q2,model_q3,plant_q3\n";
  for (std::size_t t = 0; t < s.model_mpos[0].size(); t += 10) {
    os << t;
    for (std::size_t i = 0; i < 3; ++i) {
      os << ',' << s.model_mpos[i][t] << ',' << s.plant_mpos[i][t];
    }
    for (std::size_t i = 0; i < 3; ++i) {
      os << ',' << s.model_jpos[i][t] << ',' << s.plant_jpos[i][t];
    }
    os << '\n';
  }
  std::printf("\n  model-vs-plant trajectories written to %s\n", path);
}

}  // namespace
}  // namespace rg

int main() {
  using namespace rg;
  bench::header(
      "FIGURE 8: Dynamic model validation (model in parallel with robot)\n"
      "columns: time/step (ms) | per joint: mpos MAE deg(%), jpos MAE deg|mm(%)");

  const int runs = bench::reps(10);

  // The paper's validation runs the model open-loop in parallel with the
  // robot (same control inputs, no per-cycle correction) — that is the
  // free-run configuration, and its error magnitudes are what the paper's
  // table reports (mpos errors of tens-to-hundreds of motor degrees at a
  // few percent of the motion range).
  std::printf("\n  Model free-running in parallel with the robot (the paper's table):\n");
  std::printf("  %-18s %-11s %-33s %-33s %s\n", "Integration", "Time/step",
              "Joint 1 (shoulder)", "Joint 2 (elbow)", "Joint 3 (insertion, jpos mm)");
  report_solver(SolverKind::kRk4, runs, 0.0, "4th-order RK");
  report_solver(SolverKind::kEuler, runs, 0.0, "Euler");
  report_solver(SolverKind::kMidpoint, runs, 0.0, "Midpoint (extra)");

  std::printf("\n  Paper reference (step 1 ms): RK4 0.032 ms/step, Euler 0.011 ms/step;\n");
  std::printf("  mpos MAE 115-182 deg at 0.3-2.4%%, jpos MAE ~1-2 deg / 1.3-1.4 mm.\n");
  std::printf("  Shape check: Euler ~3x cheaper per step than RK4, both well under\n");
  std::printf("  the 1 ms control budget, with comparable trajectory error.\n");

  std::printf("\n  As deployed in the detector (with encoder-feedback correction):\n");
  std::printf("  %-18s %-11s %-33s %-33s %s\n", "Integration", "Time/step",
              "Joint 1 (shoulder)", "Joint 2 (elbow)", "Joint 3 (insertion, jpos mm)");
  report_solver(SolverKind::kRk4, std::max(1, runs / 2), 1.0, "4th-order RK");
  report_solver(SolverKind::kEuler, std::max(1, runs / 2), 1.0, "Euler");

  dump_csv("fig8_trajectories.csv");
  return 0;
}
