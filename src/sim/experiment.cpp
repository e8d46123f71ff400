#include "sim/experiment.hpp"

#include "sim/campaign.hpp"

namespace rg {

SimConfig make_session(const SessionParams& params,
                       const std::optional<DetectionThresholds>& thresholds,
                       MitigationMode mitigation) {
  SimConfig cfg;

  // Trajectory: seeded random waypoints, optionally tremor-decorated.
  Pcg32 rng(params.seed * 0x9e3779b97f4a7c15ULL + 0x1234);
  auto base = std::make_shared<WaypointTrajectory>(
      make_random_trajectory(rng, WorkspaceBox{}, params.trajectory_waypoints,
                             params.trajectory_speed));
  if (params.tremor) {
    cfg.trajectory = std::make_shared<TremorDecorator>(base, params.seed ^ 0xABCDEF);
  } else {
    cfg.trajectory = base;
  }

  cfg.pedal = PedalSchedule::hold_from(params.pedal_down_time);
  cfg.engine.plant.seed = params.seed * 31 + 7;

  if (thresholds) {
    PipelineConfig pipe;
    pipe.estimator.model = RavenDynamicsParams::raven_defaults().with_calibration_error(
        params.model_calibration_error);
    pipe.estimator.solver = params.detector_solver;
    pipe.estimator.step = params.detector_step;
    pipe.estimator.channel = cfg.engine.channel;
    pipe.detector.thresholds = *thresholds;
    pipe.detector.fusion = params.fusion;
    pipe.detector.ee_jump_limit = params.ee_jump_limit;
    pipe.mitigation = MitigationStrategy::kEStop;
    pipe.mitigation_enabled = mitigation == MitigationMode::kArmed;
    cfg.engine.detection = pipe;
    cfg.engine.screening = true;
  }
  return cfg;
}

AttackRunResult run_attack_session(const SessionParams& params, const AttackSpec& spec,
                                   const std::optional<DetectionThresholds>& thresholds,
                                   MitigationMode mitigation) {
  CampaignJob job;
  job.params = params;
  job.attack = spec;
  job.mitigation = mitigation;
  job.thresholds = thresholds;
  return CampaignRunner::execute(job, 0).run;
}

}  // namespace rg
