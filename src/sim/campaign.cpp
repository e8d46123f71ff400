#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <thread>

#include <memory>

#include "attack/math_attack.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/span.hpp"
#include "sim/lockstep.hpp"
#include "sim/surgical_sim.hpp"

namespace rg {

namespace {

using WallClock = std::chrono::steady_clock;

double ms_since(WallClock::time_point start) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - start).count();
}

/// JSON string escaping for the few free-form fields (labels).
void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_optional_tick(std::ostream& os, const std::optional<std::uint64_t>& t) {
  if (t) {
    os << *t;
  } else {
    os << "null";
  }
}

std::uint64_t to_micros(double ms) noexcept {
  return ms > 0.0 ? static_cast<std::uint64_t>(ms * 1000.0) : 0;
}

/// Histogram summary in milliseconds (the histograms store microseconds).
void write_hist_ms(std::ostream& os, const obs::HistogramData& h) {
  os << "{\"count\": " << h.count;
  os << ", \"mean\": " << h.mean() / 1000.0;
  os << ", \"min\": " << (h.empty() ? 0.0 : static_cast<double>(h.min) / 1000.0);
  os << ", \"max\": " << static_cast<double>(h.max) / 1000.0;
  os << ", \"p50\": " << h.percentile(50.0) / 1000.0;
  os << ", \"p90\": " << h.percentile(90.0) / 1000.0;
  os << ", \"p99\": " << h.percentile(99.0) / 1000.0 << "}";
}

/// Failure tagged with the submission index of the job it belongs to
/// (batched units execute several jobs; attribution must survive the
/// throw back to the worker loop).
struct IndexedFailure {
  std::size_t index;
  std::exception_ptr error;
};

/// A maximal run of consecutive jobs one worker executes together.
struct Unit {
  std::size_t first;
  std::size_t count;
};

/// Jobs eligible for lane batching: standard execute path only (custom
/// bodies drive the sim themselves) and not math-drift (that attack arms
/// thread-local process globals which lockstep interleaving would share
/// across lanes).
bool batchable(const CampaignJob& job) {
  return !job.body && job.attack.variant != AttackVariant::kMathDrift;
}

std::size_t resolve_lanes(int lanes_option) noexcept {
  if (lanes_option > 0) {
    return std::min(static_cast<std::size_t>(lanes_option), kBatchLanes);
  }
  if (const char* env = std::getenv("RG_LANES")) {
    const int n = std::atoi(env);
    if (n > 0) return std::min(static_cast<std::size_t>(n), kBatchLanes);
  }
  return kBatchLanes;
}

/// Deterministic unit formation: depends only on the job list and the
/// lane count, never on worker scheduling.
std::vector<Unit> form_units(const std::vector<CampaignJob>& jobs, std::size_t lanes) {
  std::vector<Unit> units;
  std::size_t i = 0;
  while (i < jobs.size()) {
    if (lanes <= 1 || !batchable(jobs[i])) {
      units.push_back({i, 1});
      ++i;
      continue;
    }
    std::size_t n = 1;
    while (i + n < jobs.size() && n < lanes && batchable(jobs[i + n]) &&
           jobs[i + n].params.duration_sec == jobs[i].params.duration_sec) {
      ++n;
    }
    units.push_back({i, n});
    i += n;
  }
  return units;
}

/// A standard-path job's sim, built and armed: make_session → configure
/// → sim → instrument → seeded attack → install.
struct ArmedJob {
  std::unique_ptr<SurgicalSim> sim;
  AttackSpec spec;
  AttackArtifacts artifacts;
};

ArmedJob arm(const CampaignJob& job) {
  SimConfig cfg = make_session(job.params, job.thresholds, job.mitigation);
  if (job.configure) job.configure(cfg);
  ArmedJob armed{std::make_unique<SurgicalSim>(std::move(cfg)), job.attack, {}};
  if (job.instrument) job.instrument(*armed.sim);
  if (armed.spec.seed == 0) armed.spec.seed = job.params.seed * 131 + 17;
  armed.artifacts = build_attack(armed.spec);
  armed.sim->install(armed.artifacts);
  return armed;
}

/// Execute a unit of standard-path jobs of equal duration, the first of
/// which has submission index `first`.  A multi-job unit ticks as one
/// lockstep group; sims whose configure hooks made them physics-
/// incompatible fall back to sequential scalar runs (same results, no
/// lane sharing).  Failures are thrown as IndexedFailure.
std::vector<CampaignJobResult> execute_unit(std::span<const CampaignJob> jobs, std::size_t first) {
  const auto start = WallClock::now();
  const std::size_t count = jobs.size();
  // The math-drift attack models its malicious library state as globals;
  // they are thread-local here, so re-arming them per unit makes every
  // job independent of whatever ran earlier on this worker thread.
  reset_math_drift();

  std::vector<ArmedJob> armed;
  armed.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    try {
      armed.push_back(arm(jobs[k]));
    } catch (...) {
      throw IndexedFailure{first + k, std::current_exception()};
    }
  }

  bool lockstep_ok = count > 1;
  for (std::size_t k = 1; k < count; ++k) {
    lockstep_ok = lockstep_ok && LockstepGroup::compatible(*armed[0].sim, *armed[k].sim);
  }

  try {
    const double duration = jobs.front().params.duration_sec;
    if (lockstep_ok) {
      std::vector<SurgicalSim*> lanes;
      lanes.reserve(count);
      for (const ArmedJob& a : armed) lanes.push_back(a.sim.get());
      LockstepGroup group(std::span<SurgicalSim* const>{lanes.data(), lanes.size()});
      group.run(duration);
    } else {
      for (const ArmedJob& a : armed) a.sim->run(duration);
    }
  } catch (...) {
    throw IndexedFailure{first, std::current_exception()};
  }

  reset_math_drift();
  const double unit_wall = ms_since(start);
  std::vector<CampaignJobResult> results(count);
  for (std::size_t k = 0; k < count; ++k) {
    CampaignJobResult& out = results[k];
    out.index = first + k;
    out.label = jobs[k].label;
    out.run.spec = armed[k].spec;
    out.run.outcome = armed[k].sim->outcome();
    out.run.injections = armed[k].artifacts.injections();
    out.run.first_injection_tick = armed[k].artifacts.first_injection_tick();
    out.ticks = armed[k].sim->clock().ticks();
    // Per-job wall time is a timing-section-only statistic; attribute the
    // unit evenly (individual lanes are not separable inside one tick).
    out.wall_ms = unit_wall / static_cast<double>(count);
  }
  return results;
}

}  // namespace

int default_campaign_jobs() noexcept {
  if (const char* env = std::getenv("RG_JOBS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

CampaignRunner::CampaignRunner(CampaignOptions options) : options_(std::move(options)) {
  require(options_.jobs >= 0, "CampaignRunner: jobs must be >= 0");
  require(options_.lanes >= 0, "CampaignRunner: lanes must be >= 0");
}

int CampaignRunner::workers_for(std::size_t njobs) const noexcept {
  int workers = options_.jobs > 0 ? options_.jobs : default_campaign_jobs();
  if (njobs < static_cast<std::size_t>(workers)) workers = static_cast<int>(njobs);
  return workers > 1 ? workers : 1;
}

CampaignJobResult CampaignRunner::execute(const CampaignJob& job, std::size_t index) {
  RG_SPAN("campaign.job");
  if (!job.body) {
    try {
      return std::move(execute_unit(std::span{&job, 1}, index).front());
    } catch (const IndexedFailure& failure) {
      std::rethrow_exception(failure.error);
    }
  }

  const auto start = WallClock::now();
  CampaignJobResult out;
  out.index = index;
  out.label = job.label;
  reset_math_drift();
  out.run = job.body();
  // Custom bodies drive the sim themselves; account the nominal session
  // length so campaign throughput stays meaningful.
  out.ticks = static_cast<std::uint64_t>(job.params.duration_sec * 1000.0);
  reset_math_drift();
  out.wall_ms = ms_since(start);
  return out;
}

CampaignReport CampaignRunner::run(std::vector<CampaignJob> jobs) const {
  const auto campaign_start = WallClock::now();
  const std::size_t total = jobs.size();

  CampaignReport report;
  report.results.resize(total);
  report.workers = workers_for(total);

  // Work is scheduled in units: runs of consecutive batchable jobs that
  // one worker executes as a single lockstep group.  Unit formation is a
  // pure function of the job list and lane count, so neither the worker
  // count nor scheduling order can change what executes together.
  const std::vector<Unit> units = form_units(jobs, resolve_lanes(options_.lanes));

  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::mutex mutex;  // guards results/progress/failures
  std::size_t completed = 0;
  std::vector<std::pair<std::size_t, std::exception_ptr>> failures;

  auto worker = [&]() {
    while (!cancelled.load(std::memory_order_relaxed)) {
      const std::size_t u = next.fetch_add(1, std::memory_order_relaxed);
      if (u >= units.size()) return;
      const Unit unit = units[u];
      try {
        const double queued_ms = ms_since(campaign_start);
        std::vector<CampaignJobResult> unit_results;
        if (unit.count == 1) {
          unit_results.push_back(execute(jobs[unit.first], unit.first));
        } else {
          RG_SPAN("campaign.unit");
          unit_results =
              execute_unit(std::span{jobs}.subspan(unit.first, unit.count), unit.first);
        }
        std::lock_guard<std::mutex> lock(mutex);
        for (CampaignJobResult& result : unit_results) {
          const std::size_t i = result.index;
          result.queue_wait_ms = queued_ms;
          report.results[i] = std::move(result);
          ++completed;
          if (options_.progress) {
            options_.progress(
                CampaignProgress{completed, total, i, report.results[i].wall_ms});
          }
        }
      } catch (const IndexedFailure& failure) {
        std::lock_guard<std::mutex> lock(mutex);
        failures.emplace_back(failure.index, failure.error);
        cancelled.store(true, std::memory_order_relaxed);
        return;
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        failures.emplace_back(unit.first, std::current_exception());
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (report.workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(report.workers));
    for (int w = 0; w < report.workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  if (!failures.empty()) {
    // Surface the lowest-indexed failure; which jobs even started depends
    // on scheduling, but the reported index is at least stable for the
    // common one-bad-job case.
    std::size_t first = failures.front().first;
    std::exception_ptr error = failures.front().second;
    for (const auto& [idx, eptr] : failures) {
      if (idx < first) {
        first = idx;
        error = eptr;
      }
    }
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      throw CampaignError(first, e.what());
    } catch (...) {
      throw CampaignError(first, "unknown error");
    }
  }

  report.wall_ms = ms_since(campaign_start);
  for (const CampaignJobResult& r : report.results) {
    report.session_ms += r.wall_ms;
    report.counters.ticks += r.ticks;
    report.counters.injections += r.run.injections;
    if (r.run.impact()) ++report.counters.impacts;
    if (r.run.outcome.detector_alarmed()) ++report.counters.detector_alarms;
    if (r.run.outcome.raven_detected()) ++report.counters.raven_detections;
    if (r.run.impact() && r.run.outcome.detected_preemptively()) ++report.counters.preemptive;
    report.queue_wait_us.observe(to_micros(r.queue_wait_ms));
    report.exec_us.observe(to_micros(r.wall_ms));
  }
  return report;
}

void CampaignReport::write_json(std::ostream& os, bool include_timing) const {
  os.precision(17);
  os << "{\n";
  os << "  \"schema\": \"rg.campaign.report/2\",\n";
  os << "  \"jobs\": " << jobs() << ",\n";
  os << "  \"counters\": {\n";
  os << "    \"impacts\": " << counters.impacts << ",\n";
  os << "    \"detector_alarms\": " << counters.detector_alarms << ",\n";
  os << "    \"raven_detections\": " << counters.raven_detections << ",\n";
  os << "    \"preemptive\": " << counters.preemptive << ",\n";
  os << "    \"injections\": " << counters.injections << ",\n";
  os << "    \"ticks\": " << counters.ticks << "\n";
  os << "  },\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CampaignJobResult& r = results[i];
    os << "    {\"index\": " << r.index;
    if (!r.label.empty()) {
      os << ", \"label\": ";
      write_json_string(os, r.label);
    }
    os << ", \"seed\": " << r.run.spec.seed;
    os << ", \"variant\": ";
    write_json_string(os, std::string{to_string(r.run.spec.variant)});
    os << ", \"magnitude\": " << r.run.spec.magnitude;
    os << ", \"impact\": " << (r.run.impact() ? "true" : "false");
    os << ", \"detector_alarm_tick\": ";
    write_optional_tick(os, r.run.outcome.detector_alarm_tick);
    os << ", \"raven_fault_tick\": ";
    write_optional_tick(os, r.run.outcome.raven_fault_tick);
    os << ", \"adverse_impact_tick\": ";
    write_optional_tick(os, r.run.outcome.adverse_impact_tick);
    os << ", \"max_ee_jump_mm\": " << 1000.0 * r.run.outcome.max_ee_jump_window;
    os << ", \"injections\": " << r.run.injections;
    os << ", \"ticks\": " << r.ticks << "}";
    os << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << (include_timing ? "  ],\n" : "  ]\n");
  if (include_timing) {
    os << "  \"timing\": {\n";
    os << "    \"workers\": " << workers << ",\n";
    os << "    \"wall_ms\": " << wall_ms << ",\n";
    os << "    \"session_ms\": " << session_ms << ",\n";
    os << "    \"speedup\": " << speedup() << ",\n";
    os << "    \"ticks_per_sec\": " << ticks_per_sec() << ",\n";
    os << "    \"sessions_per_sec\": " << sessions_per_sec() << ",\n";
    os << "    \"queue_wait_ms\": ";
    write_hist_ms(os, queue_wait_us);
    os << ",\n";
    os << "    \"exec_ms\": ";
    write_hist_ms(os, exec_us);
    os << ",\n";
    os << "    \"job_wall_ms\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
      os << results[i].wall_ms << (i + 1 < results.size() ? ", " : "");
    }
    os << "],\n";
    os << "    \"job_queue_wait_ms\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
      os << results[i].queue_wait_ms << (i + 1 < results.size() ? ", " : "");
    }
    os << "]\n";
    os << "  }\n";
  }
  os << "}\n";
}

bool CampaignReport::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_json(os);
  return static_cast<bool>(os);
}

Result<CalibrationSession> run_calibration_campaign(const SessionParams& base, int runs,
                                                    const LearnOptions& options) {
  if (runs <= 0) {
    return Error(ErrorCode::kInvalidArgument, "run_calibration_campaign: runs must be > 0");
  }

  // Observe-only pipeline with infinite thresholds: never alarms, but
  // produces the Prediction stream the calibration sessions consume.
  DetectionThresholds inf;
  inf.motor_vel = inf.motor_acc = inf.joint_vel = Vec3::filled(1.0e18);

  // One streaming session per run, merged in submission order afterwards —
  // the committed per-run maxima are identical to a serial pass regardless
  // of worker count, and the sketch digest proves it.
  std::vector<CalibrationSession> sessions(
      static_cast<std::size_t>(runs), CalibrationSession(target_quantile_for(options.percentile)));
  std::vector<CampaignJob> jobs(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    SessionParams p = base;
    p.seed = base.seed + static_cast<std::uint64_t>(r) * 101;
    p.ee_jump_limit = 0.0;  // fully disable alarms while learning
    CampaignJob& job = jobs[static_cast<std::size_t>(r)];
    job.params = p;
    job.thresholds = inf;
    job.label = "learn";
    job.instrument = [session = &sessions[static_cast<std::size_t>(r)]](SurgicalSim& sim) {
      sim.set_detection_observer([session](const DetectionPipeline::Outcome& out) {
        session->observe(out.prediction);
      });
    };
  }

  CampaignRunner runner(CampaignOptions{options.jobs, options.progress});
  (void)runner.run(std::move(jobs));

  CalibrationSession merged(target_quantile_for(options.percentile));
  for (CalibrationSession& session : sessions) {
    session.end_run();
    merged.merge(session);
  }
  RG_LOG(kInfo) << "calibrated from " << merged.runs() << " fault-free runs (sketch digest "
                << merged.digest() << ")";
  return merged;
}

Result<DetectionThresholds> learn_thresholds(const SessionParams& base, int runs,
                                             const LearnOptions& options) {
  auto calibrated = run_calibration_campaign(base, runs, options);
  if (!calibrated.ok()) return calibrated.error();
  return calibrated.value().extract(options.percentile, options.margin);
}

}  // namespace rg
