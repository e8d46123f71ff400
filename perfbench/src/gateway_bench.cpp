// Gateway workloads: fleet_paced and churn_hostile.
//
// Both drive a threaded TeleopGateway through a LoopbackTransport, open
// loop at 1 kHz: every period the driver injects that period's datagrams,
// pumps them and drains the shards, then sleeps until the next period is
// due.  Inputs are generated on the fly from the seed (one console per
// stream), so the driver's memory does not grow with run length.
//
// After the timed region every gateway session is replayed through a
// scalar reference SessionEngine (same stream, same plant seed) and its
// verdict digest, tick, alarm and E-STOP counts must match.  The traced
// run additionally replays the sessions phase by phase (batched the way a
// shard groups them, and scalar) to split a tick's cost by layer.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include <unistd.h>

#include "attack/itp_injection.hpp"
#include "defense/mac.hpp"
#include "hw/usb_packet.hpp"
#include "net/master_console.hpp"
#include "obs/metrics.hpp"
#include "persist/state_plane.hpp"
#include "plant/batch_plant.hpp"
#include "svc/gateway.hpp"
#include "svc/session_engine.hpp"
#include "svc/transport.hpp"
#include "trajectory/trajectory.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rg::svc::Endpoint;

constexpr std::uint64_t kPeriodNs = 1'000'000;        // 1 kHz control period
constexpr double kPedalDownSec = 1.2;                 // after homing (~0.8 s)
constexpr std::uint64_t kPedalTick = 1200;            // first post-homing tick
constexpr std::uint64_t kWarmupPeriods = 1300;        // every session in Pedal Down
// The warm-up drains in slices: waiting for the shards every period, or
// often, would make set-up time mostly worker wake-up latency and barrier
// waits, which the host sets.  A slice stays well inside the shard rings.
constexpr std::uint64_t kWarmupDrainPeriods = 200;
constexpr std::size_t kShards = 2;
constexpr std::size_t kUniqueStreams = 16;            // fleet streams shared by sessions
constexpr double kAttackMagnitude = 1.0e-4;           // m per packet, under RAVEN's 1 mm check
constexpr std::uint32_t kAttackPackets = 64;
constexpr std::uint64_t kDetectWindow = 64;           // ticks an attack gets to be detected
constexpr std::uint64_t kPublishPeriodMs = 250;       // GatewayConfig default
constexpr std::size_t kFrameRing = 128;               // recent frames kept per churn slot
constexpr std::size_t kScalarTimedSessions = 8;       // traced scalar phase split
constexpr std::uint64_t kAllocPeriods = 3000;         // allocation-count pass length

/// Everything that defines one session's datagram stream.
struct StreamSpec {
  double radius = 0.01;
  double period_s = 2.5;
  bool attacked = false;
  std::uint32_t attack_delay = 0;
  std::uint64_t attack_seed = 0;
};

StreamSpec draw_stream(Rng& rng, double attack_share) {
  StreamSpec s;
  s.radius = 0.008 + 0.0035 * rng.uniform();
  s.period_s = 2.0 + 0.7 * rng.uniform();
  s.attacked = rng.uniform() < attack_share;
  s.attack_delay = 100 + static_cast<std::uint32_t>(rng.below(400));
  s.attack_seed = rng.next();
  return s;
}

/// One surgeon console (plus, for attacked sessions, the scenario-A
/// malware on its command path): yields each tick's ITP bytes.
class SessionStream {
 public:
  explicit SessionStream(const StreamSpec& spec)
      : console_(std::make_shared<rg::CircleTrajectory>(rg::Position{0.09, 0.0, -0.11},
                                                        spec.radius, spec.period_s, 1.0e9),
                 rg::PedalSchedule::hold_from(kPedalDownSec)) {
    if (spec.attacked) {
      rg::ItpInjectionConfig cfg;
      cfg.mode = rg::ItpInjectionConfig::Mode::kInflateIncrement;
      cfg.increment_magnitude = kAttackMagnitude;
      cfg.delay_packets = spec.attack_delay;
      cfg.duration_packets = kAttackPackets;
      cfg.seed = spec.attack_seed;
      attack_.emplace(cfg);
    }
  }

  rg::ItpBytes next() {
    rg::ItpBytes b = rg::encode_itp(console_.tick());
    if (attack_) (void)attack_->on_packet(std::span<std::uint8_t>{b}, tick_);
    ++tick_;
    return b;
  }
  [[nodiscard]] std::uint64_t injections() const { return attack_ ? attack_->injections() : 0; }
  [[nodiscard]] std::optional<std::uint64_t> first_injection() const {
    return attack_ ? attack_->first_injection_tick() : std::nullopt;
  }

 private:
  rg::MasterConsole console_;
  std::optional<rg::ItpInjectionWrapper> attack_;
  std::uint64_t tick_ = 0;
};

struct Datagram {
  Endpoint from{};
  std::uint8_t len = 0;
  std::array<std::uint8_t, rg::svc::kMaxTransportDatagram> bytes{};

  void assign(const Endpoint& ep, std::span<const std::uint8_t> payload) {
    from = ep;
    len = static_cast<std::uint8_t>(payload.size());
    std::copy(payload.begin(), payload.end(), bytes.begin());
  }
};

/// What the driver sent, by the verdict the gateway must give it.
struct Tally {
  std::uint64_t valid = 0;
  std::uint64_t size = 0;
  std::uint64_t mac = 0;
  std::uint64_t checksum = 0;
  std::uint64_t flags = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t replayed = 0;
  std::uint64_t stale = 0;

  [[nodiscard]] std::uint64_t hostile() const {
    return size + mac + checksum + flags + duplicate + replayed + stale;
  }
};

/// One session as the driver generated it (enough to regenerate its
/// stream for the reference replay).
struct SessionRecord {
  Endpoint endpoint{};
  StreamSpec spec{};
  std::uint64_t start_period = 0;
  std::uint64_t ticks = 0;  ///< valid datagrams sent
  std::uint64_t injections = 0;
  std::optional<std::uint64_t> first_injection{};
};

class Traffic {
 public:
  virtual ~Traffic() = default;
  /// Append period `p`'s datagrams to `out`.
  virtual void generate(std::uint64_t p, std::vector<Datagram>& out) = 0;
  /// Every session started so far, in start order.
  [[nodiscard]] virtual std::vector<SessionRecord> sessions() const = 0;
  [[nodiscard]] const Tally& tally() const { return tally_; }

 protected:
  Tally tally_{};
};

/// fleet_paced: N clean sessions for the whole run; session s replays
/// stream s % 16, each stream generated once per period.
class FleetTraffic final : public Traffic {
 public:
  FleetTraffic(std::uint64_t seed, std::size_t sessions) : n_(sessions) {
    Rng rng = rng_for(seed, 1);
    const std::size_t k = std::min(kUniqueStreams, sessions);
    for (std::size_t i = 0; i < k; ++i) {
      specs_.push_back(draw_stream(rng, 0.0));
      streams_.push_back(std::make_unique<SessionStream>(specs_.back()));
    }
    current_.resize(k);
  }

  void generate(std::uint64_t /*p*/, std::vector<Datagram>& out) override {
    for (std::size_t k = 0; k < streams_.size(); ++k) current_[k] = streams_[k]->next();
    for (std::size_t s = 0; s < n_; ++s) {
      Datagram& d = out.emplace_back();
      d.assign(endpoint(s), current_[s % current_.size()]);
    }
    tally_.valid += n_;
    ++periods_;
  }

  [[nodiscard]] std::vector<SessionRecord> sessions() const override {
    std::vector<SessionRecord> out(n_);
    for (std::size_t s = 0; s < n_; ++s) {
      out[s].endpoint = endpoint(s);
      out[s].spec = specs_[s % specs_.size()];
      out[s].ticks = periods_;
    }
    return out;
  }

 private:
  static Endpoint endpoint(std::size_t s) {
    return Endpoint{0x7f000001u, static_cast<std::uint16_t>(20000 + s)};
  }

  std::size_t n_;
  std::vector<StreamSpec> specs_;
  std::vector<std::unique_ptr<SessionStream>> streams_;
  std::vector<rg::ItpBytes> current_;
  std::uint64_t periods_ = 0;
};

/// churn_hostile: a fixed set of slots, each running a sequence of short
/// sessions on fresh endpoints; every valid MAC frame is followed by one
/// hostile datagram (replay, duplicate, stale replay, forged tag, flipped
/// checksum, undefined flag bits or wrong size).  A quarter of the
/// sessions carry the scenario-A injection.
class ChurnTraffic final : public Traffic {
 public:
  ChurnTraffic(std::uint64_t seed, std::size_t slots, const rg::MacKey& key)
      : key_(key), rng_(rng_for(seed, 2)), slots_(slots) {}

  void generate(std::uint64_t p, std::vector<Datagram>& out) override {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (!slot.stream || p >= slot.end_period) start_session(i, p);
      SessionRecord& rec = records_[slot.record];
      const rg::ItpBytes itp = slot.stream->next();
      const rg::svc::MacFrameBytes frame = rg::svc::seal_itp_frame(itp, key_);
      out.emplace_back().assign(rec.endpoint, frame);
      slot.ring[slot.sent % kFrameRing] = frame;
      ++slot.sent;
      ++rec.ticks;
      ++tally_.valid;
      hostile(slot, rec.endpoint, itp, frame, out);
    }
  }

  [[nodiscard]] std::vector<SessionRecord> sessions() const override {
    std::vector<SessionRecord> out = records_;
    for (const Slot& slot : slots_) {
      if (!slot.stream) continue;
      out[slot.record].injections = slot.stream->injections();
      out[slot.record].first_injection = slot.stream->first_injection();
    }
    return out;
  }

 private:
  struct Slot {
    std::unique_ptr<SessionStream> stream;
    std::size_t record = 0;
    std::uint64_t end_period = 0;
    std::uint64_t sent = 0;
    std::array<rg::svc::MacFrameBytes, kFrameRing> ring{};
  };

  void start_session(std::size_t i, std::uint64_t p) {
    Slot& slot = slots_[i];
    if (slot.stream) {
      records_[slot.record].injections = slot.stream->injections();
      records_[slot.record].first_injection = slot.stream->first_injection();
    }
    // First-generation lifetimes outlast the warm-up so every session
    // reaches Pedal Down before the timed region; later ones are short.
    const std::uint64_t lifetime =
        slot.stream ? 1500 + rng_.below(1200) : kWarmupPeriods + 100 + rng_.below(1400);
    SessionRecord rec;
    const auto serial = static_cast<std::uint32_t>(records_.size());
    rec.endpoint = Endpoint{0x0a000001u + serial, static_cast<std::uint16_t>(30000 + i)};
    rec.spec = draw_stream(rng_, 0.25);
    rec.start_period = p;
    records_.push_back(rec);
    slot.stream = std::make_unique<SessionStream>(rec.spec);
    slot.record = records_.size() - 1;
    slot.end_period = p + lifetime;
    slot.sent = 0;
  }

  void hostile(const Slot& slot, const Endpoint& from, const rg::ItpBytes& itp,
               const rg::svc::MacFrameBytes& frame, std::vector<Datagram>& out) {
    Datagram& d = out.emplace_back();
    std::uint64_t kind = rng_.below(7);
    if (kind == 1 && slot.sent < 2) kind = 3;
    if (kind == 2 && slot.sent < 66) kind = 3;
    switch (kind) {
      case 0:  // duplicate of the frame just sent
        d.assign(from, frame);
        ++tally_.duplicate;
        break;
      case 1: {  // replay inside the anti-replay window
        const std::uint64_t age = 1 + rng_.below(std::min<std::uint64_t>(63, slot.sent - 1));
        d.assign(from, slot.ring[(slot.sent - 1 - age) % kFrameRing]);
        ++tally_.replayed;
        break;
      }
      case 2: {  // replay older than the window
        const std::uint64_t max_age = std::min<std::uint64_t>(kFrameRing - 1, slot.sent - 1);
        const std::uint64_t age = 64 + rng_.below(max_age - 64 + 1);
        d.assign(from, slot.ring[(slot.sent - 1 - age) % kFrameRing]);
        ++tally_.stale;
        break;
      }
      case 3: {  // forged tag
        rg::svc::MacFrameBytes forged = frame;
        forged[rg::kItpPacketSize + rng_.below(8)] ^=
            static_cast<std::uint8_t>(1u << rng_.below(8));
        d.assign(from, forged);
        ++tally_.mac;
        break;
      }
      case 4: {  // flipped checksum under a valid tag
        rg::ItpBytes bad = itp;
        bad[rg::kItpPacketSize - 1] ^= static_cast<std::uint8_t>(1u << rng_.below(8));
        d.assign(from, rg::svc::seal_itp_frame(bad, key_));
        ++tally_.checksum;
        break;
      }
      case 5: {  // undefined flag bits, re-checksummed and re-tagged
        rg::ItpBytes bad = itp;
        bad[4] = static_cast<std::uint8_t>(bad[4] | (0x02u << rng_.below(7)));
        bad[rg::kItpPacketSize - 1] =
            rg::xor_checksum(std::span<const std::uint8_t>{bad}.first(rg::kItpPacketSize - 1));
        d.assign(from, rg::svc::seal_itp_frame(bad, key_));
        ++tally_.flags;
        break;
      }
      default: {  // wrong size
        std::size_t len = 1 + rng_.below(rg::svc::kMaxTransportDatagram - 1);
        if (len == rg::svc::kMacFrameSize) ++len;
        d.from = from;
        d.len = static_cast<std::uint8_t>(len);
        for (std::size_t b = 0; b < len; ++b) d.bytes[b] = static_cast<std::uint8_t>(rng_.next());
        ++tally_.size;
        break;
      }
    }
  }

  rg::MacKey key_;
  Rng rng_;
  std::vector<Slot> slots_;
  std::vector<SessionRecord> records_;
};

struct Shape {
  bool churn = false;
  std::size_t sessions = 64;  ///< fleet sessions, or churn slots
};

/// Detection thresholds for the gateway's sessions, learned the paper's
/// way from clean engaged sessions (99.85th percentile of the streamed
/// detection variables, 1.5x margin).  Input generation: excluded from
/// set-up time.
rg::DetectionThresholds calibrate_thresholds(std::uint64_t seed) {
  Rng rng = rng_for(seed, 3);
  rg::ThresholdSketch merged;
  for (int s = 0; s < 4; ++s) {
    rg::svc::SessionEngineConfig cfg;
    cfg.plant.seed = 100 + static_cast<std::uint64_t>(s);
    cfg.calibration.enabled = true;
    rg::svc::SessionEngine engine(cfg);
    SessionStream stream(draw_stream(rng, 0.0));
    for (int t = 0; t < 2400; ++t) {
      const rg::ItpBytes b = stream.next();
      (void)engine.tick(std::span<const std::uint8_t>{b});
    }
    merged.merge(*engine.calibration_sketch());
  }
  const auto th = merged.extract(rg::kDefaultThresholdPercentile, 1.5);
  if (!th.ok()) throw std::runtime_error("threshold calibration failed");
  return th.value();
}

/// One gateway under test plus its traffic.  Members are declared so the
/// gateway is destroyed before the state plane and the transport it uses.
struct Rig {
  Rig(const Options& opts, const Shape& shape, const rg::DetectionThresholds& thresholds,
      const std::string& plane_dir_in, bool threaded) {
    config.engine.detection.detector.thresholds = thresholds;
    config.shards = kShards;
    config.threaded = threaded;
    config.stats_publish_period_ms = kPublishPeriodMs;
    if (shape.churn) {
      const rg::MacKey key = rg::MacKey::from_seed(opts.seed);
      config.max_sessions = 2 * shape.sessions + 16;
      config.idle_timeout_ms = 30;
      config.require_mac = true;
      config.mac_key = key;
      traffic = std::make_unique<ChurnTraffic>(opts.seed, shape.sessions, key);
      if (!plane_dir_in.empty()) {
        plane_dir = plane_dir_in;
        remove_tree(plane_dir);
        rg::persist::StatePlaneConfig pc;
        pc.dir = plane_dir;
        auto opened = rg::persist::StatePlane::open(pc);
        if (!opened.ok()) throw std::runtime_error("state plane open failed: " + plane_dir);
        plane = std::move(opened.value());
        config.persist = plane.get();
      }
    } else {
      config.max_sessions = shape.sessions;
      config.idle_timeout_ms = std::uint64_t{1} << 40;
      traffic = std::make_unique<FleetTraffic>(opts.seed, shape.sessions);
    }
    transport = std::make_unique<rg::svc::LoopbackTransport>();
    gateway = std::make_unique<rg::svc::TeleopGateway>(config, *transport);
    batch.reserve(4 * shape.sessions + 16);
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Generate period `period`'s datagrams into `batch` (driver work).
  void generate() {
    batch.clear();
    traffic->generate(period, batch);
  }
  void inject() {
    for (const Datagram& d : batch) {
      transport->inject(d.from, std::span<const std::uint8_t>{d.bytes.data(), d.len});
    }
  }
  void pump() {
    while (transport->pending() > 0) (void)gateway->pump(period + 1);
  }
  /// One unpaced period (pumped on its own clock tick, drained only
  /// every kWarmupDrainPeriods); returns the wall time spent generating
  /// inputs.
  std::uint64_t step_unpaced() {
    const std::uint64_t g0 = now_ns();
    generate();
    const std::uint64_t g1 = now_ns();
    inject();
    pump();
    ++period;
    if (period % kWarmupDrainPeriods == 0) gateway->drain();
    return g1 - g0;
  }

  rg::svc::GatewayConfig config{};
  std::unique_ptr<Traffic> traffic;
  std::unique_ptr<rg::svc::LoopbackTransport> transport;
  std::unique_ptr<rg::persist::StatePlane> plane;
  std::unique_ptr<rg::svc::TeleopGateway> gateway;
  std::string plane_dir;
  std::uint64_t period = 0;  ///< next period; the gateway's clock is period + 1 ms
  std::vector<Datagram> batch;
};

/// Build a rig and warm it up unpaced until every session is in Pedal
/// Down; `setup_s` receives the set-up time minus input generation.
std::unique_ptr<Rig> build_rig(const Options& opts, const Shape& shape,
                               const rg::DetectionThresholds& thresholds,
                               const std::string& plane_dir, bool threaded,
                               std::uint64_t warmup, double& setup_s) {
  const std::uint64_t t0 = now_ns();
  auto rig = std::make_unique<Rig>(opts, shape, thresholds, plane_dir, threaded);
  std::uint64_t gen_ns = 0;
  for (std::uint64_t p = 0; p < warmup; ++p) gen_ns += rig->step_unpaced();
  rig->gateway->drain();
  setup_s = 1e-9 * static_cast<double>(now_ns() - t0 - gen_ns);
  return rig;
}

/// One paced, timed region.
struct Segment {
  Samples verdict_us;  ///< inject -> drain return, per period
  Samples due_us;      ///< due time -> drain return, per period
  std::uint64_t first_period = 0;
  std::uint64_t periods = 0;
  std::uint64_t late_periods = 0;  ///< verdicts after the next period was due
  double late_max_ms = 0.0;        ///< how late the generator injected
  std::uint64_t datagrams = 0;
  std::uint64_t ticks = 0;  ///< screened session-ticks (accepted datagrams)
  double cpu_s = 0.0;       ///< process CPU minus the driver's generation and pacing
  double steal = 0.0;
  std::vector<double> drain_us;  ///< per period, traced runs only

  [[nodiscard]] double cpu_us_per_tick() const {
    return ticks == 0 ? 0.0 : 1e6 * cpu_s / static_cast<double>(ticks);
  }
};

/// Run `periods` paced periods (1 ms each).  A period that starts late is
/// injected at once, so the region always covers the same input and ends
/// on the same period for a given seed.
void run_paced(Rig& rig, std::uint64_t periods, Segment& seg, SpanLog* spans) {
  rg::svc::TeleopGateway& gw = *rig.gateway;
  seg.first_period = rig.period;
  const std::uint64_t accepted0 = gw.stats().accepted;
  std::uint64_t publish_seq = 0;
  if (spans != nullptr) {
    const auto snap = gw.latest_snapshot();
    publish_seq = snap ? snap->seq : 0;
  }
  const CpuStat st0 = read_cpu_stat();
  const double cpu0 = process_cpu_s();
  double driver_cpu = 0.0;
  const std::uint64_t start = now_ns() + kPeriodNs;
  for (std::uint64_t p = 0; p < periods; ++p) {
    const double tc0 = thread_cpu_s();
    rig.generate();
    const std::uint64_t due = start + p * kPeriodNs;
    sleep_until_ns(due);
    driver_cpu += thread_cpu_s() - tc0;

    const std::uint64_t t_inject = now_ns();
    rig.inject();
    const std::uint64_t t_pump = now_ns();
    rig.pump();
    const std::uint64_t t_drain = now_ns();
    gw.drain();
    const std::uint64_t t_done = now_ns();

    seg.verdict_us.add(1e-3 * static_cast<double>(t_done - t_inject));
    seg.due_us.add(1e-3 * static_cast<double>(t_done - due));
    if (t_done > due + kPeriodNs) ++seg.late_periods;
    seg.late_max_ms = std::max(seg.late_max_ms, 1e-6 * static_cast<double>(t_inject - due));
    seg.datagrams += rig.batch.size();
    ++seg.periods;

    if (spans != nullptr) {
      const std::uint64_t id = rig.period;
      const auto snap = gw.latest_snapshot();
      const std::uint64_t seq = snap ? snap->seq : 0;
      const bool published = seq != publish_seq;
      publish_seq = seq;
      spans->record("period", "", id, t_inject, t_done);
      spans->record("inject", "period", id, t_inject, t_pump);
      spans->record(published ? "pump.publish" : "pump", "period", id, t_pump, t_drain);
      spans->record("drain", "period", id, t_drain, t_done);
      seg.drain_us.push_back(1e-3 * static_cast<double>(t_done - t_drain));
    }
    ++rig.period;
  }
  seg.cpu_s = process_cpu_s() - cpu0 - driver_cpu;
  seg.steal = steal_pct(st0, read_cpu_stat());
  seg.ticks = gw.stats().accepted - accepted0;
}

/// A scalar reference replay of one gateway session.
struct Reference {
  std::uint64_t digest = 0;
  std::uint64_t ticks = 0;
  std::uint64_t alarms = 0;
  std::uint64_t blocked = 0;
  bool estop = false;
  std::optional<std::uint64_t> estop_tick{};
  std::uint64_t post_homing = 0;     ///< ticks at or after the pedal press
  std::uint64_t engaged_solved = 0;  ///< of those, Pedal Down and screened by a solve
  std::uint64_t engaged = 0;
  std::uint64_t solves = 0;
};

rg::svc::SessionEngineConfig engine_config(const rg::svc::GatewayConfig& gw, std::uint32_t id) {
  rg::svc::SessionEngineConfig cfg = gw.engine;
  cfg.plant.seed = gw.plant_seed_base + id;
  return cfg;
}

/// Per-layer times from the phase-split replays (ns totals).
struct PhaseTimes {
  double begin_ns = 0, solve_ns = 0, resolve_ns = 0, plant_ns = 0, finish_ns = 0;
  std::uint64_t ticks = 0, solves = 0;
};

/// Replay one session through a scalar SessionEngine, phase by phase (the
/// same statements SessionEngine::tick runs), timing the phases into
/// `times` when given.
Reference replay_scalar(const rg::svc::GatewayConfig& gw, const SessionRecord& rec,
                        std::uint32_t id, PhaseTimes* times = nullptr) {
  Reference ref;
  rg::svc::SessionEngine engine(engine_config(gw, id));
  SessionStream stream(rec.spec);
  for (std::uint64_t t = 0; t < rec.ticks; ++t) {
    const rg::ItpBytes b = stream.next();
    const std::uint64_t t0 = times ? now_ns() : 0;
    engine.tick_begin(std::span<const std::uint8_t>{b});
    const std::uint64_t t1 = times ? now_ns() : 0;
    const bool solve = engine.needs_solve();
    rg::RavenDynamicsModel::State next{};
    if (solve) {
      next = engine.pipeline().estimator().solve(engine.pending_solve());
      ++ref.solves;
    }
    const std::uint64_t t2 = times ? now_ns() : 0;
    engine.tick_resolve(next);
    const std::uint64_t t3 = times ? now_ns() : 0;
    const rg::PlantDrive& d = engine.drive();
    engine.plant().step_control_period(d.currents, d.brakes_engaged, d.wrist_currents);
    const std::uint64_t t4 = times ? now_ns() : 0;
    (void)engine.tick_finish();
    if (times) {
      const std::uint64_t t5 = now_ns();
      times->begin_ns += static_cast<double>(t1 - t0);
      times->solve_ns += static_cast<double>(t2 - t1);
      times->resolve_ns += static_cast<double>(t3 - t2);
      times->plant_ns += static_cast<double>(t4 - t3);
      times->finish_ns += static_cast<double>(t5 - t4);
      ++times->ticks;
      times->solves += solve ? 1 : 0;
    }
    const bool engaged = engine.control().state() == rg::RobotState::kPedalDown;
    ref.engaged += engaged ? 1 : 0;
    if (t >= kPedalTick) {
      ++ref.post_homing;
      if (engaged && solve) ++ref.engaged_solved;
    }
    if (!ref.estop_tick && engine.estop_latched()) ref.estop_tick = t;
  }
  ref.digest = engine.verdict_digest();
  ref.ticks = engine.ticks();
  ref.alarms = engine.alarms();
  ref.blocked = engine.blocked();
  ref.estop = engine.estop_latched();
  return ref;
}

/// Run fn(i) for i in [0, n) on up to nproc threads, the caller included.
template <typename Fn>
void parallel_for(std::size_t n, Fn fn) {
  const std::size_t threads =
      std::min<std::size_t>(n, std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
}

struct Replica {
  PhaseTimes batched;
  PhaseTimes scalar;
  std::vector<double> round_us;  ///< per traced period, slowest shard's compute
  std::uint64_t digest_mismatches = 0;
  std::uint64_t sessions = 0;  ///< sessions the batched replica completed
};

struct LiveSession {
  std::uint32_t id = 0;
  std::size_t record = 0;
  std::unique_ptr<rg::svc::SessionEngine> engine;
  std::unique_ptr<SessionStream> stream;
  std::uint64_t done = 0;
};

/// Replay every session phase by phase, period by period, grouped the way
/// a shard groups them (ascending id, kBatchLanes per round, per shard),
/// and record the batched phase costs and each traced period's compute.
void replay_batched(const rg::svc::GatewayConfig& gw, const std::vector<SessionRecord>& records,
                    const std::vector<std::uint32_t>& ids,
                    const std::map<std::uint32_t, std::uint64_t>& digests, std::uint64_t periods,
                    std::uint64_t traced_first, Replica& out) {
  rg::BatchRavenModel est_model(gw.engine.detection.estimator.model);
  std::vector<std::size_t> order(records.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return records[a].start_period < records[b].start_period;
  });
  std::size_t next_start = 0;
  std::map<std::uint32_t, LiveSession> live;  // ascending id
  PhaseTimes& pt = out.batched;
  for (std::uint64_t p = 0; p < periods; ++p) {
    while (next_start < order.size() && records[order[next_start]].start_period == p) {
      const std::size_t r = order[next_start++];
      if (records[r].ticks == 0 || ids[r] == 0) continue;
      LiveSession ls;
      ls.id = ids[r];
      ls.record = r;
      ls.engine = std::make_unique<rg::svc::SessionEngine>(engine_config(gw, ids[r]));
      ls.stream = std::make_unique<SessionStream>(records[r].spec);
      live.emplace(ls.id, std::move(ls));
    }
    std::array<double, kShards> shard_ns{};
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      std::vector<LiveSession*> ready;
      for (auto& [id, ls] : live) {
        if (id % kShards == shard && ls.done < records[ls.record].ticks) ready.push_back(&ls);
      }
      for (std::size_t base = 0; base < ready.size(); base += rg::kBatchLanes) {
        const std::size_t n = std::min(rg::kBatchLanes, ready.size() - base);
        LiveSession* const* chunk = ready.data() + base;
        std::array<rg::ItpBytes, rg::kBatchLanes> bytes{};
        for (std::size_t l = 0; l < n; ++l) bytes[l] = chunk[l]->stream->next();

        const std::uint64_t t0 = now_ns();
        for (std::size_t l = 0; l < n; ++l) {
          chunk[l]->engine->tick_begin(std::span<const std::uint8_t>{bytes[l]});
        }
        const std::uint64_t t1 = now_ns();
        std::array<rg::RavenDynamicsModel::State, rg::kBatchLanes> next{};
        std::array<bool, rg::kBatchLanes> solving{};
        std::size_t first = rg::kBatchLanes;
        for (std::size_t l = 0; l < n; ++l) {
          solving[l] = chunk[l]->engine->needs_solve();
          if (solving[l] && first == rg::kBatchLanes) first = l;
        }
        if (first != rg::kBatchLanes) {
          const rg::PendingSolve& ref = chunk[first]->engine->pending_solve();
          rg::BatchState x;
          rg::BatchLanes3 currents{};
          x.set_lane(0, ref.x0);
          for (std::size_t i = 0; i < 3; ++i) currents[i].fill(ref.currents[i]);
          x.broadcast(0);
          for (std::size_t l = 0; l < n; ++l) {
            if (!solving[l]) continue;
            const rg::PendingSolve& pending = chunk[l]->engine->pending_solve();
            x.set_lane(l, pending.x0);
            for (std::size_t i = 0; i < 3; ++i) currents[i][l] = pending.currents[i];
            ++pt.solves;
          }
          est_model.step(x, currents, ref.h, ref.solver);
          for (std::size_t l = 0; l < n; ++l) {
            if (solving[l]) next[l] = x.lane(l);
          }
        }
        const std::uint64_t t2 = now_ns();
        std::array<rg::PlantDrive, rg::kBatchLanes> drives{};
        for (std::size_t l = 0; l < n; ++l) {
          chunk[l]->engine->tick_resolve(next[l]);
          drives[l] = chunk[l]->engine->drive();
        }
        const std::uint64_t t3 = now_ns();
        if (n == 1) {
          const rg::PlantDrive& d = drives[0];
          chunk[0]->engine->plant().step_control_period(d.currents, d.brakes_engaged,
                                                        d.wrist_currents);
        } else {
          std::array<rg::PhysicalRobot*, rg::kBatchLanes> plants{};
          for (std::size_t l = 0; l < n; ++l) plants[l] = &chunk[l]->engine->plant();
          rg::BatchPlant batch(std::span<rg::PhysicalRobot* const>{plants.data(), n});
          batch.step_control_period(std::span<const rg::PlantDrive>{drives.data(), n});
        }
        const std::uint64_t t4 = now_ns();
        for (std::size_t l = 0; l < n; ++l) {
          (void)chunk[l]->engine->tick_finish();
          ++chunk[l]->done;
        }
        const std::uint64_t t5 = now_ns();
        pt.begin_ns += static_cast<double>(t1 - t0);
        pt.solve_ns += static_cast<double>(t2 - t1);
        pt.resolve_ns += static_cast<double>(t3 - t2);
        pt.plant_ns += static_cast<double>(t4 - t3);
        pt.finish_ns += static_cast<double>(t5 - t4);
        pt.ticks += n;
        shard_ns[shard] += static_cast<double>(t5 - t0);
      }
    }
    if (p >= traced_first) {
      out.round_us.push_back(1e-3 * *std::max_element(shard_ns.begin(), shard_ns.end()));
    }
    for (auto it = live.begin(); it != live.end();) {
      if (it->second.done >= records[it->second.record].ticks) {
        const auto d = digests.find(it->first);
        ++out.sessions;
        if (d == digests.end() || d->second != it->second.engine->verdict_digest()) {
          ++out.digest_mismatches;
        }
        it = live.erase(it);
      } else {
        ++it;
      }
    }
  }
}

double per(double total, std::uint64_t n) { return n == 0 ? 0.0 : total / static_cast<double>(n); }

/// A session open when the state plane stopped.
struct LiveAtStop {
  std::uint32_t id = 0;
  Endpoint endpoint{};
  bool estop = false;
};

/// Restore check: reopen the stopped plane's directory and compare it
/// with the live session table at the moment the plane stopped.  Open
/// sessions must come back, closed ones must not, and live E-STOP latches
/// must come back latched.  Returns the number of mismatches.
std::uint64_t check_restore(const std::string& dir, const std::vector<LiveAtStop>& live_at_stop,
                            const std::vector<SessionRecord>& records,
                            const std::vector<std::uint32_t>& ids,
                            const std::vector<Reference>& refs, std::uint64_t end_period,
                            RunResult& out) {
  rg::persist::StatePlaneConfig pc;
  pc.dir = dir;
  pc.start_flusher = false;
  auto reopened = rg::persist::StatePlane::open(pc);
  if (!reopened.ok() || reopened.value()->fail_safe()) {
    out.fail("state plane reopens cleanly");
    return 1;
  }
  const rg::persist::PersistentState state = reopened.value()->state();
  std::map<std::uint32_t, std::size_t> record_by_id;
  for (std::size_t r = 0; r < records.size(); ++r) {
    if (ids[r] != 0) record_by_id[ids[r]] = r;
  }
  std::uint64_t mismatches = 0;
  std::size_t open_found = 0;
  for (const LiveAtStop& live : live_at_stop) {
    const std::string who = "session " + std::to_string(live.id);
    const auto it = state.sessions.find(live.id);
    if (it == state.sessions.end() || it->second.ip != live.endpoint.ip ||
        it->second.port != live.endpoint.port) {
      ++mismatches;
      out.fail("open " + who + " restored");
      continue;
    }
    ++open_found;
    if (live.estop && !it->second.estop) {
      ++mismatches;
      // E-STOP latches reach the plane only when pump() publishes a
      // snapshot (every 250 ms), so a latch younger than that is lost.
      const std::size_t r = record_by_id.at(live.id);
      const std::uint64_t latched_at = records[r].start_period + refs[r].estop_tick.value_or(0);
      const std::uint64_t age = end_period - latched_at;
      if (age <= kPublishPeriodMs + 1) {
        out.known_defect("E-STOP latch of " + who + " raised " + std::to_string(age) +
                         " ms before the stop is not durable (publish throttle)");
      } else {
        out.fail("E-STOP latch of " + who + " restored");
      }
    } else if (!live.estop && it->second.estop) {
      ++mismatches;
      out.fail(who + " restored without a spurious E-STOP");
    }
  }
  if (state.sessions.size() != open_found) {
    const std::uint64_t extra = state.sessions.size() - open_found;
    mismatches += extra;
    out.fail("closed sessions not restored (" + std::to_string(extra) + " were)", extra);
  }
  return mismatches;
}

/// Heap allocations over a fixed, unpaced prefix of the workload's input
/// (`periods` periods from a fresh gateway), where every count repeats
/// exactly.  On a threaded gateway the driver thread's allocations inside
/// inject() are the transport's and inside pump() the pump's
/// (classification, session table, publication); an inline-shard gateway
/// runs the shards' rounds inside pump() too, so its excess is the
/// shards'.  (Threaded shards allocate with burst timing, so their own
/// count does not repeat.)
struct AllocCounts {
  std::uint64_t dgrams = 0;
  std::uint64_t ticks = 0;
  std::uint64_t transport = 0;
  std::uint64_t pump = 0;
  std::uint64_t shard = 0;
  std::size_t queue_hwm = 0;  ///< deepest shard ring, one period in flight
};

AllocCounts count_allocs(const Options& opts, const Shape& shape,
                         const rg::DetectionThresholds& thresholds, std::uint64_t periods) {
  AllocCounts out;
  std::uint64_t inline_pump = 0;
  for (const bool threaded : {true, false}) {
    double unused = 0.0;
    auto rig = build_rig(opts, shape, thresholds, std::string{}, threaded, 0, unused);
    for (std::uint64_t p = 0; p < periods; ++p) {
      rig->generate();
      const std::uint64_t a0 = thread_allocs();
      rig->inject();
      const std::uint64_t a1 = thread_allocs();
      rig->pump();
      rig->gateway->drain();
      const std::uint64_t a2 = thread_allocs();
      ++rig->period;
      if (threaded) {
        out.transport += a1 - a0;
        out.pump += a2 - a1;
        out.dgrams += rig->batch.size();
      } else {
        inline_pump += a2 - a1;
      }
    }
    if (threaded) {
      out.ticks = rig->gateway->stats().accepted;
      for (const auto& shard : rig->gateway->shard_stats()) {
        out.queue_hwm = std::max(out.queue_hwm, shard.queue_hwm);
      }
    }
  }
  out.shard = inline_pump > out.pump ? inline_pump - out.pump : 0;
  return out;
}

RunResult run_gateway(const Options& opts, const Shape& shape_in) {
  Shape shape = shape_in;
  if (opts.smoke) shape.sessions = shape.churn ? 6 : 8;
  RunResult out;
  print_fingerprint();

  const rg::DetectionThresholds thresholds = calibrate_thresholds(opts.seed);
  if (!make_dirs(opts.work_dir)) throw std::runtime_error("cannot create " + opts.work_dir);
  const std::string plane_base =
      opts.work_dir + "/state-" + std::to_string(opts.seed) + "-" + std::to_string(getpid());

  // Set-up, several times; the last rig is the one measured.
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  const std::uint64_t reps = opts.smoke ? 1 : kSetupReps;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const std::string dir = shape.churn ? plane_base + "-" + std::to_string(rep) : std::string{};
    double s = 0.0;
    rig = build_rig(opts, shape, thresholds, dir, true, kWarmupPeriods, s);
    setups.push_back(s);
    if (rep + 1 < reps) {
      rig.reset();
      remove_tree(dir);
    }
  }
  const double setup_s = median(setups);

  // Timed region(s).  A traced run measures an untraced half first, so
  // the tracing overhead is the difference between the two halves.
  Segment measured;
  Segment traced;
  SpanLog spans;
  rg::obs::Registry::global().reset();
  const auto periods = static_cast<std::uint64_t>(opts.seconds * 1e9 / kPeriodNs);
  if (opts.trace) {
    run_paced(*rig, periods / 2, measured, nullptr);
    rg::obs::Registry::global().reset();
    spans.reserve(4 * (periods - periods / 2));
    run_paced(*rig, periods - periods / 2, traced, &spans);
  } else {
    run_paced(*rig, periods, measured, nullptr);
  }
  const double rss_mb = peak_rss_mb();
  const rg::obs::MetricsSnapshot reg = rg::obs::Registry::global().snapshot();

  // --- checks --------------------------------------------------------------
  rig->gateway->drain();
  const rg::svc::GatewayStats stats = rig->gateway->stats();
  std::uint64_t ring_full = 0;
  for (const auto& s : rig->gateway->shard_stats()) ring_full += s.ring_full;
  const Tally tally = rig->traffic->tally();
  const std::vector<SessionRecord> records = rig->traffic->sessions();
  out.attempted = tally.valid;

  out.check(stats.accepted == tally.valid, "every valid datagram accepted (" +
                                               std::to_string(stats.accepted) + " of " +
                                               std::to_string(tally.valid) + ")");
  out.check(stats.backpressure_dropped == 0 && ring_full == 0,
            "no backpressure or ring-full refusals");
  out.check(stats.rejected_session_limit == 0, "no session-limit refusals");
  out.check(stats.rejected_estop == 0, "no datagram refused by a latched E-STOP");
  if (shape.churn) {
    out.check(stats.rejected_size == tally.size, "wrong-size rejects == injected");
    out.check(stats.rejected_mac == tally.mac, "forged-tag rejects == injected");
    out.check(stats.rejected_checksum == tally.checksum, "flipped-checksum rejects == injected");
    out.check(stats.rejected_flags == tally.flags, "flag-bit rejects == injected");
    out.check(stats.rejected_duplicate == tally.duplicate, "duplicate rejects == injected");
    out.check(stats.rejected_replayed == tally.replayed, "replay rejects == injected");
    out.check(stats.rejected_stale == tally.stale, "stale rejects == injected");
    out.check(tally.hostile() >= tally.valid, "at least as many hostile datagrams as valid");
  } else {
    out.check(tally.hostile() == 0 && stats.datagrams == tally.valid, "fleet traffic is clean");
  }

  // Stop the plane with the sessions still open, then tear down.
  std::vector<LiveAtStop> live_at_stop;
  rg::persist::StatePlaneStats plane_stats{};
  if (rig->plane) {
    rig->plane->stop();
    plane_stats = rig->plane->stats();
    for (const rg::svc::SessionStats& s : rig->gateway->sessions()) {
      if (s.active) live_at_stop.push_back(LiveAtStop{s.id, s.endpoint, s.shard.estop});
    }
  }
  const std::uint64_t end_period = rig->period;
  const rg::svc::GatewayConfig gw_config = rig->config;
  rig->gateway->shutdown();
  const std::vector<rg::svc::SessionStats> sessions = rig->gateway->sessions();
  const std::string plane_dir = rig->plane_dir;
  rig.reset();

  std::map<std::uint32_t, std::uint64_t> digests;
  std::map<std::uint64_t, const rg::svc::SessionStats*> by_endpoint;
  for (const rg::svc::SessionStats& s : sessions) {
    digests[s.id] = s.shard.digest;
    by_endpoint[(std::uint64_t{s.endpoint.ip} << 16) | s.endpoint.port] = &s;
  }
  std::vector<std::uint32_t> ids(records.size(), 0);
  for (std::size_t r = 0; r < records.size(); ++r) {
    const Endpoint& ep = records[r].endpoint;
    const auto it = by_endpoint.find((std::uint64_t{ep.ip} << 16) | ep.port);
    if (it != by_endpoint.end()) ids[r] = it->second->id;
  }
  out.check(sessions.size() == records.size(), "one gateway session per generated session");

  // Scalar reference for every session: batched == scalar, counts match.
  std::vector<Reference> refs(records.size());
  parallel_for(records.size(), [&](std::size_t r) {
    if (ids[r] != 0) refs[r] = replay_scalar(gw_config, records[r], ids[r]);
  });
  std::uint64_t post_homing = 0;
  std::uint64_t engaged_solved = 0;
  std::uint64_t ref_ticks = 0;
  std::uint64_t ref_engaged = 0;
  std::uint64_t ref_solves = 0;
  std::uint64_t alarms = 0;
  std::uint64_t attacked_checked = 0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const SessionRecord& rec = records[r];
    if (ids[r] == 0) {
      out.fail("session " + rec.endpoint.to_string() + " never admitted");
      continue;
    }
    const Reference& ref = refs[r];
    const rg::svc::SessionStats& gs =
        *by_endpoint.at((std::uint64_t{rec.endpoint.ip} << 16) | rec.endpoint.port);
    const std::string who = "session " + std::to_string(ids[r]);
    out.check(gs.shard.digest == ref.digest, who + " verdict digest == scalar reference");
    out.check(gs.shard.ticks == rec.ticks && ref.ticks == rec.ticks,
              who + " ticks == datagrams sent");
    out.check(gs.shard.alarms == ref.alarms && gs.shard.blocked == ref.blocked &&
                  gs.shard.estop == ref.estop,
              who + " alarm/block/E-STOP counts == scalar reference");
    ref_ticks += ref.ticks;
    ref_engaged += ref.engaged;
    ref_solves += ref.solves;
    alarms += gs.shard.alarms;
    if (!rec.spec.attacked) {
      out.check(gs.shard.alarms == 0, who + " (clean) raised no alarm");
      post_homing += ref.post_homing;
      engaged_solved += ref.engaged_solved;
    } else if (rec.first_injection && rec.ticks > *rec.first_injection + kDetectWindow) {
      ++attacked_checked;
      out.check(gs.shard.alarms > 0 && gs.shard.blocked > 0 && gs.shard.estop,
                who + " (attacked) alarmed, blocked and latched E-STOP");
    }
  }
  out.check(post_homing == 0 || engaged_solved * 10 >= post_homing * 9,
            "at least 90% of post-homing ticks engaged and solved (" +
                std::to_string(engaged_solved) + " of " + std::to_string(post_homing) + ")");
  if (shape.churn && !opts.smoke) {
    out.check(attacked_checked > 0, "at least one attacked session ran its attack");
  }

  std::uint64_t restore_mismatches = 0;
  if (!plane_dir.empty()) {
    restore_mismatches = check_restore(plane_dir, live_at_stop, records, ids, refs, end_period, out);
    remove_tree(plane_dir);
  }

  // --- metrics ---------------------------------------------------------------
  const Segment& m = measured;
  if (!opts.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("verdict_p50_us", m.verdict_us.quantile(0.5), "us");
    out.metric("cpu_us_per_tick", m.cpu_us_per_tick(), "us");
    // Screening capacity of one core: session-ticks per CPU-second (not
    // the offered 1 kHz rate, which a paced run only repeats).
    out.metric("ticks_per_s", m.cpu_us_per_tick() > 0 ? 1e6 / m.cpu_us_per_tick() : 0.0,
               "ticks/s");
    out.metric("peak_rss_mb", rss_mb, "MB");
  }
  // Diagnostics explain the gated metrics' spread; a traced run reports
  // them as its driver/host layer.
  const double late_frac = per(static_cast<double>(m.late_periods), m.periods);
  report_diagnostics(out,
                     {{"driver.verdict_p90_us", m.verdict_us.quantile(0.9), "us"},
                      {"driver.due_verdict_p99_us", m.due_us.quantile(0.99), "us"},
                      {"driver.due_verdict_samples", static_cast<double>(m.due_us.seen()), "count"},
                      {"driver.late_tick_frac", late_frac, "ratio"},
                      {"driver.late_max_ms", m.late_max_ms, "ms"},
                      {"host.steal_pct", m.steal, "%"}},
                     opts.trace);
  for (const double v : setups) diag("setup_s.rep", v, "s");

  if (opts.trace) {
    const Segment& t = traced;
    out.metric("trace.overhead_pct",
               m.cpu_us_per_tick() > 0 ? 100.0 * (t.cpu_us_per_tick() / m.cpu_us_per_tick() - 1.0)
                                       : 0.0,
               "%");

    // Driver-side spans: transport, pump, publish, drain.
    double inject_ns = 0;
    for (const double v : spans.durations("inject")) inject_ns += v;
    const std::vector<double> pump_plain = spans.durations("pump");
    const std::vector<double> pump_publish = spans.durations("pump.publish");
    double pump_ns = 0;
    for (const double v : pump_plain) pump_ns += v;
    for (const double v : pump_publish) pump_ns += v;
    out.metric("svc.transport.inject_ns", per(inject_ns, t.datagrams), "ns");
    out.metric("svc.pump.ns_per_dgram", per(pump_ns, t.datagrams), "ns");
    out.metric("svc.pump.accept_frac", per(static_cast<double>(t.ticks), t.datagrams), "ratio");
    out.metric("svc.pump.publish_us",
               pump_publish.empty() ? 0.0 : 1e-3 * (median(pump_publish) - median(pump_plain)),
               "us");
    out.metric("svc.pump.sessions_evicted", static_cast<double>(stats.sessions_evicted), "count");
    out.metric("svc.shard.drain_us_p50", median(t.drain_us), "us");
    if (const rg::obs::HistogramData* h = reg.histogram("rg.gw.round.lanes"); h && h->count) {
      out.metric("svc.shard.lanes_mean",
                 static_cast<double>(h->sum) / static_cast<double>(h->count), "lanes");
    }

    // MAC verification cost on the frames this workload sends.
    {
      const rg::MacKey key = rg::MacKey::from_seed(opts.seed);
      rg::ItpBytes itp = rg::encode_itp(rg::ItpPacket{});
      const rg::svc::MacFrameBytes frame = rg::svc::seal_itp_frame(itp, key);
      constexpr int kMacReps = 100000;
      int ok = 0;
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < kMacReps; ++i) ok += rg::svc::verify_itp_frame(frame, key) ? 1 : 0;
      out.metric("defense.mac_ns", static_cast<double>(now_ns() - t0) / kMacReps, "ns");
      out.check(ok == kMacReps, "MAC frames verify");
    }

    // Phase-split replicas of the same streams.
    Replica replica;
    replay_batched(gw_config, records, ids, digests, end_period, t.first_period, replica);
    // The same sessions' scalar path, timed on a few of them.
    for (std::size_t r = 0, timed = 0; r < records.size() && timed < kScalarTimedSessions; ++r) {
      if (ids[r] == 0) continue;
      ++timed;
      const Reference ref = replay_scalar(gw_config, records[r], ids[r], &replica.scalar);
      if (ref.digest != digests.at(ids[r])) ++replica.digest_mismatches;
    }
    const auto admitted = static_cast<std::uint64_t>(
        std::count_if(ids.begin(), ids.end(), [](std::uint32_t id) { return id != 0; }));
    out.check(replica.sessions == admitted && replica.digest_mismatches == 0,
              "every replica session replayed, digests == measured run's");
    std::vector<double> wake;
    for (std::size_t i = 0; i < t.drain_us.size() && i < replica.round_us.size(); ++i) {
      wake.push_back(t.drain_us[i] - replica.round_us[i]);
    }
    const PhaseTimes& b = replica.batched;
    const PhaseTimes& sc = replica.scalar;
    out.metric("svc.shard.wake_us_p50", median(wake), "us");
    out.metric("control.begin_ns", per(b.begin_ns, b.ticks), "ns");
    out.metric("core.resolve_ns", per(b.resolve_ns, b.ticks), "ns");
    out.metric("hw.finish_ns", per(b.finish_ns, b.ticks), "ns");
    out.metric("plant.step_ns.batched", per(b.plant_ns, b.ticks), "ns");
    out.metric("plant.step_ns.scalar", per(sc.plant_ns, sc.ticks), "ns");
    out.metric("dynamics.solve_ns.batched", per(b.solve_ns, b.solves), "ns");
    out.metric("dynamics.solve_ns.scalar", per(sc.solve_ns, sc.solves), "ns");
    out.metric("core.engaged_frac", per(static_cast<double>(ref_engaged), ref_ticks), "ratio");
    out.metric("core.solves_per_tick", per(static_cast<double>(ref_solves), ref_ticks),
               "solves/tick");
    out.metric("core.alarms", static_cast<double>(alarms), "count");
    double injections = 0;
    for (const SessionRecord& rec : records) injections += static_cast<double>(rec.injections);
    out.metric("attack.injections", injections, "count");

    const AllocCounts allocs = count_allocs(opts, shape, thresholds, kAllocPeriods);
    out.metric("svc.transport.allocs_per_dgram",
               per(static_cast<double>(allocs.transport), allocs.dgrams), "allocs/dgram");
    out.metric("svc.pump.allocs_per_dgram", per(static_cast<double>(allocs.pump), allocs.dgrams),
               "allocs/dgram");
    out.metric("svc.shard.allocs_per_tick", per(static_cast<double>(allocs.shard), allocs.ticks),
               "allocs/tick");
    out.metric("svc.shard.queue_hwm", static_cast<double>(allocs.queue_hwm), "count");

    out.metric("persist.ops_submitted", static_cast<double>(plane_stats.ops_submitted), "count");
    out.metric("persist.ops_dropped", static_cast<double>(plane_stats.ops_dropped), "count");
    out.metric("persist.flushes", static_cast<double>(plane_stats.flushes), "count");
    out.metric("persist.wal_records", static_cast<double>(plane_stats.store.wal_records),
               "count");
    out.metric("persist.restore_mismatches", static_cast<double>(restore_mismatches), "count");

    write_spans(opts, spans);
  }
  return out;
}

}  // namespace

RunResult run_fleet_paced(const Options& opts) { return run_gateway(opts, Shape{false, 64}); }

RunResult run_churn_hostile(const Options& opts) { return run_gateway(opts, Shape{true, 24}); }

}  // namespace perfbench
