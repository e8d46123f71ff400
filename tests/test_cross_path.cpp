// Cross-path equivalence: the simulator and the gateway run one trusted
// chain (svc::SessionEngine), so a gateway session fed the ITP bytes a
// SurgicalSim's control software received must reach the same verdict on
// every tick — same verdict digest, tick count, alarms, blocks and E-STOP.
//
// The sim runs the default lossless zero-delay channel and starts at tick
// 0, as a bare engine does; the gateway session gets the sim's engine
// config (plant seed and PipelineConfig included) over a LoopbackTransport
// with an inline shard.  The pedal goes down after homing, so both paths
// screen engaged commands.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "attack/attack_engine.hpp"
#include "attack/interposer.hpp"
#include "sim/experiment.hpp"
#include "sim/surgical_sim.hpp"
#include "svc/gateway.hpp"
#include "svc/transport.hpp"

namespace rg {
namespace {

/// Records each ITP datagram that reaches the control software.  Installed
/// last on the sim's ITP chain, so it sees post-attack bytes.
class ItpTap final : public PacketInterposer {
 public:
  bool on_packet(std::span<std::uint8_t> bytes, std::uint64_t /*tick*/) override {
    stream.emplace_back(bytes.begin(), bytes.end());
    return true;
  }
  std::vector<std::vector<std::uint8_t>> stream;
};

struct PathOutcome {
  std::uint64_t ticks = 0;
  std::uint64_t alarms = 0;
  std::uint64_t blocked = 0;
  std::uint64_t digest = 0;
  bool estop = false;

  friend bool operator==(const PathOutcome&, const PathOutcome&) = default;
};

std::ostream& operator<<(std::ostream& os, const PathOutcome& o) {
  return os << "{ticks " << o.ticks << ", alarms " << o.alarms << ", blocked " << o.blocked
            << ", digest " << o.digest << ", estop " << o.estop << "}";
}

/// Thresholds a few times above clean engaged motion: quiet for the
/// operator's own commands, tripped by scenario A's inflated increments.
DetectionThresholds engaged_thresholds() {
  DetectionThresholds th;
  th.motor_vel = Vec3{50.0, 100.0, 250.0};
  th.motor_acc = Vec3{1600.0, 1600.0, 5200.0};
  th.joint_vel = Vec3{0.85, 1.7, 0.12};
  return th;
}

struct CrossPathRun {
  PathOutcome sim;
  PathOutcome gateway;
};

CrossPathRun run_both_paths(const AttackSpec& attack) {
  SessionParams params;
  params.seed = 29;
  params.duration_sec = 3.0;
  SimConfig cfg = make_session(params, engaged_thresholds(), MitigationMode::kArmed);
  cfg.engine.start_delay_ticks = 0;
  const svc::SessionEngineConfig engine_config = cfg.engine;

  SurgicalSim sim(std::move(cfg));
  sim.install(build_attack(attack));
  auto tap = std::make_shared<ItpTap>();
  sim.itp_chain().add(tap);
  sim.run(params.duration_sec);

  CrossPathRun out;
  svc::SessionEngine& engine = sim.engine();
  out.sim = PathOutcome{engine.ticks(), engine.alarms(), engine.blocked(),
                        engine.verdict_digest(), engine.estop_latched()};
  // One datagram reached the software every tick: a gateway session ticks
  // once per accepted datagram, so a gap could not be replayed.
  EXPECT_EQ(tap->stream.size(), engine.ticks());

  svc::LoopbackTransport transport;
  svc::GatewayConfig gw;
  gw.engine = engine_config;
  gw.plant_seed_base = engine_config.plant.seed - 1;  // the first session gets id 1
  gw.shards = 1;
  gw.threaded = false;
  gw.idle_timeout_ms = 1u << 30;
  svc::TeleopGateway gateway(gw, transport);
  const svc::Endpoint console{0x0a000001u, 4242};
  for (const std::vector<std::uint8_t>& datagram : tap->stream) {
    transport.inject(console, std::span<const std::uint8_t>{datagram});
  }
  while (transport.pending() > 0) (void)gateway.pump(1);
  gateway.drain();
  const std::vector<svc::SessionStats> sessions = gateway.sessions();
  EXPECT_EQ(sessions.size(), 1u);
  if (!sessions.empty()) {
    const svc::SessionStats& s = sessions.front();
    EXPECT_EQ(s.id, 1u);
    EXPECT_EQ(s.counters.accepted, tap->stream.size());
    out.gateway = PathOutcome{s.shard.ticks, s.shard.alarms, s.shard.blocked, s.shard.digest,
                              s.shard.estop};
  }
  gateway.shutdown();
  return out;
}

TEST(CrossPath, CleanSessionSameVerdictsOnBothPaths) {
  const CrossPathRun run = run_both_paths(AttackSpec{});
  EXPECT_EQ(run.sim, run.gateway);
  EXPECT_EQ(run.sim.ticks, 3000u);
  EXPECT_EQ(run.sim.alarms, 0u);
  EXPECT_FALSE(run.sim.estop);
}

TEST(CrossPath, ScenarioAInjectionSameVerdictsOnBothPaths) {
  AttackSpec attack;
  attack.variant = AttackVariant::kUserInputInjection;
  attack.magnitude = 1.3e-4;
  attack.delay_packets = 300;
  attack.duration_packets = 128;
  attack.seed = 31;
  const CrossPathRun run = run_both_paths(attack);
  EXPECT_EQ(run.sim, run.gateway);
  EXPECT_EQ(run.gateway.ticks, 3000u);
  // The gateway session screened engaged commands, alarmed, blocked and
  // latched E-STOP — the mitigation chain end to end.
  EXPECT_GT(run.gateway.alarms, 0u);
  EXPECT_GT(run.gateway.blocked, 0u);
  EXPECT_TRUE(run.gateway.estop);
}

}  // namespace
}  // namespace rg
