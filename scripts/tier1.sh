#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, plus a
# ThreadSanitizer pass over the concurrency-sensitive tests and an
# end-to-end check of the CLI's telemetry outputs.
#
#   scripts/tier1.sh            # from the repo root
#
# Stage 1 is the canonical tier-1 command from ROADMAP.md.  Stage 2
# rebuilds with -DRG_SANITIZE=thread and runs the Campaign.* tests (the
# worker pool), Obs.* tests (the lock-free metrics shards), the
# batch-equivalence suites (BatchDynamics/BatchPlant/BatchCampaign — the
# lane-parallel campaign path), the SpscRing.* tests (the lock-free
# shard handoff ring) and the Gateway.* tests (sharded session
# multiplexing) under TSan, so data races fail CI rather than flaking.
# Stage 3 rebuilds with -DRG_SANITIZE=address,undefined and runs the
# FULL unit suite, so heap errors and UB fail CI even when they do not
# crash an uninstrumented build.  Stage 4 runs a small armed sweep with
# --metrics-out/--trace-out/--events-out and validates every artifact:
# the report (rg.campaign.report/2), the metrics snapshot, the Chrome
# trace, and the safety-event JSONL (which must contain at least one
# detector alarm and one mitigation).  Stage 5 runs the dynamics-kernel
# microbench at a tiny scale and schema-validates BENCH_dynamics.json
# (including the plant_period row), then runs the vectorization gate
# (scripts/check_vectorized.sh): every x86-64-v4 lane-kernel clone must
# be call-free and use zmm registers.
# Stage 6 exercises the teleoperation gateway service end to end: the
# capacity bench at a tiny scale (schema rg.bench.gateway/2, including
# the binary-searched capacity section and the rx_batch sweep), a
# real-socket run — raven_gateway on an ephemeral loopback port driven
# by a multi-threaded sendmmsg-batched itp_loadgen — whose stats JSON
# must balance, and a paced 200-session capacity probe that must be
# absorbed with zero backpressure.  Stage 7 runs the
# static-analysis gates (docs/static-analysis.md): rg_lint (real-time,
# thread-role, determinism, metric-registry, cast, ErrorCode, and
# waiver-hygiene contracts) must emit a clean "rg.lint.report/1" JSON
# document inside a 5 s runtime budget, every public header must compile
# standalone (rg_header_checks), and the clang-format / clang-tidy /
# clang -Wthread-safety gates run when those tools are installed.  Stage 8 verifies streaming
# calibration (docs/thresholds.md): bench_calibration's budget and
# agreement gates (schema rg.bench.calibration/1), the epoch
# commit/history/rollback lifecycle through the CLI, and a live
# drift-alarm pass — raven_gateway --calibrate against a committed epoch
# with a forced drift ratio, driven by itp_loadgen, must raise
# rg.cal.drift_alarms and emit cal_drift events.  Stage 9 exercises the
# live telemetry plane (docs/admin.md): bench_obs_overhead's
# snapshot-under-writers gate (BENCH_obs.json "pass"), then a real
# gateway with --admin-port driven by itp_loadgen — /healthz must answer
# ok, /metrics must parse as Prometheus text and contain the gateway's
# canonical counters, and raven_top --once must render a session table.
# Stage 10 proves the crash-consistent state plane (docs/persistence.md):
# the seeded fault matrix (scripts/fault_matrix.sh) — SIGKILL points and
# four corruption modes, every cell recover-exact-or-fail-safe — then a
# real-socket SIGKILL/restart/rejoin pass where the restored gateway
# must reject every replayed pre-kill datagram and resume the sessions.
# Stage 11 regenerates the committed figures (Fig. 6 state inference and
# Fig. 8 model validation: seven files) in a temporary directory and
# requires them byte-identical to the repo-root copies.
#
# Gates whose tool is not installed (the clang-format, clang-tidy and
# clang -Wthread-safety checks; the vectorization gate without objdump or
# ISA clones) exit 77 and print SKIPPED; the closing summary lists every
# skipped gate, so a green run shows what did not run.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# Run an optional gate: status 77 records it as skipped, any other
# non-zero status fails tier 1.
SKIPPED=()
gate() {
  local status=0
  "$@" || status=$?
  if [ "${status}" -eq 77 ]; then
    SKIPPED+=("$(basename "$1")")
  elif [ "${status}" -ne 0 ]; then
    exit "${status}"
  fi
}

echo "== tier-1 stage 1: standard build + full ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "== tier-1 stage 2: ThreadSanitizer campaign + obs + batch tests =="
cmake -B build-tsan -S . -DRG_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}" --target test_campaign test_obs test_batch_dynamics test_spsc_ring test_gateway test_exposition test_admin
(cd build-tsan && ctest --output-on-failure -R '^(Campaign|Obs|BatchDynamics|BatchPlant|BatchCampaign|EstimatorSolves|SpscRing|Gateway|GatewaySocket|Exposition|Admin)\.')

echo "== tier-1 stage 3: ASan+UBSan full unit suite =="
cmake -B build-asan -S . -DRG_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "${JOBS}"
(cd build-asan && ctest --output-on-failure -j "${JOBS}")

echo "== tier-1 stage 4: CLI telemetry artifacts =="
cmake --build build -j "${JOBS}" --target raven_guard_cli
TDIR=build/telemetry-check
rm -rf "${TDIR}"
mkdir -p "${TDIR}"
CLI=build/tools/raven_guard_cli
"${CLI}" learn --runs 8 --seed 42 --out "${TDIR}/thresholds.txt" >/dev/null
"${CLI}" sweep --runs 1 --seed 42 --attack torque --mitigate \
  --thresholds "${TDIR}/thresholds.txt" \
  --json "${TDIR}/report.json" \
  --metrics-out "${TDIR}/metrics.json" \
  --trace-out "${TDIR}/trace.json" \
  --events-out "${TDIR}/events.jsonl" >/dev/null

# Every artifact must be valid JSON (the event log line-by-line: JSONL).
python3 -m json.tool "${TDIR}/report.json" >/dev/null
python3 -m json.tool "${TDIR}/metrics.json" >/dev/null
python3 -m json.tool "${TDIR}/trace.json" >/dev/null
python3 - "${TDIR}/events.jsonl" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    lines = [line for line in f if line.strip()]
for n, line in enumerate(lines, 1):
    try:
        json.loads(line)
    except json.JSONDecodeError as e:
        sys.exit(f"events.jsonl line {n} is not valid JSON: {e}")
assert len(lines) >= 2, "events.jsonl is missing the header or any events"
PY

# And carry the expected content.
grep -q '"schema": "rg.campaign.report/2"' "${TDIR}/report.json"
grep -q '"timing"' "${TDIR}/report.json"
grep -q '"rg.span.control.tick"' "${TDIR}/metrics.json"
grep -q '"rg.span.estimator.solve"' "${TDIR}/metrics.json"
grep -q '"rg.span.pipeline.process"' "${TDIR}/metrics.json"
grep -q '"p99"' "${TDIR}/metrics.json"
grep -q '"traceEvents"' "${TDIR}/trace.json"
grep -q '"schema": "rg.events/1"' "${TDIR}/events.jsonl"
grep -q '"kind": "detector_alarm"' "${TDIR}/events.jsonl"
grep -q '"kind": "mitigation"' "${TDIR}/events.jsonl"
grep -q '"kind": "flight_dump"' "${TDIR}/events.jsonl"
echo "telemetry artifacts OK (${TDIR})"

echo "== tier-1 stage 5: dynamics kernel bench schema =="
cmake --build build -j "${JOBS}" --target bench_dynamics_kernel
RG_SCALE=0.02 RG_BENCH_DYNAMICS_JSON="${TDIR}/bench_dynamics.json" \
  ./build/bench/bench_dynamics_kernel >/dev/null
python3 - "${TDIR}/bench_dynamics.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "rg.bench.dynamics/1", doc.get("schema")
assert doc["lanes"] >= 2, doc.get("lanes")
kernels = {row["kernel"] for row in doc["kernels"]}
assert {"derivative", "step_rk4", "plant_period", "campaign"} <= kernels, kernels
for row in doc["kernels"]:
    assert row["evals"] > 0
    assert row["scalar_evals_per_sec"] > 0.0
    assert row["batched_evals_per_sec"] > 0.0
    assert row["speedup"] > 0.0
PY
echo "bench schema OK (${TDIR}/bench_dynamics.json)"
gate scripts/check_vectorized.sh build

echo "== tier-1 stage 6: gateway service end-to-end =="
cmake --build build -j "${JOBS}" --target raven_gateway itp_loadgen bench_gateway

RG_SCALE=0.02 RG_BENCH_GATEWAY_JSON="${TDIR}/bench_gateway.json" \
  ./build/bench/bench_gateway >/dev/null
python3 - "${TDIR}/bench_gateway.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "rg.bench.gateway/2", doc.get("schema")
assert doc["shards"] >= 1
assert "sessions_sustained" in doc
assert "p50_ingest_to_verdict_ns" in doc
assert "p99_ingest_to_verdict_ns" in doc
# Capacity search: the headline must be a sustained probe with zero
# ring-full refusals, and every probe row must carry the ring counter.
cap = doc["capacity"]
assert cap["max_sessions_sustained"] >= 1, cap
assert cap["ring_full"] == 0, cap
assert len(cap["probes"]) >= 1
for row in cap["probes"]:
    assert "ring_full" in row and "rx_batch" in row
# Batch sweep: rx_batch 1/8/64 at the capacity point.
assert [row["rx_batch"] for row in doc["batch_sweep"]] == [1, 8, 64]
# Persistence overhead section: the state plane must have journaled the
# run without a single tick-path drop (the <2% acceptance is measured at
# full scale; smoke runs only prove the plumbing).
per = doc["persist"]
assert per["ops_submitted"] > 0 and per["ops_dropped"] == 0, per
assert "overhead_pct" in per and "wal_records" in per
assert len(doc["rows"]) >= 1
for row in doc["rows"]:
    assert row["accepted"] > 0
    assert row["realtime_ratio"] > 0.0
PY
echo "gateway bench schema OK (${TDIR}/bench_gateway.json)"

# Real sockets: gateway on an ephemeral loopback port with batched
# recvmmsg ingest, driven by a multi-threaded loadgen coalescing ticks
# into sendmmsg bursts.
./build/tools/raven_gateway --port 0 --shards 2 --duration 15 --rx-batch 32 \
  --port-file "${TDIR}/gateway.port" --stats-out "${TDIR}/gateway_stats.json" &
GW_PID=$!
trap 'kill "${GW_PID}" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  [ -s "${TDIR}/gateway.port" ] && break
  sleep 0.1
done
PORT="$(cat "${TDIR}/gateway.port")"
./build/tools/itp_loadgen --port "${PORT}" --sessions 8 --threads 2 --batch 16 \
  --duration 1 --burst --attack-mix 0.05 --out "${TDIR}/loadgen.json" >/dev/null
sleep 0.5
kill -INT "${GW_PID}"
wait "${GW_PID}"
trap - EXIT
python3 - "${TDIR}/gateway_stats.json" "${TDIR}/loadgen.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    stats = json.load(f)
with open(sys.argv[2]) as f:
    load = json.load(f)
assert stats["schema"] == "rg.gateway.stats/1", stats.get("schema")
assert load["schema"] == "rg.loadgen/1", load.get("schema")
assert load["batch"] == 16 and "late_sends" in load and "max_late_ns" in load
rejected = sum(stats[k] for k in stats if k.startswith("rejected_"))
assert stats["datagrams"] == stats["accepted"] + rejected + stats["backpressure_dropped"]
assert stats["accepted"] > 0
assert stats["sessions_opened"] == load["sessions"] == 8
# Attacked datagrams (replays/flips/garbled flags) must show up as
# rejections, and every accepted datagram became a control tick.
assert rejected > 0
ticks = sum(s["ticks"] for s in stats["sessions"])
assert ticks == stats["accepted"], (ticks, stats["accepted"])
PY
echo "gateway socket end-to-end OK (${TDIR}/gateway_stats.json)"

# Short capacity probe through real sockets: a paced 200-session load at
# 100 Hz must be absorbed with zero backpressure and its sessions all
# admitted — the socket-path sanity check behind the loopback capacity
# number in BENCH_gateway.json.
./build/tools/raven_gateway --port 0 --shards 4 --duration 20 --rx-batch 64 \
  --max-sessions 256 --idle-timeout-ms 60000 \
  --port-file "${TDIR}/cap_gateway.port" --stats-out "${TDIR}/cap_gateway_stats.json" &
GW_PID=$!
trap 'kill "${GW_PID}" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  [ -s "${TDIR}/cap_gateway.port" ] && break
  sleep 0.1
done
PORT="$(cat "${TDIR}/cap_gateway.port")"
./build/tools/itp_loadgen --port "${PORT}" --sessions 200 --threads 4 --batch 8 \
  --rate 100 --duration 2 --out "${TDIR}/cap_loadgen.json" >/dev/null
sleep 0.5
kill -INT "${GW_PID}"
wait "${GW_PID}"
trap - EXIT
python3 - "${TDIR}/cap_gateway_stats.json" "${TDIR}/cap_loadgen.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    stats = json.load(f)
with open(sys.argv[2]) as f:
    load = json.load(f)
assert stats["sessions_opened"] == load["sessions"] == 200
assert stats["backpressure_dropped"] == 0, stats["backpressure_dropped"]
assert stats["accepted"] > 0
assert load["send_errors"] == 0, load["send_errors"]
PY
echo "gateway capacity probe OK (${TDIR}/cap_gateway_stats.json)"

echo "== tier-1 stage 7: static-analysis gates =="
cmake --build build -j "${JOBS}" --target rg_lint rg_header_checks
LINT_START="$(date +%s.%N)"
./build/tools/rg_lint/rg_lint --root . --quiet --json "${TDIR}/lint_report.json"
LINT_END="$(date +%s.%N)"
python3 - "${TDIR}/lint_report.json" "${LINT_START}" "${LINT_END}" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "rg.lint.report/1", doc.get("schema")
assert doc["total"] == 0 and doc["findings"] == [], doc["findings"][:5]
counts = doc["counts"]
expected = {"alloc", "lock", "io", "throw", "block", "push_back", "call", "cast",
            "metric", "errorcode", "thread_role", "nondet", "stale_waiver"}
assert set(counts) == expected, sorted(counts)
assert all(v == 0 for v in counts.values()), counts
# The scan covered the tree and its contract annotations...
assert doc["files_scanned"] > 150, doc["files_scanned"]
assert doc["realtime_functions"] > 150, doc["realtime_functions"]
assert doc["thread_role_functions"] > 40, doc["thread_role_functions"]
assert doc["deterministic_functions"] > 20, doc["deterministic_functions"]
# ...inside the lint-runtime budget (the gate must stay cheap enough to
# run on every commit).
elapsed = float(sys.argv[3]) - float(sys.argv[2])
assert elapsed < 5.0, f"rg_lint runtime budget blown: {elapsed:.2f}s"
print(f"rg_lint: clean ({doc['files_scanned']} files, "
      f"{doc['thread_role_functions']} thread-role / "
      f"{doc['deterministic_functions']} deterministic functions, {elapsed:.2f}s)")
PY
gate scripts/check_format.sh
gate scripts/check_tidy.sh
gate scripts/check_thread_safety.sh

echo "== tier-1 stage 8: streaming calibration =="
cmake --build build -j "${JOBS}" --target bench_calibration raven_guard_cli raven_gateway itp_loadgen

RG_BENCH_CALIBRATION_JSON="${TDIR}/bench_calibration.json" \
  ./build/bench/bench_calibration >/dev/null
python3 - "${TDIR}/bench_calibration.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "rg.bench.calibration/1", doc.get("schema")
assert doc["pass"] is True
assert doc["exact_max_abs_diff"] == 0.0, doc["exact_max_abs_diff"]
assert doc["estimator_rel_error"] <= doc["estimator_epsilon"]
for phase in ("observe_exact_ns", "observe_estimator_ns"):
    assert doc[phase]["samples"] > 0
    assert doc[phase]["p99"] <= doc["observe_budget_ns"], (phase, doc[phase])
assert doc["observe_budget_ns"] < doc["tick_budget_ns"]
PY
echo "calibration bench schema OK (${TDIR}/bench_calibration.json)"

# Epoch lifecycle through the CLI: two commits, history, rollback.
EPOCHS="${TDIR}/cal_epochs.txt"
rm -f "${EPOCHS}"
"${CLI}" learn --runs 4 --seed 41 --out "${EPOCHS}" >/dev/null
"${CLI}" learn --runs 4 --seed 43 --thresholds-margin 1.2 --out "${EPOCHS}" >/dev/null
"${CLI}" thresholds --file "${EPOCHS}" --history | grep -q "epoch 1.*\[active\]"
"${CLI}" thresholds --file "${EPOCHS}" --rollback 0 >/dev/null
"${CLI}" thresholds --file "${EPOCHS}" | grep -q "epoch 0.*\[active\]"

# Live drift alarms: serve the committed epoch with a drift ratio no real
# session can stay under, drive real traffic, and expect latched alarms.
./build/tools/raven_gateway --port 0 --shards 2 --duration 15 \
  --calibrate --thresholds "${EPOCHS}" \
  --drift-ratio 0.000001 --drift-min-samples 32 \
  --port-file "${TDIR}/cal_gateway.port" \
  --stats-out "${TDIR}/cal_gateway_stats.json" \
  --events-out "${TDIR}/cal_events.jsonl" &
GW_PID=$!
trap 'kill "${GW_PID}" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  [ -s "${TDIR}/cal_gateway.port" ] && break
  sleep 0.1
done
PORT="$(cat "${TDIR}/cal_gateway.port")"
./build/tools/itp_loadgen --port "${PORT}" --sessions 4 --duration 1 \
  --burst --out "${TDIR}/cal_loadgen.json" >/dev/null
sleep 0.5
kill -INT "${GW_PID}"
wait "${GW_PID}"
trap - EXIT
python3 - "${TDIR}/cal_gateway_stats.json" "${TDIR}/cal_events.jsonl" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    stats = json.load(f)
assert stats["schema"] == "rg.gateway.stats/1", stats.get("schema")
assert stats["drift_checks"] > 0, stats["drift_checks"]
assert stats["drift_alarms"] > 0, stats["drift_alarms"]
# Latched: at most one alarm per session ever admitted.
assert stats["drift_alarms"] <= stats["sessions_opened"]
with open(sys.argv[2]) as f:
    events = [json.loads(line) for line in f if line.strip()]
drifts = [e for e in events if e.get("kind") == "cal_drift"]
assert len(drifts) == stats["drift_alarms"], (len(drifts), stats["drift_alarms"])
for e in drifts:
    assert e["ratio"] > 0.000001
    assert e["samples"] >= 32
PY
echo "drift-alarm end-to-end OK (${TDIR}/cal_gateway_stats.json)"

echo "== tier-1 stage 9: live telemetry plane =="
cmake --build build -j "${JOBS}" --target bench_obs_overhead raven_gateway itp_loadgen raven_top

RG_SCALE=0.02 RG_BENCH_OBS_JSON="${TDIR}/bench_obs.json" \
  ./build/bench/bench_obs_overhead >/dev/null
python3 - "${TDIR}/bench_obs.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "rg.bench.obs/2", doc.get("schema")
sw = doc["snapshot_under_writers"]
assert sw["writers"] == 8 and sw["samples"] > 0, sw
assert sw["p99_ns"] <= doc["snapshot_budget_ns"], sw
assert doc["pass"] is True
PY
echo "snapshot-under-writers gate OK (${TDIR}/bench_obs.json)"

# Real sockets: gateway with a live admin endpoint, loadgen drives it,
# then the admin plane is asserted while sessions are still active.
./build/tools/raven_gateway --port 0 --shards 2 --duration 20 \
  --idle-timeout-ms 60000 \
  --port-file "${TDIR}/adm_gateway.port" \
  --admin-port 0 --admin-port-file "${TDIR}/adm_admin.port" &
GW_PID=$!
trap 'kill "${GW_PID}" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  [ -s "${TDIR}/adm_gateway.port" ] && [ -s "${TDIR}/adm_admin.port" ] && break
  sleep 0.1
done
PORT="$(cat "${TDIR}/adm_gateway.port")"
APORT="$(cat "${TDIR}/adm_admin.port")"
./build/tools/itp_loadgen --port "${PORT}" --sessions 4 --rate 500 --duration 1 >/dev/null
python3 - "${APORT}" <<'PY'
import json, sys, urllib.request
port = sys.argv[1]
def get(path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as rsp:
        return rsp.read().decode()
assert get("/healthz").strip() == "ok"
assert get("/readyz").strip() == "ready"
metrics = get("/metrics")
# Prometheus text with the canonical dotted names in the HELP lines.
assert "# HELP rg_gw_rx_packets rg.gw.rx_packets" in metrics, metrics[:400]
assert "rg_gw_pump_jitter_ns_bucket" in metrics
for line in metrics.splitlines():
    assert line.startswith("#") or " " in line, line
stats = json.loads(get("/stats"))
assert stats["schema"] == "rg.admin.stats/1", stats.get("schema")
assert stats["captured"] is True
assert len(stats["sessions"]) == 4, len(stats["sessions"])
live = json.loads(get("/metrics.json"))
assert live["schema"] == "rg.metrics.live/1", live.get("schema")
assert any(c["name"] == "rg.gw.rx_packets" and c["value"] > 0 for c in live["counters"])
PY
TOP_OUT="$(./build/tools/raven_top --port "${APORT}" --once --plain)"
echo "${TOP_OUT}" | grep -q "raven_top"
echo "${TOP_OUT}" | grep -q "active"   # at least one session row rendered
kill -INT "${GW_PID}"
wait "${GW_PID}"
trap - EXIT
echo "admin plane end-to-end OK (port ${APORT})"

echo "== tier-1 stage 10: crash-consistent state plane =="
# Seeded crash/corruption matrix: every cell must recover exactly or
# fail safe (docs/persistence.md).
scripts/fault_matrix.sh

# Real-socket SIGKILL/restart/rejoin: a gateway with --state-dir is
# killed -9 mid-load, restarted on the same port and state directory,
# and the loadgen's rejoin mode replays its pre-kill datagrams — the
# restored anti-replay windows must reject every one while fresh
# traffic (past the rejoin guard) is accepted into the restored
# sessions.
cmake --build build -j "${JOBS}" --target raven_gateway itp_loadgen
PDIR="${TDIR}/persist-e2e"
rm -rf "${PDIR}"
mkdir -p "${PDIR}"
./build/tools/raven_gateway --port 0 --shards 2 --duration 30 --idle-timeout-ms 60000 \
  --state-dir "${PDIR}/state" --port-file "${PDIR}/gw.port" &
GW_PID=$!
trap 'kill -9 "${GW_PID}" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  [ -s "${PDIR}/gw.port" ] && break
  sleep 0.1
done
PORT="$(cat "${PDIR}/gw.port")"
./build/tools/itp_loadgen --port "${PORT}" --sessions 4 --rate 1000 --duration 3 \
  --rejoin-at 800 --rejoin-pause-ms 1500 --rejoin-replay 32 --rejoin-skip 512 \
  --out "${PDIR}/loadgen.json" >/dev/null &
LG_PID=$!
sleep 1.2   # pre-pause traffic is flowing; kill inside the pause window
kill -9 "${GW_PID}"
wait "${GW_PID}" 2>/dev/null || true
./build/tools/raven_gateway --port "${PORT}" --shards 2 --duration 30 --idle-timeout-ms 60000 \
  --state-dir "${PDIR}/state" --stats-out "${PDIR}/stats.json" &
GW_PID=$!
wait "${LG_PID}"
sleep 0.5
kill -INT "${GW_PID}"
wait "${GW_PID}"
trap - EXIT
python3 - "${PDIR}/stats.json" "${PDIR}/loadgen.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    stats = json.load(f)
with open(sys.argv[2]) as f:
    load = json.load(f)
# The restarted gateway recovered the crash state exactly...
assert stats["persist"]["outcome"] == "restored", stats["persist"]
assert stats["sessions_restored"] == load["sessions"] == 4, stats["sessions_restored"]
assert stats["sessions_opened"] == 0, stats["sessions_opened"]  # no re-admission
assert stats["persist"]["ops_dropped"] == 0, stats["persist"]
# ...rejected every replayed pre-kill datagram (restored window + guard)...
replayed = load["rejoin_replayed"]
assert replayed >= 4 * 32, replayed
assert stats["rejected_stale"] + stats["rejected_replayed"] >= replayed, stats
# ...and accepted the fresh post-guard traffic into the restored sessions.
assert stats["accepted"] > 0
ticks = sum(s["ticks"] for s in stats["sessions"])
assert ticks == stats["accepted"], (ticks, stats["accepted"])
PY
echo "state-plane SIGKILL/rejoin end-to-end OK (${PDIR})"

echo "== tier-1 stage 11: committed figures regenerate byte-identical =="
cmake --build build -j "${JOBS}" --target bench_fig6_state_inference bench_fig8_model_validation
ROOT="$(pwd)"
FIGDIR="$(mktemp -d)"
(cd "${FIGDIR}" && "${ROOT}/build/bench/bench_fig6_state_inference" >/dev/null \
  && "${ROOT}/build/bench/bench_fig8_model_validation" >/dev/null)
for fig in fig6_run1.svg fig6_run2.svg fig6_run3.svg fig8_shoulder.svg fig8_elbow.svg \
           fig8_insertion.svg fig8_trajectories.csv; do
  cmp "${FIGDIR}/${fig}" "${fig}"
done
rm -rf "${FIGDIR}"
echo "figures OK (7 files byte-identical)"

if [ "${#SKIPPED[@]}" -eq 0 ]; then
  echo "tier-1: all stages passed"
else
  echo "tier-1: all stages passed; SKIPPED gates: ${SKIPPED[*]}"
fi
