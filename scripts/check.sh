#!/usr/bin/env bash
# Full local gate: formatting, lints (warnings are errors), rustdoc
# (warnings are errors), the release build, the test suite (including the
# fleet determinism suite, the parallel-mapping determinism suite at 1-8
# workers, the staged-controller golden fixture, the
# observability suites, the telemetry record→replay determinism
# suite, the workload-engine determinism suite and the cluster-plane
# determinism suite at several worker counts), the perf-ledger package's
# own gate (`benchmarks/run.sh --check`), a replay smoke run
# over the committed fixture trace, a metrics exposition smoke (64
# instrumented ticks, output validated by the in-tree promlint), a
# workload-scenario CLI smoke (library listing plus a short
# request-driven run), a bench-scenarios JSON smoke, a cluster CLI smoke
# (single run plus the policy comparison table), the predictor-plane and
# tournament determinism suites with a tournament CLI smoke (ranked
# table, leak-free JSON), the flight-recorder determinism suite, an
# introspection smoke (live HTTP /health /metrics /state /events,
# promlint through the CLI, event export/import, and the metrics-diff
# regression gate passing a snapshot against itself while flagging a
# perturbed-seed run), and a compile check of every criterion bench
# target. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo build --release --workspace
# One workspace invocation runs every suite below; the comments say what
# each pins.
#
# Fleet determinism (`stayaway-fleet --test determinism`): FleetOutcome
# and its JSON are bit-identical for workers 1 vs 4.
#
# Mapping determinism (`stayaway-mds --test parallel_determinism`): the
# chunk-parallel SMACOF sweep and distance-matrix builders must stay
# bit-identical to the serial reference (the property suite fuzzes 1-8
# workers internally; the fleet test
# `mapping_workers_1_and_4_agree_bit_for_bit` pins the 1-vs-4 worker
# configuration end to end through a full fleet run).
#
# Golden fixture (`stayaway-core --test golden_fixture`): the staged
# controller reproduces the pre-refactor fixture bit-for-bit, reading its
# events from the flight-recorder stream alone.
#
# Workload determinism (`stayaway-workload --test determinism`): the
# request-driven engine must be a pure function of (scenario, seed) —
# bit-identical timelines and byte-identical JSON — and must uphold the
# fleet's worker-count-independence contract
# (`workload_cells_agree_across_worker_counts`).
#
# Cluster determinism (`stayaway-fleet --test cluster_determinism`,
# `cluster_seed_props`): the epoch loop must render byte-identical outcome
# JSON for workers 1 vs 2/4/8 — with the migration verb exercised and
# with it disabled — and job request streams must not depend on the
# cluster policy (pinned both deterministically and by property tests
# over random cluster seeds).
#
# Flight-recorder determinism (`stayaway-fleet --test event_determinism`):
# the canonical event stream must be byte-identical for any worker count
# at fleet and cluster scale, recording must be decision-inert, and the
# causal links must reconstruct the cluster ← host ← predictor chain from
# the stream alone.
#
# Predictor-plane determinism (`stayaway-core --test predictor_plane`,
# `stayaway-fleet --test tournament_determinism`): the KDE reference
# through the Predictor trait must stay bit-for-bit on the pre-refactor
# golden fixture, every competitor plane must drive deterministic
# NaN-free runs, and the tournament's ranked JSON — bootstrap confidence
# intervals included — must be byte-identical for any worker count.
#
# Also here: `--test record_replay`, the `stayaway-obs` suites and
# `--test observability`.
cargo test -q --workspace
# The perf-ledger package is its own workspace, so the line above does not
# reach it; it compiles against the public API of every crate, so an API
# removal must pass through here (fmt --check, clippy, its tests).
benchmarks/run.sh --check
# Replay smoke: the committed fixture trace must stay readable by the
# current trace codec, end to end through the CLI.
cargo run -q --release --bin stayaway -- \
    replay --trace tests/fixtures/smoke_trace.jsonl
# Metrics smoke: a short fully-instrumented run must emit a Prometheus
# exposition the in-tree promlint accepts (the observability suite runs
# promlint in-process; this exercises the CLI path end to end).
metrics_tmp="$(mktemp)"
trap 'rm -f "$metrics_tmp"' EXIT
cargo run -q --release --bin stayaway -- \
    metrics --scenario vlc+cpu-bomb --ticks 64 > "$metrics_tmp"
grep -q '^stayaway_controller_periods_total 64$' "$metrics_tmp"
grep -q '^# TYPE stayaway_controller_sense_latency_nanos histogram$' "$metrics_tmp"
# Workload smoke: the scenario library must list (and round-trip through
# JSON), and a short request-driven run must report per-request latency.
# Capture first: grep -q closes the pipe on first match, which would kill
# the producer with SIGPIPE under pipefail.
scenarios_out="$(cargo run -q --release --bin stayaway -- scenarios --json)"
grep -q '"multi-tenant-storm"' <<<"$scenarios_out"
workload_out="$(cargo run -q --release --bin stayaway -- \
    run --source workload:cpu-bomb --ticks 60)"
grep -q '^latency: p50' <<<"$workload_out"
# Bench-scenarios smoke: the scenario × policy grid must emit parseable
# JSON rows carrying the per-request QoS fields downstream tooling keys
# on (one row per scenario under the null policy keeps this fast).
bench_out="$(cargo run -q --release --bin stayaway -- \
    bench-scenarios --policy null --ticks 24 --json)"
grep -q '"scenario": "cpu-bomb"' <<<"$bench_out"
grep -q '"slo_violation_rate"' <<<"$bench_out"
grep -q '"p99_ms"' <<<"$bench_out"
# Cluster smoke: placement + admission queue + migration above per-host
# controllers, end to end through the CLI; JSON must carry the per-job
# rollups and must not leak the worker count into the document.
cluster_out="$(cargo run -q --release --bin stayaway -- \
    cluster --cluster-scenario hotspot --epochs 8 --epoch-ticks 4 --json)"
grep -q '"cluster_policy": "score"' <<<"$cluster_out"
grep -q '"arrival_digest"' <<<"$cluster_out"
! grep -q '"workers"' <<<"$cluster_out"
cluster_cmp="$(cargo run -q --release --bin stayaway -- \
    cluster --compare --cluster-scenario hotspot --epochs 12 --epoch-ticks 4)"
grep -q '^least-loaded' <<<"$cluster_cmp"
# Tournament smoke: the predictor × scenario sweep must print a ranked
# table naming every plane, and its JSON contract must hold — standings
# with bootstrap CIs present, no worker count and no wall-clock latency
# leaked into the document.
tournament_out="$(cargo run -q --release --bin stayaway -- \
    tournament --cells 1 --ticks 64 --resamples 100)"
grep -q '^rank' <<<"$tournament_out"
for plane in kde xapp denoise last-tick; do
    grep -q "$plane" <<<"$tournament_out"
done
tournament_json="$(cargo run -q --release --bin stayaway -- \
    tournament --cells 1 --ticks 64 --resamples 100 --workers 4 --json)"
grep -q '"standings"' <<<"$tournament_json"
grep -q '"lo"' <<<"$tournament_json"
! grep -q '"workers"' <<<"$tournament_json"
! grep -q 'decide_nanos' <<<"$tournament_json"
# Introspection smoke: a short instrumented run serving /health /metrics
# /state /events over --http (ephemeral port, scraped from the printed
# address via bash /dev/tcp). The live exposition must pass the in-tree
# promlint through the new CLI path, the exported event stream must read
# back through `stayaway events`, and the metrics-regression gate must
# pass a snapshot against itself and flag a perturbed-seed run.
intro_dir="$(mktemp -d)"
trap 'rm -f "$metrics_tmp"; rm -rf "$intro_dir"' EXIT
cargo run -q --release --bin stayaway -- \
    run --ticks 64 --metrics-out "$intro_dir/a.json" \
    --events-out "$intro_dir/events.jsonl" \
    --http 127.0.0.1:0 --http-linger 6 > "$intro_dir/run.log" &
run_pid=$!
for _ in $(seq 1 50); do
    grep -q 'listening on http://' "$intro_dir/run.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(grep -o 'http://[0-9.:]*' "$intro_dir/run.log" | head -1)"
hostport="${addr#http://}"
http_get() {
    exec 3<>"/dev/tcp/${hostport%:*}/${hostport##*:}"
    printf 'GET %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' "$1" >&3
    sed '1,/^\r$/d' <&3
    exec 3<&- 3>&-
}
[ "$(http_get /health)" = "ok" ]
http_get /metrics > "$intro_dir/metrics.prom"
cargo run -q --release --bin stayaway -- promlint "$intro_dir/metrics.prom"
http_get /state | grep -q '"tick"'
wait "$run_pid"
events_cli="$(cargo run -q --release --bin stayaway -- \
    events --events-in "$intro_dir/events.jsonl" --kind throttle)"
grep -q 'throttle' <<<"$events_cli"
cargo run -q --release --bin stayaway -- \
    metrics-diff "$intro_dir/a.json" "$intro_dir/a.json"
cargo run -q --release --bin stayaway -- \
    run --ticks 64 --seed 9 --metrics-out "$intro_dir/b.json" > /dev/null
if cargo run -q --release --bin stayaway -- \
    metrics-diff "$intro_dir/a.json" "$intro_dir/b.json" > /dev/null; then
    echo "metrics-diff failed to flag a perturbed-seed run" >&2
    exit 1
fi
# --metrics-out now reaches every plane: the cluster and tournament
# rollups must export (and the cluster exposition must lint clean).
cargo run -q --release --bin stayaway -- \
    cluster --cluster-scenario hotspot --epochs 6 --epoch-ticks 4 \
    --metrics-out "$intro_dir/cluster.prom" > /dev/null
cargo run -q --release --bin stayaway -- promlint "$intro_dir/cluster.prom"
cargo run -q --release --bin stayaway -- \
    tournament --cells 1 --ticks 48 --resamples 50 \
    --metrics-out "$intro_dir/tournament.json" > /dev/null
grep -q '"histograms"' "$intro_dir/tournament.json"
cargo bench --workspace --no-run
