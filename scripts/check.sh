#!/usr/bin/env bash
# Full local gate: formatting, lints (warnings are errors), rustdoc
# (warnings are errors), the release build, the workspace test suite (every
# determinism / golden-fixture suite, including the byte-for-byte CLI
# transcripts of `tests/cli_golden.rs`), the perf-ledger package's own
# gate (`benchmarks/run.sh --check`), a live `--http` introspection scrape
# (the one CLI check that needs a running server), the cluster scale curve
# in release and a compile check of the `paper` bench target, the package's
# only one. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
# One type per substrate: `Harness` and `WorkloadHost` are their own
# observation sources. Two older names survive only because the frozen perf
# ledger (`benchmarks/`) imports them — `sim::SimSource`, a forwarder on the
# harness, and `workload::WorkloadSource`, an alias of the engine — so no
# library code may name either outside the lines that define them.
if grep -rnwE 'SimSource|WorkloadSource' crates/*/src src | grep -vE \
    -e '^crates/sim/src/source\.rs:[0-9]+:(pub struct SimSource\(|impl (ObservationSource for )?SimSource \{)' \
    -e '^crates/sim/src/lib\.rs:[0-9]+:pub use source::SimSource;$' \
    -e '^crates/workload/src/lib\.rs:[0-9]+:pub type WorkloadSource = WorkloadHost;$'; then
    echo "check.sh: SimSource / WorkloadSource named outside their definitions (above)" >&2
    exit 1
fi
# One path per telemetry type: the simulator re-exports the telemetry
# plane's types at its root, in one `pub use stayaway_telemetry::{…};`
# statement, only for `baselines` and `bench`, which have no normal
# dependency on `stayaway-telemetry`. Any other library code names those
# types through `stayaway_telemetry` (a `use stayaway_sim::{…}` nested more
# than one brace deep is not parsed). The type list is read from that
# statement, so it is kept in one place.
sim_reexports="$(awk '/^pub use stayaway_telemetry::/ { on = 1 } on { printf "%s ", $0 }
    on && /;/ { exit }' crates/sim/src/lib.rs | sed 's/.*{\(.*\)}.*/\1/; s/,/ /g')"
if [ -z "${sim_reexports// /}" ]; then
    echo "check.sh: no 'pub use stayaway_telemetry::{…};' in crates/sim/src/lib.rs" >&2
    exit 1
fi
mapfile -t lib_files < <(find crates/*/src src -name '*.rs' -not -path 'crates/compat/*' \
    -not -path 'crates/baselines/*' -not -path 'crates/bench/*' | sort)
if awk -v types="$sim_reexports" '
    BEGIN {
        n = split(types, t, /[[:space:]]+/)
        for (i = 1; i <= n; i++) if (t[i] != "") telemetry[t[i]] = 1
    }
    FNR == 1 { pending = "" }
    {
        text = $0
        sub(/\/\/.*/, "", text)
        text = pending text
        if (text ~ /stayaway_sim::\{[^}]*$/) { pending = text " "; next }
        pending = ""
        while (match(text, /stayaway_sim::(\{[^}]*\}|[A-Za-z_][A-Za-z0-9_]*)/)) {
            path = substr(text, RSTART + 14, RLENGTH - 14)
            text = substr(text, RSTART + RLENGTH)
            gsub(/[{}[:space:]]/, "", path)
            k = split(path, items, ",")
            for (i = 1; i <= k; i++) {
                root = items[i]
                sub(/::.*/, "", root)
                if (root in telemetry) { print FILENAME ":" FNR ": stayaway_sim::" root; bad = 1 }
            }
        }
    }
    END { exit !bad }' "${lib_files[@]}"; then
    echo "check.sh: telemetry types named through stayaway_sim (above): import them" \
        "from stayaway_telemetry" >&2
    exit 1
fi
# Version 1 trace reading: the writer emits only version 2, so the
# committed fixture is the one version 1 text that the CLI goldens
# (`replay_fixture.txt`, `replay_unbounded_ticks.txt`) and the decoder fuzz
# rows replay. Re-recorded, it would take the v1 read path's coverage with
# it and no test would notice.
if ! head -n 1 tests/fixtures/smoke_trace.jsonl | grep -q '^{"format":"stayaway-trace","version":1,'; then
    echo "check.sh: tests/fixtures/smoke_trace.jsonl is no longer a version 1 trace" >&2
    exit 1
fi
# One call per decision: the controller's decisions and the cluster
# barrier's verbs reach their flight recorder through one helper each
# (`ControllerMetrics::decision` in `crates/stayaway/src/obs.rs`,
# `Scheduling::applied` in the runner), the call that also bumps the
# decision's counter. An event written anywhere else in these two files
# forks that path. (`*_latency.record(` are histograms; a QoS tally's
# `record` is the "one per-tick fold" guard's below.)
if awk '/fn [a-z_]+/ { match($0, /fn [a-z_]+/); f = substr($0, RSTART + 3, RLENGTH - 3) }
        /\.record(_for)?\(/ && !/_latency\.record\(/ && f != "applied" {
            print FILENAME ":" FNR ":" $0; bad = 1
        }
        END { exit !bad }' crates/stayaway/src/controller.rs crates/fleet/src/cluster/runner.rs; then
    echo "check.sh: a flight-recorder write outside the one decision helper (above)" >&2
    exit 1
fi
# One stopwatch: the controller reads the clock on one control period in
# 16, through `obs::Laps`; the map stage's append and solve timers clock
# rare work (a new representative), not periods. A clock read anywhere
# else in the controller crate (comments aside) is a per-period cost the
# sampling rule does not cover.
if awk 'FNR == 1 { scope = "" }
        /^impl / { scope = $0 }
        /^}/ { scope = "" }
        /fn [a-z_]+/ { match($0, /fn [a-z_]+/); f = substr($0, RSTART + 3, RLENGTH - 3) }
        { code = $0; sub(/\/\/.*/, "", code) }
        code ~ /Instant::now|\.elapsed\(\)|SystemTime/ {
            ok = (FILENAME ~ /\/obs\.rs$/ && scope ~ /^impl Laps /) ||
                 (FILENAME ~ /\/stages\/map\.rs$/ && (f == "refresh_dissim" || f == "re_embed"))
            if (!ok) { print FILENAME ":" FNR ":" $0; bad = 1 }
        }
        END { exit !bad }' $(find crates/stayaway/src -name '*.rs' | sort); then
    echo "check.sh: a clock read outside obs::Laps and the map stage's append / solve timers (above)" >&2
    exit 1
fi
# One cell matrix: a fleet cell's source, predictor, policy and scenario
# are the mixed-radix digits of its index, read in one place
# (`Fleet::plans` in `crates/fleet/src/runner.rs`). An index into one of
# those lists that takes a `%` anywhere else in non-test code (comments
# aside) is a second cell-assignment rule.
mapfile -t plan_files < <(find crates/*/src src -name '*.rs' \
    -not -path crates/fleet/src/runner.rs | sort)
if awk 'FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        { code = $0; sub(/\/\/.*/, "", code) }
        !test && code ~ /(scenarios|policies|predictors|sources)\[[^]]*%/ {
            print FILENAME ":" FNR ":" $0; bad = 1
        }
        END { exit !bad }' "${plan_files[@]}"; then
    echo "check.sh: a cell axis indexed with % outside Fleet::plans (above)" >&2
    exit 1
fi
# One per-tick fold: every plane accounts a tick through `RunOutcome::fold`
# (`crates/telemetry/src/run.rs`), which `telemetry::drive` calls for a
# fleet cell or a single host and `HostCell::advance_epoch` for a cluster
# host. A `qos.record(` anywhere else in non-test code (comments aside) is
# a second per-tick fold, whose QoS and means need not agree with it.
mapfile -t fold_files < <(find crates/*/src src -name '*.rs' \
    -not -path crates/telemetry/src/run.rs | sort)
if awk 'FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        { code = $0; sub(/\/\/.*/, "", code) }
        !test && code ~ /qos\.record\(/ {
            print FILENAME ":" FNR ":" $0; bad = 1
        }
        END { exit !bad }' "${fold_files[@]}"; then
    echo "check.sh: a QoS tick recorded outside RunOutcome::fold (above)" >&2
    exit 1
fi
# Every public function has a caller, and one outside its crate. rustc
# checks crate-private items for dead code; it never fires on a `pub` item
# of a library, so this block covers what crosses a crate boundary. A
# `pub fn` is one defined in `crates/*/src` (not `crates/compat`), `src/` or
# `crates/bench/benches`. A call is `name(`, `name::<` or `::name` outside a
# definition (`fn name`), a comment or a `pub` / `pub(crate)` `use`
# statement. Two rules, by name:
# * dead: no non-test code calls it — those trees, `benchmarks/src` and
#   `examples`, each file cut at its first `#[cfg(test)]`;
# * crate-local: nothing outside its crate calls it — another crate's
#   `src`, the facade and its binary, `examples`, `crates/bench`, the
#   frozen perf ledger or any `tests/` directory (a crate's own integration
#   tests are outside it). Make it `pub(crate)`; rustc takes it from there.
# `tests/` directories count only for the second rule. A name defined more
# than once is judged per definition's crate for the second rule, and dead
# when none of its definitions is called; one called definition hides the
# others, so those need a reader. The allowlist names the dead functions
# that stay on purpose — a test oracle, or an item ROADMAP keeps for a
# named item — one `name  # reason` a line. The check fails when a dead
# name is not on the list, when a listed name gains a caller, when a
# listed name disappears (so the list can only shrink) and on any
# crate-local `pub fn`.
dead_fn_allowlist='
density  # kept: trajectory::Kde stays until ROADMAP [judge](b) decides
dropped_actions  # kept: FaultySource counters, read by tests until ROADMAP [faults] calls them
dropped_observations  # kept: FaultySource counters, read by tests until ROADMAP [faults] calls them
prefix_rmsd  # oracle: crates/mds/tests/properties.rs measures Procrustes alignment with it
records  # kept: SpanSink ring reader, goes with the ring in ROADMAP [budget](a)
tolerance  # oracle: crates/mds/tests run solver and reference at tolerances 0, 1e-8, 1e-14, -inf
'
mapfile -t files < <(find crates/*/src src crates/bench/benches benchmarks/src examples \
    crates/*/tests tests benchmarks/tests -name '*.rs' -not -path 'crates/compat/*' | sort -u)
pub_fns="$(awk '
    # The crate a file belongs to; tests, examples and the ledger define
    # nothing, so any name unlike a defining crate will do.
    function crate_of(file, part) {
        if (file ~ /^crates\/bench\/benches\//) return "crates/bench/benches"
        if (file ~ /^crates\/[^\/]+\/src\//) { split(file, part, "/"); return part[1] "/" part[2] }
        if (file ~ /^src\/bin\//) return "src/bin"
        if (file ~ /^src\//) return "src"
        return file
    }
    FNR == 1 {
        test = FILENAME ~ /(^|\/)tests\//
        in_use = 0
        defines = !test && FILENAME !~ /^(benchmarks\/src|examples)\//
        crate = crate_of(FILENAME)
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (in_use || line ~ /^[[:space:]]*pub(\(crate\))? use /) { in_use = line !~ /;/; next }
        rest = line
        while (defines && match(rest, /pub fn [a-z_][a-z0-9_]*/)) {
            name = substr(rest, RSTART + 7, RLENGTH - 7)
            rest = substr(rest, RSTART + RLENGTH)
            # (awk creates an assigned element before it reads the right side)
            seen = name in at
            at[name] = (seen ? at[name] " " : "") FILENAME ":" FNR
            seen = (name, crate) in home
            home[name, crate] = (seen ? home[name, crate] " " : "") FILENAME ":" FNR
        }
        gsub(/fn [A-Za-z_][A-Za-z0-9_]*/, "fn", line)
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            before = substr(line, 1, RSTART - 1)
            line = substr(line, RSTART + RLENGTH)
            if (line !~ /^(\(|::<)/ && before !~ /::$/) continue
            if (!test) called[name] = 1
            # The calling crate, or "*" once two crates call it.
            if (!(name in caller)) caller[name] = crate
            else if (caller[name] != crate) caller[name] = "*"
        }
    }
    END {
        for (name in at) if (!(name in called)) print "dead", name, at[name]
        for (key in home) {
            split(key, part, SUBSEP)
            if (!(part[1] in caller) || caller[part[1]] == part[2]) print "local", part[1], home[key]
        }
    }
' "${files[@]}" | sort)"
dead_fns="$(sed -n 's/^dead //p' <<< "$pub_fns")"
local_fns="$(sed -n 's/^local //p' <<< "$pub_fns")"
listed="$(sed -n 's/^\([a-z_0-9]*\)  #.*/\1/p' <<< "$dead_fn_allowlist" | sort)"
unlisted="$(join -v1 <(echo "$dead_fns") <(echo "$listed"))"
stale="$(join -v2 <(echo "$dead_fns") <(echo "$listed"))"
if [ -n "$unlisted" ] || [ -n "$stale" ] || [ -n "$local_fns" ]; then
    [ -z "$unlisted" ] || echo "check.sh: public functions no non-test code calls:" \
        "delete them or call them"$'\n'"$unlisted" >&2
    [ -z "$stale" ] || echo "check.sh: allowlisted functions that gained a caller or" \
        "disappeared: drop them from the allowlist"$'\n'"$stale" >&2
    [ -z "$local_fns" ] || echo "check.sh: public functions nothing outside their crate" \
        "calls: make them pub(crate)"$'\n'"$local_fns" >&2
    exit 1
fi
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo build --release --workspace
# The perf ledger's lock file is frozen with the rest of `benchmarks/`, yet
# a normal-dependency change in any workspace crate rewrites it. Resolve it
# as `benchmarks/run.sh` would and fail if it moved.
cargo metadata --offline --quiet --format-version 1 \
    --manifest-path benchmarks/Cargo.toml > /dev/null
if ! git diff --exit-code -- benchmarks/Cargo.lock; then
    echo "check.sh: benchmarks/Cargo.lock moved (above): a workspace crate changed" \
        "its normal dependencies, and only a change to the perf ledger may" \
        "rewrite its lock file" >&2
    exit 1
fi
# One workspace invocation runs every suite below; the comments say what
# each pins.
#
# Fleet determinism (`stayaway-fleet --test determinism`): FleetOutcome
# and its JSON are bit-identical for workers 1 vs 4.
#
# Mapping plane (`stayaway-mds --test smacof_equivalence`, `--test
# adversarial_inputs`): the serial SMACOF sweep must return the bits and
# sweep count of the test-only reference solver, and NaN / infinite /
# coincident inputs must surface as typed errors or finite embeddings,
# never a panic. The plane is serial, so it has no worker-count contract.
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
# Cross-plane equivalence (`stayaway-fleet --test cross_plane_equivalence`):
# a one-host cluster whose only job never arrives must equal the fleet
# cell over the same workload scenario and derived seed — QoS, throttles,
# batch-work, utilisation and gained-utilisation bits, rejected actions,
# the host-scope event stream, dropped events, prediction checks / hits,
# rejected samples and the metrics rollup (the host's equals the cell's
# stable view but for the cell-runtime span) — because both planes open
# their host through one `open_host`, record into one `Observability`
# bundle, run the one `telemetry::step` loop, account each tick through
# the one `RunOutcome::fold` and fold each finished run through one tally.
#
# Flight-recorder determinism (`stayaway-fleet --test event_determinism`):
# the canonical event stream must be byte-identical for any worker count
# at fleet and cluster scale, recording must be decision-inert, and the
# causal links must reconstruct the cluster ← host ← predictor chain from
# the stream alone.
#
# Predictor plane (`stayaway-core --test predictor_plane`, `--lib
# stages::predict`, `stayaway-trajectory --test properties`,
# `stayaway-fleet --test predictor_ranking`): the KDE reference
# through the Predictor trait must stay bit-for-bit on the golden
# fixture; the three competitor planes and the pooled KDE must reproduce
# eight literal digests recorded before the verdict ledger moved into
# `PredictStage` (a pin across commits); every plane, driven through the
# stage, must survive NaN / infinite observations; the stage must keep
# its three ledger rules (no verdict from a `None` forecast, no cursor
# move on a failed observe, cancel drops exactly the pending verdict);
# `ModePredictor` must vote like the bare `TrajectoryModel`s it routes
# to, pooled and per mode; and a fleet's ranked predictor JSON — the
# serde derive's output, bootstrap confidence intervals included — must
# be byte-identical for any worker count.
#
# Behaviour fence (`stayaway-bench --test figure_shapes`, facade `--test
# map_quality`): what a change that moves map coordinates must keep, since
# it cannot keep bits — the "shape holds?" predicate of every one of the 29
# paper results EXPERIMENTS.md lists (figures, Table 1, claims, ablations,
# extensions), each asserted on what `stayaway_bench::figures::<id>()`
# returns, the function the `paper` bench target prints; a drift test that
# every result has a predicate and an EXPERIMENTS.md row; and the live
# map's stress within 0.03 of an exact solve, using both dimensions, on
# the paper's four co-locations.
#
# Trace format (`--test record_replay`, `stayaway-telemetry --test
# properties`, `serde --test text_layer`): a recorded run replays bit for
# bit, a run whose roster changes (workload attach / detach, bare and
# faulty) included, the bytes of a 60-tick recording are pinned, and the
# version 1 fixture re-recorded as version 2 decodes to the same stream;
# the serde derives that read a version 1 observation line are held
# to test-local oracles — the writer byte-equal to a tree built by hand,
# the reader equal to a walk of `parse_json`'s tree on accept / reject and
# value over rewritten, truncated and arbitrary lines, the committed
# fixture re-encoding to itself; and the JSON text layer under them
# renders a pinned corpus to the same bytes, scans strings in linear time and writes every float and
# integer byte for byte as `core::fmt` does (the old `write!` rule is the
# test's oracle). The decoders a user points at a file (`events <file>`,
# `run --template`, `metrics-diff`) are fuzzed in facade `--test
# json_decoder_fuzz`: arbitrary bytes, every truncation, edited documents
# and million-deep nesting decode or fail as values, never a panic or a
# stack overflow, and no error names a byte as `Some(120)` or `None`; trace
# replay (`run --source trace:<path>`) is two more rows of that table, one
# per format version, plus a version 2 tick that does not fit its roster.
#
# Engine timelines (`stayaway-workload --test pinned_timelines`, the
# `queue::tests` property tests): the seven library scenarios, bare and
# under a pause/resume script, and one attach/inject/detach cycle must
# reproduce literals recorded before the event queue was rebuilt — a pin
# across commits, where `determinism` only compares a run with itself —
# and the queue must pop in the order of one global binary heap. The
# latency histogram's buckets are `stayaway_obs`'s log-linear layout at 5
# bits; `latency::tests::shared_layout_at_five_bits_is_the_layout_this_file_had`
# sweeps it against the functions `latency.rs` used to carry.
#
# One resource vocabulary (`stayaway-fleet --lib cluster::policy`,
# `stayaway-workload --lib engine::`): the engine and the cluster planner
# count in `ResourceVector`. The planner must compute the bits of its
# six-field `HostLoad` predecessor, kept verbatim as a test-only oracle in
# `crates/fleet/tests/reference/planner.rs`
# (`planner_math_matches_the_host_load_reference_bit_for_bit`: every
# library job plus random demand profiles, on empty, full and
# oversubscribed hosts). After every tick of a pause / resume / attach /
# inject / detach script on multi-tenant-storm, the engine's `load()` must
# equal what its tenants hold — alive containers' RAM and LLC, running
# unfrozen invocations' rates — within 1e-9 relative
# (`load_conserves_occupancy_and_running_rates`).
#
# Introspection cost (`stayaway-core --test period_allocations`, the
# `stayaway-obs` model tests in `--test properties`): a fence that reads no
# clock — under a counting global allocator, a control period with
# registry + span ring + flight recorder + `/state` cell on performs the
# heap allocations of the same period with observability disabled, unless
# it wrote a recorder event; `Histogram` snapshots equal a naive tally
# (exact extremes under two concurrent writers), the span ring equals a
# `VecDeque<SpanRecord>` at capacities 0, 1 and 4096, and `/state` rendered
# on request is byte-for-byte the tree the controller used to build every
# period (`controller::tests::state_document_renders_the_bytes_the_eager_tree_did`).
#
# Loop allocations (`stayaway-core --test loop_allocations`,
# `stayaway-fleet --test workload_allocations`): counted, not clocked —
# after warm-up, a `telemetry::step` over the simulator on vlc+cpubomb,
# vlc+soplex and vlc+twitter, each with app-reported and with IPC-inferred
# violation detection, bare, teed through a trace writer and replayed
# from a recorded trace, allocates nothing unless it found a new
# representative, labelled a violation or returned actions (the excuse
# counts print with `--nocapture`), and the four storm-cluster workload
# hosts, their observations recycled, average at most 0.2 allocations per
# tick. Both fail at PR 25's parent. Beside them, the equivalence that
# makes reuse safe: `sim --test properties` holds the buffered
# `allocate_into` to a verbatim copy of the old physics bit for bit,
# facade `--test observation_recycling` holds the four recycling sources
# (sim, workload with attach / detach, tee, trace replay) to fresh runs
# tick for tick, and the telemetry `properties` readers check
# `deserialize_in_place` into a reused observation against a fresh read on
# every fuzz input, error messages included.
#
# Act stage (`stayaway-core --test act_stage`, `--lib stages::act`): one
# `ActStage` driven through random engage / resume / violation sequences
# as a state machine — β never decreases and grows by `beta_increment`
# only when a phase-change resume re-violates within the window, a resume
# returns exactly the pauses of the throttle it ends, optimistic resumes
# are never vetoed, a zero-drift throttle with probability 1 resumes
# within `optimistic_after × 6` periods, observe-only mode issues nothing.
# Whole periods (`stayaway-core --test controller_decisions`): every
# `throttle` event names a `predictor-verdict` or `slo-violation` in the
# stream, and random observations with several prioritised sensitive
# containers never draw a `Pause` for the top priority.
#
# Also here: the other `stayaway-obs` suites and `--test observability`.
cargo test -q --workspace
# The cluster scale curve, 4x10 to 100x1000 hosts x jobs (`#[ignore]`d in
# the run above: minutes in debug, ~20 s in release). Every size must
# complete with its per-host engine timelines equal to the pinned
# digests, and the largest must not depend on the worker count; the table
# it prints is the one EXPERIMENTS.md quotes.
cargo test -q --release -p stayaway-fleet --test cluster_scale_curve -- --ignored --nocapture
# The float writer's long differential sweep (`#[ignore]`d in the run
# above): 64 M random bit patterns and as many uniform draws in [0, 1e4),
# plus the edge sets, each written byte for byte as `core::fmt` prints it
# (~40 s in release on two threads).
cargo test -q --release -p serde --test text_layer -- --ignored
# The perf-ledger package is its own workspace, so the line above does not
# reach it; it compiles against the public API of every crate, so an API
# removal must pass through here (fmt --check, clippy, its tests).
benchmarks/run.sh --check
# CLI smokes that used to grep `cargo run` output here are now asserted
# byte-for-byte by the golden transcripts in `tests/cli_golden.rs`
# (fixtures under tests/fixtures/cli/), which the workspace run above
# includes:
#   replay of the committed fixture trace    -> replay_fixture.txt
#   replay under `--ticks 1000000000000`     -> replay_unbounded_ticks.txt
#   run --metrics-out exposition file        -> metrics.txt
#   library listing, list --json             -> list.txt
#   (its workload_scenarios = the retired
#   `scenarios --json`, workload_library.json) -> list_and_scenarios
#   workload run `latency:` line             -> run_workload.txt
#   run over the workload library            -> bench_scenarios.txt
#   cluster JSON / --cluster-policy list
#   table / no "workers" leak,
#   cluster --metrics-out                    -> cluster.txt (+ promlint step)
#   list rows = their single runs            -> a_list_run_is_its_single_runs
#   ranked fleet table + leak-free JSON,
#   ranked fleet --metrics-out               -> tournament.txt
#   (standings = the retired `tournament`'s,
#   tournament_ranking.json)                 -> the_ranking_is_the_retired_tournaments
#   events export/import round-trip          -> run.txt, fleet.txt, events.txt
#   metrics-diff self-pass / perturbed seed  -> metrics_diff.txt
#
# Introspection smoke: a short instrumented run serving /health /metrics
# /state over --http (ephemeral port, scraped from the printed address via
# bash /dev/tcp). The live exposition must pass the in-tree promlint
# through the CLI.
intro_dir="$(mktemp -d)"
trap 'rm -rf "$intro_dir"' EXIT
cargo run -q --release --bin stayaway -- \
    run --ticks 64 --http 127.0.0.1:0 --http-linger 6 > "$intro_dir/run.log" &
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
http_get '/events?tail=5' | grep -q '"kind"'
wait "$run_pid"
cargo bench --workspace --no-run
