//! Golden transcripts of the `stayaway` binary (`tests/fixtures/cli/*.txt`).
//!
//! Every case spawns the real binary in a scratch working directory and
//! compares a transcript — per step: the command line, the normalised
//! stdout, the first stderr line when there is one, and the exit code —
//! byte-for-byte against its fixture. The fixtures of pre-existing
//! behaviour were generated by the binary *before* the CLI was reduced to
//! a shell (one flag table, one single-host run path), so they are the
//! proof that the refactor changed no output. Only `flag_rejection.txt`
//! and `events_cycle.txt` pin behaviour that refactor introduced, and
//! `replay_unbounded_ticks.txt` a later fix (a tick budget is a ceiling,
//! never an allocation size).
//!
//! The single-host extras were later folded into `run` (`--template`,
//! `--template-out`, `--record-out`, and `--source trace:<path>` for a
//! replay), retiring the `capture`, `reuse`, `record` and `replay`
//! commands. Their transcripts (`capture_reuse.txt`, `record_replay.txt`,
//! `replay_fixture.txt`, `replay_unbounded_ticks.txt`) were rewritten in
//! the `run` form; every headline and JSON number kept its value, and
//! what changed on purpose is this: the former presets also print `run`'s
//! `controller:` and `stages:` lines, a seeded run is labelled with its
//! policy's own name, a replay is labelled `trace:<path>` after its
//! source and prints no "replayed N observations" line.
//!
//! Later still, `events` stopped running a demo cluster of its own: it
//! reads the stream it inspects from its one operand (`events <file>`, `-`
//! for stdin; formerly `events --events-in <file>`). Every event line kept
//! its bytes; the demo rows became the `cluster --events-out` + `events
//! <file>` steps they duplicated. Single-host errors lost the fleet's
//! framing (`cell observation source error: `, `invalid fleet
//! configuration: `), and a fleet's cell error names its cell.
//!
//! Then `metrics` and `bench-scenarios` were retired. `metrics.txt` now
//! pins `run --metrics-out` plus the file it wrote; each exposition kept
//! its bytes. `bench_scenarios.txt` pins `compare` over the workload
//! library, which prints each run as `run` does; [`bench_scenarios_grid`]
//! checks every row against the retired table. `compare --json` prints
//! one `{"rows": [...]}` document, and a file that cannot be opened is
//! named in its error (`cannot read <path>: …`, `cannot write <path>: …`).
//!
//! Then `tournament` was retired: a fleet that runs two or more predictors
//! ranks them. `tournament.txt` pins the ranked fleets that ran the
//! retired command's cells, and [`the_ranking_is_the_retired_tournaments`]
//! holds their standings to that command's recorded output. A file that
//! opens but holds bad content, or a trace sink that fails mid-run, is
//! named like one that cannot be opened.
//!
//! Then every command that runs something took one list grammar.
//! `compare` is `run` over lists: `--source` and `--policy` are comma
//! lists and `run` runs their cross, printing one run as before and a
//! list as `compare` did (a `scenario:` header per source, or one
//! `{"rows": [...]}` document); `compare.txt` and `bench_scenarios.txt`
//! kept every output byte. `cluster --compare` is a `--cluster-policy`
//! list: `cluster.txt`'s table kept its bytes, and
//! [`a_list_run_is_its_single_runs`] holds each `--json` row of both
//! commands to its single run. `scenarios` is `list`'s workload library
//! block; `list --json` carries it as `workload_scenarios`, which
//! [`list_and_scenarios`] holds to what `scenarios --json` printed
//! (`tests/fixtures/workload_library.json`). The flags of one run
//! (`--template`, `--template-out`, `--record-out`, `--metrics-out`,
//! `--events-out`, `--http`, `--http-linger`) are refused beside a list
//! naming several runs, `--http-linger` without `--http`, and only a
//! refused command line prints the usage after its error
//! ([`the_usage_follows_only_a_refused_command_line`]).
//!
//! Then a stage clock carries its count of clocked periods: `--json`
//! prints `"clocked"` beside `"invocations"`, and the `stages:` line
//! reads `n/a` for a stage with none (`run --ticks 5`), where it read
//! `0µs` as if no time had passed.
//!
//! Wall-clock readings are the only nondeterministic output; one
//! normaliser ([`normalise`]) masks exactly these shapes:
//!
//! * `"nanos": N` JSON fields → `"nanos": <t>`;
//! * `Nµs` readings (`40x/12µs` in the `stages:` line) → `<t>µs`;
//! * sample lines of `*_nanos` series in a Prometheus exposition are
//!   dropped (their `# HELP` / `# TYPE` lines stay).
//!
//! Regenerate (only when an output change is intended and reviewed):
//!
//! ```text
//! STAYAWAY_REGEN_GOLDEN=1 cargo test --test cli_golden
//! ```

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_stayaway");
const REPO: &str = env!("CARGO_MANIFEST_DIR");

/// Masks the wall-clock shapes listed in the module docs.
fn normalise(stdout: &str) -> String {
    let mut out = String::new();
    for line in stdout.lines() {
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        if !line.starts_with('#') && line[..name_end].contains("_nanos") {
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("\"nanos\":") {
            let indent = &line[..line.len() - trimmed.len()];
            let comma = if trimmed.ends_with(',') { "," } else { "" };
            out.push_str(&format!("{indent}\"nanos\": <t>{comma}\n"));
            continue;
        }
        let mut rest = line;
        while let Some(at) = rest.find("µs") {
            out.push_str(rest[..at].trim_end_matches(|c: char| c.is_ascii_digit()));
            out.push_str("<t>µs");
            rest = &rest[at + "µs".len()..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

/// A scratch working directory holding one case's files, removed on drop.
struct Sandbox {
    dir: PathBuf,
    transcript: String,
}

impl Sandbox {
    fn new(case: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("stayaway-cli-golden-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Sandbox {
            dir,
            transcript: String::new(),
        }
    }

    /// Writes `contents` to `rel` inside the sandbox.
    fn write(&self, rel: &str, contents: &str) {
        let path = self.dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("file path")).expect("parent dir");
        std::fs::write(path, contents).expect("sandbox file");
    }

    /// Copies the committed smoke trace to the same relative path the
    /// repository keeps it at, so transcripts show a machine-independent
    /// path.
    fn with_smoke_trace(self) -> Self {
        let rel = "tests/fixtures/smoke_trace.jsonl";
        let text = std::fs::read_to_string(Path::new(REPO).join(rel)).expect("smoke trace");
        self.write(rel, &text);
        self
    }

    fn read(&self, rel: &str) -> String {
        std::fs::read_to_string(self.dir.join(rel)).expect("sandbox file")
    }

    /// Appends sandbox file `rel`, normalised, as `cat <rel>` would print
    /// it.
    fn cat(&mut self, rel: &str) {
        self.transcript.push_str(&format!("$ cat {rel}\n"));
        self.transcript.push_str(&normalise(&self.read(rel)));
    }

    /// Appends the lines of sandbox file `rel` that contain `needle`, as
    /// `grep <needle> <rel>` would print them.
    fn grep(&mut self, needle: &str, rel: &str) {
        self.transcript
            .push_str(&format!("$ grep {needle} {rel}\n"));
        for line in self.read(rel).lines().filter(|l| l.contains(needle)) {
            self.transcript.push_str(&format!("{line}\n"));
        }
    }

    /// Runs one whitespace-separated command line and appends its
    /// transcript entry.
    fn run(&mut self, line: &str) {
        self.run_with_stdin(line, "");
    }

    fn run_with_stdin(&mut self, line: &str, stdin: &str) {
        let mut child = Command::new(BIN)
            .args(line.split_whitespace())
            .current_dir(&self.dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(stdin.as_bytes())
            .expect("stdin written");
        let output = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "`{line}` panicked: {stderr}");
        self.transcript.push_str(&format!("$ stayaway {line}\n"));
        self.transcript
            .push_str(&normalise(&String::from_utf8_lossy(&output.stdout)));
        if let Some(first) = stderr.lines().next() {
            self.transcript.push_str(&format!("stderr: {first}\n"));
        }
        let code = output.status.code().expect("exit code");
        self.transcript.push_str(&format!("exit: {code}\n"));
    }

    /// Compares the transcript with `tests/fixtures/cli/<case>.txt`, or
    /// rewrites the fixture under `STAYAWAY_REGEN_GOLDEN`.
    fn check(self, case: &str) {
        let path = Path::new(REPO).join(format!("tests/fixtures/cli/{case}.txt"));
        if std::env::var("STAYAWAY_REGEN_GOLDEN").is_ok() {
            std::fs::create_dir_all(path.parent().expect("fixture path")).expect("fixture dir");
            std::fs::write(&path, &self.transcript).expect("fixture written");
            eprintln!("golden fixture regenerated at {}", path.display());
            return;
        }
        let golden = std::fs::read_to_string(&path)
            .expect("golden fixture exists (regenerate with STAYAWAY_REGEN_GOLDEN=1)");
        assert_eq!(
            self.transcript, golden,
            "`{case}` diverged from its golden CLI transcript"
        );
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs `steps` in a fresh sandbox and checks the transcript.
fn golden(case: &str, steps: &[&str]) {
    let mut sandbox = Sandbox::new(case);
    for step in steps {
        sandbox.run(step);
    }
    sandbox.check(case);
}

/// What one command line printed and how it exited.
fn output_of(line: &str) -> std::process::Output {
    Command::new(BIN)
        .args(line.split_whitespace())
        .output()
        .expect("binary runs")
}

/// Stdout of one command line that must succeed.
fn stdout_of(line: &str) -> String {
    let output = output_of(line);
    assert!(output.status.success(), "`{line}` failed");
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// The JSON document a command line prints, its wall-clock `"nanos"`
/// readings zeroed.
fn json_of(line: &str) -> serde_json::Value {
    let text = normalise(&stdout_of(line)).replace("\"nanos\": <t>", "\"nanos\": 0");
    serde_json::parse_json(&text).expect("JSON")
}

/// `list` prints the workload library where it pointed at the retired
/// `scenarios`; `list --json`'s `workload_scenarios` is the array
/// `scenarios --json` printed, recorded in
/// `tests/fixtures/workload_library.json`.
#[test]
fn list_and_scenarios() {
    golden("list", &["list", "list --json"]);
    let recorded =
        std::fs::read_to_string(Path::new(REPO).join("tests/fixtures/workload_library.json"))
            .expect("recorded library");
    let recorded = serde_json::parse_json(&recorded).expect("JSON");
    assert_eq!(
        json_of("list --json").get("workload_scenarios"),
        Some(&recorded)
    );
}

/// Each row of a list's `--json` is the document its single run prints:
/// `run` crosses sources with policies, source by source, and `cluster`
/// runs its policies in the order given.
#[test]
fn a_list_run_is_its_single_runs() {
    let rows = |line: &str| match json_of(line).get("rows") {
        Some(serde_json::Value::Array(rows)) => rows.clone(),
        other => panic!("`{line}` printed no rows: {other:?}"),
    };
    let run = rows("run --policy null,stayaway --source sim,workload:cpu-bomb --json");
    let singles = ["sim", "workload:cpu-bomb"].iter().flat_map(|source| {
        ["null", "stayaway"].map(|policy| format!("run --policy {policy} --source {source} --json"))
    });
    let singles: Vec<_> = singles.map(|line| json_of(&line)).collect();
    assert_eq!(run, singles);
    let cluster = rows("cluster --cluster-policy score,none --json");
    let singles =
        ["score", "none"].map(|p| json_of(&format!("cluster --cluster-policy {p} --json")));
    assert_eq!(cluster, singles);
}

/// A command line `parse_args` refuses prints its error and the usage; a
/// command that fails later prints its error alone. Both exit 2.
#[test]
fn the_usage_follows_only_a_refused_command_line() {
    let usage = stdout_of("--help");
    for (line, stderr) in [
        (
            "run --bogus 1",
            format!("error: unknown flag `--bogus`\n{usage}"),
        ),
        // A value a list or name check refuses is a refused command line
        // too: `--policy`, `--predictor` and `--scenario` alike.
        (
            "run --predictor warp-core",
            format!(
                "error: invalid configuration: unknown predictor 'warp-core' \
                 (expected kde|xapp|denoise|last-tick)\n{usage}"
            ),
        ),
        (
            "run --scenario warp-core",
            format!("error: scenario `warp-core` is not of the form <sensitive>+<batch>\n{usage}"),
        ),
        (
            "run --ticks 5 --record-out /dev/full",
            "error: cannot write /dev/full: No space left on device (os error 28)\n".to_string(),
        ),
    ] {
        let output = output_of(line);
        assert_eq!(String::from_utf8_lossy(&output.stderr), stderr, "`{line}`");
        assert_eq!(output.status.code(), Some(2), "`{line}`");
    }
}

#[test]
fn run_on_the_simulator() {
    golden(
        "run",
        &[
            "run --ticks 5",
            "run --ticks 48",
            "run --ticks 48 --json",
            "run --scenario web-mem+soplex --policy reactive --ticks 48 --seed 3",
            "run --predictor last-tick --ticks 48 --json",
            "run --ticks 32 --metrics-out m.prom --events-out ev.jsonl",
            "promlint m.prom",
            "events ev.jsonl",
        ],
    );
}

#[test]
fn run_on_the_workload_engine() {
    golden(
        "run_workload",
        &[
            "run --source workload:cpu-bomb --ticks 30",
            "run --source workload:cpu-bomb --ticks 30 --json",
            "run --source workload:flash-crowd --policy null --ticks 20 --seed 11",
            "run --source workload:cpu-bomb --ticks 30 --events-out - --metrics-out m.json",
        ],
    );
}

#[test]
fn metrics_exposition() {
    let mut sandbox = Sandbox::new("metrics");
    sandbox.run("run --ticks 32 --metrics-out m.prom");
    sandbox.cat("m.prom");
    sandbox.run("run --source workload:cpu-bomb --policy reactive --ticks 16 --metrics-out w.prom");
    sandbox.cat("w.prom");
    sandbox.check("metrics");
}

#[test]
fn compare_every_policy() {
    golden(
        "compare",
        &[
            "run --policy null,always,reactive,static,stayaway --ticks 48",
            "run --policy null,always,reactive,static,stayaway --scenario web-mem+twitter-analysis \
             --ticks 32 --seed 2 --json",
            "run --source workload:cpu-bomb --policy null,always,reactive,static,stayaway \
             --predictor xapp --ticks 20",
        ],
    );
}

/// `--template-out` keys the template by what the run senses, the rule a
/// fleet cell keys by: the simulator prototype's sensitive half, a
/// workload scenario's sensitive tenant.
#[test]
fn capture_then_reuse() {
    let mut sandbox = Sandbox::new("capture_reuse");
    for step in [
        "run --ticks 120 --template-out tpl.json",
        "run --scenario vlc+soplex --template tpl.json --ticks 60",
        "run --scenario vlc+soplex --template tpl.json --ticks 60 --json",
        "run --scenario web-mem+memory-bomb --predictor denoise --ticks 60 --seed 4 --json --template-out template.json",
        "run --scenario web-mem+soplex --template template.json --ticks 40 --seed 4",
    ] {
        sandbox.run(step);
    }
    sandbox.grep("sensitive_app", "tpl.json");
    sandbox.run("run --source workload:cpu-bomb --ticks 30 --template-out workload.json");
    sandbox.grep("sensitive_app", "workload.json");
    sandbox.check("capture_reuse");
}

#[test]
fn record_then_replay() {
    golden(
        "record_replay",
        &[
            "run --ticks 60 --seed 5 --record-out t.jsonl",
            "run --source trace:t.jsonl",
            "run --source trace:t.jsonl --json",
            "run --source trace:t.jsonl --policy reactive --ticks 30",
            "run --scenario web-cpu+soplex --policy reactive --ticks 20 --json --record-out trace.jsonl",
            "run --source trace:trace.jsonl --predictor xapp",
        ],
    );
}

#[test]
fn replay_of_the_committed_fixture_trace() {
    let mut sandbox = Sandbox::new("replay_fixture").with_smoke_trace();
    for step in [
        "run --source trace:tests/fixtures/smoke_trace.jsonl",
        "run --source trace:tests/fixtures/smoke_trace.jsonl --json",
        "fleet --source sim,trace:tests/fixtures/smoke_trace.jsonl --cells 4 --ticks 40",
    ] {
        sandbox.run(step);
    }
    sandbox.check("replay_fixture");
}

/// `--ticks` is only a ceiling for a finite trace: a budget far beyond
/// the address space must replay the 48 recorded observations, not be
/// allocated up front (it used to abort with a failed 72 TB allocation).
#[test]
fn replay_under_an_unbounded_tick_budget() {
    let mut sandbox = Sandbox::new("replay_unbounded_ticks").with_smoke_trace();
    sandbox.run("run --source trace:tests/fixtures/smoke_trace.jsonl --ticks 1000000000000");
    sandbox.check("replay_unbounded_ticks");
}

#[test]
fn fleet_runs() {
    golden(
        "fleet",
        &[
            "fleet --cells 4 --ticks 48",
            "fleet --cells 4 --ticks 48 --workers 2 --json",
            "fleet --cells 6 --ticks 64 --policy stayaway,reactive --predictor kde,xapp --share-templates",
            "fleet --scenario vlc+cpu-bomb --source workload:cpu-bomb,sim --cells 4 --ticks 24 --seed 3",
            "fleet --cells 2 --ticks 32 --events-out ev.jsonl --metrics-out m.json",
            "events ev.jsonl --kind throttle",
            "fleet --cells 2 --ticks 16 --events-out -",
        ],
    );
}

/// The four planes over two workload sources, one cell per combination.
const RANKED_FLEET: &str = "fleet --source workload:cpu-bomb,workload:flash-crowd \
                            --predictor kde,xapp,denoise,last-tick --cells 8 --ticks 48";

/// A fleet of two or more predictors ranks them: the ranked table, the
/// per-scenario rows and the standings in `per_predictor`.
#[test]
fn tournament_table_and_json() {
    golden(
        "tournament",
        &[
            RANKED_FLEET,
            "fleet --source workload:cpu-bomb,workload:memory-bomb,workload:flash-crowd \
             --predictor kde,xapp,denoise,last-tick --cells 12 --ticks 48 --workers 4 --json",
            "fleet --source workload:cpu-bomb --predictor kde,last-tick --cells 4 --ticks 32 \
             --seed 3 --metrics-out t.json",
        ],
    );
}

/// Replaces every `"scenario": "<name>"` member with
/// `"scenario": "workload:<name>"`.
fn prefix_scenarios(value: &mut serde_json::Value) {
    use serde_json::Value;
    match value {
        Value::Array(items) => items.iter_mut().for_each(prefix_scenarios),
        Value::Object(members) => {
            for (key, member) in members {
                match member {
                    Value::String(name) if key == "scenario" => {
                        *name = format!("workload:{name}");
                    }
                    _ => prefix_scenarios(member),
                }
            }
        }
        _ => {}
    }
}

/// The ranking is the retired `tournament` command's, bit for bit:
/// `tests/fixtures/tournament_ranking.json` is what `tournament --cells 1
/// --ticks 48 --scenario cpu-bomb,flash-crowd --json` printed at its
/// default 1000 bootstrap resamples, and [`RANKED_FLEET`] runs the same
/// cells. Each standing keeps its rank, cells, intervals, accuracy,
/// rejected count and per-scenario means; only the scenario names gained
/// their `workload:` prefix. The fleet's JSON is byte-identical for any
/// worker count.
#[test]
fn the_ranking_is_the_retired_tournaments() {
    let recorded =
        std::fs::read_to_string(Path::new(REPO).join("tests/fixtures/tournament_ranking.json"))
            .expect("recorded tournament");
    let recorded = serde_json::parse_json(&recorded).expect("JSON");
    let mut expected = recorded.get("standings").cloned().expect("standings");
    prefix_scenarios(&mut expected);
    let fleet_json =
        |workers: &str| stdout_of(&format!("{RANKED_FLEET} --json --workers {workers}"));
    let solo = fleet_json("1");
    assert_eq!(
        solo,
        fleet_json("4"),
        "the worker count leaked into the JSON"
    );
    let doc = serde_json::parse_json(&solo).expect("JSON");
    let ranked = doc.get("per_predictor").expect("per_predictor");
    assert_eq!(ranked.as_array().map(<[_]>::len), Some(4));
    // Compact text compares every float by its shortest round-trip form,
    // so equal text is equal bits.
    assert_eq!(ranked.to_json(), expected.to_json());
}

#[test]
fn cluster_runs() {
    golden(
        "cluster",
        &[
            "cluster --epochs 8 --epoch-ticks 4",
            "cluster --cluster-scenario hotspot --epochs 8 --epoch-ticks 4 --workers 2 --json",
            "cluster --cluster-policy score,random,least-loaded,none --cluster-scenario hotspot \
             --epochs 12 --epoch-ticks 4",
            "cluster --cluster-scenario storm-cluster --cluster-policy least-loaded --policy reactive --no-migration --epochs 6 --epoch-ticks 4 --seed 3",
            "cluster --epochs 6 --epoch-ticks 4 --metrics-out c.prom --events-out ev.jsonl",
            "promlint c.prom",
        ],
    );
}

/// `events` inspects a recorded stream: a cluster run writes it with
/// `--events-out`, `events <file>` (or `events -` on stdin) reads it back.
#[test]
fn events_timeline_filters_and_causal_chain() {
    let mut sandbox = Sandbox::new("events");
    for step in [
        "cluster --cluster-scenario storm-cluster --events-out ev.jsonl",
        "events ev.jsonl --kind migrate",
        "events ev.jsonl --cause 4:3",
        "events ev.jsonl --cause 4:6",
        "events ev.jsonl --kind throttle --host 1 --tick-from 10 --tick-to 120 --json",
        "events ev.jsonl --kind admit --events-out admits.jsonl",
        "events admits.jsonl",
        "cluster --cluster-scenario hotspot --cluster-policy none --epochs 6 --epoch-ticks 4 --events-out hotspot.jsonl",
        "events hotspot.jsonl --kind throttle",
        "events ev.jsonl --cause 9:9",
        "events ev.jsonl --kind warp-core",
    ] {
        sandbox.run(step);
    }
    let admits = sandbox.read("admits.jsonl");
    sandbox.run_with_stdin("events - --kind admit", &admits);
    sandbox.check("events");
}

#[test]
fn metrics_diff_gate() {
    golden(
        "metrics_diff",
        &[
            "run --ticks 64 --metrics-out a.json",
            "metrics-diff a.json a.json",
            "run --ticks 64 --seed 9 --metrics-out b.json",
            "metrics-diff a.json b.json",
            "metrics-diff a.json b.json --threshold 1",
            "metrics-diff a.json b.json --threshold 1 --threshold-for stayaway_controller_states=0",
            "metrics-diff a.json missing.json",
        ],
    );
}

#[test]
fn promlint_accepts_and_rejects() {
    let mut sandbox = Sandbox::new("promlint");
    sandbox.write("bad.prom", "# TYPE x counter\nx{le=} nope\n");
    sandbox.run("run --ticks 16 --metrics-out good.prom");
    sandbox.run("promlint good.prom");
    sandbox.run("promlint bad.prom");
    let good = sandbox.read("good.prom");
    sandbox.run_with_stdin("promlint", &good);
    sandbox.run_with_stdin("promlint", "not an exposition\n");
    sandbox.check("promlint");
}

/// Every scenario of the workload library, as a `--source` list.
const LIBRARY: &str = "workload:memcached-like,workload:video-transcode-like,workload:cpu-bomb,\
                       workload:memory-bomb,workload:phase-shift-batch,workload:flash-crowd,\
                       workload:multi-tenant-storm";

/// The table the retired `stayaway bench-scenarios --ticks 24` printed:
/// scenario, policy, sensitive p50 / p95 / p99 ms, SLO-violation rate,
/// sensitive drops, cold starts and batch work.
const RETIRED_GRID: &str = "\
memcached-like         stay-away              0.999     1.180     1.180      0.0%        0        3       44.8
memcached-like         reactive               0.999     1.180     1.180      0.0%        0        3       44.8
memcached-like         no-prevention          0.999     1.180     1.180      0.0%        0        3       44.8
video-transcode-like   stay-away              7.864     9.699     9.961      0.0%        0        3       52.6
video-transcode-like   reactive               7.864     9.699     9.961      0.0%        0        3       52.6
video-transcode-like   no-prevention          7.864     9.699     9.961      0.0%        0        3       52.6
cpu-bomb               stay-away              2.097     2.490     2.490      0.9%        0        7        1.2
cpu-bomb               reactive               2.163     8.258     9.699      9.1%        0        7        4.7
cpu-bomb               no-prevention          8.389     9.961    10.224     96.7%        0        7       43.7
memory-bomb            stay-away              1.671     1.999     5.505      1.6%        0        3        0.7
memory-bomb            reactive               1.704     5.374     6.160      7.4%        0        3        1.0
memory-bomb            no-prevention          5.243     6.291     6.423     64.0%        0        3        6.9
phase-shift-batch      stay-away              3.015     3.539     9.961      4.5%        0        6        3.9
phase-shift-batch      reactive               3.080     9.175    10.486     12.8%        0        6       12.0
phase-shift-batch      no-prevention          8.913    10.748    10.748     96.1%        0        6       91.2
flash-crowd            stay-away              3.408     4.325   117.441      2.5%        0       11       33.0
flash-crowd            reactive               3.408     4.194   117.441      2.5%        0       11       30.1
flash-crowd            no-prevention          3.998     4.850   117.441      2.5%        0       11       51.6
multi-tenant-storm     stay-away              1.737    11.010    11.796     10.4%        0        8       40.4
multi-tenant-storm     reactive               1.737    11.010    11.796     10.4%        0        8        0.1
multi-tenant-storm     no-prevention          1.966    12.059    14.156     15.4%        0        8       52.4
";

/// `run` over the workload library is the grid `bench-scenarios`
/// printed: each of its JSON rows, laid out as that command's table, is
/// the retired row.
#[test]
fn bench_scenarios_grid() {
    use serde_json::Value;
    let grid = format!("run --source {LIBRARY} --policy stayaway,reactive,null --ticks 24");
    golden(
        "bench_scenarios",
        &[
            &grid,
            &format!("run --source {LIBRARY} --policy null --ticks 24 --seed 3 --json"),
        ],
    );
    let doc = json_of(&format!("{grid} --json"));
    let rows = doc
        .get("rows")
        .and_then(|rows| rows.as_array())
        .expect("rows");
    let field = |value: &Value, key: &str| value.get(key).cloned().expect("a known field");
    let text = |value: &Value, key: &str| field(value, key).as_str().expect("text").to_string();
    let number = |value: &Value, key: &str| field(value, key).as_f64().expect("a number");
    let count = |value: &Value, key: &str| field(value, key).as_u64().expect("a count");
    let mut table = String::new();
    for row in rows {
        let latency = field(row, "latency");
        let scenario = text(row, "scenario");
        table.push_str(&format!(
            "{:<22} {:<18} {:>9.3} {:>9.3} {:>9.3} {:>8.1}% {:>8} {:>8} {:>10.1}\n",
            scenario
                .strip_prefix("workload:")
                .expect("a workload scenario"),
            text(row, "policy"),
            number(&latency, "p50_ms"),
            number(&latency, "p95_ms"),
            number(&latency, "p99_ms"),
            100.0 * number(&latency, "slo_violation_rate"),
            count(&latency, "sensitive_dropped"),
            count(&latency, "cold_starts"),
            number(row, "batch_work"),
        ));
    }
    assert_eq!(table, RETIRED_GRID);
}

#[test]
fn error_paths_exit_two_with_a_one_line_reason() {
    // The smoke trace recorded on a host without a CPU: its header is
    // rejected before any policy is built against that host.
    let smoke = std::fs::read_to_string(Path::new(REPO).join("tests/fixtures/smoke_trace.jsonl"))
        .expect("smoke trace");
    let mut sandbox = Sandbox::new("errors");
    sandbox.write(
        "zero_cpu.jsonl",
        &smoke.replacen("\"cpu_cores\":4.0", "\"cpu_cores\":0.0", 1),
    );
    // A file that opens but holds bad content: a truncated template, and
    // the smoke trace's header followed by a garbage line.
    sandbox.write("bad.json", "{\"");
    let header = smoke.lines().next().expect("a header line");
    sandbox.write("garbage.jsonl", &format!("{header}\ngarbage\n"));
    for step in [
        "bogus",
        "run --bogus 1",
        "run --ticks abc",
        "run --ticks",
        "run --scenario nope+soplex",
        "run --scenario vlc",
        "run --policy bogus",
        "run --predictor warp-core",
        "run --source bogus",
        "run --source workload:warp-core",
        "run --template",
        "run --template missing.json",
        "run --template .",
        "run --template bad.json",
        "run --source trace:",
        "run --source trace:missing.jsonl",
        "run --source trace:.",
        "run --source trace:garbage.jsonl",
        "run --source trace:zero_cpu.jsonl --policy static",
        "run --source trace:zero_cpu.jsonl --policy null",
        "run --policy reactive --template-out t.json",
        // A file that cannot be created is named like one that cannot be
        // read.
        "run --ticks 4 --template-out missing/t.json",
        "run --record-out missing/t.jsonl",
        // A sink that fails mid-run is named like one that fails at the
        // final flush.
        "run --ticks 4 --record-out /dev/full",
        "run --ticks 2000 --record-out /dev/full",
        // A bad scenario is refused before the trace file is created.
        "run --scenario vlc --record-out t.jsonl",
        "run --source trace:t.jsonl",
        // A fleet names the cell that failed; a single host names none.
        "fleet --source trace:missing.jsonl --cells 2",
        "fleet --source trace:garbage.jsonl --cells 2",
        "cluster --cluster-scenario warp-core",
        "cluster --cluster-policy bogus",
        "metrics-diff a.json b.json --threshold-for nope",
        "metrics-diff a.json b.json --threshold nan",
        "metrics-diff a.json b.json --threshold-for x_total=-1",
        // The event id is checked before the stream is read.
        "events missing.jsonl --cause nonsense",
        "fleet --cells 18446744073709551615 --ticks 1",
        "cluster --epoch-ticks 1099511627776 --epochs 1",
    ] {
        sandbox.run(step);
    }
    sandbox.check("errors");
}

/// New with the flag table: a flag or operand the subcommand does not
/// read is an error naming both (the parent silently ignored them). Since
/// the source decides whether `--scenario` and `--seed` are read, a run
/// whose source reads neither rejects them the same way; a list naming
/// several runs rejects the flags of one run, naming the lists.
#[test]
fn flags_a_subcommand_does_not_read_are_rejected() {
    golden(
        "flag_rejection",
        &[
            "run --ticks 40 --epochs 5 --cluster-policy random --no-migration --cells 99 --threshold 0.3 stray",
            "run --ticks 40 stray",
            "run --source sim,workload:cpu-bomb --template tpl.json",
            "run --policy stayaway,reactive --record-out t.jsonl",
            "cluster --cluster-policy score,random --metrics-out m.prom",
            "cluster --cluster-policy score,none --events-out ev.jsonl",
            "run --policy null,stayaway --http 127.0.0.1:0",
            "run --ticks 8 --http-linger 3",
            // `metrics` is `run --metrics-out`; `bench-scenarios` and
            // `compare` are `run` over lists; `tournament` is a fleet over
            // a predictor list; `scenarios` is `list`; `cluster --compare`
            // is a `--cluster-policy` list.
            "metrics --ticks 32",
            "bench-scenarios --ticks 24",
            "tournament --cells 1 --ticks 48",
            "compare --ticks 4",
            "scenarios",
            "cluster --compare",
            "run --trace t.jsonl --seed 3",
            "run --out t.json",
            "list --policy null",
            "events --metrics-out m.json",
            "metrics-diff a.json",
            "metrics-diff a.json b.json c.json",
            "promlint a.prom b.prom",
            // The source decides whether `--scenario` and `--seed` are read.
            "run --source trace:t.jsonl --seed 3",
            "run --source trace:t.jsonl --scenario bogus",
            "run --source workload:cpu-bomb --scenario vlc+soplex",
            "run --source procfs --seed 3",
            "fleet --source trace:t.jsonl --scenario vlc+soplex",
            "fleet --source procfs,trace:t.jsonl,trace:u.jsonl --scenario vlc+soplex",
            // A list reads a flag when any of its sources reads it.
            "run --source trace:a.jsonl,trace:b.jsonl --seed 3",
            // `events` only reads a recorded stream.
            "events --cluster-scenario hotspot",
            "events",
        ],
    );
}

/// New with the library chain walk: a hostile `events <file>` stream whose
/// `cause` links form a cycle is an error, not an endless loop.
#[test]
fn cyclic_cause_links_are_an_error_not_a_hang() {
    let mut sandbox = Sandbox::new("events_cycle");
    let record = |seq: u64, cause: u64| {
        format!(
            "{{\"tick\":{seq},\"layer\":\"Controller\",\"seq\":{seq},\"scope\":2,\"kind\":\"Throttle\",\
             \"subject\":\"cell:2\",\"cause\":{{\"scope\":2,\"seq\":{cause}}},\"attrs\":[]}}\n"
        )
    };
    sandbox.write("cycle.jsonl", &(record(0, 1) + &record(1, 0)));
    sandbox.run("events cycle.jsonl");
    sandbox.run("events cycle.jsonl --cause 2:1");
    sandbox.check("events_cycle");
}

/// `stayaway <anything> | head -1`: a reader that closes the pipe early
/// ends the run quietly instead of panicking inside a print macro. The
/// storm-cluster event stream (~150 KB) overflows the 64 KB pipe buffer,
/// so the writer is guaranteed to hit the closed pipe.
#[test]
fn a_closed_stdout_ends_the_run_without_a_panic() {
    let mut child = Command::new(BIN)
        .args([
            "cluster",
            "--cluster-scenario",
            "storm-cluster",
            "--events-out",
            "-",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut first = [0u8; 1];
    stdout.read_exact(&mut first).expect("some output arrives");
    drop(stdout);
    let output = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.is_empty(), "a closed pipe is not an error: {stderr}");
    assert_eq!(output.status.code(), Some(0));
}
