//! `stayaway` — command-line front end to the reproduction.
//!
//! Every subcommand is parse → call → print: the flag table below decides
//! what a subcommand accepts, the work happens in the library crates, and
//! all output goes through one writer. `stayaway --help` lists the
//! subcommands and flags; README.md walks through them.
//!
//! Scenario names are `<sensitive>+<batch>` with sensitive ∈ {vlc,
//! web-cpu, web-mem, web-mix} and batch ∈ {cpu-bomb, memory-bomb, soplex,
//! twitter-analysis, vlc-transcode}.

use stay_away::core::{ControllerConfig, Observability, PredictorKind};
use stay_away::fleet::cell::{run_host, HostOutcome, HostRun};
use stay_away::fleet::report::format_accuracy;
use stay_away::fleet::{
    cluster_by_name, cluster_library, predictor, run_tournament, Cluster, ClusterConfig,
    ClusterOutcome, ClusterPolicySpec, Fleet, FleetConfig, PolicySpec, SourceSpec,
    TournamentConfig,
};
use stay_away::obs::diff::{diff_series, parse_snapshot};
use stay_away::obs::{
    causal_chain, events_from_jsonl, events_to_jsonl, promlint, to_json, to_prometheus, EventId,
    EventKind, EventRecord, FlightRecorder, HttpServer, Introspection, MetricsRegistry,
    MetricsSnapshot,
};
use stay_away::sim::scenario::{BatchKind, Scenario};
use stay_away::statespace::Template;
use stay_away::telemetry::TraceSource;
use stay_away::workload::{bench_scenario, BenchTable};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
usage: stayaway <command> [options]

A command accepts only the options it reads (the descriptions below say
which); any other option or a stray operand is an error.

commands:
  list                       list scenarios and policies
  run                        run one scenario under one policy
  compare                    run one scenario under every policy
  capture                    run stay-away and export the learned template
  reuse                      run stay-away seeded from a template
  record                     run one scenario and record the observation
                             stream to a JSONL trace file
  replay                     drive a policy from a recorded trace: run
                             --source trace:<path> plus a header line
  fleet                      run many co-location cells over a worker pool
  tournament                 rank every prediction plane over a set of
                             workload scenarios (the full predictor x
                             scenario cross-product, with bootstrap
                             confidence intervals)
  cluster                    run movable batch jobs over an open cluster of
                             workload hosts (placement + admission queue +
                             migration above per-host controllers)
  metrics                    run one scenario with full instrumentation and
                             print the metrics exposition
  events                     run with the flight recorder on and print the
                             causal event timeline (or inspect a JSONL file
                             via --events-in); --cause <scope:seq> renders
                             one event's causal chain
  metrics-diff <a> <b>       compare two metrics snapshot JSON files (as
                             written by --metrics-out x.json) with relative
                             per-metric thresholds; exits 1 on regression
  promlint <file>            validate a Prometheus text exposition file
                             (`-` reads stdin); exits 1 on lint errors
  scenarios                  list the request-driven workload scenario
                             library (use with run --source workload:<name>)
  bench-scenarios            run every workload scenario under a list of
                             policies and print the per-request QoS table

options:
  --scenario <sens>+<batch>  e.g. vlc+cpu-bomb, web-mem+twitter-analysis
                             (fleet default: a 4-scenario mix; tournament:
                             comma-separated workload scenario names,
                             default cpu-bomb,memory-bomb,flash-crowd)
  --policy <name>            stayaway | reactive | static | always | null
                             (fleet/bench-scenarios: comma-separated list,
                             e.g. stayaway,reactive; bench-scenarios
                             default stayaway,reactive,null)
  --predictor <name>         prediction plane for the stay-away controller:
                             kde | xapp | denoise | last-tick (default kde;
                             fleet/tournament: comma-separated list — the
                             fleet round-robins it across cells, the
                             tournament enters every listed plane)
  --resamples <n>            tournament: bootstrap resamples behind each
                             confidence interval (default 1000)
  --source <spec>            run/metrics/compare/fleet: the observation
                             substrate, sim | trace:<path> | procfs |
                             workload:<scenario> (default sim; fleet:
                             comma-separated list round-robined across
                             cells)
  --trace <path>             recorded trace file for replay
  --ticks <n>                simulation length (default 384)
  --seed <n>                 deterministic seed (default 7)
  --template <path>          template file for reuse
  --out <path>               output path for capture (template.json) and
                             record (trace.jsonl)
  --cells <n>                fleet: number of co-location cells (default 8);
                             tournament: cells per predictor x scenario
                             combination (default 3)
  --workers <n>              fleet/tournament/cluster: worker threads
                             (default 1; results are identical for any
                             value)
  --share-templates          fleet: warm-start cells from the registry
  --cluster-scenario <name>  cluster: hotspot | storm-cluster
                             (default hotspot)
  --cluster-policy <name>    cluster: score | random | least-loaded | none
                             (default score; none = throttle-only
                             round-robin Stay-Away)
  --epochs <n>               cluster: placement epochs (default 24)
  --epoch-ticks <n>          cluster: control ticks per epoch (default 8)
  --no-migration             cluster: disable the Migrate verb
  --compare                  cluster: run every cluster policy and print
                             the comparison table
  --metrics-out <path>       run/fleet/cluster/tournament/metrics: export
                             the run's metrics snapshot; `-` writes pretty
                             JSON to stdout, a `.json` path writes pretty
                             JSON, any other path writes Prometheus text
                             exposition
  --events-out <path>        run/fleet/cluster/events: write the canonical
                             event stream as JSON Lines (`-` writes to
                             stdout)
  --events-in <path>         events: read a recorded JSONL stream instead
                             of running a scenario
  --http <addr>              run/fleet/cluster: serve /health /metrics
                             /state /events?tail=N on <addr> (port 0 binds
                             an ephemeral port; the bound address is
                             printed)
  --http-linger <secs>       keep the HTTP server up this many seconds
                             after the run completes (default 0)
  --kind <name>              events: only show this event kind
  --host <n>                 events: only show this recorder scope
  --tick-from <n>            events: drop events before this tick
  --tick-to <n>              events: drop events after this tick
  --cause <scope:seq>        events: render the causal chain ending at
                             this event id
  --threshold <f>            metrics-diff: relative tolerance applied to
                             every metric (default 0, exact match)
  --threshold-for <m=f>      metrics-diff: per-metric override, repeatable
  --json                     print a JSON summary instead of text
";

/// Why a command did not run to completion.
#[derive(Debug)]
enum CliError {
    /// Reported as `error: <message>` plus the usage text; exit code 2.
    Message(String),
    /// The reader closed stdout (`stayaway … | head -1`): not an error,
    /// the run just ends.
    StdoutClosed,
}

/// Every library error reaches the user as its display form.
impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError::Message(e.to_string())
    }
}

/// Shorthand for a failed command with a fixed message.
fn fail<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Message(message.into()))
}

/// The one writer all stdout goes through. `write!` / `writeln!` resolve
/// to [`Out::write_fmt`], so a closed pipe surfaces as
/// [`CliError::StdoutClosed`] through `?` instead of a panic.
struct Out<'a>(&'a mut dyn Write);

impl Out<'_> {
    fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) -> Result<(), CliError> {
        self.0.write_fmt(args).map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe => CliError::StdoutClosed,
            _ => CliError::Message(format!("cannot write to stdout: {e}")),
        })
    }
}

/// The subcommands, in `USAGE` order.
#[rustfmt::skip]
const COMMANDS: [&str; 16] = [
    "list", "run", "compare", "capture", "reuse", "record", "replay", "fleet", "tournament",
    "cluster", "metrics", "events", "metrics-diff", "promlint", "scenarios", "bench-scenarios",
];

/// (subcommand, fewest, most) operands — non-flag arguments; every
/// subcommand not listed takes none.
const OPERANDS: &[(&str, usize, usize)] = &[("metrics-diff", 2, 2), ("promlint", 0, 1)];

/// The shape of a flag's value: none, any string, an unsigned integer, a
/// number, or a repeatable `<metric>=<number>`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Switch,
    Text,
    Int,
    Float,
    Pair,
}
use Shape::{Float, Int, Pair, Switch, Text};

/// Every flag, once: (name, value shape, the subcommands that read it —
/// any other subcommand rejects it). `USAGE` carries the prose;
/// `usage_and_flag_table_agree` keeps the two in step.
#[rustfmt::skip]
const FLAGS: &[(&str, Shape, &str)] = &[
    ("--scenario", Text, "run metrics compare capture reuse record fleet tournament"),
    ("--policy", Text, "run metrics record replay fleet bench-scenarios cluster events"),
    ("--predictor", Text, "run metrics compare capture reuse record replay fleet tournament"),
    ("--resamples", Int, "tournament"),
    ("--source", Text, "run metrics compare fleet"),
    ("--trace", Text, "replay"),
    ("--ticks", Int, "run metrics compare capture reuse record replay fleet tournament bench-scenarios"),
    ("--seed", Int, "run metrics compare capture reuse record fleet tournament bench-scenarios cluster events"),
    ("--template", Text, "reuse"),
    ("--out", Text, "capture record"),
    ("--cells", Int, "fleet tournament"),
    ("--workers", Int, "fleet tournament cluster events"),
    ("--share-templates", Switch, "fleet"),
    // `events` records its demo stream from a cluster run.
    ("--cluster-scenario", Text, "cluster events"),
    ("--cluster-policy", Text, "cluster events"),
    ("--epochs", Int, "cluster events"),
    ("--epoch-ticks", Int, "cluster events"),
    ("--no-migration", Switch, "cluster events"),
    ("--compare", Switch, "cluster"),
    ("--metrics-out", Text, "run metrics fleet tournament cluster"),
    ("--events-out", Text, "run fleet cluster events"),
    ("--events-in", Text, "events"),
    ("--http", Text, "run fleet cluster"),
    ("--http-linger", Int, "run fleet cluster"),
    ("--kind", Text, "events"),
    ("--host", Int, "events"),
    ("--tick-from", Int, "events"),
    ("--tick-to", Int, "events"),
    ("--cause", Text, "events"),
    ("--threshold", Float, "metrics-diff"),
    ("--threshold-for", Pair, "metrics-diff"),
    ("--json", Switch, "run metrics compare capture reuse record replay fleet tournament cluster events scenarios bench-scenarios"),
];

impl Shape {
    /// The one value check: why `token` is not a value of this shape for
    /// flag `name`, or `None` when it is.
    fn reject(self, name: &str, token: &str) -> Option<String> {
        let number = |text: &str| text.parse::<f64>().is_ok();
        match self {
            Int if token.parse::<u64>().is_err() => Some(format!("{name} expects an integer")),
            Float if !number(token) => Some(format!("{name} expects a number")),
            Pair if !token
                .split_once('=')
                .is_some_and(|(_, tolerance)| number(tolerance)) =>
            {
                Some(format!("{name} `{token}` is not <metric>=<tolerance>"))
            }
            _ => None,
        }
    }
}

/// A parsed command line: the subcommand, the flags it reads with their
/// shape-checked values (in the order given; a switch's value is empty)
/// and its operands. Parsing has already rejected every flag the
/// subcommand does not read, so an absent flag is simply `None`.
#[derive(Debug, Clone)]
struct Args {
    command: String,
    values: Vec<(&'static str, String)>,
    operands: Vec<String>,
}

/// Scenario used by the single-run commands when `--scenario` is omitted.
const DEFAULT_SCENARIO: &str = "vlc+cpu-bomb";

impl Args {
    /// The last value given for `flag` (later occurrences win).
    fn text(&self, flag: &str) -> Option<&str> {
        debug_assert!(FLAGS.iter().any(|f| f.0 == flag), "{flag} not in FLAGS");
        let given = self.values.iter().rev().find(|(name, _)| *name == flag);
        given.map(|(_, value)| value.as_str())
    }

    fn switch(&self, flag: &str) -> bool {
        self.text(flag).is_some()
    }

    fn int(&self, flag: &str) -> Option<u64> {
        self.text(flag)
            .map(|value| value.parse().expect("parse_args checked the shape"))
    }

    /// `--ticks`, default 384.
    fn ticks(&self) -> u64 {
        self.int("--ticks").unwrap_or(384)
    }

    /// `--seed`, default 7.
    fn seed(&self) -> u64 {
        self.int("--seed").unwrap_or(7)
    }

    /// A count flag, saturating where `usize` is narrower than `u64`.
    fn count(&self, flag: &str) -> Option<usize> {
        self.int(flag)
            .map(|value| usize::try_from(value).unwrap_or(usize::MAX))
    }

    /// `--workers`, default 1 and never 0.
    fn workers(&self) -> usize {
        self.count("--workers").unwrap_or(1).max(1)
    }

    /// The `--policy` value, or `default` when the flag was omitted.
    fn policy_or<'a>(&'a self, default: &'a str) -> &'a str {
        self.text("--policy").unwrap_or(default)
    }

    /// `--scenario`, default [`DEFAULT_SCENARIO`].
    fn scenario_name(&self) -> &str {
        self.text("--scenario").unwrap_or(DEFAULT_SCENARIO)
    }

    /// The `<sensitive>+<batch>` scenario of a single-host command, under
    /// `--seed`.
    fn scenario(&self) -> Result<Scenario, CliError> {
        Ok(Scenario::parse(self.scenario_name(), self.seed())?)
    }

    /// `--source`, default the simulator.
    fn source(&self) -> Result<SourceSpec, CliError> {
        Ok(SourceSpec::parse(self.text("--source").unwrap_or("sim"))?)
    }

    /// Whether a flag asks for a metrics rollup (`--metrics-out`, `--http`).
    fn wants_metrics(&self) -> bool {
        self.switch("--metrics-out") || self.switch("--http")
    }

    /// Whether a flag asks for the event stream (`--events-out`, `--http`).
    fn wants_events(&self) -> bool {
        self.switch("--events-out") || self.switch("--http")
    }

    /// The controller configuration single-run commands build policies
    /// with: the defaults, with `--predictor` applied when given.
    fn controller_config(&self) -> Result<ControllerConfig, CliError> {
        let mut config = ControllerConfig::default();
        if let Some(tokens) = self.text("--predictor") {
            let [predictor] = predictor::parse_list(tokens)?[..] else {
                return fail(format!("`{}` runs one predictor", self.command));
            };
            config.predictor = predictor;
        }
        Ok(config)
    }
}

fn parse_args(argv: &[String]) -> Result<Args, CliError> {
    let Some(command) = argv.first().filter(|c| COMMANDS.contains(&c.as_str())) else {
        return fail(match argv.first() {
            Some(command) => format!("unknown command `{command}`"),
            None => "missing command".to_string(),
        });
    };
    let mut args = Args {
        command: command.clone(),
        values: Vec::new(),
        operands: Vec::new(),
    };
    let mut tokens = argv[1..].iter();
    while let Some(token) = tokens.next() {
        // A bare `-` is the stdin/stdout operand, not a flag.
        if token == "-" || !token.starts_with('-') {
            args.operands.push(token.clone());
            continue;
        }
        let Some(&(name, shape, read_by)) = FLAGS.iter().find(|f| f.0 == token) else {
            return fail(format!("unknown flag `{token}`"));
        };
        if !read_by.split(' ').any(|reader| reader == command) {
            return fail(format!("{name} is not read by `{command}`"));
        }
        let value = match shape {
            Switch => String::new(),
            _ => match tokens.next() {
                Some(value) => value.clone(),
                None => return fail(format!("{name} expects a value")),
            },
        };
        if let Some(reason) = shape.reject(name, &value) {
            return fail(reason);
        }
        args.values.push((name, value));
    }
    let given = args.operands.len();
    let (_, min, max) = *OPERANDS
        .iter()
        .find(|o| o.0 == command)
        .unwrap_or(&("", 0, 0));
    if !(min..=max).contains(&given) {
        let takes = match (min, max) {
            (_, 0) => "no operands".to_string(),
            (min, max) if min == max => format!("exactly {max} operands"),
            (_, max) => format!("at most {max} operand(s)"),
        };
        let operands = args.operands.join(" ");
        return fail(format!(
            "`{command}` takes {takes}, got {given}: {operands}"
        ));
    }
    Ok(args)
}

/// Prints one single-host outcome: a JSON document under `--json`, the
/// text headline otherwise. `full` adds the controller internals (when the
/// policy counted its periods — baselines track nothing) and the
/// per-request QoS (when the substrate simulates requests).
fn summarize(
    out: &mut Out<'_>,
    json: bool,
    label: &str,
    scenario: &str,
    outcome: &HostOutcome,
    full: bool,
) -> Result<(), CliError> {
    let run = &outcome.run;
    let gained = run.mean_gained_utilization(outcome.host.cpu_cores);
    let stats = Some(&outcome.stats).filter(|s| full && s.periods > 0);
    let requests = outcome.requests.as_ref().filter(|_| full);
    if json {
        let mut doc = serde_json::json!({
            "scenario": scenario,
            "policy": label,
            "ticks": run.timeline.len(),
            "violations": run.qos.violations,
            "satisfaction": run.qos.satisfaction(),
            "mean_qos": run.qos.mean_qos(),
            "gained_utilization": gained,
            "batch_work": run.batch_work,
        });
        if let serde_json::Value::Object(pairs) = &mut doc {
            if let Some(requests) = requests {
                pairs.push(("latency".to_string(), serde_json::to_value(requests)));
            }
            if let Some(stats) = stats {
                pairs.push(("controller".to_string(), serde_json::to_value(stats)));
            }
        }
        return writeln!(out, "{}", serde_json::to_string_pretty(&doc)?);
    }
    writeln!(
        out,
        "{label:<16} violations {:>4}  satisfaction {:>5.1}%  gained util {:>5.1}%  batch work {:>6.0}",
        run.qos.violations,
        100.0 * run.qos.satisfaction(),
        100.0 * gained,
        run.batch_work,
    )?;
    if let Some(stats) = stats {
        writeln!(
            out,
            "controller: {} states ({} violation), {} throttles, {} resumes, prediction accuracy {}",
            stats.states,
            stats.violation_states,
            stats.throttles,
            stats.resumes,
            format_accuracy(stats.prediction_accuracy()),
        )?;
        let t = &stats.stage_timing;
        writeln!(
            out,
            "stages: sense {}x/{}µs, map {}x/{}µs, predict {}x/{}µs, act {}x/{}µs",
            t.sense.invocations,
            t.sense.nanos / 1_000,
            t.map.invocations,
            t.map.nanos / 1_000,
            t.predict.invocations,
            t.predict.nanos / 1_000,
            t.act.invocations,
            t.act.nanos / 1_000,
        )?;
    }
    if let Some(r) = requests {
        writeln!(
            out,
            "latency: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  slo-violation {:.2}%",
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            100.0 * r.slo_violation_rate,
        )?;
        writeln!(
            out,
            "requests: {} arrived, {} completed, {} dropped, {} cold starts, {} evictions",
            r.requests, r.completed, r.dropped, r.cold_starts, r.evictions,
        )?;
    }
    Ok(())
}

/// Pretty JSON of a metrics snapshot.
fn metrics_json(snapshot: &MetricsSnapshot) -> Result<String, CliError> {
    Ok(serde_json::to_string_pretty(&to_json(snapshot))?)
}

/// Writes a metrics snapshot to `path`: `-` prints pretty JSON to
/// stdout, a `.json` path gets pretty JSON, anything else gets the
/// Prometheus text exposition.
fn write_metrics(
    out: &mut Out<'_>,
    snapshot: &MetricsSnapshot,
    path: &str,
) -> Result<(), CliError> {
    if path == "-" {
        return writeln!(out, "{}", metrics_json(snapshot)?);
    }
    let rendered = if path.ends_with(".json") {
        metrics_json(snapshot)? + "\n"
    } else {
        to_prometheus(snapshot)
    };
    write_file(path, &rendered)?;
    writeln!(out, "metrics written to {path}")
}

/// Writes an event stream to `path` as JSON Lines (`-` prints to stdout).
fn write_events(out: &mut Out<'_>, events: &[EventRecord], path: &str) -> Result<(), CliError> {
    let jsonl = events_to_jsonl(events);
    if path == "-" {
        return write!(out, "{jsonl}");
    }
    write_file(path, &jsonl)?;
    writeln!(out, "{} events written to {path}", events.len())
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).or_else(|e| fail(format!("cannot write {path}: {e}")))
}

/// Reads a whole text input: `-` means stdin, anything else a path.
fn read_text_input(path: &str) -> Result<String, CliError> {
    if path == "-" {
        let mut buf = String::new();
        return match std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf) {
            Ok(_) => Ok(buf),
            Err(e) => fail(format!("cannot read stdin: {e}")),
        };
    }
    std::fs::read_to_string(path).or_else(|e| fail(format!("cannot read {path}: {e}")))
}

/// Starts the introspection server on `addr` and prints the bound address
/// — ephemeral ports resolve here, scripts scrape this line.
fn serve(out: &mut Out<'_>, addr: &str, intro: Introspection) -> Result<HttpServer, CliError> {
    let server = match HttpServer::serve(addr, intro) {
        Ok(server) => server,
        Err(e) => return fail(format!("cannot serve on {addr}: {e}")),
    };
    writeln!(
        out,
        "introspection server listening on http://{}",
        server.local_addr()
    )?;
    Ok(server)
}

/// The `/state` document of a command that serves none of its own.
const NO_STATE: serde_json::Value = serde_json::Value::Null;

/// The export tail every observable command ends with: write
/// `--metrics-out`, write `--events-out`, then keep the `--http` server up
/// for `--http-linger` seconds and stop it. A single-host run hands over
/// the `live` server that watched it. The multi-cell planes publish after
/// the run rather than live, so their streams stay canonical: without a
/// live server, `--http` starts one now over the frozen metrics rollup,
/// `state` and the merged event stream. `plane` names the producer in
/// "produced no …" errors.
fn publish(
    args: &Args,
    out: &mut Out<'_>,
    plane: &str,
    metrics: Option<&MetricsSnapshot>,
    events: Option<&[EventRecord]>,
    live: Option<HttpServer>,
    state: serde_json::Value,
) -> Result<(), CliError> {
    if let Some(path) = args.text("--metrics-out") {
        let Some(snapshot) = metrics else {
            return fail(format!("{plane} produced no metrics rollup"));
        };
        write_metrics(out, snapshot, path)?;
    }
    if let Some(path) = args.text("--events-out") {
        let Some(events) = events else {
            return fail(format!("{plane} produced no event stream"));
        };
        write_events(out, events, path)?;
    }
    let server = match (live, args.text("--http")) {
        (Some(server), _) => server,
        (None, None) => return Ok(()),
        (None, Some(addr)) => {
            let intro = Introspection::new();
            if let Some(snapshot) = metrics {
                intro.set_metrics(snapshot.clone());
            }
            if let Some(events) = events {
                intro.set_events(events.to_vec());
            }
            intro.state().set(state);
            serve(out, addr, intro)?
        }
    };
    let linger = args.int("--http-linger").unwrap_or(0);
    if linger > 0 {
        writeln!(
            out,
            "introspection server lingering for {linger}s (ctrl-c to abort)"
        )?;
        std::thread::sleep(std::time::Duration::from_secs(linger));
    }
    server.shutdown();
    Ok(())
}

/// What one single-host subcommand adds to the run its flags describe.
#[derive(Default)]
struct HostJob<'a> {
    /// Overrides `--source` (`replay` senses through its `--trace`).
    source: Option<SourceSpec>,
    /// Overrides `--policy` (`compare` runs each policy in turn).
    policy: Option<&'a str>,
    /// Template to warm-start from (`reuse`).
    import: Option<&'a Template>,
    /// Sensitive key to export the learned template under (`capture`).
    export_as: Option<&'a str>,
    /// Trace tee (`record`).
    trace_out: Option<Box<dyn Write + 'a>>,
    /// Record into a metrics registry even without `--metrics-out` /
    /// `--http` (`metrics`).
    registry: bool,
}

/// The single-host run path of `run`, `metrics`, `compare`, `capture`,
/// `reuse`, `record` and `replay`: the substrate, scenario, policy,
/// predictor, seed and length come from the flags (a flag the subcommand
/// does not read is absent, so its default applies), `job` adds the
/// subcommand's own extras, and [`run_host`] does the rest. Instruments
/// exist only when a flag asks for them: an exported registry for
/// `--metrics-out` / `--http`, a flight recorder for `--events-out` /
/// `--http`; under `--http` the server starts before the run and observes
/// it live. Returns the outcome, the instrument bundle and that server.
fn single_host(
    args: &Args,
    out: &mut Out<'_>,
    job: HostJob<'_>,
) -> Result<(HostOutcome, Observability, Option<HttpServer>), CliError> {
    let source = match job.source {
        Some(source) => source,
        None => args.source()?,
    };
    let policy = PolicySpec::parse(job.policy.unwrap_or(args.policy_or("stay-away")))?;
    let http = args.text("--http");
    let mut obs = if job.registry || args.wants_metrics() {
        Observability::enabled(MetricsRegistry::new())
    } else {
        Observability::disabled()
    };
    if args.wants_events() {
        obs = obs.with_recorder(FlightRecorder::for_scope(0, "run"));
    }
    let server = match http {
        Some(addr) => {
            let mut intro = Introspection::new();
            if let Some(recorder) = obs.recorder() {
                intro = intro.with_recorder(recorder.clone());
            }
            if let Some(registry) = obs.exported_registry() {
                intro = intro.with_registry(registry.clone());
            }
            // The server's own cell doubles as the controller's `/state`
            // sink — one handle, no copying.
            obs = obs.with_state(intro.state());
            Some(serve(out, addr, intro)?)
        }
        None => None,
    };
    let outcome = run_host(HostRun {
        source: &source,
        scenario: &args.scenario()?,
        seed: args.seed(),
        policy: &policy,
        controller: &args.controller_config()?,
        ticks: args.ticks(),
        obs: &obs,
        import: job.import,
        export_as: job.export_as,
        trace_out: job.trace_out,
        loop_nanos: None,
    })?;
    Ok((outcome, obs, server))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    let mut out = Out(&mut stdout);
    let result = match argv.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => write!(out, "{USAGE}").map(|()| ExitCode::SUCCESS),
        Some(_) => run(&argv, &mut out),
    };
    match result {
        Ok(code) => code,
        Err(CliError::StdoutClosed) => ExitCode::SUCCESS,
        Err(CliError::Message(e)) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs one cluster configuration; the compare table, the single run and
/// the `events` demo share this builder so they measure exactly the same
/// experiment. `events` always collects the event stream.
fn run_cluster_policy(
    args: &Args,
    policy: ClusterPolicySpec,
    default_scenario: &str,
) -> Result<ClusterOutcome, CliError> {
    let name = args.text("--cluster-scenario").unwrap_or(default_scenario);
    let mut config = ClusterConfig::new(cluster_by_name(name)?, args.seed());
    config.epochs = args.int("--epochs").unwrap_or(24);
    config.ticks_per_epoch = args.int("--epoch-ticks").unwrap_or(8);
    config.workers = args.workers();
    config.cluster_policy = policy;
    config.host_policy = PolicySpec::parse(args.policy_or("stay-away"))?;
    config.migration = !args.switch("--no-migration");
    config.collect_metrics = args.wants_metrics();
    config.collect_events = args.wants_events() || args.command == "events";
    Ok(Cluster::new(config)?.run()?)
}

/// `--cluster-policy`, default scoring placement.
fn cluster_policy(args: &Args) -> Result<ClusterPolicySpec, CliError> {
    Ok(ClusterPolicySpec::parse(
        args.text("--cluster-policy").unwrap_or("score"),
    )?)
}

fn run(argv: &[String], out: &mut Out<'_>) -> Result<ExitCode, CliError> {
    let args = &parse_args(argv)?;
    let json = args.switch("--json");
    match args.command.as_str() {
        "list" => {
            let batch = BatchKind::ALL.map(|k| k.name()).join(", ");
            let predictors: Vec<&str> = PredictorKind::ALL.iter().map(|p| p.name()).collect();
            let cluster_policies = ClusterPolicySpec::all().map(|p| p.name()).join(", ");
            let predictors = predictors.join(", ");
            writeln!(
                out,
                "sensitive applications: vlc, web-cpu, web-mem, web-mix"
            )?;
            writeln!(out, "batch applications:     {batch}")?;
            writeln!(
                out,
                "policies:               stayaway, reactive, static, always, null"
            )?;
            writeln!(out, "predictors:             {predictors}")?;
            writeln!(out, "workload scenarios:     see `stayaway scenarios`")?;
            for c in cluster_library()? {
                let (name, about) = (c.name, c.description);
                writeln!(out, "cluster scenario:       {name:<14} {about}")?;
            }
            writeln!(out, "cluster policies:       {cluster_policies}")?;
        }
        "scenarios" => {
            let library = stay_away::workload::library();
            if json {
                writeln!(out, "{}", serde_json::to_string_pretty(&library)?)?;
                return Ok(ExitCode::SUCCESS);
            }
            for scenario in &library {
                writeln!(out, "{:<20} {}", scenario.name, scenario.description)?;
                writeln!(
                    out,
                    "{:20} slo: {} ms deadline, {:.0}% of a tick's requests",
                    "",
                    scenario.slo.deadline_ms,
                    100.0 * scenario.slo.target_satisfaction,
                )?;
                for tenant in &scenario.tenants {
                    writeln!(
                        out,
                        "{:20} {:<9} {:<12} {}",
                        "",
                        tenant.class.to_string(),
                        tenant.name,
                        tenant.arrival.summary(),
                    )?;
                }
                let co_runners = scenario.co_runners();
                writeln!(
                    out,
                    "{:20} co-runners: {}",
                    "",
                    if co_runners.is_empty() {
                        "none".to_string()
                    } else {
                        co_runners.join(", ")
                    },
                )?;
            }
        }
        "bench-scenarios" => {
            let policies = PolicySpec::parse_list(args.policy_or("stayaway,reactive,null"))?;
            let mut table = BenchTable::default();
            for scenario in stay_away::workload::library() {
                for spec in &policies {
                    let config = ControllerConfig::default();
                    let obs = Observability::disabled();
                    let mut policy = spec.build(&config, &scenario.host, obs)?;
                    table.rows.push(bench_scenario(
                        &scenario,
                        policy.as_mut(),
                        args.seed(),
                        args.ticks(),
                    )?);
                }
            }
            if json {
                writeln!(out, "{}", table.to_json()?)?;
            } else {
                write!(out, "{}", table.render())?;
            }
        }
        "run" => {
            let source = args.source()?;
            let scenario = source.scenario_label(args.scenario_name());
            let job = HostJob {
                source: Some(source),
                ..HostJob::default()
            };
            let (outcome, obs, server) = single_host(args, out, job)?;
            summarize(out, json, &outcome.run.policy, &scenario, &outcome, true)?;
            let metrics = obs.exported_registry().map(MetricsRegistry::snapshot);
            let events = obs.recorder().map(FlightRecorder::events);
            let (metrics, events) = (metrics.as_ref(), events.as_deref());
            publish(args, out, "run", metrics, events, server, NO_STATE)?;
        }
        "metrics" => {
            let job = HostJob {
                registry: true,
                ..HostJob::default()
            };
            let (_, obs, _) = single_host(args, out, job)?;
            let snapshot = obs.exported_registry().expect("asked for above").snapshot();
            match args.text("--metrics-out") {
                Some(path) => write_metrics(out, &snapshot, path)?,
                // Default exposition: JSON with --json, Prometheus text
                // otherwise, both to stdout.
                None if json => writeln!(out, "{}", metrics_json(&snapshot)?)?,
                None => write!(out, "{}", to_prometheus(&snapshot))?,
            }
        }
        "compare" => {
            let (scenario, source) = (args.scenario()?, args.source()?);
            let scenario = source.scenario_label(scenario.name());
            writeln!(
                out,
                "scenario: {scenario} ({} ticks, seed {}, source {})\n",
                args.ticks(),
                args.seed(),
                source.name(),
            )?;
            for policy in ["null", "always", "reactive", "static", "stayaway"] {
                let job = HostJob {
                    policy: Some(policy),
                    ..HostJob::default()
                };
                let (outcome, ..) = single_host(args, out, job)?;
                let label = &outcome.run.policy;
                summarize(out, json, label, &scenario, &outcome, false)?;
            }
        }
        "capture" => {
            let scenario = args.scenario_name();
            let job = HostJob {
                export_as: Some(scenario.split('+').next().unwrap_or("sensitive")),
                ..HostJob::default()
            };
            let (outcome, ..) = single_host(args, out, job)?;
            let Some(template) = &outcome.template else {
                return fail("the selected policy does not learn templates");
            };
            let path = args.text("--out").unwrap_or("template.json");
            template.save_to_path(path)?;
            summarize(out, json, "stay-away", scenario, &outcome, false)?;
            writeln!(
                out,
                "template with {} states ({} violation) written to {path}",
                template.len(),
                template.violation_count()
            )?;
        }
        "reuse" => {
            let Some(path) = args.text("--template") else {
                return fail("reuse requires --template <path>");
            };
            let template = Template::load_from_path(path)?;
            let job = HostJob {
                import: Some(&template),
                ..HostJob::default()
            };
            let (outcome, ..) = single_host(args, out, job)?;
            writeln!(
                out,
                "seeded with {} template states ({} violation) from {path}",
                template.len(),
                template.violation_count()
            )?;
            let scenario = args.scenario_name();
            summarize(out, json, "stay-away+tpl", scenario, &outcome, false)?;
        }
        "record" => {
            // Reject a bad scenario before creating the file.
            args.scenario()?;
            let path = args.text("--out").unwrap_or("trace.jsonl");
            let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
            let job = HostJob {
                trace_out: Some(Box::new(&mut file)),
                ..HostJob::default()
            };
            let (outcome, ..) = single_host(args, out, job)?;
            file.flush()?;
            let (label, scenario) = (&outcome.run.policy, args.scenario_name());
            summarize(out, json, label, scenario, &outcome, false)?;
            writeln!(
                out,
                "trace with {} observations written to {path}",
                outcome.run.timeline.len()
            )?;
        }
        "replay" => {
            let Some(path) = args.text("--trace") else {
                return fail("replay requires --trace <path>");
            };
            let recorded_from = TraceSource::open(path)?.header().recorded_from;
            // From here on: `run --source trace:<path>` plus one header line.
            let job = HostJob {
                source: Some(SourceSpec::Trace { path: path.into() }),
                ..HostJob::default()
            };
            let (outcome, ..) = single_host(args, out, job)?;
            writeln!(
                out,
                "replayed {} observations from {path} (recorded from {recorded_from})",
                outcome.run.timeline.len(),
            )?;
            let scenario = format!("replay:{path}");
            summarize(out, json, &outcome.run.policy, &scenario, &outcome, true)?;
        }
        "fleet" => {
            let config = FleetConfig {
                cells: args.count("--cells").unwrap_or(8),
                workers: args.workers(),
                ticks: args.ticks(),
                fleet_seed: args.seed(),
                share_templates: args.switch("--share-templates"),
                scenarios: match args.text("--scenario") {
                    Some(name) => vec![Scenario::parse(name, args.seed())?],
                    None => FleetConfig::standard_mix(args.seed()),
                },
                policies: PolicySpec::parse_list(args.policy_or("stay-away"))?,
                predictors: predictor::parse_list(args.text("--predictor").unwrap_or("kde"))?,
                sources: SourceSpec::parse_list(args.text("--source").unwrap_or("sim"))?,
                controller: ControllerConfig::default(),
                collect_metrics: args.wants_metrics(),
                collect_events: args.wants_events(),
            };
            let outcome = Fleet::new(config)?.run()?;
            match json {
                true => writeln!(out, "{}", outcome.to_json()?)?,
                false => write!(out, "{}", outcome.render())?,
            }
            let (metrics, events) = (outcome.metrics.as_ref(), outcome.events.as_deref());
            publish(
                args,
                out,
                "fleet",
                metrics,
                events,
                None,
                outcome.state_json(),
            )?;
        }
        "tournament" => {
            let mut config = TournamentConfig::new(args.seed());
            if let Some(tokens) = args.text("--predictor") {
                config.predictors = predictor::parse_list(tokens)?;
            }
            if let Some(names) = args.text("--scenario") {
                config.scenarios = names
                    .split(',')
                    .map(str::trim)
                    .filter(|t| !t.is_empty())
                    .map(String::from)
                    .collect();
            }
            config.cells_per_combo = args.count("--cells").unwrap_or(3);
            config.ticks = args.ticks();
            config.workers = args.workers();
            config.bootstrap_resamples = args.count("--resamples").unwrap_or(1000);
            // Latency calibration is wall-clock and text-only; JSON output
            // is the deterministic contract, so skip the extra runs there.
            config.calibrate_latency = !json;
            config.collect_metrics = args.wants_metrics();
            let outcome = run_tournament(&config)?;
            match json {
                true => writeln!(out, "{}", outcome.to_json()?)?,
                false => write!(out, "{}", outcome.render())?,
            }
            let metrics = outcome.metrics.as_ref();
            publish(args, out, "tournament", metrics, None, None, NO_STATE)?;
        }
        "cluster" if args.switch("--compare") => {
            let reference = run_cluster_policy(args, ClusterPolicySpec::NoPlacement, "hotspot")?;
            writeln!(
                out,
                "cluster comparison: {} ({} epochs x {} ticks, seed {}, host policy {}, migration {})\n",
                reference.scenario,
                reference.epochs,
                reference.ticks_per_epoch,
                reference.seed,
                reference.host_policy,
                if reference.migration { "on" } else { "off" },
            )?;
            writeln!(
                out,
                "{:<14} {:>10} {:>9} {:>8} {:>7} {:>6} {:>6} {:>7} {:>11}",
                "policy",
                "batch-work",
                "slo-viol",
                "satisf",
                "admits",
                "migr",
                "defer",
                "queued",
                "log-dropped",
            )?;
            for spec in ClusterPolicySpec::all() {
                let row = if spec == ClusterPolicySpec::NoPlacement {
                    reference.clone()
                } else {
                    run_cluster_policy(args, spec, "hotspot")?
                };
                writeln!(
                    out,
                    "{:<14} {:>10.0} {:>8.2}% {:>7.1}% {:>7} {:>6} {:>6} {:>7} {:>11}",
                    row.cluster_policy,
                    row.total_batch_work,
                    100.0 * row.slo_violation_rate,
                    100.0 * row.satisfaction(),
                    row.admissions,
                    row.migrations,
                    row.deferrals,
                    row.queue_actions,
                    row.events_dropped,
                )?;
            }
        }
        "cluster" => {
            let outcome = run_cluster_policy(args, cluster_policy(args)?, "hotspot")?;
            match json {
                true => writeln!(out, "{}", outcome.to_json()?)?,
                false => write!(out, "{}", outcome.render())?,
            }
            let (metrics, events) = (outcome.metrics.as_ref(), outcome.events.as_deref());
            publish(
                args,
                out,
                "cluster",
                metrics,
                events,
                None,
                outcome.state_json(),
            )?;
        }
        "events" => {
            // `--events-in` reads a JSONL export, otherwise a demo cluster
            // run records one live. storm-cluster is the demo default
            // because it exercises every cluster verb including migration
            // (hotspot under scoring placement admits cleanly and never
            // migrates).
            let events = match args.text("--events-in") {
                Some(path) => match events_from_jsonl(&read_text_input(path)?) {
                    Ok(events) => events,
                    Err(e) => return fail(format!("{path}: {e}")),
                },
                None => run_cluster_policy(args, cluster_policy(args)?, "storm-cluster")?
                    .events
                    .expect("the events command always collects the stream"),
            };
            if let Some(token) = args.text("--cause") {
                let id = EventId::parse(token).map_err(CliError::Message)?;
                for (depth, event) in causal_chain(&events, id)?.into_iter().enumerate() {
                    match depth {
                        0 => writeln!(out, "{}", event.render())?,
                        _ => writeln!(
                            out,
                            "{:indent$}caused by {}",
                            "",
                            event.render(),
                            indent = depth * 2
                        )?,
                    }
                }
                return Ok(ExitCode::SUCCESS);
            }
            let kind = args
                .text("--kind")
                .map(EventKind::parse)
                .transpose()
                .map_err(CliError::Message)?;
            let (host, from, to) = (
                args.int("--host"),
                args.int("--tick-from"),
                args.int("--tick-to"),
            );
            let filtered: Vec<EventRecord> = events
                .into_iter()
                .filter(|e| kind.is_none_or(|k| e.kind == k))
                .filter(|e| host.is_none_or(|scope| u64::from(e.scope) == scope))
                .filter(|e| from.is_none_or(|from| e.tick >= from))
                .filter(|e| to.is_none_or(|to| e.tick <= to))
                .collect();
            if let Some(path) = args.text("--events-out") {
                write_events(out, &filtered, path)?;
            } else if json {
                write!(out, "{}", events_to_jsonl(&filtered))?;
            } else {
                for event in &filtered {
                    writeln!(out, "{}", event.render())?;
                }
                writeln!(out, "{} events", filtered.len())?;
            }
        }
        "metrics-diff" => {
            let load = |path: &String| match parse_snapshot(&read_text_input(path)?) {
                Ok(series) => Ok(series),
                Err(e) => fail(format!("{path}: {e}")),
            };
            let rows = diff_series(&load(&args.operands[0])?, &load(&args.operands[1])?);
            let number = |text: &str| text.parse::<f64>().expect("parse_args checked the shape");
            let threshold = args.text("--threshold").map_or(0.0, number);
            // `<metric>=<tolerance>` values can only be `--threshold-for`'s.
            let overrides: Vec<(&str, &str)> = args
                .values
                .iter()
                .filter_map(|(_, value)| value.split_once('='))
                .collect();
            let mut failures = 0usize;
            for row in &rows {
                // The first override naming the metric beats `--threshold`.
                let named = overrides.iter().find(|(metric, _)| *metric == row.metric);
                let tolerance = named.map_or(threshold, |(_, tolerance)| number(tolerance));
                if row.rel > tolerance {
                    failures += 1;
                    writeln!(
                        out,
                        "FAIL {:<44} a={} b={} rel={:.6} tolerance={}",
                        row.key, row.a, row.b, row.rel, tolerance
                    )?;
                }
            }
            writeln!(
                out,
                "metrics-diff: {} series compared, {} beyond tolerance",
                rows.len(),
                failures
            )?;
            // Exit 1 means the gate tripped; stderr and exit 2 stay
            // reserved for real errors.
            return Ok(ExitCode::from(u8::from(failures > 0)));
        }
        "promlint" => {
            let path = args.operands.first().map_or("-", String::as_str);
            let text = read_text_input(path)?;
            if let Err(errors) = promlint::validate(&text) {
                for error in &errors {
                    writeln!(out, "{path}: {error}")?;
                }
                return Ok(ExitCode::from(1));
            }
            writeln!(out, "{path}: exposition lints clean")?;
        }
        other => unreachable!("`{other}` is in COMMANDS but has no arm"),
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// Runs one command line in-process; returns the exit code (or the
    /// error message) and everything it printed.
    fn cli(line: &str) -> (Result<ExitCode, String>, String) {
        let mut stdout = Vec::new();
        let result = run(&argv(line), &mut Out(&mut stdout)).map_err(|e| match e {
            CliError::Message(message) => message,
            CliError::StdoutClosed => unreachable!("a Vec never closes"),
        });
        (result, String::from_utf8(stdout).expect("utf-8 output"))
    }

    /// Stdout of a command line that must succeed with exit code 0.
    fn stdout_of(line: &str) -> String {
        let (result, stdout) = cli(line);
        assert_eq!(result, Ok(ExitCode::SUCCESS), "`{line}`");
        stdout
    }

    /// The error message of a command line that must fail.
    fn error_of(line: &str) -> String {
        cli(line).0.expect_err(line)
    }

    /// A scratch file path unique to this test process.
    fn scratch(name: &str) -> String {
        let path = std::env::temp_dir().join(format!("stayaway-bin-{}-{name}", std::process::id()));
        path.to_str().expect("utf-8 temp dir").to_string()
    }

    #[test]
    fn usage_and_flag_table_agree() {
        let (commands, options) = USAGE
            .split_once("\noptions:\n")
            .expect("USAGE has an options section");
        // An entry line is indented by exactly two spaces; continuation
        // lines are indented further.
        let entries = |section: &'static str| {
            section
                .lines()
                .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
                .map(|l| l.split_whitespace().take(2).collect::<Vec<_>>())
        };
        let documented: Vec<&str> = entries(commands.split_once("\ncommands:\n").unwrap().1)
            .map(|entry| entry[0])
            .collect();
        assert_eq!(documented, COMMANDS, "USAGE commands vs COMMANDS, in order");

        let documented: Vec<(&str, bool)> = entries(options)
            .map(|entry| (entry[0], entry[1].starts_with('<')))
            .collect();
        let table: Vec<(&str, bool)> = FLAGS
            .iter()
            .map(|&(name, shape, _)| (name, shape != Switch))
            .collect();
        assert_eq!(
            documented, table,
            "USAGE options vs FLAGS: (name, takes a value), in order"
        );
        // Every subcommand named in the tables is a real one.
        let readers = FLAGS.iter().flat_map(|(_, _, read_by)| read_by.split(' '));
        for named in readers.chain(OPERANDS.iter().map(|(command, ..)| *command)) {
            assert!(COMMANDS.contains(&named), "`{named}` is not a subcommand");
        }
    }

    #[test]
    fn every_subcommand_accepts_the_flags_it_reads_and_rejects_one_it_does_not() {
        for command in COMMANDS {
            let reads = |flag: &&(&str, Shape, &str)| flag.2.split(' ').any(|r| r == command);
            let mut line = vec![command.to_string()];
            if let Some((_, min, _)) = OPERANDS.iter().find(|o| o.0 == command) {
                line.extend((0..*min).map(|i| format!("operand{i}")));
            }
            for (name, shape, _) in FLAGS.iter().filter(reads) {
                line.push(name.to_string());
                line.extend(match shape {
                    Switch => None,
                    Text => Some("text".to_string()),
                    Int => Some("3".to_string()),
                    Float => Some("0.5".to_string()),
                    Pair => Some("metric=0.5".to_string()),
                });
            }
            let args = parse_args(&line).unwrap_or_else(|e| panic!("`{}`: {e:?}", line.join(" ")));
            for (name, ..) in FLAGS.iter().filter(reads) {
                assert!(args.switch(name), "{command} {name}");
            }
            let (stranger, ..) = FLAGS
                .iter()
                .find(|flag| !reads(flag))
                .expect("no subcommand reads every flag");
            let message = match parse_args(&argv(&format!("{command} {stranger} 1"))) {
                Err(CliError::Message(message)) => message,
                other => panic!("{command} accepted {stranger}: {other:?}"),
            };
            assert_eq!(message, format!("{stranger} is not read by `{command}`"));
        }
    }

    #[test]
    fn operands_are_counted_per_subcommand() {
        assert!(parse_args(&argv("metrics-diff a.json b.json")).is_ok());
        assert!(error_of("metrics-diff a.json").contains("exactly 2 operands"));
        assert!(error_of("metrics-diff a.json b.json c.json").contains("exactly 2 operands, got 3"));
        assert!(parse_args(&argv("promlint")).is_ok());
        // A bare `-` is the stdin operand, not a flag.
        assert_eq!(parse_args(&argv("promlint -")).unwrap().operands, ["-"]);
        assert!(error_of("promlint a b").contains("at most 1"));
        assert!(error_of("run stray").contains("`run` takes no operands, got 1: stray"));
    }

    #[test]
    fn parses_introspection_flags() {
        let a = parse_args(&argv(
            "run --http 127.0.0.1:0 --http-linger 2 --events-out ev.jsonl --metrics-out m.json",
        ))
        .unwrap();
        assert_eq!(a.text("--http"), Some("127.0.0.1:0"));
        assert_eq!(a.int("--http-linger"), Some(2));
        assert_eq!(a.text("--events-out"), Some("ev.jsonl"));
        assert_eq!(a.text("--metrics-out"), Some("m.json"));
    }

    #[test]
    fn parses_events_filters_and_diff_positionals() {
        let a = parse_args(&argv(
            "events --events-in ev.jsonl --kind migrate --host 2 --tick-from 10 --tick-to 20 --cause 2:17",
        ))
        .unwrap();
        assert_eq!(a.text("--events-in"), Some("ev.jsonl"));
        assert_eq!(a.text("--kind"), Some("migrate"));
        assert_eq!(a.int("--host"), Some(2));
        assert_eq!(a.int("--tick-from"), Some(10));
        assert_eq!(a.int("--tick-to"), Some(20));
        assert_eq!(a.text("--cause"), Some("2:17"));
        let d = parse_args(&argv(
            "metrics-diff a.json b.json --threshold 0.05 --threshold-for stayaway_throttles_total=0.2",
        ))
        .unwrap();
        assert_eq!(d.operands, ["a.json", "b.json"]);
        assert_eq!(d.text("--threshold"), Some("0.05"));
        assert_eq!(
            d.text("--threshold-for"),
            Some("stayaway_throttles_total=0.2")
        );
        assert!(parse_args(&argv("metrics-diff a b --threshold-for nope")).is_err());
        assert!(parse_args(&argv("metrics-diff a b --threshold-for m=high")).is_err());
    }

    /// A minimal `--metrics-out *.json` snapshot.
    fn snapshot(counters: &[(&str, u64)]) -> String {
        let entries: Vec<String> = counters
            .iter()
            .map(|(name, value)| format!("{{\"name\": \"{name}\", \"value\": {value}}}"))
            .collect();
        format!("{{\"counters\": [{}]}}", entries.join(", "))
    }

    #[test]
    fn metrics_diff_flags_missing_and_changed_series() {
        let (a, b) = (scratch("diff-a.json"), scratch("diff-b.json"));
        std::fs::write(&a, snapshot(&[("x_total", 10), ("only_a", 1)])).unwrap();
        std::fs::write(&b, snapshot(&[("x_total", 11)])).unwrap();
        let (result, stdout) = cli(&format!("metrics-diff {a} {b}"));
        assert_eq!(result, Ok(ExitCode::from(1)), "a tripped gate exits 1");
        assert!(
            stdout.contains("FAIL only_a"),
            "a vanished series trips any gate"
        );
        assert!(stdout.contains("FAIL x_total"));
        assert!(stdout.ends_with("metrics-diff: 2 series compared, 2 beyond tolerance\n"));
        // A tolerance forgives the changed series, never the vanished one;
        // a per-metric override beats the global threshold.
        let (result, stdout) = cli(&format!("metrics-diff {a} {b} --threshold 0.5"));
        assert_eq!(result, Ok(ExitCode::from(1)));
        assert!(!stdout.contains("FAIL x_total") && stdout.contains("FAIL only_a"));
        let (_, stdout) = cli(&format!(
            "metrics-diff {a} {b} --threshold 0.5 --threshold-for x_total=0.01"
        ));
        assert!(stdout.contains("FAIL x_total"));
        assert_eq!(
            stdout_of(&format!("metrics-diff {a} {a}")).lines().count(),
            1
        );
        assert!(error_of(&format!("metrics-diff {a} {a}.missing")).starts_with("cannot read"));
        for path in [a, b] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn wall_clock_series_are_excluded_from_the_gate() {
        let (a, b) = (scratch("wall-a.json"), scratch("wall-b.json"));
        std::fs::write(&a, snapshot(&[("x_total", 3), ("busy_nanos_total", 100)])).unwrap();
        std::fs::write(&b, snapshot(&[("x_total", 3), ("busy_nanos_total", 999)])).unwrap();
        assert_eq!(
            stdout_of(&format!("metrics-diff {a} {b}")),
            "metrics-diff: 1 series compared, 0 beyond tolerance\n"
        );
        for path in [a, b] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn parses_full_flag_set() {
        let a = parse_args(&argv(
            "run --scenario web-mem+soplex --policy reactive --ticks 100 --seed 3 --json",
        ))
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.text("--scenario"), Some("web-mem+soplex"));
        assert_eq!(a.text("--policy"), Some("reactive"));
        assert_eq!(a.ticks(), 100);
        assert_eq!(a.seed(), 3);
        assert!(a.switch("--json"));
        // Later occurrences win.
        assert_eq!(
            parse_args(&argv("run --ticks 1 --ticks 2"))
                .unwrap()
                .ticks(),
            2
        );
    }

    #[test]
    fn parses_fleet_flags() {
        let a = parse_args(&argv(
            "fleet --cells 64 --workers 4 --seed 7 --share-templates --json",
        ))
        .unwrap();
        assert_eq!(a.command, "fleet");
        assert_eq!(a.int("--cells"), Some(64));
        assert_eq!(a.workers(), 4);
        assert_eq!(a.seed(), 7);
        assert!(a.switch("--share-templates"));
        assert!(a.switch("--json"));
        // No --scenario means the fleet runs its standard mix.
        assert_eq!(a.text("--scenario"), None);
    }

    #[test]
    fn fleet_defaults_are_modest() {
        let a = parse_args(&argv("fleet")).unwrap();
        // No --cells on the command line: the fleet defaults to 8, the
        // tournament to 3 per combination.
        assert_eq!(a.int("--cells"), None);
        assert_eq!(a.workers(), 1);
        assert!(!a.switch("--share-templates"));
        assert_eq!(a.text("--predictor"), None);
        assert_eq!((a.ticks(), a.seed()), (384, 7));
    }

    #[test]
    fn parses_predictor_and_tournament_flags() {
        let a = parse_args(&argv(
            "tournament --predictor kde,xapp --scenario cpu-bomb,flash-crowd \
             --cells 2 --resamples 250 --workers 4 --json",
        ))
        .unwrap();
        assert_eq!(a.command, "tournament");
        assert_eq!(a.text("--predictor"), Some("kde,xapp"));
        assert_eq!(a.text("--scenario"), Some("cpu-bomb,flash-crowd"));
        assert_eq!(a.int("--cells"), Some(2));
        assert_eq!(a.int("--resamples"), Some(250));
        assert!(a.switch("--json"));
        // A single --predictor flows into the controller configuration.
        let a = parse_args(&argv("run --predictor last-tick")).unwrap();
        assert_eq!(
            a.controller_config().unwrap().predictor,
            PredictorKind::LastTick
        );
        assert!(parse_args(&argv("run --predictor")).is_err());
        assert!(parse_args(&argv("tournament --resamples abc")).is_err());
        let a = parse_args(&argv("run --predictor warp-core")).unwrap();
        assert!(a.controller_config().is_err());
        // One host runs one plane: a list is for `fleet` and `tournament`.
        let a = parse_args(&argv("run --predictor kde,xapp")).unwrap();
        assert!(a.controller_config().is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse_args(&argv("run --bogus 1")).is_err());
        assert!(parse_args(&argv("run --ticks abc")).is_err());
        assert!(parse_args(&argv("run --ticks -3")).is_err());
        assert!(parse_args(&argv("run --scenario")).is_err());
        assert!(parse_args(&argv("fleet --cells abc")).is_err());
        assert!(parse_args(&argv("fleet --workers")).is_err());
        assert!(parse_args(&argv("replay --trace")).is_err());
        assert!(parse_args(&argv("metrics-diff a b --threshold lots")).is_err());
        assert!(parse_args(&argv("warp-core")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn parses_cluster_flags() {
        let a = parse_args(&argv(
            "cluster --cluster-scenario storm-cluster --cluster-policy least-loaded \
             --epochs 12 --epoch-ticks 4 --workers 4 --no-migration --json",
        ))
        .unwrap();
        assert_eq!(a.command, "cluster");
        assert_eq!(a.text("--cluster-scenario"), Some("storm-cluster"));
        assert_eq!(cluster_policy(&a).unwrap(), ClusterPolicySpec::LeastLoaded);
        assert_eq!(a.int("--epochs"), Some(12));
        assert_eq!(a.int("--epoch-ticks"), Some(4));
        assert_eq!(a.workers(), 4);
        assert!(a.switch("--no-migration"));
        assert!(!a.switch("--compare"));
        assert!(a.switch("--json"));
        let a = parse_args(&argv("cluster --compare")).unwrap();
        assert!(a.switch("--compare"));
        // Defaults when nothing is given: the library's standard shape.
        assert_eq!(a.text("--cluster-scenario"), None);
        assert_eq!(cluster_policy(&a).unwrap(), ClusterPolicySpec::Score);
        assert_eq!(a.int("--epochs"), None);
        assert!(!a.switch("--no-migration"));
        assert!(parse_args(&argv("cluster --epochs abc")).is_err());
        assert!(parse_args(&argv("cluster --cluster-policy")).is_err());
        assert!(
            cluster_policy(&parse_args(&argv("cluster --cluster-policy bogus")).unwrap()).is_err()
        );
    }

    #[test]
    fn cluster_command_runs_through_the_cli_path() {
        // The same builder the `cluster` command uses, at smoke size.
        let args = parse_args(&argv("cluster --epochs 4 --epoch-ticks 2 --seed 3")).unwrap();
        let out = run_cluster_policy(&args, ClusterPolicySpec::Score, "hotspot").unwrap();
        assert_eq!(out.scenario, "hotspot");
        assert_eq!(out.cluster_policy, "score");
        assert_eq!(out.host_policy, "stay-away");
        assert_eq!(out.epochs, 4);
        assert_eq!(out.per_host.len(), 3);
        assert_eq!(out.per_job.len(), 4);
        assert!(
            out.events.is_none(),
            "only `events` collects without a flag"
        );
        // --no-migration and the host-policy override flow through too.
        let args = parse_args(&argv(
            "cluster --epochs 4 --epoch-ticks 2 --seed 3 --no-migration --policy reactive",
        ))
        .unwrap();
        let out = run_cluster_policy(&args, ClusterPolicySpec::NoPlacement, "hotspot").unwrap();
        assert!(!out.migration);
        assert_eq!(out.migrations, 0);
        assert_eq!(out.host_policy, "reactive");
        let args = parse_args(&argv("events --cluster-scenario warp-core")).unwrap();
        assert!(run_cluster_policy(&args, ClusterPolicySpec::Score, "storm-cluster").is_err());
    }

    #[test]
    fn parses_source_and_trace_flags() {
        let a = parse_args(&argv("run --source trace:/tmp/t.jsonl")).unwrap();
        assert_eq!(a.text("--source"), Some("trace:/tmp/t.jsonl"));
        let a = parse_args(&argv("replay --trace out.jsonl --policy reactive")).unwrap();
        assert_eq!(a.text("--trace"), Some("out.jsonl"));
        assert_eq!(a.policy_or("stay-away"), "reactive");
        // `replay` senses through --trace alone.
        assert!(parse_args(&argv("replay --source sim")).is_err());
        assert_eq!(error_of("replay"), "replay requires --trace <path>");
    }

    #[test]
    fn parses_all_scenario_names() {
        for sens in ["vlc", "web-cpu", "web-mem", "web-mix"] {
            for batch in BatchKind::ALL {
                let name = format!("{sens}+{batch}");
                let stdout = stdout_of(&format!("run --scenario {name} --ticks 1 --json"));
                assert!(stdout.contains(&format!("\"scenario\": \"{name}\"")));
            }
        }
    }

    #[test]
    fn rejects_malformed_scenarios() {
        for (name, reason) in [
            ("vlc", "<sensitive>+<batch>"),
            ("vlc+unknown", "unknown batch app `unknown`"),
            ("nope+soplex", "unknown sensitive app `nope`"),
        ] {
            assert!(error_of(&format!("run --scenario {name} --ticks 1")).contains(reason));
        }
    }

    #[test]
    fn run_policy_by_name_covers_all_policies() {
        for (token, name) in [
            ("stay-away", "stay-away"),
            ("none", "no-prevention"),
            ("always", "always-throttle"),
            ("reactive", "reactive"),
            ("static", "static-threshold"),
            ("null", "no-prevention"),
        ] {
            let args = parse_args(&argv(&format!(
                "run --scenario vlc+soplex --policy {token} --seed 1 --ticks 30"
            )))
            .unwrap();
            let (outcome, obs, server) =
                single_host(&args, &mut Out(&mut Vec::new()), HostJob::default()).unwrap();
            assert_eq!(outcome.run.policy, name);
            assert_eq!(outcome.run.timeline.len(), 30);
            assert_eq!(outcome.host, *Scenario::vlc_with_soplex(1).host_spec());
            // Only the controller counts its periods.
            assert_eq!(outcome.stats.periods > 0, token == "stay-away");
            // No flag asked for instruments, so none exist.
            assert!(obs.exported_registry().is_none() && obs.recorder().is_none());
            assert!(server.is_none());
        }
        assert!(error_of("run --policy bogus --ticks 10").contains("unknown policy"));
    }

    #[test]
    fn policy_defaults_are_per_command() {
        let a = parse_args(&argv("run")).unwrap();
        assert_eq!(a.text("--policy"), None);
        assert_eq!(a.policy_or("stay-away"), "stay-away");
        assert_eq!(
            a.policy_or("stayaway,reactive,null"),
            "stayaway,reactive,null"
        );
        let a = parse_args(&argv("bench-scenarios --policy null")).unwrap();
        assert_eq!(a.policy_or("stayaway,reactive,null"), "null");
    }

    #[test]
    fn parses_workload_source_tokens() {
        // A workload run is labelled by its library scenario and reports
        // per-request QoS next to the tick-level summary.
        let stdout = stdout_of("run --source workload:cpu-bomb --policy null --ticks 5 --json");
        assert!(stdout.contains("\"scenario\": \"workload:cpu-bomb\""));
        assert!(stdout.contains("\"latency\": {"));
        assert!(error_of("run --source workload:warp-core").contains("warp-core"));
    }
}
