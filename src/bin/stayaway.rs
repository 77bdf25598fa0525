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

use stay_away::core::{
    ControllerConfig, ControllerStats, Observability, PredictorKind, StageClock,
};
use stay_away::fleet::cell::{run_host, HostOutcome, HostRun};
use stay_away::fleet::report::format_accuracy;
use stay_away::fleet::{
    cluster_by_name, cluster_library, predictor, Cluster, ClusterConfig, ClusterOutcome,
    ClusterPolicySpec, Fleet, FleetConfig, FleetError, PolicySpec, SourceSpec,
};
use stay_away::obs::diff::{diff_series, parse_snapshot};
use stay_away::obs::{
    causal_chain, events_from_jsonl, events_to_jsonl, promlint, to_json, to_prometheus, EventId,
    EventKind, EventRecord, FlightRecorder, HttpServer, Introspection, MetricsRegistry,
    MetricsSnapshot,
};
use stay_away::sim::scenario::{BatchKind, Scenario};
use stay_away::statespace::Template;
use stay_away::telemetry::TelemetryError;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

const USAGE: &str = "\
usage: stayaway <command> [options]

A command accepts only the options it reads (the descriptions below say
which); any other option or a stray operand is an error. A list of
several runs reads no option of one run: --template, --template-out,
--record-out, --metrics-out, --events-out, --http and --http-linger.

commands:
  list                       list scenarios, workload library, policies
  run                        run each listed source under each listed
                             policy; one run may be seeded from a template,
                             export the learned one or record its trace
  fleet                      run many co-location cells over a worker pool;
                             two or more predictors are ranked, with
                             bootstrap confidence intervals
  cluster                    run movable batch jobs over an open cluster of
                             workload hosts (placement + admission queue +
                             migration above per-host controllers)
  events <file>              print the causal timeline of an --events-out
                             JSONL stream (`-` reads stdin)
  metrics-diff <a> <b>       compare two metrics snapshot JSON files (as
                             written by --metrics-out x.json) with relative
                             per-metric thresholds; exits 1 on regression
  promlint <file>            validate a Prometheus text exposition file
                             (`-` reads stdin); exits 1 on lint errors

options:
  --scenario <sens>+<batch>  e.g. vlc+cpu-bomb, web-mem+twitter-analysis;
                             read by the sim source only (fleet default: a
                             4-scenario mix)
  --policy <name>            stayaway | reactive | static | always | null
                             (default stayaway; run/fleet: comma-separated
                             list, e.g. null,stayaway)
  --predictor <name>         prediction plane for the stay-away controller:
                             kde | xapp | denoise | last-tick (default kde;
                             fleet: comma-separated list, crossed with the
                             other lists)
  --source <spec>            run/fleet: the observation substrate, sim |
                             trace:<path> | procfs | workload:<scenario>
                             (default sim; comma-separated list, crossed
                             with the other lists)
  --ticks <n>                simulation length (default 384)
  --seed <n>                 deterministic seed (default 7; run reads it
                             only from a sim or workload: source)
  --template <path>          run: warm-start stay-away from a template file
                             (as written by --template-out)
  --template-out <path>      run: export the learned template to a file,
                             keyed by what the run senses
  --record-out <path>        run: record the observation stream to a JSONL
                             trace file (replay it with --source
                             trace:<path>)
  --cells <n>                fleet: number of co-location cells (default 8)
  --workers <n>              fleet/cluster: worker threads
                             (default 1; results are identical for any
                             value)
  --share-templates          fleet: warm-start cells from the registry
  --cluster-scenario <name>  cluster: hotspot | storm-cluster
                             (default hotspot)
  --cluster-policy <name>    cluster: score | random | least-loaded | none
                             (default score; none = throttle-only
                             round-robin Stay-Away; a comma-separated list
                             prints a comparison table)
  --epochs <n>               cluster: placement epochs (default 24)
  --epoch-ticks <n>          cluster: control ticks per epoch (default 8)
  --no-migration             cluster: disable the Migrate verb
  --metrics-out <path>       run/fleet/cluster: export the
                             run's metrics snapshot; `-` writes pretty
                             JSON to stdout, a `.json` path writes pretty
                             JSON, any other path writes Prometheus text
                             exposition
  --events-out <path>        run/fleet/cluster/events: write the canonical
                             event stream as JSON Lines (`-` writes to
                             stdout)
  --http <addr>              run/fleet/cluster: serve /health /metrics
                             /state /events?tail=N on <addr> (port 0 binds
                             an ephemeral port; the bound address is
                             printed)
  --http-linger <secs>       with --http: keep the server up this many
                             seconds after the run completes (default 0)
  --kind <name>              events: only show this event kind
  --host <n>                 events: only show this recorder scope
  --tick-from <n>            events: drop events before this tick
  --tick-to <n>              events: drop events after this tick
  --cause <scope:seq>        events: render the causal chain ending at
                             this event id
  --threshold <f>            metrics-diff: relative tolerance (finite,
                             >= 0) applied to every metric (default 0,
                             exact match)
  --threshold-for <m=f>      metrics-diff: per-metric override, repeatable
  --json                     print a JSON summary instead of text
";

/// Why a command did not run to completion.
#[derive(Debug)]
enum CliError {
    /// Refused by [`parse_args`]: `error: <message>` plus the usage; exit 2.
    Usage(String),
    /// Failed after parsing: `error: <message>` alone; exit 2.
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
const COMMANDS: [&str; 7] = [
    "list", "run", "fleet", "cluster", "events", "metrics-diff", "promlint",
];

/// (subcommand, fewest, most) operands — non-flag arguments; every
/// subcommand not listed takes none.
const OPERANDS: &[(&str, usize, usize)] =
    &[("events", 1, 1), ("metrics-diff", 2, 2), ("promlint", 0, 1)];

/// The shape of a flag's value: none, any string, an unsigned integer, a
/// tolerance, or a repeatable `<metric>=<tolerance>`. A tolerance is a
/// finite number `>= 0`: `rel > NaN` never holds, so a NaN tolerance would
/// pass every series.
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
    ("--scenario", Text, "run fleet"),
    ("--policy", Text, "run fleet cluster"),
    ("--predictor", Text, "run fleet"),
    ("--source", Text, "run fleet"),
    ("--ticks", Int, "run fleet"),
    ("--seed", Int, "run fleet cluster"),
    ("--template", Text, "run"),
    ("--template-out", Text, "run"),
    ("--record-out", Text, "run"),
    ("--cells", Int, "fleet"),
    ("--workers", Int, "fleet cluster"),
    ("--share-templates", Switch, "fleet"),
    ("--cluster-scenario", Text, "cluster"),
    ("--cluster-policy", Text, "cluster"),
    ("--epochs", Int, "cluster"),
    ("--epoch-ticks", Int, "cluster"),
    ("--no-migration", Switch, "cluster"),
    ("--metrics-out", Text, "run fleet cluster"),
    ("--events-out", Text, "run fleet cluster events"),
    ("--http", Text, "run fleet cluster"),
    ("--http-linger", Int, "run fleet cluster"),
    ("--kind", Text, "events"),
    ("--host", Int, "events"),
    ("--tick-from", Int, "events"),
    ("--tick-to", Int, "events"),
    ("--cause", Text, "events"),
    ("--threshold", Float, "metrics-diff"),
    ("--threshold-for", Pair, "metrics-diff"),
    ("--json", Switch, "list run fleet cluster events"),
];

/// The flags of one run: `run` and `cluster` read them only when their
/// lists name one run.
#[rustfmt::skip]
const ONE_RUN: [&str; 7] =
    ["--template", "--template-out", "--record-out", "--metrics-out", "--events-out", "--http", "--http-linger"];

/// One flag as given: its name, its text (a switch's is empty) and the
/// number its shape parsed out of the text — an `Int` flag's integer, a
/// `Float` flag's number, a `Pair` flag's tolerance.
#[derive(Debug, Clone)]
struct Given {
    flag: &'static str,
    text: String,
    int: Option<u64>,
    float: Option<f64>,
}

impl Shape {
    /// The one value check: `token` as the value of flag `name`, its
    /// number parsed once, or why it is no value of this shape.
    fn parse(self, name: &'static str, token: String) -> Result<Given, String> {
        let tolerance_of = |text: &str| {
            text.parse::<f64>()
                .ok()
                .filter(|t| t.is_finite() && *t >= 0.0)
        };
        let (int, float) = match self {
            Switch | Text => (None, None),
            Int => match token.parse::<u64>() {
                Ok(int) => (Some(int), None),
                Err(_) => return Err(format!("{name} expects an integer")),
            },
            Float => match tolerance_of(&token) {
                Some(float) => (None, Some(float)),
                None => return Err(format!("{name} expects a finite number >= 0")),
            },
            Pair => match token.split_once('=').and_then(|(_, t)| tolerance_of(t)) {
                Some(tolerance) => (None, Some(tolerance)),
                None => return Err(format!("{name} `{token}` is not <metric>=<tolerance>")),
            },
        };
        Ok(Given {
            flag: name,
            text: token,
            int,
            float,
        })
    }
}

/// A parsed command line: the subcommand, the flags it reads with their
/// shape-checked values (in the order given), its operands and its named
/// values, parsed (`run` / `fleet`: sources, policies, predictors and the
/// `--scenario` prototype; `cluster`: cluster policies). Parsing has
/// already rejected every flag the subcommand does not read, so an absent
/// flag is simply `None`.
#[derive(Debug, Clone)]
struct Args {
    command: String,
    values: Vec<Given>,
    operands: Vec<String>,
    sources: Vec<SourceSpec>,
    policies: Vec<PolicySpec>,
    predictors: Vec<PredictorKind>,
    scenario: Option<Scenario>,
    cluster_policies: Vec<ClusterPolicySpec>,
}

impl Args {
    /// The last value given for `flag` (later occurrences win).
    fn given(&self, flag: &str) -> Option<&Given> {
        debug_assert!(FLAGS.iter().any(|f| f.0 == flag), "{flag} not in FLAGS");
        self.values.iter().rev().find(|given| given.flag == flag)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        self.given(flag).map(|given| given.text.as_str())
    }

    fn switch(&self, flag: &str) -> bool {
        self.given(flag).is_some()
    }

    fn int(&self, flag: &str) -> Option<u64> {
        self.given(flag).and_then(|given| given.int)
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
    fn controller_config(&self) -> ControllerConfig {
        let mut config = ControllerConfig::default();
        if let [predictor] = self.predictors[..] {
            config.predictor = predictor;
        }
        config
    }
}

/// Parses a command line, or says why it is refused.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let Some(command) = argv.first().filter(|c| COMMANDS.contains(&c.as_str())) else {
        return Err(match argv.first() {
            Some(command) => format!("unknown command `{command}`"),
            None => "missing command".to_string(),
        });
    };
    let mut args = Args {
        command: command.clone(),
        values: Vec::new(),
        operands: Vec::new(),
        sources: Vec::new(),
        policies: Vec::new(),
        predictors: Vec::new(),
        scenario: None,
        cluster_policies: Vec::new(),
    };
    let mut tokens = argv[1..].iter();
    while let Some(token) = tokens.next() {
        // A bare `-` is the stdin/stdout operand, not a flag.
        if token == "-" || !token.starts_with('-') {
            args.operands.push(token.clone());
            continue;
        }
        let Some(&(name, shape, read_by)) = FLAGS.iter().find(|f| f.0 == token) else {
            return Err(format!("unknown flag `{token}`"));
        };
        if !read_by.split(' ').any(|reader| reader == command) {
            return Err(format!("{name} is not read by `{command}`"));
        }
        let value = match shape {
            Switch => String::new(),
            _ => match tokens.next() {
                Some(value) => value.clone(),
                None => return Err(format!("{name} expects a value")),
            },
        };
        args.values.push(shape.parse(name, value)?);
    }
    let given = args.operands.len();
    let (_, min, max) = *OPERANDS
        .iter()
        .find(|o| o.0 == command)
        .unwrap_or(&("", 0, 0));
    if !(min..=max).contains(&given) {
        let takes = match (min, max) {
            (_, 0) => "no operands".to_string(),
            (1, 1) => "exactly 1 operand".to_string(),
            (min, max) if min == max => format!("exactly {max} operands"),
            (_, max) => format!("at most {max} operand(s)"),
        };
        let operands = match given {
            0 => String::new(),
            _ => format!(": {}", args.operands.join(" ")),
        };
        return Err(format!("`{command}` takes {takes}, got {given}{operands}"));
    }
    // The lists are parsed here, once: the sources decide whether
    // `--scenario` and `--seed` are read (`SourceSpec::reads_*`; a flag is
    // read when any listed source reads it, and a fleet's seed derives
    // every cell's), the lengths whether the flags of one run are.
    let (fleet, text) = (command == "fleet", |e: FleetError| e.to_string());
    if command == "cluster" {
        let token = args.text("--cluster-policy").unwrap_or("score");
        args.cluster_policies = ClusterPolicySpec::parse_list(token).map_err(text)?;
    }
    if matches!(command.as_str(), "run" | "fleet") {
        args.sources =
            SourceSpec::parse_list(args.text("--source").unwrap_or("sim")).map_err(text)?;
        let policies = args.text("--policy").unwrap_or("stay-away");
        args.policies = PolicySpec::parse_list(policies).map_err(text)?;
        let reads = |read: fn(&SourceSpec) -> bool| args.sources.iter().any(read);
        let unread = [
            ("--scenario", !reads(SourceSpec::reads_scenario)),
            ("--seed", !fleet && !reads(SourceSpec::reads_seed)),
        ];
        let unread = unread
            .into_iter()
            .find(|&(flag, unread)| unread && args.switch(flag));
        if let Some((flag, _)) = unread {
            // Each source's kind, without its argument: `trace:`, `procfs`.
            let mut kinds: Vec<String> = (args.sources.iter())
                .map(|source| match source {
                    SourceSpec::Sim | SourceSpec::Procfs => source.name().to_string(),
                    _ => format!("{}:", source.name()),
                })
                .collect();
            kinds.dedup();
            let kinds = kinds.join(",");
            return Err(format!(
                "{flag} is not read by `{command} --source {kinds}`"
            ));
        }
        let predictors = args.text("--predictor").unwrap_or("kde");
        args.predictors = predictor::parse_list(predictors).map_err(text)?;
        if !fleet && args.predictors.len() > 1 {
            return Err(format!("`{command}` runs one predictor"));
        }
        if let Some(name) = args.text("--scenario") {
            let scenario = Scenario::parse(name, args.seed()).map_err(|e| e.to_string())?;
            args.scenario = Some(scenario);
        }
    }
    // A fleet is one run of many cells; `run` and `cluster` run each entry.
    let runs = args.sources.len().max(1) * args.policies.len().max(1);
    let runs = runs * args.cluster_policies.len().max(1);
    let one_run = ONE_RUN.into_iter().find(|flag| args.switch(flag));
    if let Some(flag) = one_run.filter(|_| runs > 1 && !fleet) {
        return Err(format!(
            "{flag} is not read by `{command}` over {runs} runs"
        ));
    }
    if args.switch("--http-linger") && !args.switch("--http") {
        return Err("--http-linger is not read without --http".to_string());
    }
    Ok(args)
}

/// One single-host outcome as the JSON document `run --json` prints (one
/// row of a list's `{"rows": [...]}`): the headline, the per-request QoS
/// when the substrate simulates requests, and the controller internals
/// when the policy counted its periods (baselines track nothing).
fn summary(scenario: &str, outcome: &HostOutcome) -> serde_json::Value {
    let run = &outcome.run;
    let mut doc = serde_json::json!({
        "scenario": scenario,
        "policy": run.policy,
        "ticks": run.ticks,
        "violations": run.qos.violations,
        "satisfaction": run.qos.satisfaction(),
        "mean_qos": run.qos.mean_qos(),
        "gained_utilization": run.mean_gained_utilization(outcome.host.cpu_cores),
        "batch_work": run.batch_work,
    });
    if let serde_json::Value::Object(pairs) = &mut doc {
        if let Some(requests) = &outcome.requests {
            pairs.push(("latency".to_string(), serde_json::to_value(requests)));
        }
        if let Some(stats) = controller_stats(outcome) {
            pairs.push(("controller".to_string(), serde_json::to_value(stats)));
        }
    }
    doc
}

/// The controller statistics worth printing: none for a policy that
/// counted no periods.
fn controller_stats(outcome: &HostOutcome) -> Option<&ControllerStats> {
    Some(&outcome.stats).filter(|stats| stats.periods > 0)
}

/// Prints one single-host outcome as text: the headline, then what
/// [`summary`] adds to it.
fn summarize(out: &mut Out<'_>, outcome: &HostOutcome) -> Result<(), CliError> {
    let run = &outcome.run;
    writeln!(
        out,
        "{:<16} violations {:>4}  satisfaction {:>5.1}%  gained util {:>5.1}%  batch work {:>6.0}",
        run.policy,
        run.qos.violations,
        100.0 * run.qos.satisfaction(),
        100.0 * run.mean_gained_utilization(outcome.host.cpu_cores),
        run.batch_work,
    )?;
    if let Some(stats) = controller_stats(outcome) {
        writeln!(
            out,
            "controller: {} states ({} violation), {} throttles, {} resumes, prediction accuracy {}",
            stats.states,
            stats.violation_states,
            stats.throttles,
            stats.resumes,
            format_accuracy(stats.prediction_accuracy()),
        )?;
        // A stage no period was clocked in has no time to report.
        let clock = |c: &StageClock| match c.clocked {
            0 => format!("{}x/n/a", c.invocations),
            _ => format!("{}x/{}µs", c.invocations, c.nanos / 1_000),
        };
        let t = &stats.stage_timing;
        writeln!(
            out,
            "stages: sense {}, map {}, predict {}, act {}",
            clock(&t.sense),
            clock(&t.map),
            clock(&t.predict),
            clock(&t.act),
        )?;
    }
    if let Some(r) = &outcome.requests {
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

/// The export tail every observable command ends with: write
/// `--metrics-out`, write `--events-out`, then keep the `--http` server up
/// for `--http-linger` seconds and stop it. A single-host run hands over
/// the `live` server that watched it (and no `state`: its controller
/// serves its own). The multi-cell planes publish after the run rather
/// than live, so their streams stay canonical: without a live server,
/// `--http` starts one now over the frozen metrics rollup, `state` and the
/// merged event stream. `plane` names the producer in "produced no …"
/// errors.
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

/// One run of `run`'s cross: `source` under `policy` (the simulator runs
/// `scenario`), with the predictor, seed, length and extras from the flags,
/// and [`run_host`] doing the rest. The extras, which [`parse_args`] admits
/// only for one run: `--template` warm-starts the policy (its "seeded
/// with" line is printed here), `--template-out` exports the learned
/// template under the key [`SourceSpec::sensitive_key`] names, and
/// `--record-out` tees the observation stream into a trace file, created
/// only once the scenario, policy and template have been accepted.
/// Instruments exist only when a flag asks for them: an exported registry
/// for `--metrics-out` / `--http`, a flight recorder for `--events-out` /
/// `--http`; under `--http` the server starts before the run and observes
/// it live. Returns the outcome, the instrument bundle and that server.
fn single_host(
    args: &Args,
    out: &mut Out<'_>,
    source: &SourceSpec,
    scenario: &Scenario,
    policy: &PolicySpec,
) -> Result<(HostOutcome, Observability, Option<HttpServer>), CliError> {
    let import = match args.text("--template") {
        Some(path) => Some((path, Template::load_from_path(path)?)),
        None => None,
    };
    let export_as = args
        .switch("--template-out")
        .then(|| source.sensitive_key(scenario.name()));
    if (import.is_some() || export_as.is_some()) && !policy.supports_templates() {
        return fail("the selected policy does not learn templates");
    }
    if let Some((path, template)) = &import {
        writeln!(
            out,
            "seeded with {} template states ({} violation) from {path}",
            template.len(),
            template.violation_count()
        )?;
    }
    let record_out = args.text("--record-out");
    let mut trace = match record_out {
        Some(path) => match File::create(path) {
            Ok(file) => Some(BufWriter::new(file)),
            Err(e) => return fail(format!("cannot write {path}: {e}")),
        },
        None => None,
    };
    let mut obs = match args.wants_metrics() {
        true => Observability::enabled(MetricsRegistry::new()),
        false => Observability::disabled(),
    };
    if args.wants_events() {
        obs = obs.with_recorder(FlightRecorder::for_scope(0, "run"));
    }
    let server = match args.text("--http") {
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
    let unwritten =
        |e| CliError::Message(format!("cannot write {}: {e}", record_out.unwrap_or("")));
    let outcome = match run_host(HostRun {
        source,
        scenario,
        seed: args.seed(),
        policy,
        controller: &args.controller_config(),
        ticks: args.ticks(),
        obs: &obs,
        import: import.as_ref().map(|(_, template)| template),
        export_as: export_as.as_deref(),
        trace_out: trace
            .as_mut()
            .map(|file| Box::new(file) as Box<dyn Write + '_>),
        loop_nanos: None,
    }) {
        Err(FleetError::Telemetry(TelemetryError::Record(e))) => return Err(unwritten(e)),
        outcome => outcome?,
    };
    if let Some(file) = &mut trace {
        file.flush().map_err(unwritten)?;
    }
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
    exit_code(result)
}

/// The process exit code of a command's result: an error prints its
/// reason (after a refused command line, the usage too) and exits 2.
fn exit_code(result: Result<ExitCode, CliError>) -> ExitCode {
    let (e, usage) = match result {
        Ok(code) => return code,
        Err(CliError::StdoutClosed) => return ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => (e, USAGE),
        Err(CliError::Message(e)) => (e, ""),
    };
    eprint!("error: {e}\n{usage}");
    ExitCode::from(2)
}

/// Runs one entry of the `--cluster-policy` list; a single run and every
/// row of a comparison measure exactly the same experiment.
fn run_cluster_policy(args: &Args, policy: ClusterPolicySpec) -> Result<ClusterOutcome, CliError> {
    let name = args.text("--cluster-scenario").unwrap_or("hotspot");
    let mut config = ClusterConfig::new(cluster_by_name(name)?, args.seed());
    config.epochs = args.int("--epochs").unwrap_or(24);
    config.ticks_per_epoch = args.int("--epoch-ticks").unwrap_or(8);
    config.workers = args.workers();
    config.cluster_policy = policy;
    config.host_policy = PolicySpec::parse(args.text("--policy").unwrap_or("stay-away"))?;
    config.migration = !args.switch("--no-migration");
    config.collect_metrics = args.wants_metrics();
    config.collect_events = args.wants_events();
    Ok(Cluster::new(config)?.run()?)
}

/// Prints the `--json` of a list of runs: one `{"rows": [...]}` document.
fn print_rows(out: &mut Out<'_>, rows: Vec<serde_json::Value>) -> Result<(), CliError> {
    let table = serde_json::json!({ "rows": rows });
    writeln!(out, "{}", serde_json::to_string_pretty(&table)?)
}

/// Prints a comparison of cluster policies: the experiment every row
/// shares, a column header, then one row per policy in list order.
fn cluster_table(out: &mut Out<'_>, rows: &[ClusterOutcome]) -> Result<(), CliError> {
    let first = &rows[0];
    writeln!(
        out,
        "cluster comparison: {} ({} epochs x {} ticks, seed {}, host policy {}, migration {})\n",
        first.scenario,
        first.epochs,
        first.ticks_per_epoch,
        first.seed,
        first.host_policy,
        if first.migration { "on" } else { "off" },
    )?;
    writeln!(
        out,
        "policy         batch-work  slo-viol   satisf  admits   migr  defer  queued log-dropped"
    )?;
    for row in rows {
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
    Ok(())
}

fn run(argv: &[String], out: &mut Out<'_>) -> Result<ExitCode, CliError> {
    let args = &parse_args(argv).map_err(CliError::Usage)?;
    let json = args.switch("--json");
    match args.command.as_str() {
        "list" => {
            let sensitive = ["vlc", "web-cpu", "web-mem", "web-mix"];
            let policies = ["stayaway", "reactive", "static", "always", "null"];
            let batch = BatchKind::ALL.map(|k| k.name());
            let predictors = PredictorKind::ALL.map(|p| p.name());
            let library = stay_away::workload::library();
            let clusters = cluster_library()?;
            let placements = ClusterPolicySpec::all().map(|p| p.name());
            if json {
                let doc = serde_json::json!({
                    "sensitive_applications": sensitive,
                    "batch_applications": batch,
                    "policies": policies,
                    "predictors": predictors,
                    "workload_scenarios": library,
                    "cluster_scenarios": clusters,
                    "cluster_policies": placements,
                });
                writeln!(out, "{}", serde_json::to_string_pretty(&doc)?)?;
                return Ok(ExitCode::SUCCESS);
            }
            writeln!(out, "sensitive applications: {}", sensitive.join(", "))?;
            writeln!(out, "batch applications:     {}", batch.join(", "))?;
            writeln!(out, "policies:               {}", policies.join(", "))?;
            writeln!(out, "predictors:             {}", predictors.join(", "))?;
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
                let co_runners = match scenario.co_runners() {
                    names if names.is_empty() => "none".to_string(),
                    names => names.join(", "),
                };
                writeln!(out, "{:20} co-runners: {co_runners}", "")?;
            }
            for c in clusters {
                let (name, about) = (c.name, c.description);
                writeln!(out, "cluster scenario:       {name:<14} {about}")?;
            }
            writeln!(out, "cluster policies:       {}", placements.join(", "))?;
        }
        // The cross of the source and policy lists, source by source. One
        // run prints its summary alone; a list prints a `scenario:` header
        // per source, or one `{"rows": [...]}` document under `--json`.
        "run" => {
            let one_run = args.sources.len() * args.policies.len() == 1;
            let prototype = match &args.scenario {
                Some(scenario) => scenario.clone(),
                None => Scenario::parse("vlc+cpu-bomb", args.seed())?,
            };
            let mut rows = Vec::new();
            for (i, source) in args.sources.iter().enumerate() {
                let scenario = source.scenario_label(prototype.name());
                if !(one_run || json) {
                    let seed = match source.reads_seed() {
                        true => format!(", seed {}", args.seed()),
                        false => String::new(),
                    };
                    writeln!(
                        out,
                        "{}scenario: {scenario} ({} ticks{seed}, source {})\n",
                        if i == 0 { "" } else { "\n" },
                        args.ticks(),
                        source.name(),
                    )?;
                }
                for policy in &args.policies {
                    let (outcome, obs, server) =
                        single_host(args, out, source, &prototype, policy)?;
                    let template_out = args.text("--template-out").zip(outcome.template.as_ref());
                    if let Some((path, template)) = template_out {
                        template.save_to_path(path)?;
                    }
                    let doc = summary(&scenario, &outcome);
                    match (json, one_run) {
                        (false, _) => summarize(out, &outcome)?,
                        (true, false) => rows.push(doc),
                        (true, true) => writeln!(out, "{}", serde_json::to_string_pretty(&doc)?)?,
                    }
                    if let Some((path, template)) = template_out {
                        writeln!(
                            out,
                            "template with {} states ({} violation) written to {path}",
                            template.len(),
                            template.violation_count()
                        )?;
                    }
                    if let Some(path) = args.text("--record-out") {
                        writeln!(
                            out,
                            "trace with {} observations written to {path}",
                            outcome.run.ticks
                        )?;
                    }
                    let metrics = obs.exported_registry().map(MetricsRegistry::snapshot);
                    let events = obs.recorder().map(FlightRecorder::events);
                    let (metrics, events) = (metrics.as_ref(), events.as_deref());
                    publish(
                        args,
                        out,
                        "run",
                        metrics,
                        events,
                        server,
                        serde_json::Value::Null,
                    )?;
                }
            }
            if !one_run && json {
                print_rows(out, rows)?;
            }
        }
        "fleet" => {
            let config = FleetConfig {
                cells: args.count("--cells").unwrap_or(8),
                workers: args.workers(),
                ticks: args.ticks(),
                fleet_seed: args.seed(),
                share_templates: args.switch("--share-templates"),
                scenarios: match &args.scenario {
                    Some(scenario) => vec![scenario.clone()],
                    None => FleetConfig::standard_mix(args.seed()),
                },
                policies: args.policies.clone(),
                predictors: args.predictors.clone(),
                sources: args.sources.clone(),
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
        // One cluster policy prints its outcome; a list prints the
        // comparison table, or one `{"rows": [...]}` document under
        // `--json`.
        "cluster" => {
            let outcomes = (args.cluster_policies.iter())
                .map(|&policy| run_cluster_policy(args, policy))
                .collect::<Result<Vec<_>, _>>()?;
            match (&outcomes[..], json) {
                ([outcome], _) => {
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
                (_, true) => print_rows(out, outcomes.iter().map(serde_json::to_value).collect())?,
                (_, false) => cluster_table(out, &outcomes)?,
            }
        }
        "events" => {
            // The event id and kind are checked before the stream is read.
            let cause = args.text("--cause").map(EventId::parse);
            let cause = cause.transpose().map_err(CliError::Message)?;
            let kind = args.text("--kind").map(EventKind::parse);
            let kind = kind.transpose().map_err(CliError::Message)?;
            let path = &args.operands[0];
            let events = match events_from_jsonl(&read_text_input(path)?) {
                Ok(events) => events,
                Err(e) => return fail(format!("{path}: {e}")),
            };
            if let Some(id) = cause {
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
            let threshold = args
                .given("--threshold")
                .and_then(|g| g.float)
                .unwrap_or(0.0);
            let overrides: Vec<(&str, f64)> = args
                .values
                .iter()
                .filter(|given| given.flag == "--threshold-for")
                .filter_map(|given| Some((given.text.split_once('=')?.0, given.float?)))
                .collect();
            let mut failures = 0usize;
            for row in &rows {
                // The first override naming the metric beats `--threshold`.
                let named = overrides.iter().find(|(metric, _)| *metric == row.metric);
                let tolerance = named.map_or(threshold, |&(_, tolerance)| tolerance);
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
        other => return fail(format!("unknown command `{other}`")),
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// A command-line token: a subcommand or flag name, a value of some
    /// shape or none, or printable junk.
    fn token() -> impl Strategy<Value = String> {
        let mut words: Vec<String> = COMMANDS.iter().map(|c| c.to_string()).collect();
        words.extend(FLAGS.iter().map(|f| f.0.to_string()));
        #[rustfmt::skip]
        words.extend([
            "-", "--", "--bogus", "", "7", "0", "-1", "0.05", "1e9", "NaN", "inf",
            "18446744073709551616", "kv=0.5", "kv=x", "=", "vlc+cpu-bomb", "trace:t.jsonl",
        ].map(String::from));
        let junk = prop::collection::vec(32u8..127, 0..8)
            .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"));
        (0u8..4, prop::sample::select(words), junk)
            .prop_map(|(pick, word, junk)| if pick < 3 { word } else { junk })
    }

    proptest! {
        /// Random command lines drawn from the flag table's vocabulary and
        /// junk: `parse_args` never panics, an accepted line holds only
        /// flags its subcommand reads, each with its number parsed, and
        /// every rejection is a message that exits with code 2.
        #[test]
        fn parse_args_accepts_a_valid_line_and_rejects_the_rest_with_exit_2(
            line in prop::collection::vec(token(), 0..10),
        ) {
            match parse_args(&line) {
                Ok(args) => {
                    prop_assert!(COMMANDS.contains(&args.command.as_str()));
                    for given in &args.values {
                        let (_, shape, read_by) =
                            *FLAGS.iter().find(|f| f.0 == given.flag).expect("a known flag");
                        prop_assert!(read_by.split(' ').any(|c| c == args.command));
                        prop_assert_eq!(given.int.is_some(), shape == Int);
                        prop_assert_eq!(given.float.is_some(), matches!(shape, Float | Pair));
                    }
                }
                Err(error) => {
                    prop_assert!(!error.is_empty());
                    prop_assert_eq!(exit_code(Err(CliError::Usage(error))), ExitCode::from(2));
                }
            }
        }
    }

    /// Runs one command line in-process; returns the exit code (or the
    /// error message) and everything it printed.
    fn cli(line: &str) -> (Result<ExitCode, String>, String) {
        let mut stdout = Vec::new();
        let result = run(&argv(line), &mut Out(&mut stdout)).map_err(|e| match e {
            CliError::Usage(message) | CliError::Message(message) => message,
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
                    // The simulator is the source that reads every flag;
                    // a list flag names one entry, so every flag of one
                    // run is read. A named value is checked while parsing,
                    // so it names one that exists.
                    Text if *name == "--source" => Some("sim".to_string()),
                    Text if *name == "--policy" => Some("stayaway".to_string()),
                    Text if *name == "--predictor" => Some("kde".to_string()),
                    Text if *name == "--scenario" => Some("vlc+soplex".to_string()),
                    Text if *name == "--cluster-policy" => Some("none".to_string()),
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
                Err(message) => message,
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
        // `events` reads one recorded stream: a file, or `-` for stdin.
        assert_eq!(parse_args(&argv("events -")).unwrap().operands, ["-"]);
        assert_eq!(
            error_of("events"),
            "`events` takes exactly 1 operand, got 0"
        );
        assert!(error_of("events a.jsonl b.jsonl").ends_with("got 2: a.jsonl b.jsonl"));
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
            "events ev.jsonl --kind migrate --host 2 --tick-from 10 --tick-to 20 --cause 2:17",
        ))
        .unwrap();
        assert_eq!(a.operands, ["ev.jsonl"]);
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
        // No --cells on the command line: the fleet defaults to 8.
        assert_eq!(a.int("--cells"), None);
        assert_eq!(a.workers(), 1);
        assert!(!a.switch("--share-templates"));
        assert_eq!(a.text("--predictor"), None);
        assert_eq!((a.ticks(), a.seed()), (384, 7));
    }

    #[test]
    fn parses_predictor_and_tournament_flags() {
        // A tournament is a fleet over a predictor list: two or more planes
        // are ranked, and the source list names the workload scenarios.
        let a = parse_args(&argv(
            "fleet --predictor kde,xapp --source workload:cpu-bomb,workload:flash-crowd \
             --cells 8 --workers 4 --json",
        ))
        .unwrap();
        assert_eq!(a.command, "fleet");
        assert_eq!(a.text("--predictor"), Some("kde,xapp"));
        assert_eq!(a.sources.len(), 2);
        assert_eq!(a.int("--cells"), Some(8));
        assert!(a.switch("--json"));
        // There is no `tournament` command and no `--resamples` flag.
        assert!(matches!(
            parse_args(&argv("tournament --cells 2")),
            Err(m) if m == "unknown command `tournament`"
        ));
        assert!(matches!(
            parse_args(&argv("fleet --resamples 250")),
            Err(m) if m == "unknown flag `--resamples`"
        ));
        // A single --predictor flows into the controller configuration.
        let a = parse_args(&argv("run --predictor last-tick")).unwrap();
        assert_eq!(a.controller_config().predictor, PredictorKind::LastTick);
        assert!(parse_args(&argv("run --predictor")).is_err());
        // A predictor that does not exist is a refused command line, like
        // a policy that does not.
        assert!(matches!(
            parse_args(&argv("run --predictor warp-core")),
            Err(m) if m.contains("unknown predictor 'warp-core'")
        ));
        // One host runs one plane: a list is for `fleet`.
        assert!(matches!(
            parse_args(&argv("run --predictor kde,xapp")),
            Err(m) if m == "`run` runs one predictor"
        ));
        let a = parse_args(&argv("fleet --predictor kde,xapp")).unwrap();
        assert_eq!(a.predictors, [PredictorKind::Kde, PredictorKind::XApp]);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse_args(&argv("run --bogus 1")).is_err());
        assert!(parse_args(&argv("run --ticks abc")).is_err());
        assert!(parse_args(&argv("run --ticks -3")).is_err());
        assert!(parse_args(&argv("run --scenario")).is_err());
        assert!(parse_args(&argv("run --scenario warp-core")).is_err());
        assert!(parse_args(&argv("fleet --scenario nope+soplex")).is_err());
        assert!(parse_args(&argv("fleet --predictor warp-core")).is_err());
        assert!(parse_args(&argv("fleet --cells abc")).is_err());
        assert!(parse_args(&argv("fleet --workers")).is_err());
        assert!(parse_args(&argv("run --record-out")).is_err());
        assert!(parse_args(&argv("metrics-diff a b --threshold lots")).is_err());
        for tolerance in ["nan", "NaN", "inf", "-inf", "-1", "-1e-9"] {
            for flag in ["--threshold ", "--threshold-for x_total="] {
                let line = format!("metrics-diff a b {flag}{tolerance}");
                assert!(parse_args(&argv(&line)).is_err(), "{line}");
            }
        }
        assert!(parse_args(&argv("metrics-diff a b --threshold 0 --threshold-for m=0")).is_ok());
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
        assert_eq!(a.cluster_policies, [ClusterPolicySpec::LeastLoaded]);
        assert_eq!(a.int("--epochs"), Some(12));
        assert_eq!(a.int("--epoch-ticks"), Some(4));
        assert_eq!(a.workers(), 4);
        assert!(a.switch("--no-migration"));
        assert!(a.switch("--json"));
        // A comparison is a list of cluster policies, in the order given.
        let a = parse_args(&argv("cluster --cluster-policy none,score")).unwrap();
        let compared = [ClusterPolicySpec::NoPlacement, ClusterPolicySpec::Score];
        assert_eq!(a.cluster_policies, compared);
        assert_eq!(error_of("cluster --compare"), "unknown flag `--compare`");
        // Defaults when nothing is given: the library's standard shape.
        let a = parse_args(&argv("cluster")).unwrap();
        assert_eq!(a.text("--cluster-scenario"), None);
        assert_eq!(a.cluster_policies, [ClusterPolicySpec::Score]);
        assert_eq!(a.int("--epochs"), None);
        assert!(!a.switch("--no-migration"));
        assert!(parse_args(&argv("cluster --epochs abc")).is_err());
        assert!(parse_args(&argv("cluster --cluster-policy")).is_err());
        assert!(parse_args(&argv("cluster --cluster-policy score,bogus")).is_err());
    }

    #[test]
    fn cluster_command_runs_through_the_cli_path() {
        // The same builder the `cluster` command uses, at smoke size.
        let args = parse_args(&argv("cluster --epochs 4 --epoch-ticks 2 --seed 3")).unwrap();
        let out = run_cluster_policy(&args, ClusterPolicySpec::Score).unwrap();
        assert_eq!(out.scenario, "hotspot");
        assert_eq!(out.cluster_policy, "score");
        assert_eq!(out.host_policy, "stay-away");
        assert_eq!(out.epochs, 4);
        assert_eq!(out.per_host.len(), 3);
        assert_eq!(out.per_job.len(), 4);
        assert!(out.events.is_none(), "no flag asked for events");
        // --no-migration and the host-policy override flow through too.
        let args = parse_args(&argv(
            "cluster --epochs 4 --epoch-ticks 2 --seed 3 --no-migration --policy reactive",
        ))
        .unwrap();
        let out = run_cluster_policy(&args, ClusterPolicySpec::NoPlacement).unwrap();
        assert!(!out.migration);
        assert_eq!(out.migrations, 0);
        assert_eq!(out.host_policy, "reactive");
        let args = parse_args(&argv("cluster --cluster-scenario warp-core")).unwrap();
        assert!(run_cluster_policy(&args, ClusterPolicySpec::Score).is_err());
    }

    #[test]
    fn parses_source_and_trace_flags() {
        let a = parse_args(&argv("run --source trace:/tmp/t.jsonl --policy reactive")).unwrap();
        assert_eq!(a.text("--source"), Some("trace:/tmp/t.jsonl"));
        assert_eq!(a.policies, [PolicySpec::Reactive]);
        let a = parse_args(&argv(
            "run --record-out t.jsonl --template tpl.json --template-out out.json",
        ))
        .unwrap();
        assert_eq!(a.text("--record-out"), Some("t.jsonl"));
        assert_eq!(a.text("--template"), Some("tpl.json"));
        assert_eq!(a.text("--template-out"), Some("out.json"));
        // The extras are one run's alone; the retired spellings are gone.
        assert!(parse_args(&argv("run --policy null,stayaway --record-out t.jsonl")).is_err());
        assert_eq!(error_of("run --trace t.jsonl"), "unknown flag `--trace`");
        assert_eq!(error_of("run --out t.jsonl"), "unknown flag `--out`");
        assert_eq!(error_of("replay"), "unknown command `replay`");
    }

    #[test]
    fn the_source_decides_whether_scenario_and_seed_are_read() {
        for line in [
            "run --scenario web-mem+soplex --seed 3",
            "run --source workload:cpu-bomb --seed 3",
            "run --source sim --scenario vlc+soplex --seed 3",
            // A list reads a flag when any of its sources reads it.
            "run --source sim,workload:cpu-bomb --seed 3",
            "run --source trace:t.jsonl,sim --scenario vlc+soplex",
            "fleet --source trace:t.jsonl --seed 3",
            "fleet --source trace:t.jsonl,sim --scenario vlc+soplex",
        ] {
            assert!(parse_args(&argv(line)).is_ok(), "{line}");
        }
        for (line, error) in [
            (
                "run --source trace:t.jsonl --seed 3",
                "--seed is not read by `run --source trace:`",
            ),
            // Rejected for the flag, before its value is parsed.
            (
                "run --source trace:t.jsonl --scenario bogus",
                "--scenario is not read by `run --source trace:`",
            ),
            (
                "run --source procfs --policy null,stayaway --seed 3",
                "--seed is not read by `run --source procfs`",
            ),
            (
                "run --source trace:a.jsonl,trace:b.jsonl --seed 3",
                "--seed is not read by `run --source trace:`",
            ),
            (
                "run --source workload:cpu-bomb --scenario vlc",
                "--scenario is not read by `run --source workload:`",
            ),
            // A fleet names every source kind in its list, and a kind once
            // per run of equal kinds.
            (
                "fleet --source trace:t.jsonl,workload:cpu-bomb --scenario vlc+soplex",
                "--scenario is not read by `fleet --source trace:,workload:`",
            ),
            (
                "fleet --source procfs,trace:a,trace:b --scenario vlc+soplex",
                "--scenario is not read by `fleet --source procfs,trace:`",
            ),
        ] {
            assert_eq!(error_of(line), error);
        }
        // The kind comes from the parsed source, not the raw token.
        let padded = ["run", "--source", " trace:t.jsonl", "--seed", "3"].map(String::from);
        assert!(matches!(
            parse_args(&padded),
            Err(m) if m == "--seed is not read by `run --source trace:`"
        ));
    }

    /// A list run's `scenario:` header names the seed only for a source
    /// that reads one.
    #[test]
    fn compare_prints_a_seed_only_when_its_source_reads_one() {
        let trace = scratch("compare.jsonl");
        stdout_of(&format!("run --ticks 10 --record-out {trace}"));
        let header = |line: &str| stdout_of(line).lines().next().unwrap_or("").to_string();
        assert_eq!(
            header(&format!(
                "run --source trace:{trace} --policy null,stayaway --ticks 10"
            )),
            format!("scenario: trace:{trace} (10 ticks, source trace)")
        );
        assert_eq!(
            header("run --source workload:cpu-bomb --policy null,stayaway --ticks 4 --seed 3"),
            "scenario: workload:cpu-bomb (4 ticks, seed 3, source workload)"
        );
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn template_flags_need_a_policy_that_learns_templates() {
        let (template, trace) = (scratch("learned.json"), scratch("never-written.jsonl"));
        let stdout = stdout_of(&format!("run --ticks 20 --template-out {template}"));
        assert!(
            stdout.ends_with(&format!("written to {template}\n")),
            "{stdout}"
        );
        // Refused before the run, and before the trace file is created.
        for line in [
            format!("run --policy reactive --template-out x.json --record-out {trace}"),
            format!("run --policy null --template {template} --record-out {trace}"),
        ] {
            assert_eq!(
                error_of(&line),
                "the selected policy does not learn templates"
            );
            assert!(
                !std::path::Path::new(&trace).exists(),
                "`{line}` created its trace"
            );
        }
        let _ = std::fs::remove_file(template);
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
            let policy = PolicySpec::parse(token).unwrap();
            let scenario = Scenario::vlc_with_soplex(1);
            let mut out = Out(&mut Vec::new());
            let (outcome, obs, server) =
                single_host(&args, &mut out, &args.sources[0], &scenario, &policy).unwrap();
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
        for command in ["run", "fleet"] {
            let a = parse_args(&argv(command)).unwrap();
            assert_eq!(a.text("--policy"), None);
            assert_eq!(a.policies, [PolicySpec::StayAway]);
            assert_eq!(a.sources, [SourceSpec::Sim]);
        }
        // A list is run in the order given.
        let a = parse_args(&argv("run --policy null,always,reactive,static,stayaway")).unwrap();
        assert_eq!(
            a.policies,
            [
                PolicySpec::Null,
                PolicySpec::AlwaysThrottle,
                PolicySpec::Reactive,
                PolicySpec::StaticThreshold,
                PolicySpec::StayAway,
            ]
        );
        // `cluster --policy` is the one host policy; the list is
        // `--cluster-policy`.
        let a = parse_args(&argv("cluster --policy reactive")).unwrap();
        assert_eq!(a.policies, []);
        assert_eq!(a.cluster_policies, [ClusterPolicySpec::Score]);
    }

    /// The flags of one run are read only when the lists name one run:
    /// a `run` or `cluster` list rejects each of them, counting its runs,
    /// and a fleet, which is one run of many cells, reads them under any
    /// list. `--http-linger` is read only with `--http`.
    #[test]
    fn the_flags_of_one_run_need_one_run() {
        let read_by = |flag: &str| FLAGS.iter().find(|f| f.0 == flag).expect("a flag").2;
        for flag in ONE_RUN {
            for (lists, runs) in [
                ("run --policy null,stayaway", 2),
                ("run --source sim,sim", 2),
                ("run --source sim,procfs --policy null,always,stayaway", 6),
                ("cluster --cluster-policy score,none", 2),
            ] {
                let command = &lists[..lists.find(' ').unwrap()];
                if read_by(flag).contains(command) {
                    let error = error_of(&format!("{lists} {flag} 3"));
                    assert_eq!(
                        error,
                        format!("{flag} is not read by `{command}` over {runs} runs")
                    );
                }
            }
            let http = "--http 127.0.0.1:0";
            assert!(parse_args(&argv(&format!("run --policy null {http} {flag} 3"))).is_ok());
            let fleet = format!("fleet --policy null,stayaway --source sim,sim {http} {flag} 3");
            let fleet_reads = read_by(flag).contains("fleet");
            assert_eq!(parse_args(&argv(&fleet)).is_ok(), fleet_reads, "{fleet}");
        }
        for command in ["run", "fleet", "cluster"] {
            assert_eq!(
                error_of(&format!("{command} --http-linger 3")),
                "--http-linger is not read without --http"
            );
        }
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
