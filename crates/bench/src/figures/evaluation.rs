//! The §7 evaluation: QoS with and without Stay-Away (Figures 8, 9 and
//! 14–16), the utilisation it gains (Figures 10–12 and Table 1) and the
//! execution timelines of Figure 13.

use super::{paired_runs, PairedRuns};
use crate::report::{ascii_chart, percent, sparkline, Table};
use crate::runner::{outcome_json, run, stayaway, ExperimentSink};
use stayaway_core::ControllerConfig;
use stayaway_sim::apps::WebWorkload;
use stayaway_sim::qos::QOS_THRESHOLD;
use stayaway_sim::scenario::{BatchKind, Scenario};
use stayaway_sim::{QosSummary, RunOutcome};

/// Horizon of the webservice experiments (Figures 12, 14–16, Table 1).
const WEB_TICKS: u64 = 300;

/// The three webservice workload types, in the order the tables list them.
const WORKLOADS: [WebWorkload; 3] = [
    WebWorkload::CpuIntensive,
    WebWorkload::MemIntensive,
    WebWorkload::Mix,
];

/// A normalised-QoS timeline with and without Stay-Away: Figures 8 and 9,
/// and each panel of Figures 14–16.
#[derive(Debug)]
pub struct QosTimeline {
    id: String,
    title: String,
    /// The QoS value a tick violates below.
    pub threshold: f64,
    /// The two runs.
    pub runs: PairedRuns,
}

impl QosTimeline {
    fn measure(id: &str, title: &str, scenario: &Scenario, ticks: u64) -> Self {
        QosTimeline {
            id: id.to_string(),
            title: title.to_string(),
            threshold: QOS_THRESHOLD,
            runs: paired_runs(scenario, ticks),
        }
    }

    /// Prints both timelines and writes `<id>.json`.
    pub fn print(&self) {
        println!("=== {} ===\n", self.title);
        let (base, sa) = (&self.runs.baseline, &self.runs.stayaway.outcome);
        let base_series: Vec<f64> = base.timeline.iter().map(|r| r.qos_value).collect();
        let sa_series: Vec<f64> = sa.timeline.iter().map(|r| r.qos_value).collect();
        let threshold = self.threshold;
        println!("normalised QoS without Stay-Away (threshold {threshold}):");
        println!("{}", ascii_chart(&base_series, 80, 8));
        println!("normalised QoS with Stay-Away:");
        println!("{}", ascii_chart(&sa_series, 80, 8));
        let summary = |label: &str, q: &QosSummary| {
            println!(
                "{label} {:>4} violations / {} active ticks (satisfaction {:.1}%, worst {:.3})",
                q.violations,
                q.active_ticks,
                100.0 * q.satisfaction(),
                q.worst
            );
        };
        summary("without:", &base.qos);
        summary("with:   ", &sa.qos);
        let early = sa.timeline.iter().filter(|r| r.violated && r.tick < 96);
        println!(
            "Stay-Away violations in the first day (learning phase): {} of {}",
            early.count(),
            sa.qos.violations
        );
        let cap = self.runs.cpu_cores;
        ExperimentSink::new(&self.id).write(&serde_json::json!({
            "threshold": threshold,
            "baseline": outcome_json(base, cap),
            "stayaway": outcome_json(sa, cap),
            "baseline_qos": base_series,
            "stayaway_qos": sa_series,
        }));
    }
}

/// Figure 8 — VLC streaming beside CPUBomb over four simulated days:
/// numerous violations without prevention; with Stay-Away most are
/// confined to the learning phase, with occasional later spikes from
/// instantaneous CPU transitions.
pub fn fig08_vlc_cpubomb_qos() -> QosTimeline {
    QosTimeline::measure(
        "fig08_vlc_cpubomb_qos",
        "Figure 8: VLC streaming + CPUBomb — QoS with/without Stay-Away",
        &Scenario::vlc_with_cpubomb(8),
        384,
    )
}

/// Figure 9 — VLC streaming beside Twitter-Analysis: intermittent
/// violations without prevention (Twitter contends only in some phases);
/// with Stay-Away a high level of QoS, most violations early.
pub fn fig09_vlc_twitter_qos() -> QosTimeline {
    QosTimeline::measure(
        "fig09_vlc_twitter_qos",
        "Figure 9: VLC streaming + Twitter-Analysis — QoS with/without Stay-Away",
        &Scenario::vlc_with_twitter(9),
        384,
    )
}

/// One QoS timeline per batch application beside the webservice under one
/// workload type (Figures 14–16).
#[derive(Debug)]
pub struct QosSweep {
    /// The timelines, in [`BatchKind::ALL`] order.
    pub timelines: Vec<(BatchKind, QosTimeline)>,
}

impl QosSweep {
    /// Prints every timeline, each followed by a blank line.
    pub fn print(&self) {
        for (_, timeline) in &self.timelines {
            timeline.print();
            println!();
        }
    }
}

/// Figure `figure`'s sweep, seeded with the figure's number.
fn web_qos(figure: u8, workload: WebWorkload) -> QosSweep {
    let timelines = BatchKind::ALL.map(|batch| {
        let timeline = QosTimeline::measure(
            &format!("fig{figure}_qos_web_{workload}_{batch}"),
            &format!(
                "Figure {figure}: Webservice ({workload}) + {batch} — QoS with/without Stay-Away"
            ),
            &Scenario::webservice_with(workload, batch, u64::from(figure)),
            WEB_TICKS,
        );
        (batch, timeline)
    });
    QosSweep {
        timelines: timelines.into(),
    }
}

/// Figure 14 — the webservice under a mixed CPU + memory workload beside
/// each batch application, with and without Stay-Away.
pub fn fig14_qos_web_mix() -> QosSweep {
    web_qos(14, WebWorkload::Mix)
}

/// Figure 15 — the same under a CPU-intensive workload.
pub fn fig15_qos_web_cpu() -> QosSweep {
    web_qos(15, WebWorkload::CpuIntensive)
}

/// Figure 16 — the same under a memory-intensive workload.
pub fn fig16_qos_web_mem() -> QosSweep {
    web_qos(16, WebWorkload::MemIntensive)
}

/// A gained-utilisation comparison: the upper band without prevention,
/// the lower one under Stay-Away (Figures 10 and 11).
#[derive(Debug)]
pub struct GainedUtilization {
    id: &'static str,
    title: &'static str,
    /// The two runs.
    pub runs: PairedRuns,
}

impl GainedUtilization {
    /// Prints both bands and writes `<id>.json`.
    pub fn print(&self) {
        println!("=== {} ===\n", self.title);
        let (base, sa) = (&self.runs.baseline, &self.runs.stayaway.outcome);
        let cap = self.runs.cpu_cores;
        let upper = base.gained_utilization_series(cap);
        let lower = sa.gained_utilization_series(cap);
        println!("gained utilisation (fraction of machine) — upper band, no prevention:");
        println!("{}", ascii_chart(&upper, 80, 6));
        println!("gained utilisation — lower band, Stay-Away:");
        println!("{}", ascii_chart(&lower, 80, 6));
        println!("sparklines   upper {}", sparkline(&upper));
        println!("             lower {}", sparkline(&lower));
        let (mean_upper, mean_lower) = self.runs.gains();
        println!(
            "\nmean gained utilisation: {:.1}% without prevention, {:.1}% with Stay-Away",
            100.0 * mean_upper,
            100.0 * mean_lower
        );
        if mean_upper > 0.0 {
            println!(
                "fraction of the possible gain retained by Stay-Away: {:.0}%",
                100.0 * mean_lower / mean_upper
            );
        }
        println!(
            "QoS violations:          {} without, {} with",
            base.qos.violations, sa.qos.violations
        );
        ExperimentSink::new(self.id).write(&serde_json::json!({
            "upper_band": upper,
            "lower_band": lower,
            "mean_upper": mean_upper,
            "mean_lower": mean_lower,
            "baseline": outcome_json(base, cap),
            "stayaway": outcome_json(sa, cap),
        }));
    }
}

/// Figure 10 — VLC streaming beside CPUBomb: the upper band is large but
/// worthless (QoS destroyed); with Stay-Away the gain collapses to a spiky
/// ~5 %, since CPUBomb contends constantly and has no phases — it is
/// almost always throttled and only optimistic probes run it.
pub fn fig10_util_cpubomb() -> GainedUtilization {
    GainedUtilization {
        id: "fig10_util_cpubomb",
        title: "Figure 10: gained utilisation — VLC streaming + CPUBomb",
        runs: paired_runs(&Scenario::vlc_with_cpubomb(10), 384),
    }
}

/// Figure 11 — VLC streaming beside Twitter-Analysis: Stay-Away recovers
/// a large share of the upper band (~50 % average utilisation gain),
/// because Twitter needs throttling only in contended phases.
pub fn fig11_util_twitter() -> GainedUtilization {
    GainedUtilization {
        id: "fig11_util_twitter",
        title: "Figure 11: gained utilisation — VLC streaming + Twitter-Analysis",
        runs: paired_runs(&Scenario::vlc_with_twitter(11), 384),
    }
}

/// Figure 12 — gained utilisation of the webservice beside each batch
/// application, for every workload type.
#[derive(Debug)]
pub struct WebserviceGains {
    /// One paired run per workload type × batch application.
    pub rows: Vec<(WebWorkload, BatchKind, PairedRuns)>,
}

/// Figure 12 — the gain varies per batch application and workload: the
/// maximum is Twitter-Analysis × memory-intensive (throttled only in its
/// memory phases), and it is low for the CPU-intensive workload because
/// most batch applications are CPU-heavy.
pub fn fig12_util_webservice() -> WebserviceGains {
    let rows = WORKLOADS.iter().flat_map(|&workload| {
        BatchKind::ALL.map(|batch| {
            let scenario = Scenario::webservice_with(workload, batch, 12);
            (workload, batch, paired_runs(&scenario, WEB_TICKS))
        })
    });
    WebserviceGains {
        rows: rows.collect(),
    }
}

impl WebserviceGains {
    /// Prints the gain table and writes the JSON artifact.
    pub fn print(&self) {
        println!("=== Figure 12: gained utilisation — Webservice × batch applications ===\n");
        let mut table = Table::new(&[
            "batch app",
            "workload",
            "gain (no prevention)",
            "gain (stay-away)",
            "violations (none)",
            "violations (sa)",
        ]);
        let mut json_rows = Vec::new();
        for (workload, batch, runs) in &self.rows {
            let (upper, lower) = runs.gains();
            let (none, sa) = (
                runs.baseline.qos.violations,
                runs.stayaway.outcome.qos.violations,
            );
            table.row(&[
                batch.to_string(),
                workload.to_string(),
                percent(upper),
                percent(lower),
                none.to_string(),
                sa.to_string(),
            ]);
            json_rows.push(serde_json::json!({
                "batch": batch.to_string(),
                "workload": workload.to_string(),
                "gain_no_prevention": upper,
                "gain_stayaway": lower,
                "violations_no_prevention": none,
                "violations_stayaway": sa,
            }));
        }
        println!("{}", table.render());
        println!(
            "expected orderings: twitter-analysis × mem shows the largest \
             retained gain; cpu-bomb retains the least; the cpu workload column \
             is lower than mem/mix for the cpu-heavy batch applications."
        );
        ExperimentSink::new("fig12_util_webservice")
            .write(&serde_json::json!({ "rows": json_rows, "ticks": WEB_TICKS }));
    }
}

/// Figure 13 — execution timelines of the webservice beside
/// Twitter-Analysis under a scripted workload.
#[derive(Debug)]
pub struct WorkloadTimelines {
    /// The Stay-Away runs of 13a (CPU-intensive workload) and 13b (mixed,
    /// with a phase change).
    pub runs: [(WebWorkload, RunOutcome); 2],
}

/// Figure 13 — Twitter-Analysis starts at tick 10 and immediately stresses
/// the webservice, so Stay-Away throttles it; it is resumed in the
/// low-workload valley and throttled again *before* a violation when the
/// workload rises; in the mixed workload's phase-change window it runs
/// uninterrupted because the webservice has left the contended states.
pub fn fig13_timeline_webservice() -> WorkloadTimelines {
    let ticks = 120; // two passes over the 60-tick workload script
    let timeline = |workload| {
        let scenario =
            Scenario::webservice_timeline(workload, 13).expect("valid timeline scenario");
        let sa = stayaway(&scenario, ControllerConfig::default());
        (workload, run(&scenario, sa, ticks).outcome)
    };
    WorkloadTimelines {
        runs: [
            timeline(WebWorkload::CpuIntensive),
            timeline(WebWorkload::Mix),
        ],
    }
}

impl WorkloadTimelines {
    /// Prints both timelines as stress and throttle bands and writes the
    /// JSON artifact.
    pub fn print(&self) {
        println!("=== Figure 13: execution timelines under varying workload ===\n");
        let [a, b] = &self.runs;
        let (a, b) = (timeline_bands("13a", a), timeline_bands("13b", b));
        ExperimentSink::new("fig13_timeline_webservice")
            .write(&serde_json::json!({ "fig13a": a, "fig13b": b }));
    }
}

/// Prints one Figure 13 panel; returns its JSON.
fn timeline_bands(label: &str, (workload, out): &(WebWorkload, RunOutcome)) -> serde_json::Value {
    // Darker = more stress (lower QoS).
    let band = |v: f64| match v {
        v if v >= 0.98 => ' ',
        v if v >= 0.95 => '░',
        v if v >= 0.85 => '▒',
        v if v >= 0.70 => '▓',
        _ => '█',
    };
    println!("--- Figure {label}: Webservice ({workload}) + Twitter-Analysis ---");
    let stress: String = out.timeline.iter().map(|r| band(r.qos_value)).collect();
    let batch: String = out
        .timeline
        .iter()
        .map(|r| {
            if r.batch_active > 0 {
                '█' // executing (dark band in the paper)
            } else if r.batch_paused > 0 {
                '·' // throttled (light band)
            } else {
                ' ' // not scheduled yet / finished
            }
        })
        .collect();
    println!("webservice stress (darker = more stress):");
    println!("  {stress}");
    println!("twitter-analysis (█ running, · throttled):");
    println!("  {batch}");
    println!(
        "violations: {}  throttled ticks: {}  batch work: {:.0}\n",
        out.qos.violations,
        out.timeline.iter().filter(|r| r.batch_paused > 0).count(),
        out.batch_work,
    );
    serde_json::json!({
        "workload": workload.to_string(),
        "qos": out.timeline.iter().map(|r| r.qos_value).collect::<Vec<_>>(),
        "batch_active": out.timeline.iter().map(|r| r.batch_active).collect::<Vec<_>>(),
        "batch_paused": out.timeline.iter().map(|r| r.batch_paused).collect::<Vec<_>>(),
        "violations": out.qos.violations,
    })
}

/// Table 1 — the batch combinations beside the webservice under each
/// workload type.
#[derive(Debug)]
pub struct BatchCombinations {
    /// One paired run per combination (`Batch-1` / `Batch-2`) × workload
    /// type.
    pub rows: Vec<(&'static str, WebWorkload, PairedRuns)>,
}

/// Table 1 — Batch-1 = Twitter-Analysis + Soplex, Batch-2 =
/// Twitter-Analysis + MemoryBomb: QoS and utilisation with more than one
/// batch co-runner, aggregated into one logical VM (§5).
pub fn table1_batch_combinations() -> BatchCombinations {
    let combos = [
        ("Batch-1", &BatchKind::BATCH_1[..]),
        ("Batch-2", &BatchKind::BATCH_2[..]),
    ];
    let rows = combos.iter().flat_map(|&(name, combo)| {
        WORKLOADS.map(|workload| {
            let scenario = Scenario::webservice_with_combo(workload, combo, 1);
            (name, workload, paired_runs(&scenario, WEB_TICKS))
        })
    });
    BatchCombinations {
        rows: rows.collect(),
    }
}

impl BatchCombinations {
    /// Prints the combinations and the result table; writes the JSON
    /// artifact.
    pub fn print(&self) {
        println!("=== Table 1: batch application combinations ===\n");
        let mut combos = Table::new(&["workload name", "combination"]);
        combos.row(&["Batch-1".into(), "Twitter-Analysis + Soplex".into()]);
        combos.row(&["Batch-2".into(), "Twitter-Analysis + MemoryBomb".into()]);
        println!("{}", combos.render());
        let mut results = Table::new(&[
            "combo",
            "workload",
            "violations (none)",
            "violations (sa)",
            "gain (none)",
            "gain (sa)",
        ]);
        let mut json_rows = Vec::new();
        for (name, workload, runs) in &self.rows {
            let (gain_none, gain_sa) = runs.gains();
            let (none, sa) = (
                runs.baseline.qos.violations,
                runs.stayaway.outcome.qos.violations,
            );
            results.row(&[
                name.to_string(),
                workload.to_string(),
                none.to_string(),
                sa.to_string(),
                percent(gain_none),
                percent(gain_sa),
            ]);
            json_rows.push(serde_json::json!({
                "combo": name,
                "workload": workload.to_string(),
                "violations_none": none,
                "violations_sa": sa,
                "gain_none": gain_none,
                "gain_sa": gain_sa,
            }));
        }
        println!("{}", results.render());
        println!(
            "both batch applications are aggregated into one logical VM for the \
             mapping (§5) and throttled collectively by majority resource share."
        );
        ExperimentSink::new("table1_batch_combinations")
            .write(&serde_json::json!({ "rows": json_rows }));
    }
}
