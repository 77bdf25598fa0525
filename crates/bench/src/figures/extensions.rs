//! Features the paper describes but does not evaluate: sensitive
//! applications with priorities (§2.1) and templates shared across a fleet
//! of hosts (§6).

use super::{paired_runs, PairedRuns};
use crate::report::{percent, Table};
use crate::runner::ExperimentSink;
use stayaway_fleet::{Fleet, FleetConfig, FleetOutcome};
use stayaway_sim::apps::WebWorkload;
use stayaway_sim::scenario::{Scenario, SensitiveKind};
use stayaway_sim::workload::{DiurnalParams, Trace};

/// §2.1's priorities: VLC streaming (priority 0) beside a CPU-hungry
/// webservice (priority 1).
#[derive(Debug)]
pub struct Priorities {
    /// No prevention, and Stay-Away throttling the priority-1 webservice.
    pub runs: PairedRuns,
}

/// Extension (§2.1) — "if multiple sensitive applications are co-scheduled
/// Stay-Away can choose to migrate or scale resources of the lower
/// priority sensitive application". The actuator here is throttling, so
/// the lower-priority sensitive application is demoted to the throttleable
/// set: Stay-Away protects the top-priority application at its expense.
pub fn ext_priorities() -> Priorities {
    let seed = 71;
    let diurnal = |offset| Trace::diurnal(DiurnalParams::default(), seed + offset);
    let scenario = Scenario::builder("vlc(prio0)+webservice-cpu(prio1)")
        .seed(seed)
        .sensitive(SensitiveKind::VlcStreaming { trace: diurnal(1) })
        .secondary_sensitive(
            SensitiveKind::Webservice {
                workload: WebWorkload::CpuIntensive,
                trace: diurnal(2),
            },
            1,
            20,
        )
        .build();
    Priorities {
        runs: paired_runs(&scenario, 384),
    }
}

impl Priorities {
    /// Prints the comparison and writes the JSON artifact.
    pub fn print(&self) {
        println!(
            "=== Extension: sensitive-vs-sensitive co-scheduling with priorities (§2.1) ===\n"
        );
        let (base, guarded) = (&self.runs.baseline, &self.runs.stayaway.outcome);
        let mut table = Table::new(&[
            "policy",
            "vlc violations (prio 0)",
            "vlc satisfaction",
            "webservice throttled ticks",
        ]);
        table.row(&[
            "no-prevention".into(),
            base.qos.violations.to_string(),
            percent(base.qos.satisfaction()),
            "0".into(),
        ]);
        // The timeline counts batch containers only; the demoted webservice
        // is a sensitive one, so its throttling shows as action ticks.
        let action_ticks = guarded.timeline.iter().filter(|r| r.actions > 0).count();
        table.row(&[
            "stay-away".into(),
            guarded.qos.violations.to_string(),
            percent(guarded.qos.satisfaction()),
            format!("{action_ticks} action ticks"),
        ]);
        println!("{}", table.render());
        let stats = self.runs.stayaway.stats();
        println!(
            "controller: {} throttles / {} resumes against the lower-priority \
             sensitive application; rejected actions: {} (the host never lets \
             the top-priority application be paused)",
            stats.throttles, stats.resumes, guarded.rejected_actions
        );
        println!(
            "the §2.1 constraint generalises: \"batch\" in the mechanism means \
             \"throttleable\", and priorities decide who is throttleable."
        );
        ExperimentSink::new("ext_priorities").write(&serde_json::json!({
            "baseline_violations": base.qos.violations,
            "stayaway_violations": guarded.qos.violations,
            "baseline_satisfaction": base.qos.satisfaction(),
            "stayaway_satisfaction": guarded.qos.satisfaction(),
            "throttles": stats.throttles,
            "rejected_actions": guarded.rejected_actions,
        }));
    }
}

/// §6's templates shared across hosts: a 64-cell fleet with and without
/// the cross-host template registry.
#[derive(Debug)]
pub struct TemplateSharing {
    /// Per horizon (ticks per cell): the fleet without sharing (cold) and
    /// with it (warm).
    pub horizons: Vec<(u64, FleetOutcome, FleetOutcome)>,
}

/// Extension (§6, fleet-wide) — follower cells that import a pioneer's
/// template throttle proactively on first contact instead of relearning
/// the violation region. The benefit lives in the startup window, so a
/// short horizon is reported beside the full one: over long runs the
/// locally relearned models catch up.
pub fn ext_template_sharing() -> TemplateSharing {
    let fleet = |ticks, share| {
        // The worker count moves wall-clock time only, never a result bit.
        let mut config = FleetConfig::new(64, 4, 7);
        config.ticks = ticks;
        config.share_templates = share;
        Fleet::new(config).expect("fleet").run().expect("run")
    };
    let horizons = [48, 96].map(|ticks| (ticks, fleet(ticks, false), fleet(ticks, true)));
    TemplateSharing {
        horizons: horizons.into(),
    }
}

impl TemplateSharing {
    /// Prints the QoS delta at each horizon.
    pub fn print(&self) {
        println!("=== Extension: templates shared across a 64-cell fleet (§6) ===");
        for (ticks, cold, warm) in &self.horizons {
            println!("\n== template sharing QoS delta (64 cells x {ticks} ticks) ==");
            println!(
                "  cold: {} violations / {} active ticks ({:.2}% satisfaction), 0 imports",
                cold.qos.violations,
                cold.qos.active_ticks,
                100.0 * cold.satisfaction()
            );
            println!(
                "  warm: {} violations / {} active ticks ({:.2}% satisfaction), \
                 {} imports, {} proactive first throttles",
                warm.qos.violations,
                warm.qos.active_ticks,
                100.0 * warm.satisfaction(),
                warm.cells_imported,
                warm.proactive_first_throttles
            );
            println!(
                "  delta: {:+} violations, {:+.2} pp satisfaction",
                warm.qos.violations as i64 - cold.qos.violations as i64,
                100.0 * (warm.satisfaction() - cold.satisfaction())
            );
        }
    }
}
