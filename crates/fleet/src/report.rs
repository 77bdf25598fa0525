//! Human-readable reports of the multi-host outcomes — what `stayaway
//! fleet` and `cluster` print without `--json`.

use crate::aggregate::FleetOutcome;
use crate::cluster::ClusterOutcome;

/// Prediction accuracy for humans: a percentage, or "n/a" before any
/// prediction has been checked (never a made-up 100%).
pub fn format_accuracy(accuracy: Option<f64>) -> String {
    match accuracy {
        Some(a) => format!("{:.1}%", 100.0 * a),
        None => "n/a".to_string(),
    }
}

impl FleetOutcome {
    /// The human-readable fleet summary `stayaway fleet` prints.
    pub fn render(&self) -> String {
        let mut text = String::new();
        text.push_str(&format!(
            "fleet: {} cells x {} ticks, seed {}, template sharing {}\n",
            self.cells,
            self.ticks_per_cell,
            self.fleet_seed,
            if self.share_templates { "on" } else { "off" },
        ));
        text.push_str(&format!(
            "qos: {} violations / {} active ticks ({:.1}% satisfaction), worst {:.3}\n",
            self.qos.violations,
            self.qos.active_ticks,
            100.0 * self.satisfaction(),
            self.qos.worst,
        ));
        text.push_str(&format!(
            "utilization: mean {:.1}%, gained from batch {:.1}%, total batch work {:.0}\n",
            100.0 * self.mean_utilization,
            100.0 * self.mean_gained_utilization,
            self.total_batch_work,
        ));
        text.push_str(&format!(
            "control: {} throttles, {} resumes, prediction accuracy {}, {} samples rejected, {} log events dropped\n",
            self.throttles,
            self.resumes,
            format_accuracy(self.prediction_accuracy()),
            self.samples_rejected,
            self.events_dropped,
        ));
        text.push_str(&format!(
            "templates: {} cells imported, {} proactive first throttles\n",
            self.cells_imported, self.proactive_first_throttles,
        ));
        if self.per_policy.len() > 1 {
            for r in &self.per_policy {
                text.push_str(&format!(
                    "  {:<16} {} cells  satisfaction {:>5.1}%  gained util {:>5.1}%  {} throttles / {} resumes  {} log events dropped\n",
                    r.policy,
                    r.cells,
                    100.0 * r.satisfaction(),
                    100.0 * r.mean_gained_utilization,
                    r.throttles,
                    r.resumes,
                    r.events_dropped,
                ));
            }
        }
        if self.per_predictor.is_empty() {
            return text;
        }
        text.push_str(&format!(
            "{:<5} {:<10} {:>5} {:>24} {:>22} {:>10} {:>8} {:>8}\n",
            "rank",
            "predictor",
            "cells",
            "satisfaction [95% ci]",
            "slo-viol [95% ci]",
            "batch",
            "accuracy",
            "rejected",
        ));
        for s in &self.per_predictor {
            text.push_str(&format!(
                "{:<5} {:<10} {:>5} {:>7.1}% [{:>4.1}, {:>5.1}] {:>6.2}% [{:>4.2}, {:>5.2}] {:>10.0} {:>8} {:>8}\n",
                s.rank,
                s.predictor,
                s.cells,
                100.0 * s.satisfaction.mean,
                100.0 * s.satisfaction.lo,
                100.0 * s.satisfaction.hi,
                100.0 * s.slo_violation_rate.mean,
                100.0 * s.slo_violation_rate.lo,
                100.0 * s.slo_violation_rate.hi,
                s.batch_work.mean,
                format_accuracy(s.prediction_accuracy),
                s.samples_rejected,
            ));
        }
        text.push_str("per-scenario satisfaction:\n");
        for s in &self.per_predictor {
            let row: Vec<String> = s
                .per_scenario
                .iter()
                .map(|sc| format!("{} {:>5.1}%", sc.scenario, 100.0 * sc.satisfaction))
                .collect();
            text.push_str(&format!("  {:<10} {}\n", s.predictor, row.join("  ")));
        }
        text
    }
}

impl ClusterOutcome {
    /// The human-readable cluster summary `stayaway cluster` prints.
    pub fn render(&self) -> String {
        let mut text = String::new();
        text.push_str(&format!(
            "cluster: {} ({} hosts, {} jobs), {} epochs x {} ticks, seed {}\n",
            self.scenario,
            self.per_host.len(),
            self.per_job.len(),
            self.epochs,
            self.ticks_per_epoch,
            self.seed,
        ));
        text.push_str(&format!(
            "placement: {} above per-host {}, migration {}\n",
            self.cluster_policy,
            self.host_policy,
            if self.migration { "on" } else { "off" },
        ));
        text.push_str(&format!(
            "qos: {} violations / {} active ticks ({:.1}% satisfaction), pooled slo-violation {:.2}%\n",
            self.qos.violations,
            self.qos.active_ticks,
            100.0 * self.satisfaction(),
            100.0 * self.slo_violation_rate,
        ));
        text.push_str(&format!(
            "utilization: mean {:.1}%, gained from batch {:.1}%, total batch work {:.0}\n",
            100.0 * self.mean_utilization,
            100.0 * self.mean_gained_utilization,
            self.total_batch_work,
        ));
        text.push_str(&format!(
            "scheduling: {} admissions, {} migrations, {} deferrals, {} queue actions \
             (max depth {}, mean {:.2}), {} invalid, {} jobs unfinished\n",
            self.admissions,
            self.migrations,
            self.deferrals,
            self.queue_actions,
            self.max_queue_depth,
            self.mean_queue_depth,
            self.invalid_actions,
            self.jobs_unfinished,
        ));
        text.push_str(&format!(
            "control: {} throttles, {} resumes, prediction accuracy {}, {} samples rejected, {} log events dropped\n",
            self.throttles,
            self.resumes,
            format_accuracy(self.prediction_accuracy()),
            self.samples_rejected,
            self.events_dropped,
        ));
        for h in &self.per_host {
            text.push_str(&format!(
                "  host {:<12} satisfaction {:>5.1}%  slo-viol {:>5.2}%  batch work {:>6.0}  \
                 {} throttles  jobs {:?}\n",
                h.name,
                100.0 * h.qos.satisfaction(),
                100.0 * h.slo_violation_rate,
                h.batch_work,
                h.throttles,
                h.jobs_hosted,
            ));
        }
        for j in &self.per_job {
            text.push_str(&format!(
                "  job  {:<14} {:>6} requests  hosts {:?}  {} migrations  {} queued epochs{}\n",
                j.name,
                j.generated,
                j.placements,
                j.migrations,
                j.queued_epochs,
                if j.departed { "  (departed)" } else { "" },
            ));
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{cluster_by_name, Cluster, ClusterConfig};
    use crate::config::FleetConfig;
    use crate::runner::Fleet;
    use crate::source::SourceSpec;

    #[test]
    fn accuracy_is_never_made_up() {
        assert_eq!(format_accuracy(None), "n/a");
        assert_eq!(format_accuracy(Some(0.875)), "87.5%");
    }

    #[test]
    fn fleet_report_and_state_carry_the_headline_figures() {
        let mut config = FleetConfig::new(2, 1, 7);
        config.ticks = 40;
        let outcome = Fleet::new(config).unwrap().run().unwrap();
        let text = outcome.render();
        assert!(text.starts_with("fleet: 2 cells x 40 ticks, seed 7, template sharing off\n"));
        assert!(text.contains(&format!("control: {} throttles", outcome.throttles)));
        // One policy, one predictor: no per-policy or per-predictor rows.
        assert_eq!(text.lines().count(), 5);
        let state = outcome.state_json();
        assert_eq!(state.get("plane").and_then(|v| v.as_str()), Some("fleet"));
        assert_eq!(state.get("cells").and_then(|v| v.as_u64()), Some(2));
    }

    #[test]
    fn cluster_report_and_state_carry_the_headline_figures() {
        let mut config = ClusterConfig::new(cluster_by_name("hotspot").unwrap(), 7);
        config.epochs = 6;
        config.ticks_per_epoch = 4;
        let outcome = Cluster::new(config).unwrap().run().unwrap();
        let text = outcome.render();
        assert!(
            text.starts_with("cluster: hotspot (3 hosts, 4 jobs), 6 epochs x 4 ticks, seed 7\n")
        );
        assert_eq!(text.matches("\n  host ").count(), 3);
        assert_eq!(text.matches("\n  job  ").count(), 4);
        let state = outcome.state_json();
        assert_eq!(state.get("plane").and_then(|v| v.as_str()), Some("cluster"));
        assert_eq!(
            state.get("admissions").and_then(|v| v.as_u64()),
            Some(outcome.admissions)
        );
    }

    #[test]
    fn a_fleet_of_several_predictors_ranks_each_once() {
        let mut config = FleetConfig::new(4, 1, 7);
        config.ticks = 32;
        config.sources = SourceSpec::parse_list("workload:cpu-bomb").unwrap();
        config.predictors = crate::predictor::parse_list("kde,xapp,denoise,last-tick").unwrap();
        let outcome = Fleet::new(config).unwrap().run().unwrap();
        let text = outcome.render();
        assert!(text.contains("\nrank  predictor"));
        assert_eq!(outcome.per_predictor.len(), 4);
        for standing in &outcome.per_predictor {
            // Once in the ranked table, once in the per-scenario rows.
            assert_eq!(
                text.matches(&format!(" {:<10} ", standing.predictor))
                    .count(),
                2
            );
        }
        // The ranking reads no clock.
        assert!(!text.contains("µs"));
    }
}
