//! Per-scenario, per-policy QoS reporting.
//!
//! [`bench_scenario`] closes the control loop over one scenario with one
//! policy and distils the run into a [`ScenarioQos`] row: latency
//! percentiles, SLO-violation rate, drops, cold starts, evictions and
//! batch throughput. [`BenchTable`] collects rows across the scenario ×
//! policy grid and renders the aligned text table `stayaway
//! bench-scenarios` prints — the substrate policy rankings are judged
//! against.

use crate::engine::WorkloadHost;
use crate::spec::WorkloadScenario;
use crate::WorkloadError;
use serde::{Deserialize, Serialize};
use stayaway_telemetry::{drive, Policy};

/// The QoS outcome of one scenario under one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioQos {
    /// Scenario name.
    pub scenario: String,
    /// Policy name.
    pub policy: String,
    /// Control ticks driven.
    pub ticks: u64,
    /// Requests that arrived.
    pub requests: u64,
    /// Sensitive requests completed.
    pub(crate) completed: u64,
    /// Sensitive requests dropped on queue overflow.
    pub(crate) dropped: u64,
    /// Median sensitive latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile sensitive latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile sensitive latency, milliseconds.
    pub p99_ms: f64,
    /// Mean sensitive latency, milliseconds.
    pub(crate) mean_ms: f64,
    /// Fraction of sensitive requests that missed the SLO (overruns plus
    /// drops).
    pub(crate) slo_violation_rate: f64,
    /// Fraction of active ticks meeting the tick-level QoS target.
    pub(crate) tick_satisfaction: f64,
    /// Nominal batch work completed, core-seconds.
    pub(crate) batch_work: f64,
    /// Containers cold-started.
    pub(crate) cold_starts: u64,
    /// Idle containers evicted.
    pub(crate) evictions: u64,
}

/// Runs `scenario` under `policy` for `ticks` control ticks and reports
/// the QoS outcome.
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidSpec`] when the scenario fails
/// validation.
pub fn bench_scenario(
    scenario: &WorkloadScenario,
    policy: &mut dyn Policy,
    seed: u64,
    ticks: u64,
) -> Result<ScenarioQos, WorkloadError> {
    let mut host = WorkloadHost::new(scenario.clone(), seed)?;
    let outcome = drive(&mut host, policy, ticks).map_err(|e| WorkloadError::InvalidSpec {
        reason: format!("drive failed: {e}"),
    })?;
    let totals = host.totals();
    let latency = host.latency();
    Ok(ScenarioQos {
        scenario: scenario.name.clone(),
        policy: outcome.policy.clone(),
        ticks: outcome.timeline.len() as u64,
        requests: totals.arrivals,
        completed: totals.sensitive_completed,
        dropped: totals.sensitive_dropped,
        p50_ms: latency.quantile_ms(0.50),
        p95_ms: latency.quantile_ms(0.95),
        p99_ms: latency.quantile_ms(0.99),
        mean_ms: latency.mean_ms(),
        slo_violation_rate: totals.slo_violation_rate(),
        tick_satisfaction: outcome.qos.satisfaction(),
        batch_work: outcome.batch_work,
        cold_starts: totals.cold_starts,
        evictions: totals.evictions,
    })
}

/// A grid of [`ScenarioQos`] rows.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BenchTable {
    /// One row per (scenario, policy) pair, in run order.
    pub rows: Vec<ScenarioQos>,
}

impl BenchTable {
    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:<18} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>10}\n",
            "scenario",
            "policy",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "slo-viol",
            "drops",
            "colds",
            "batch-work"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<22} {:<18} {:>9.3} {:>9.3} {:>9.3} {:>8.1}% {:>8} {:>8} {:>10.1}\n",
                r.scenario,
                r.policy,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms,
                r.slo_violation_rate * 100.0,
                r.dropped,
                r.cold_starts,
                r.batch_work,
            ));
        }
        out
    }

    /// Serialises the table as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] on encode failure (should
    /// not happen for finite values).
    pub fn to_json(&self) -> Result<String, WorkloadError> {
        serde_json::to_string_pretty(self).map_err(|e| WorkloadError::InvalidSpec {
            reason: format!("bench table encode failed: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::by_name;
    use stayaway_telemetry::NullPolicy;

    #[test]
    fn bench_produces_a_consistent_row() {
        let scenario = by_name("memcached-like").unwrap();
        let row = bench_scenario(&scenario, &mut NullPolicy::new(), 42, 20).unwrap();
        assert_eq!(row.scenario, "memcached-like");
        assert_eq!(row.policy, "no-prevention");
        assert_eq!(row.ticks, 20);
        assert!(row.requests > 10_000);
        assert!(row.p50_ms > 0.0);
        assert!(row.p50_ms <= row.p95_ms && row.p95_ms <= row.p99_ms);
        assert!((0.0..=1.0).contains(&row.slo_violation_rate));
    }

    #[test]
    fn bench_is_deterministic() {
        let scenario = by_name("flash-crowd").unwrap();
        let a = bench_scenario(&scenario, &mut NullPolicy::new(), 7, 15).unwrap();
        let b = bench_scenario(&scenario, &mut NullPolicy::new(), 7, 15).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn table_renders_and_round_trips() {
        let scenario = by_name("cpu-bomb").unwrap();
        let row = bench_scenario(&scenario, &mut NullPolicy::new(), 3, 10).unwrap();
        let table = BenchTable { rows: vec![row] };
        let text = table.render();
        assert!(text.contains("cpu-bomb"));
        assert!(text.contains("p95 ms"));
        let json = table.to_json().unwrap();
        let back: BenchTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, table);
    }
}
