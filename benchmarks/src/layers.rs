//! Per-layer metric accumulation for the traced pass.
//!
//! Three inputs feed the per-crate breakdown: the benchmark's own spans
//! ([`crate::trace`]), the always-on public `ControllerStats::stage_timing`,
//! and the crates' existing `stayaway_*` instruments read through the
//! public registry snapshot. No crate is instrumented for the benchmark.

use crate::spec::PER_LAYER;
use crate::trace::SpanTotals;
use stay_away::core::ControllerStats;
use stay_away::obs::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;

/// Accumulates per-layer values over one traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    snapshot: MetricsSnapshot,
    controllers: u64,
    prediction_checks: u64,
    prediction_hits: u64,
}

impl Layers {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Metric `name` so far; 0 before it is set.
    pub fn get(&self, name: &'static str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Adds to metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    fn add_stages(&mut self, stats: &ControllerStats, sign: f64) {
        let timing = &stats.stage_timing;
        for (name, clock) in [
            ("stayaway.sense_s", timing.sense),
            ("stayaway.map_s", timing.map),
            ("stayaway.predict_s", timing.predict),
            ("stayaway.act_s", timing.act),
        ] {
            self.add(name, sign * clock.nanos as f64 / 1e9);
        }
    }

    /// Takes the stage clocks a controller had run up by `before` back
    /// out of the stage seconds, so that they cover what followed only.
    pub fn discount_stages(&mut self, before: &ControllerStats) {
        self.add_stages(before, -1.0);
    }

    /// Folds in one controller: its stage clocks and decision counters,
    /// and its registry snapshot (mapping and forecast instruments).
    pub fn absorb_controller(&mut self, stats: &ControllerStats, snapshot: &MetricsSnapshot) {
        self.add_stages(stats, 1.0);
        self.add("stayaway.periods", stats.periods as f64);
        self.add("stayaway.states", stats.states as f64);
        self.add("stayaway.throttles", stats.throttles as f64);
        self.add("stayaway.samples_rejected", stats.samples_rejected as f64);
        self.add("statespace.states", stats.states as f64);
        self.add("statespace.violation_states", stats.violation_states as f64);
        self.prediction_checks += stats.prediction_checks;
        self.prediction_hits += stats.prediction_hits;
        self.snapshot.merge(snapshot);
        self.controllers += 1;
    }

    /// Merges a registry snapshot that belongs to no controller (a
    /// source's error counters, for one).
    pub fn absorb_registry(&mut self, snapshot: &MetricsSnapshot) {
        self.snapshot.merge(snapshot);
    }

    fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.snapshot
            .histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.hist)
    }

    fn counter(&self, name: &str) -> f64 {
        self.snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.value as f64)
    }

    fn gauge(&self, name: &str) -> f64 {
        self.snapshot
            .gauges
            .iter()
            .find(|g| g.name == name)
            .map_or(0.0, |g| g.value)
    }

    /// Writes `<prefix>_busy_s`, `_count`, `_p50_us` and `_p99_us` from a
    /// nanosecond latency histogram.
    fn latency(&mut self, histogram: &str, names: [&'static str; 4]) {
        let Some(h) = self.histogram(histogram).cloned() else {
            return;
        };
        let us = |q: f64| h.quantile(q).map_or(0.0, |ns| ns as f64 / 1e3);
        self.set(names[0], h.sum as f64 / 1e9);
        self.set(names[1], h.count as f64);
        self.set(names[2], us(0.50));
        self.set(names[3], us(0.99));
    }

    /// Completes the table from the span totals and the merged registry
    /// snapshot; every name of [`PER_LAYER`] is present in the result
    /// (zero where the workload does not exercise the layer).
    ///
    /// # Panics
    ///
    /// Panics if a workload set a name that is not in [`PER_LAYER`] — a
    /// bug in the benchmark, not in the run.
    pub fn finish(
        mut self,
        spans: &BTreeMap<&'static str, SpanTotals>,
    ) -> BTreeMap<&'static str, f64> {
        let none = SpanTotals::default();
        let span = |name: &str| spans.get(name).unwrap_or(&none);
        let per_tick_us = |busy_s: f64, ticks: u64| {
            if ticks == 0 {
                0.0
            } else {
                busy_s * 1e6 / ticks as f64
            }
        };

        self.set("telemetry.drive_self_s", span("telemetry.drive").self_s);
        self.set("telemetry.encode_busy_s", span("telemetry.encode").self_s);
        let decode = span("telemetry.decode");
        self.set("telemetry.decode_busy_s", decode.busy_s);
        self.set(
            "telemetry.decode_us_per_tick",
            per_tick_us(decode.busy_s, decode.count),
        );
        self.set(
            "telemetry.decode_errors",
            self.counter("stayaway_telemetry_trace_decode_errors_total"),
        );

        let (next, apply) = (span("sim.next"), span("sim.apply"));
        self.set("sim.next_busy_s", next.busy_s);
        self.set("sim.apply_busy_s", apply.busy_s);
        self.set(
            "sim.us_per_tick",
            per_tick_us(next.busy_s + apply.busy_s, next.count),
        );

        let (next, apply) = (span("workload.next"), span("workload.apply"));
        self.set("workload.next_busy_s", next.busy_s);
        self.set(
            "workload.us_per_tick",
            per_tick_us(next.busy_s + apply.busy_s, next.count),
        );
        let requests = self.values.get("workload.sim_requests").copied();
        if let Some(requests) = requests.filter(|_| next.busy_s > 0.0) {
            self.set("workload.sim_req_per_s", requests / next.busy_s);
        }

        let decide = span("stayaway.decide");
        self.set("stayaway.decide_busy_s", decide.busy_s);
        self.set("stayaway.decide_p50_us", decide.quantile_us(0.50));
        self.set("stayaway.decide_p99_us", decide.quantile_us(0.99));
        self.set("stayaway.decide_max_us", decide.quantile_us(1.0));
        if self.prediction_checks > 0 {
            self.set(
                "stayaway.prediction_hit_ratio",
                self.prediction_hits as f64 / self.prediction_checks as f64,
            );
        }

        let cells = span("fleet.cell");
        self.set("fleet.cell_busy_s", cells.busy_s);
        self.set("fleet.cell_p50_ms", cells.quantile_us(0.50) / 1e3);
        self.set("fleet.cell_p90_ms", cells.quantile_us(0.90) / 1e3);

        self.latency(
            "stayaway_mapping_sweep_latency_nanos",
            [
                "mds.sweep_busy_s",
                "mds.sweep_count",
                "mds.sweep_p50_us",
                "mds.sweep_p99_us",
            ],
        );
        if let Some(h) = self
            .histogram("stayaway_mapping_append_latency_nanos")
            .cloned()
        {
            self.set("mds.append_busy_s", h.sum as f64 / 1e9);
            self.set("mds.append_count", h.count as f64);
        }
        self.set(
            "mds.smacof_runs",
            self.counter("stayaway_mapping_smacof_runs_total"),
        );
        let iterations = self
            .histogram("stayaway_mapping_smacof_iterations")
            .map_or(0.0, |h| h.sum as f64);
        self.set("mds.smacof_iterations", iterations);
        // Merged snapshots add gauges: a sum of states, and a sum of
        // ratios that has to become their mean again.
        self.set(
            "mds.repr_states",
            self.gauge("stayaway_mapping_repr_states"),
        );
        if self.controllers > 0 {
            self.set(
                "mds.dedup_ratio",
                self.gauge("stayaway_mapping_dedup_ratio") / self.controllers as f64,
            );
        }
        self.latency(
            "stayaway_predict_forecast_latency_nanos",
            [
                "trajectory.forecast_busy_s",
                "trajectory.forecast_count",
                "trajectory.forecast_p50_us",
                "trajectory.forecast_p99_us",
            ],
        );

        for name in self.values.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "`{name}` is not a per-layer metric of the benchmark"
            );
        }
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.values.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }
}
