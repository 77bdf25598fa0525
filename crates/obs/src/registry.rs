//! The metrics registry: named counters, gauges, and histograms.
//!
//! The registry hands out cheaply-clonable handles backed by atomics;
//! the registry lock is taken only at registration and snapshot time,
//! never on the record path. Registration is idempotent — asking for an
//! existing name returns the existing handle — and panics on a kind
//! mismatch (a programming error, not an operational condition).

use crate::hist::{Histogram, Unit};
use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle storing an `f64` (as raw bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    help: String,
    instrument: Instrument,
}

/// A registry of named metrics. Clones share the same underlying
/// store, so a registry can be handed down through controller stages,
/// observation sources, and fleet cells and snapshotted once.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: Arc<Mutex<BTreeMap<String, Entry>>>,
}

/// True when `name` is a valid Prometheus metric name.
pub(crate) fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn instrument<F>(&self, name: &str, help: &str, make: F) -> Instrument
    where
        F: FnOnce() -> Instrument,
    {
        assert!(valid_metric_name(name), "invalid metric name: {name:?}");
        let mut entries = crate::lock(&self.entries);
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            instrument: make(),
        });
        entry.instrument.clone()
    }

    /// Registers (or retrieves) a counter.
    ///
    /// # Panics
    ///
    /// Panics when `name` is invalid or already registered as a
    /// different instrument kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.instrument(name, help, || Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    ///
    /// Panics when `name` is invalid or already registered as a
    /// different instrument kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.instrument(name, help, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Registers (or retrieves) a dimensionless histogram.
    ///
    /// # Panics
    ///
    /// Panics when `name` is invalid or already registered as a
    /// different instrument kind.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with_unit(name, help, Unit::None)
    }

    /// Registers (or retrieves) a wall-clock latency histogram
    /// ([`Unit::Nanos`]): relaxed equality, stripped by stable views.
    ///
    /// # Panics
    ///
    /// Panics when `name` is invalid or already registered as a
    /// different instrument kind.
    pub fn latency_histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with_unit(name, help, Unit::Nanos)
    }

    fn histogram_with_unit(&self, name: &str, help: &str, unit: Unit) -> Histogram {
        match self.instrument(name, help, || Instrument::Histogram(Histogram::new(unit))) {
            Instrument::Histogram(h) => {
                assert_eq!(
                    h.unit(),
                    unit,
                    "metric {name:?} registered with another unit"
                );
                h
            }
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Takes a point-in-time snapshot, sorted by metric name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = crate::lock(&self.entries);
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, entry) in entries.iter() {
            match &entry.instrument {
                Instrument::Counter(c) => counters.push(CounterSample {
                    name: name.clone(),
                    help: entry.help.clone(),
                    value: c.get(),
                }),
                Instrument::Gauge(g) => gauges.push(GaugeSample {
                    name: name.clone(),
                    help: entry.help.clone(),
                    value: g.get(),
                }),
                Instrument::Histogram(h) => histograms.push(HistogramSample {
                    name: name.clone(),
                    help: entry.help.clone(),
                    hist: h.snapshot(),
                }),
            }
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("stayaway_test_total", "a test counter");
        let b = reg.counter("stayaway_test_total", "a test counter");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].value, 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("stayaway_test_total", "a counter");
        reg.gauge("stayaway_test_total", "now a gauge");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        MetricsRegistry::new().counter("bad-name", "dashes are not allowed");
    }

    #[test]
    fn a_reader_that_panics_holding_the_registry_does_not_stop_registration() {
        let reg = MetricsRegistry::new();
        reg.counter("stayaway_before_total", "registered before the panic")
            .inc();
        crate::poison(&reg.entries);
        reg.counter("stayaway_after_total", "registered after the panic")
            .add(2);
        let snap = reg.snapshot();
        let values: Vec<u64> = snap.counters.iter().map(|c| c.value).collect();
        assert_eq!(values, vec![2, 1]);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.gauge("z_last", "last");
        reg.gauge("a_first", "first");
        reg.counter("m_mid_total", "mid");
        let snap = reg.snapshot();
        assert_eq!(snap.gauges[0].name, "a_first");
        assert_eq!(snap.gauges[1].name, "z_last");
        assert_eq!(snap.counters[0].name, "m_mid_total");
    }

    #[test]
    fn gauge_round_trips_f64() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("stayaway_beta", "throttle ratio");
        g.set(0.375);
        assert_eq!(g.get(), 0.375);
    }
}
