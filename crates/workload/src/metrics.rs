//! Decision-inert instrumentation of the workload engine.
//!
//! Registered against the shared [`MetricsRegistry`], recorded with
//! atomic bumps only: no RNG draws, no control-flow influence, so an
//! instrumented engine run is bit-identical to a bare one (the
//! observability plane's standing invariant, DESIGN.md §11).

use stayaway_obs::{Counter, Histogram, MetricsRegistry};

/// Counter and histogram handles for one workload engine.
#[derive(Debug, Clone)]
pub(crate) struct WorkloadMetrics {
    /// Requests arrived, all tenants.
    pub(crate) requests: Counter,
    /// Invocations completed, all tenants.
    pub(crate) completed: Counter,
    /// Requests dropped on queue overflow.
    pub(crate) dropped: Counter,
    /// Sensitive completions that missed the latency deadline.
    pub(crate) slo_misses: Counter,
    /// Containers cold-started.
    pub(crate) cold_starts: Counter,
    /// Idle containers evicted.
    pub(crate) evictions: Counter,
    /// Tenant freezes actuated.
    pub(crate) freezes: Counter,
    /// Tenant resumes actuated.
    pub(crate) resumes: Counter,
    /// End-to-end latency of sensitive requests, nanoseconds.
    pub(crate) latency: Histogram,
}

impl WorkloadMetrics {
    /// Registers the workload instrument set (idempotent per registry).
    pub(crate) fn register(registry: &MetricsRegistry) -> Self {
        WorkloadMetrics {
            requests: registry.counter(
                "workload_requests_total",
                "Requests arrived at the simulated host",
            ),
            completed: registry.counter(
                "workload_invocations_completed_total",
                "Invocations completed on the simulated host",
            ),
            dropped: registry.counter(
                "workload_requests_dropped_total",
                "Requests dropped on tenant queue overflow",
            ),
            slo_misses: registry.counter(
                "workload_slo_misses_total",
                "Sensitive requests that missed the latency deadline",
            ),
            cold_starts: registry.counter(
                "workload_container_cold_starts_total",
                "Containers cold-started",
            ),
            evictions: registry.counter(
                "workload_container_evictions_total",
                "Idle containers evicted by keepalive policy",
            ),
            freezes: registry.counter(
                "workload_tenant_freezes_total",
                "Tenant freeze actuations applied",
            ),
            resumes: registry.counter(
                "workload_tenant_resumes_total",
                "Tenant resume actuations applied",
            ),
            latency: registry.latency_histogram(
                "workload_request_latency_ns",
                "End-to-end sensitive request latency",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_counts() {
        let registry = MetricsRegistry::new();
        let a = WorkloadMetrics::register(&registry);
        let b = WorkloadMetrics::register(&registry);
        a.requests.add(3);
        b.requests.inc();
        assert_eq!(a.requests.get(), 4);
        a.latency.record(1_500_000);
        assert_eq!(a.latency.count(), 1);
    }
}
