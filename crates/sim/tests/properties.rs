//! Property-based tests for the simulator's physical invariants.

use proptest::prelude::*;
use stayaway_sim::app::{Application, Phase, PhasedApp};
use stayaway_sim::contention::{allocate_into, max_min_fair_into, Allocation, ContentionScratch};
use stayaway_sim::workload::Trace;
use stayaway_telemetry::{HostSpec, ResourceKind, ResourceVector};

#[path = "reference/mod.rs"]
mod reference;

/// A demand vector for the default host spanning every regime the physics
/// distinguishes: idle (one in five is all zero), rate contention, RAM
/// over-commit (two of 6 000 MB overflow 8 192 MB), LLC overflow (two of
/// 3 MB overflow 4 MB) and swap traffic on top of disk demand that
/// oversubscribes the 200 MB/s device.
fn regime_demand() -> impl Strategy<Value = ResourceVector> {
    (
        0u8..5,
        (
            0.0f64..3.0,
            0.0f64..6_000.0,
            0.0f64..8_000.0,
            0.0f64..150.0,
            0.0f64..700.0,
            0.0f64..3.0,
        ),
    )
        .prop_map(|(idle, (cpu, mem, bw, disk, net, cache))| {
            if idle == 0 {
                ResourceVector::zero()
            } else {
                ResourceVector::new(cpu, mem, bw, disk, net, cache)
            }
        })
}

/// One allocation into fresh buffers.
fn allocate(demands: &[ResourceVector], spec: &HostSpec) -> Vec<Allocation> {
    let mut out = Vec::new();
    allocate_into(demands, spec, &mut ContentionScratch::default(), &mut out);
    out
}

/// One max-min fair split into fresh buffers.
fn max_min_fair(demands: &[f64], capacity: f64) -> Vec<f64> {
    let mut grants = Vec::new();
    max_min_fair_into(demands, capacity, &mut grants, &mut Vec::new());
    grants
}

/// Every field of an allocation, as bits.
fn bits(a: &Allocation) -> Vec<u64> {
    let mut out: Vec<u64> = ResourceKind::ALL
        .iter()
        .map(|&kind| a.granted.get(kind).to_bits())
        .collect();
    out.extend([a.perf, a.swap_factor, a.cache_factor].map(f64::to_bits));
    out
}

/// `allocate_into` through one scratch and one output vector reused
/// across `sets` equals the pre-buffer `allocate` on each, bit for bit.
fn buffered_matches_reference(sets: &[Vec<ResourceVector>]) -> Result<(), String> {
    let spec = HostSpec::default();
    let mut scratch = ContentionScratch::default();
    let mut out = Vec::new();
    for demands in sets {
        allocate_into(demands, &spec, &mut scratch, &mut out);
        let want = reference::allocate(demands, &spec);
        let got: Vec<Vec<u64>> = out.iter().map(bits).collect();
        let want: Vec<Vec<u64>> = want.iter().map(bits).collect();
        if got != want {
            return Err(format!(
                "{demands:?}: buffered {got:?} != reference {want:?}"
            ));
        }
    }
    Ok(())
}

#[test]
fn buffered_allocation_matches_the_reference_in_every_regime() {
    let spec = HostSpec::default();
    let ram = spec.capacity(ResourceKind::Memory);
    let llc = spec.capacity(ResourceKind::Cache);
    let disk = spec.capacity(ResourceKind::DiskIo);
    let app = |cpu: f64, mem: f64, bw: f64, io: f64, cache: f64| {
        ResourceVector::new(cpu, mem, bw, io, 50.0, cache)
    };
    let zeros = vec![ResourceVector::zero(), ResourceVector::zero()];
    let overcommit = vec![
        app(1.0, 0.7 * ram, 8_000.0, 10.0, 0.5),
        app(1.0, 0.7 * ram, 200.0, 10.0, 0.5),
    ];
    let llc_overflow = vec![
        app(1.0, 500.0, 1_000.0, 5.0, 0.8 * llc),
        app(1.0, 500.0, 1_000.0, 5.0, 0.7 * llc),
        ResourceVector::zero(),
    ];
    let disk_rescale = vec![
        app(0.5, 0.9 * ram, 9_000.0, 0.6 * disk, 0.2),
        app(0.5, 0.9 * ram, 9_000.0, 0.6 * disk, 0.2),
        app(3.0, 100.0, 500.0, 0.3 * disk, 0.2),
    ];
    // Each set exercises the regime it is named after.
    assert!(allocate(&zeros, &spec).iter().all(|a| a.perf == 0.0));
    assert!(allocate(&overcommit, &spec)[0].swap_factor < 1.0);
    assert!(allocate(&llc_overflow, &spec)[0].cache_factor < 1.0);
    let rescaled: f64 = allocate(&disk_rescale, &spec)
        .iter()
        .map(|a| a.granted.get(ResourceKind::DiskIo))
        .sum();
    assert!(
        (rescaled - disk).abs() < 1e-9,
        "disk not rescaled: {rescaled}"
    );
    // Shrinking and growing through the same buffers, in both orders.
    let sets = [zeros, overcommit, llc_overflow, disk_rescale, Vec::new()];
    buffered_matches_reference(&sets).unwrap();
    let reversed: Vec<_> = sets.iter().rev().cloned().collect();
    buffered_matches_reference(&reversed).unwrap();
}

fn demand_strategy() -> impl Strategy<Value = ResourceVector> {
    (
        0.0f64..6.0,
        0.0f64..10_000.0,
        0.0f64..15_000.0,
        0.0f64..300.0,
        0.0f64..1500.0,
        0.0f64..6.0,
    )
        .prop_map(|(cpu, mem, bw, disk, net, cache)| {
            ResourceVector::new(cpu, mem, bw, disk, net, cache)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The buffered physics equal the pre-buffer physics bit for bit on
    /// random demand sets of changing size pushed through one set of
    /// buffers.
    #[test]
    fn buffered_allocation_matches_the_reference(
        sets in prop::collection::vec(prop::collection::vec(regime_demand(), 0..7), 1..6),
    ) {
        if let Err(e) = buffered_matches_reference(&sets) {
            prop_assert!(false, "{}", e);
        }
    }

    /// `max_min_fair_into` with reused buffers equals the pre-buffer
    /// progressive filling bit for bit.
    #[test]
    fn buffered_max_min_fair_matches_the_reference(
        sets in prop::collection::vec(prop::collection::vec(0.0f64..10.0, 0..8), 1..6),
        capacity in 0.0f64..16.0,
    ) {
        let (mut grants, mut unsatisfied) = (Vec::new(), Vec::new());
        for demands in &sets {
            max_min_fair_into(demands, capacity, &mut grants, &mut unsatisfied);
            let want = reference::max_min_fair(demands, capacity);
            let got: Vec<u64> = grants.iter().map(|g| g.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|g| g.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Max-min fairness: grants are capacity-conserving, demand-bounded and
    /// non-negative for arbitrary demand profiles.
    #[test]
    fn max_min_fair_is_feasible(
        demands in prop::collection::vec(0.0f64..10.0, 0..8),
        capacity in 0.0f64..16.0,
    ) {
        let grants = max_min_fair(&demands, capacity);
        prop_assert_eq!(grants.len(), demands.len());
        let total: f64 = grants.iter().sum();
        prop_assert!(total <= capacity + 1e-9);
        for (g, d) in grants.iter().zip(&demands) {
            prop_assert!(*g >= 0.0);
            prop_assert!(*g <= d + 1e-9);
        }
    }

    /// Work conservation: when total demand meets or exceeds capacity, the
    /// allocator hands out (almost) all of it.
    #[test]
    fn max_min_fair_is_work_conserving(
        demands in prop::collection::vec(0.5f64..10.0, 1..8),
        capacity in 0.1f64..16.0,
    ) {
        let total_demand: f64 = demands.iter().sum();
        let grants = max_min_fair(&demands, capacity);
        let granted: f64 = grants.iter().sum();
        let expected = total_demand.min(capacity);
        prop_assert!((granted - expected).abs() < 1e-6,
            "granted {granted} vs expected {expected}");
    }

    /// Fairness: a consumer demanding at least as much as another never
    /// receives less.
    #[test]
    fn max_min_fair_is_monotone_in_demand(
        base in 0.1f64..5.0,
        extra in 0.0f64..5.0,
        other in 0.1f64..5.0,
        capacity in 0.1f64..8.0,
    ) {
        let grants = max_min_fair(&[base + extra, base, other], capacity);
        prop_assert!(grants[0] >= grants[1] - 1e-9);
    }

    /// Full allocation: no resource kind is ever oversubscribed, and the
    /// per-application performance stays in [0, 1].
    #[test]
    fn allocation_respects_every_capacity(
        demands in prop::collection::vec(demand_strategy(), 1..5),
    ) {
        let spec = HostSpec::default();
        let allocs = allocate(&demands, &spec);
        for kind in ResourceKind::ALL {
            let total: f64 = allocs.iter().map(|a| a.granted.get(kind)).sum();
            prop_assert!(total <= spec.capacity(kind) + 1e-6,
                "{kind} oversubscribed: {total}");
        }
        for a in &allocs {
            prop_assert!((0.0..=1.0).contains(&a.perf));
            prop_assert!(a.swap_factor <= 1.0 && a.swap_factor > 0.0);
            prop_assert!(a.cache_factor <= 1.0 && a.cache_factor > 0.0);
            prop_assert!(a.granted.is_valid());
        }
    }

    /// Adding a competitor never *improves* an application's performance.
    #[test]
    fn contention_is_monotone(
        a in demand_strategy(),
        b in demand_strategy(),
    ) {
        let spec = HostSpec::default();
        let alone = allocate(&[a], &spec)[0].perf;
        let together = allocate(&[a, b], &spec)[0].perf;
        prop_assert!(together <= alone + 1e-9,
            "competitor improved perf: {alone} -> {together}");
    }

    /// Application progress equals the sum of delivered performance, no
    /// matter how delivery is fragmented.
    #[test]
    fn phased_app_conserves_work(
        perfs in prop::collection::vec(0.0f64..1.0, 1..50),
    ) {
        let mut app = PhasedApp::builder("p")
            .phase(Phase::steady(
                ResourceVector::zero().with(ResourceKind::Cpu, 1.0),
                1000.0,
            ))
            .looping(true)
            .build();
        for &p in &perfs {
            app.deliver(p);
        }
        let expected: f64 = perfs.iter().sum();
        prop_assert!((app.work_done() - expected).abs() < 1e-9);
    }

    /// Traces always produce intensities in [0, 1] and wrap periodically.
    #[test]
    fn trace_intensity_is_bounded_and_periodic(
        samples in prop::collection::vec(-2.0f64..3.0, 1..40),
        t in 0u64..10_000,
    ) {
        let trace = Trace::from_samples(samples.clone()).unwrap();
        let v = trace.intensity(t);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert_eq!(v, trace.intensity(t + trace.len() as u64));
    }
}
