//! `host-steady`: the paper's four co-locations on the sim substrate, timed
//! once their state maps have formed — the predict stage (`trajectory`)
//! does most of the work and `mds` little.

use super::{closed_loop, sub_seed, CoLocation, PassOutcome, Size, Stretch, Trace, Workload};
use crate::clock::{Lap, Laps};
use stay_away::core::Observability;
use stay_away::telemetry::ObservationSource;
use std::time::Instant;

/// Periods a host runs before the clock starts, as part of its set-up:
/// the growth phase of every co-location (the Twitter-Analysis maps hold
/// 100 to 150 states by then). `fleet-cold` times exactly this phase.
const WARM_UP: u64 = 3_000;
/// Timed control periods per host.
const TICKS: u64 = 5_000;
/// Periods per segment: 5 to 20 ms on the two expensive co-locations.
const CHUNK: u64 = 250;
/// States a Twitter-Analysis co-location must reach for the run to count
/// as saturated.
const MIN_TWITTER_STATES: usize = 50;

pub struct HostSteady {
    seed: u64,
    /// How many times the four co-locations run, each under its own seed.
    sets: usize,
    warm_up: Stretch,
    timed: Stretch,
    size: Size,
}

impl HostSteady {
    pub fn new(seed: u64, size: Size) -> Self {
        HostSteady {
            seed,
            sets: size.pick(3, 1, 1) as usize,
            warm_up: Stretch {
                lap: Lap::Setup,
                ticks: size.pick(WARM_UP, WARM_UP, 100),
                chunk: CHUNK,
            },
            timed: Stretch::work(size.pick(TICKS, TICKS, 200), CHUNK),
            size,
        }
    }
}

impl Workload for HostSteady {
    fn pass(&self, laps: &mut Laps, mut trace: Option<Trace<'_>>) -> Result<PassOutcome, String> {
        let mut out = PassOutcome::default();
        let mut throttles = 0;
        let hosts = (0..self.sets).flat_map(|_| CoLocation::PAPER);
        for (index, co) in hosts.enumerate() {
            let seed = sub_seed(self.seed, index);
            let (source, mut controller) =
                laps.setup(|| co.host(seed, Observability::disabled()))?;
            let spans = trace
                .as_ref()
                .map(|(tracer, _)| (*tracer, ("sim.next", Some("sim.apply"))));
            let source = closed_loop(source, &mut controller, self.warm_up, laps, spans, &mut out)?;
            let formed = controller.stats();
            let source = closed_loop(source, &mut controller, self.timed, laps, spans, &mut out)?;
            let stats = controller.stats();
            out.finish_host(source.batch_work(), &stats);
            throttles += stats.throttles;
            if self.size.guarded() && co.is_twitter() && stats.states < MIN_TWITTER_STATES {
                out.fail(format!(
                    "{co:?} under seed {seed}: {} states, fewer than {MIN_TWITTER_STATES} — \
                     the map did not saturate",
                    stats.states
                ));
            }
            if let Some((_, layers)) = trace.as_mut() {
                // The stage clocks cover the timed stretch only; the
                // registry's histograms cannot be split and cover both.
                layers.absorb_controller(&stats, &controller.metrics());
                layers.discount_stages(&formed);
                // Template transfer is `statespace`'s hot path; it runs in
                // no timed pass, so clock it here on a saturated map.
                let clock = Instant::now();
                let template = controller
                    .export_template("host-steady")
                    .map_err(|e| e.to_string())?;
                layers.add(
                    "statespace.template_export_us",
                    clock.elapsed().as_secs_f64() * 1e6,
                );
                let (_, mut fresh) = co.host(seed, Observability::disabled())?;
                let clock = Instant::now();
                fresh
                    .import_template(&template)
                    .map_err(|e| e.to_string())?;
                layers.add(
                    "statespace.template_import_us",
                    clock.elapsed().as_secs_f64() * 1e6,
                );
            }
        }
        if self.size.guarded() && throttles == 0 {
            out.fail("no throttle on any host — the act stage never ran");
        }
        Ok(out)
    }
}
