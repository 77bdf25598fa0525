//! Stage 4 — Act: throttle/resume actuation and β adaptation (§3.3).
//!
//! A predicted (or observed) violation pauses the batch applications
//! holding the majority resource share. While they are paused, the stage
//! watches how far the sensitive application's isolated states drift from
//! the first one after the throttle. Small distances mean same phase, same
//! workload — resuming would recreate the contention. A drift above the
//! learned threshold β signals a phase/workload change and triggers a
//! resume. β starts at 0.01 and grows whenever a phase-change resume is
//! immediately followed by a violation ("the phase change … was not enough
//! to avoid degradation"). A random factor resumes the batch application
//! after long stable periods so it cannot starve forever; a failed random
//! probe is an accepted gamble and does not inflate β.
//!
//! A phase-change resume is checked against the map stage's learned
//! violation geography before it is committed ("the system does not resume
//! the batch application until the system believes that resuming … will
//! not cause a performance degradation"); an optimistic one is not. A
//! SIGSTOP or SIGCONT the substrate lost is re-issued
//! ([`ActStage::reconcile`]).

use super::map::MapStage;
use super::sense::Sensed;
use crate::aggregate::{is_protected, majority_share_batch};
use crate::config::ControllerConfig;
use crate::stats::ResumeReason;
use rand::rngs::StdRng;
use rand::Rng;
use stayaway_statespace::{ExecutionMode, Point2};
use stayaway_telemetry::{Action, ContainerId, Observation, ResourceKind, ResourceVector};

/// Outcome of one throttled-period resume evaluation.
#[derive(Debug)]
pub enum ResumeDecision {
    /// The §3.3 resume conditions do not hold yet.
    Hold,
    /// A phase-change resume was signalled but vetoed: the estimated
    /// co-located state falls in a known violation-range.
    Vetoed,
    /// The resume was committed.
    Resumed {
        /// Why the batch applications were resumed.
        reason: ResumeReason,
        /// Resume actuations (empty in observe-only mode).
        actions: Vec<Action>,
    },
}

/// The action stage: the throttle state machine, β learning and target
/// selection.
#[derive(Debug)]
pub struct ActStage {
    capacities: ResourceVector,
    metrics: Vec<ResourceKind>,
    actions_enabled: bool,
    violation_range_enabled: bool,
    dedup_epsilon: f64,
    beta: f64,
    beta_increment: f64,
    reviolation_window: u64,
    optimistic_after: u64,
    optimistic_probability: f64,
    /// Multiplier on `optimistic_after`, doubled whenever an optimistic
    /// probe immediately re-violates and reset when a resume survives:
    /// probing a co-runner that never changes phase (CPUBomb) becomes
    /// exponentially rarer instead of paying a violation per probe.
    optimistic_backoff: f64,
    throttled: bool,
    /// Sub-β periods since the throttle engaged.
    stable_ticks: u64,
    last_resume: Option<(u64, ResumeReason)>,
    /// The sensitive application's first isolated state after the current
    /// throttle; resume drift is measured against this anchor ("the states
    /// that follow roughly map to the same vicinity", §3.3).
    throttle_anchor: Option<Point2>,
    /// Set when `maybe_resume` establishes a fresh drift anchor; the
    /// controller drains it to emit a flight-recorder event. Pure
    /// bookkeeping — never read by the stage's own decisions.
    anchor_established: Option<Point2>,
    paused_by_us: Vec<ContainerId>,
    /// Resumed, but not yet observed running.
    resumed_by_us: Vec<ContainerId>,
    /// The estimated measurement vector after a resume, and its
    /// normalised form, kept across periods so a vetoed resume allocates
    /// nothing.
    estimate: Vec<f64>,
    normalized: Vec<f64>,
}

impl ActStage {
    /// Creates the stage from the controller configuration and the host's
    /// capacities.
    ///
    /// # Panics
    ///
    /// Panics if `config.beta_initial <= 0` (rejected upstream by
    /// [`ControllerConfig::validate`]).
    pub fn new(config: &ControllerConfig, capacities: ResourceVector) -> Self {
        assert!(config.beta_initial > 0.0, "beta must start positive");
        ActStage {
            capacities,
            metrics: config.metrics.clone(),
            actions_enabled: config.actions_enabled,
            violation_range_enabled: config.violation_range_enabled,
            dedup_epsilon: config.dedup_epsilon,
            beta: config.beta_initial,
            beta_increment: config.beta_increment,
            reviolation_window: config.reviolation_window,
            optimistic_after: config.optimistic_after,
            optimistic_probability: config.optimistic_probability,
            optimistic_backoff: 1.0,
            throttled: false,
            stable_ticks: 0,
            last_resume: None,
            throttle_anchor: None,
            anchor_established: None,
            paused_by_us: Vec::new(),
            resumed_by_us: Vec::new(),
            estimate: Vec::new(),
            normalized: Vec::new(),
        }
    }

    /// The current β (§3.3).
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// True while the stage holds batch applications paused.
    pub fn is_throttling(&self) -> bool {
        self.throttled
    }

    /// Records an observed violation at `tick`. If it follows a
    /// *phase-change* resume within the re-violation window, the phase
    /// change "was not enough": β is incremented and `true` is returned.
    /// Optimistic probes are expected to fail sometimes and never inflate
    /// β; a failed one doubles the wait before the next (up to 6×).
    pub fn note_violation(&mut self, tick: u64) -> bool {
        if let Some((resumed, reason)) = self.last_resume {
            if tick.saturating_sub(resumed) <= self.reviolation_window {
                self.last_resume = None;
                match reason {
                    ResumeReason::PhaseChange => {
                        self.beta += self.beta_increment;
                        return true;
                    }
                    ResumeReason::Optimistic => {
                        self.optimistic_backoff = (self.optimistic_backoff * 2.0).min(6.0);
                    }
                }
            }
        }
        false
    }

    /// Drains the drift anchor established by the last
    /// [`ActStage::maybe_resume`] call, if any. Observability-only: the
    /// flag never feeds back into stage decisions.
    pub(crate) fn take_anchor_established(&mut self) -> Option<Point2> {
        self.anchor_established.take()
    }

    /// While throttled: watches the sensitive application's isolated
    /// trajectory for a phase change and decides whether to resume (§3.3).
    /// Phase-change resumes are vetoed when the estimated co-located state
    /// falls in a known violation-range; optimistic probes are never
    /// vetoed — they are the anti-starvation escape hatch and must stay
    /// able to push a frozen batch application through a bad phase.
    pub fn maybe_resume(
        &mut self,
        map: &MapStage,
        sensed: &Sensed,
        point: Point2,
        batch_usage: Option<&[f64]>,
        rng: &mut StdRng,
    ) -> ResumeDecision {
        // Drift is measured from the first isolated state after the
        // throttle: while the sensitive application stays in the same
        // phase and workload, its states "map to the same vicinity" of
        // that anchor; a growing distance indicates the phase or workload
        // has moved away from the contended regime.
        let drift = if sensed.mode == ExecutionMode::SensitiveOnly {
            match self.throttle_anchor {
                None => {
                    self.throttle_anchor = Some(point);
                    self.anchor_established = Some(point);
                    0.0
                }
                Some(anchor) => anchor.distance(point),
            }
        } else {
            0.0
        };
        let Some(reason) = self.resume_signal(drift, rng) else {
            return ResumeDecision::Hold;
        };
        let k = self.metrics.len();
        if reason == ResumeReason::PhaseChange
            && self.resume_would_violate(map, &sensed.raw[..k], batch_usage)
        {
            return ResumeDecision::Vetoed;
        }
        self.throttled = false;
        self.stable_ticks = 0;
        self.last_resume = Some((sensed.tick, reason));
        self.throttle_anchor = None;
        self.resumed_by_us.extend_from_slice(&self.paused_by_us);
        let actions = self.paused_by_us.drain(..).map(Action::Resume).collect();
        ResumeDecision::Resumed { reason, actions }
    }

    /// Appends to `actions` what `observation` shows the substrate lost and
    /// returns how many: while throttling, a Pause for each target shown
    /// active, unfinished and not paused — unless it has since become a
    /// top-priority sensitive container (§2.1), which is never paused;
    /// otherwise a Resume for each resumed container still shown paused
    /// (one shown running is settled). Either way, a container shown paused
    /// and unfinished that this stage neither paused nor resumed — a pause
    /// inherited from a controller that restarted — is resumed. Containers
    /// not shown, or shown finished, are left alone; in observe-only mode
    /// nothing is issued.
    pub fn reconcile(&mut self, observation: &Observation, actions: &mut Vec<Action>) -> u64 {
        if !self.actions_enabled {
            return 0;
        }
        let shown = |id: ContainerId| {
            observation
                .containers
                .iter()
                .find(|c| c.id == id && !c.finished)
        };
        let before = actions.len();
        if self.throttled {
            for &id in &self.paused_by_us {
                if shown(id).is_some_and(|c| c.active && !c.paused && !is_protected(observation, c))
                {
                    actions.push(Action::Pause(id));
                }
            }
        } else {
            self.resumed_by_us
                .retain(|&id| shown(id).is_some_and(|c| c.paused));
            actions.extend(self.resumed_by_us.iter().copied().map(Action::Resume));
        }
        for c in &observation.containers {
            if c.paused
                && !c.finished
                && !self.paused_by_us.contains(&c.id)
                && !self.resumed_by_us.contains(&c.id)
            {
                actions.push(Action::Resume(c.id));
            }
        }
        (actions.len() - before) as u64
    }

    /// While throttled: whether the §3.3 resume conditions hold, given the
    /// drift of the sensitive application's isolated state. Changes only
    /// the stable-period count; [`ActStage::maybe_resume`] either vetoes
    /// the signal or commits it.
    fn resume_signal(&mut self, drift: f64, rng: &mut StdRng) -> Option<ResumeReason> {
        if !self.throttled {
            return None;
        }
        if drift > self.beta {
            return Some(ResumeReason::PhaseChange);
        }
        self.stable_ticks += 1;
        let required = (self.optimistic_after as f64 * self.optimistic_backoff) as u64;
        if self.stable_ticks >= required && rng.gen_range(0.0..1.0) < self.optimistic_probability {
            return Some(ResumeReason::Optimistic);
        }
        None
    }

    /// Estimates whether resuming the batch applications from the current
    /// sensitive state would land in a known violation-range: the
    /// remembered logical-batch usage is superimposed on the sensitive
    /// VM's current usage and looked up in the state map. Unknown
    /// territory is optimistically considered safe (exploration).
    fn resume_would_violate(
        &mut self,
        map: &MapStage,
        sensitive_raw: &[f64],
        batch_usage: Option<&[f64]>,
    ) -> bool {
        let Some(batch_raw) = batch_usage else {
            return false;
        };
        // Estimated measurement vector after a resume: the sensitive VM
        // keeps its current usage; the total becomes sensitive + the
        // remembered batch usage (normalisation clamps to capacity).
        self.estimate.clear();
        self.estimate.extend_from_slice(sensitive_raw);
        self.estimate
            .extend(sensitive_raw.iter().zip(batch_raw).map(|(s, b)| s + b));
        if map
            .normalize_into(&self.estimate, &mut self.normalized)
            .is_err()
        {
            return false;
        }
        let normalized = &self.normalized;
        let Some((point, nearest)) = map.approximate_point(normalized) else {
            return false;
        };
        let nearest_dist = nearest.map_or(f64::INFINITY, |(_, d)| d);
        // The 2-D interpolation is only trustworthy near explored
        // territory (within a few dedup radii of a representative).
        if nearest_dist <= 3.0 * self.dedup_epsilon && map.state_map().in_violation_range(point) {
            return true;
        }
        // Directional check in the high-dimensional space: when the single
        // nearest known state to the estimate is itself a violation-state,
        // the resume is heading into the contended regime — veto even in
        // otherwise unexplored territory. (Optimistic probes bypass the
        // veto entirely, so unexplored-but-safe regions still get
        // bootstrapped, per §3.2.1's exploration bias.) In the
        // exact-overlap ablation this generalisation is disabled too: only
        // an estimate landing *on* a seen violation-state counts.
        if let Some((rep, dist)) = nearest.or_else(|| map.nearest(normalized)) {
            if !self.violation_range_enabled && dist > self.dedup_epsilon {
                return false;
            }
            return map.is_violation_state(rep);
        }
        false
    }

    /// Picks the throttleable containers holding the majority resource
    /// share (§5).
    pub(crate) fn throttle_targets(&self, observation: &Observation) -> Vec<ContainerId> {
        majority_share_batch(observation, &self.metrics, &self.capacities)
    }

    /// Engages the throttle on `targets`. Returns `(engaged, pauses)`;
    /// in observe-only mode nothing is engaged and no actions are issued.
    /// A preceding resume that survived beyond the re-violation window was
    /// a success and resets the optimistic backoff.
    pub fn engage(&mut self, tick: u64, targets: Vec<ContainerId>) -> (bool, Vec<Action>) {
        if !self.actions_enabled {
            return (false, Vec::new());
        }
        if let Some((resumed, _)) = self.last_resume {
            if tick.saturating_sub(resumed) > self.reviolation_window {
                self.optimistic_backoff = 1.0;
            }
        }
        self.throttled = true;
        self.stable_ticks = 0;
        self.throttle_anchor = None;
        let mut actions = Vec::with_capacity(targets.len());
        for id in targets {
            self.paused_by_us.push(id);
            actions.push(Action::Pause(id));
        }
        (true, actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MappingMetrics;
    use rand::SeedableRng;
    use stayaway_telemetry::{AppClass, ContainerObs, HostSpec};

    /// One act stage beside a one-metric map that knows a single
    /// violation-state, `⟨1, 4⟩` (sensitive CPU 1, total 4).
    struct Rig {
        act: ActStage,
        map: MapStage,
        rng: StdRng,
    }

    /// β₀ = 0.01, +0.01 per blamed resume, a 3-tick re-violation window.
    fn rig(optimistic_after: u64, optimistic_probability: f64) -> Rig {
        let config = ControllerConfig {
            metrics: vec![ResourceKind::Cpu],
            beta_initial: 0.01,
            beta_increment: 0.01,
            reviolation_window: 3,
            optimistic_after,
            optimistic_probability,
            ..ControllerConfig::default()
        };
        let spec = HostSpec::default();
        let mut map = MapStage::new(&config, &spec, MappingMetrics::default()).unwrap();
        let contended = sensed(0, ExecutionMode::CoLocated, vec![1.0, 4.0]);
        let rep = map.ingest(&contended).unwrap().rep;
        map.mark_violation(rep).unwrap();
        Rig {
            act: ActStage::new(&config, spec.capacities()),
            map,
            rng: StdRng::seed_from_u64(1),
        }
    }

    fn sensed(tick: u64, mode: ExecutionMode, raw: Vec<f64>) -> Sensed {
        Sensed {
            tick,
            mode,
            violated: false,
            raw,
            rejected: 0,
        }
    }

    impl Rig {
        /// Pauses container `id` at `tick`.
        fn throttle(&mut self, tick: u64, id: usize) -> Vec<Action> {
            let (engaged, pauses) = self.act.engage(tick, vec![ContainerId::from_raw(id)]);
            assert!(engaged);
            pauses
        }

        /// One sensitive-only period whose state sits at `(x, 0)`; the
        /// first after a throttle anchors the drift. `batch` is the
        /// remembered batch usage a resume would add.
        fn period_with(&mut self, tick: u64, x: f64, batch: Option<&[f64]>) -> ResumeDecision {
            let sensed = sensed(tick, ExecutionMode::SensitiveOnly, vec![1.0, 1.0]);
            let point = Point2::new(x, 0.0);
            self.act
                .maybe_resume(&self.map, &sensed, point, batch, &mut self.rng)
        }

        fn period(&mut self, tick: u64, x: f64) -> ResumeDecision {
            self.period_with(tick, x, None)
        }
    }

    /// An observation showing one batch container `id` in the given state.
    fn shown(id: usize, active: bool, paused: bool, finished: bool) -> Observation {
        Observation {
            containers: vec![ContainerObs {
                id: ContainerId::from_raw(id),
                name: "batch".into(),
                class: AppClass::Batch,
                active,
                paused,
                finished,
                usage: ResourceVector::zero(),
                ipc: 1.0,
                priority: 0,
            }],
            ..Observation::default()
        }
    }

    fn resumed(decision: &ResumeDecision) -> Option<ResumeReason> {
        match decision {
            ResumeDecision::Resumed { reason, .. } => Some(*reason),
            _ => None,
        }
    }

    #[test]
    fn starts_unthrottled() {
        let r = rig(5, 1.0);
        assert!(!r.act.is_throttling());
        assert_eq!(r.act.beta(), 0.01);
    }

    #[test]
    fn phase_change_resumes_the_pauses_it_ends() {
        let mut r = rig(5, 1.0);
        assert_eq!(r.throttle(0, 7), [Action::Pause(ContainerId::from_raw(7))]);
        assert!(matches!(r.period(1, 0.0), ResumeDecision::Hold));
        assert!(matches!(r.period(2, 0.005), ResumeDecision::Hold));
        assert!(r.act.is_throttling());
        let ResumeDecision::Resumed { reason, actions } = r.period(3, 0.05) else {
            panic!("a drift beyond β resumes");
        };
        assert_eq!(reason, ResumeReason::PhaseChange);
        assert_eq!(actions, [Action::Resume(ContainerId::from_raw(7))]);
        assert!(!r.act.is_throttling());
    }

    #[test]
    fn optimistic_resume_after_stability() {
        let mut r = rig(5, 1.0); // probability 1.0 → fires as soon as eligible
        r.throttle(0, 0);
        for tick in 1..5 {
            assert!(matches!(r.period(tick, 0.0), ResumeDecision::Hold));
        }
        assert_eq!(resumed(&r.period(5, 0.0)), Some(ResumeReason::Optimistic));
    }

    #[test]
    fn optimistic_resume_respects_probability_zero() {
        let mut r = rig(2, 0.0);
        r.throttle(0, 0);
        for tick in 1..=100 {
            assert!(matches!(r.period(tick, 0.0), ResumeDecision::Hold));
        }
        assert!(r.act.is_throttling());
    }

    #[test]
    fn premature_phase_change_resume_increases_beta() {
        let mut r = rig(5, 1.0);
        r.throttle(0, 0);
        r.period(9, 0.0);
        assert_eq!(
            resumed(&r.period(10, 0.05)),
            Some(ResumeReason::PhaseChange)
        );
        assert!(r.act.note_violation(12)); // within window
        assert!((r.act.beta() - 0.02).abs() < 1e-12);
        // No double blame for a second violation.
        assert!(!r.act.note_violation(13));
    }

    #[test]
    fn failed_optimistic_probe_does_not_inflate_beta() {
        let mut r = rig(1, 1.0);
        r.throttle(0, 0);
        assert_eq!(resumed(&r.period(10, 0.0)), Some(ResumeReason::Optimistic));
        assert!(!r.act.note_violation(11));
        assert_eq!(r.act.beta(), 0.01);
    }

    #[test]
    fn failed_optimistic_probe_doubles_the_wait_until_a_resume_survives() {
        let mut r = rig(2, 1.0);
        r.throttle(0, 0);
        r.period(1, 0.0);
        assert_eq!(resumed(&r.period(2, 0.0)), Some(ResumeReason::Optimistic));
        assert!(!r.act.note_violation(3)); // the probe failed: wait 2 × 2
        r.throttle(3, 0);
        for tick in 4..7 {
            assert!(matches!(r.period(tick, 0.0), ResumeDecision::Hold));
        }
        assert_eq!(resumed(&r.period(7, 0.0)), Some(ResumeReason::Optimistic));
        // That probe outlived the window: the next throttle waits 2 again.
        r.throttle(20, 0);
        r.period(21, 0.0);
        assert_eq!(resumed(&r.period(22, 0.0)), Some(ResumeReason::Optimistic));
    }

    #[test]
    fn late_violation_does_not_blame_resume() {
        let mut r = rig(5, 1.0);
        r.throttle(0, 0);
        r.period(9, 0.0);
        assert_eq!(
            resumed(&r.period(10, 0.05)),
            Some(ResumeReason::PhaseChange)
        );
        assert!(!r.act.note_violation(20));
        assert_eq!(r.act.beta(), 0.01);
    }

    #[test]
    fn violation_without_resume_never_blames() {
        let mut r = rig(5, 1.0);
        assert!(!r.act.note_violation(5));
        assert_eq!(r.act.beta(), 0.01);
    }

    #[test]
    fn nothing_resumes_when_not_throttled() {
        let mut r = rig(5, 1.0);
        assert!(matches!(r.period(0, 0.0), ResumeDecision::Hold));
        assert!(matches!(r.period(1, 10.0), ResumeDecision::Hold));
    }

    #[test]
    fn throttle_resets_stability_counter() {
        let mut r = rig(3, 1.0);
        r.throttle(0, 0);
        assert!(matches!(r.period(1, 0.0), ResumeDecision::Hold));
        assert!(matches!(r.period(2, 0.0), ResumeDecision::Hold));
        r.throttle(2, 1); // reset
        assert!(matches!(r.period(3, 0.0), ResumeDecision::Hold));
        assert!(matches!(r.period(4, 0.0), ResumeDecision::Hold));
        assert!(resumed(&r.period(5, 0.0)).is_some());
    }

    #[test]
    fn vetoed_phase_change_can_fire_again() {
        let mut r = rig(5, 1.0);
        r.throttle(0, 0);
        r.period(1, 0.0);
        // Sensitive 1 + remembered batch 3 lands on the violation-state:
        // the signal fires, the veto holds it, and the stage stays
        // throttled and signals again next period.
        let contended: &[f64] = &[3.0];
        assert!(matches!(
            r.period_with(2, 0.5, Some(contended)),
            ResumeDecision::Vetoed
        ));
        assert!(r.act.is_throttling());
        assert!(matches!(
            r.period_with(3, 0.5, Some(contended)),
            ResumeDecision::Vetoed
        ));
        assert_eq!(resumed(&r.period(4, 0.5)), Some(ResumeReason::PhaseChange));
    }

    #[test]
    fn observe_only_mode_engages_nothing() {
        let mut r = rig(1, 1.0);
        r.act.actions_enabled = false;
        assert_eq!(
            r.act.engage(0, vec![ContainerId::from_raw(0)]),
            (false, vec![])
        );
        assert!(!r.act.is_throttling());
        assert!(matches!(r.period(1, 0.0), ResumeDecision::Hold));
    }

    #[test]
    fn a_lost_pause_is_reissued_while_throttling() {
        let mut r = rig(5, 1.0);
        r.throttle(0, 7);
        let mut actions = Vec::new();
        assert_eq!(
            r.act.reconcile(&shown(7, false, true, false), &mut actions),
            0
        );
        assert_eq!(
            r.act.reconcile(&shown(7, true, false, false), &mut actions),
            1
        );
        assert_eq!(actions, [Action::Pause(ContainerId::from_raw(7))]);
        // Idle, finished or absent: left alone.
        for other in [
            shown(7, false, false, false),
            shown(7, true, false, true),
            shown(8, true, false, false),
        ] {
            assert_eq!(r.act.reconcile(&other, &mut actions), 0);
        }
        assert_eq!(actions.len(), 1);
    }

    #[test]
    fn a_lost_resume_is_reissued_until_the_container_runs() {
        let mut r = rig(5, 1.0);
        r.throttle(0, 7);
        r.period(1, 0.0);
        assert!(resumed(&r.period(2, 0.05)).is_some());
        let (mut actions, still_paused) = (Vec::new(), shown(7, false, true, false));
        assert_eq!(r.act.reconcile(&still_paused, &mut actions), 1);
        assert_eq!(r.act.reconcile(&still_paused, &mut actions), 1);
        assert_eq!(actions, [Action::Resume(ContainerId::from_raw(7)); 2]);
        // Seen running once, it is settled: the resume is no longer ours.
        assert_eq!(
            r.act.reconcile(&shown(7, true, false, false), &mut actions),
            0
        );
        assert_eq!(r.act.resumed_by_us, []);
    }

    #[test]
    fn a_resumed_container_gone_or_finished_is_left_alone() {
        for gone in [shown(8, true, false, false), shown(7, false, true, true)] {
            let mut r = rig(5, 1.0);
            r.throttle(0, 7);
            r.period(1, 0.0);
            assert!(resumed(&r.period(2, 0.05)).is_some());
            let mut actions = Vec::new();
            assert_eq!(r.act.reconcile(&gone, &mut actions), 0);
            assert!(actions.is_empty());
            assert_eq!(r.act.resumed_by_us, []);
        }
    }

    #[test]
    fn an_inherited_pause_is_resumed_in_either_branch() {
        let foreign = shown(9, false, true, false);
        let mut r = rig(5, 1.0);
        let mut actions = Vec::new();
        assert_eq!(r.act.reconcile(&foreign, &mut actions), 1);
        r.throttle(0, 7);
        assert_eq!(r.act.reconcile(&foreign, &mut actions), 1);
        assert_eq!(actions, [Action::Resume(ContainerId::from_raw(9)); 2]);
        // Finished, or observe-only: left alone.
        assert_eq!(
            r.act.reconcile(&shown(9, false, true, true), &mut actions),
            0
        );
        let mut observer = rig(5, 1.0);
        observer.act.actions_enabled = false;
        assert_eq!(observer.act.reconcile(&foreign, &mut actions), 0);
        assert_eq!(actions.len(), 2);
    }
}
