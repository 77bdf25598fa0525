//! Stage 4 — Act: throttle/resume actuation and β adaptation (§3.3).
//!
//! Owns the [`ThrottleManager`] (β learning, optimistic probes), the
//! throttle anchor that phase-change drift is measured against, and the
//! set of containers this controller paused. Resume safety is estimated
//! against the map stage's learned violation geography.

use super::map::MapStage;
use super::sense::Sensed;
use crate::action::ThrottleManager;
use crate::aggregate::majority_share_batch;
use crate::config::ControllerConfig;
use crate::stats::ResumeReason;
use rand::rngs::StdRng;
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

/// The action stage: throttle state machine plus target selection.
#[derive(Debug)]
pub struct ActStage {
    throttle: ThrottleManager,
    capacities: ResourceVector,
    metrics: Vec<ResourceKind>,
    actions_enabled: bool,
    violation_range_enabled: bool,
    dedup_epsilon: f64,
    /// The sensitive application's first isolated state after the current
    /// throttle; resume drift is measured against this anchor ("the states
    /// that follow roughly map to the same vicinity", §3.3).
    throttle_anchor: Option<Point2>,
    /// Set when `maybe_resume` establishes a fresh drift anchor; the
    /// controller drains it to emit a flight-recorder event. Pure
    /// bookkeeping — never read by the stage's own decisions.
    anchor_established: Option<Point2>,
    paused_by_us: Vec<ContainerId>,
    /// The estimated measurement vector after a resume, and its
    /// normalised form, kept across periods so a vetoed resume allocates
    /// nothing.
    estimate: Vec<f64>,
    normalized: Vec<f64>,
}

impl ActStage {
    /// Creates the stage from the controller configuration and the host's
    /// capacities.
    pub fn new(config: &ControllerConfig, capacities: ResourceVector) -> Self {
        ActStage {
            throttle: ThrottleManager::new(
                config.beta_initial,
                config.beta_increment,
                config.reviolation_window,
                config.optimistic_after,
                config.optimistic_probability,
            ),
            capacities,
            metrics: config.metrics.clone(),
            actions_enabled: config.actions_enabled,
            violation_range_enabled: config.violation_range_enabled,
            dedup_epsilon: config.dedup_epsilon,
            throttle_anchor: None,
            anchor_established: None,
            paused_by_us: Vec::new(),
            estimate: Vec::new(),
            normalized: Vec::new(),
        }
    }

    /// The current β (§3.3).
    pub fn beta(&self) -> f64 {
        self.throttle.beta()
    }

    /// True while the stage holds batch applications paused.
    pub fn is_throttling(&self) -> bool {
        self.throttle.is_throttled()
    }

    /// Records an observed violation; returns `true` when β was
    /// incremented (a premature phase-change resume took the blame).
    pub fn note_violation(&mut self, tick: u64) -> bool {
        self.throttle.note_violation(tick)
    }

    /// Drains the drift anchor established by the last
    /// [`ActStage::maybe_resume`] call, if any. Observability-only: the
    /// flag never feeds back into stage decisions.
    pub fn take_anchor_established(&mut self) -> Option<Point2> {
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
        let Some(reason) = self.throttle.resume_signal(drift, rng) else {
            return ResumeDecision::Hold;
        };
        let k = self.metrics.len();
        if reason == ResumeReason::PhaseChange
            && self.resume_would_violate(map, &sensed.raw[..k], batch_usage)
        {
            return ResumeDecision::Vetoed;
        }
        self.throttle.commit_resume(sensed.tick, reason);
        self.throttle_anchor = None;
        let actions = if self.actions_enabled {
            self.paused_by_us.drain(..).map(Action::Resume).collect()
        } else {
            Vec::new()
        };
        ResumeDecision::Resumed { reason, actions }
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
        let Some((point, nearest_dist)) = map.approximate_point(normalized) else {
            return false;
        };
        // The 2-D interpolation is only trustworthy near explored
        // territory (within a few dedup radii of a representative).
        if nearest_dist <= 3.0 * self.dedup_epsilon && map.in_violation_range(point) {
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
        if let Some((rep, dist)) = map.nearest(normalized) {
            if !self.violation_range_enabled && dist > self.dedup_epsilon {
                return false;
            }
            return map.is_violation_state(rep);
        }
        false
    }

    /// Picks the throttleable containers holding the majority resource
    /// share (§5).
    pub fn throttle_targets(&self, observation: &Observation) -> Vec<ContainerId> {
        majority_share_batch(observation, &self.metrics, &self.capacities)
    }

    /// Engages the throttle on `targets`. Returns `(engaged, pauses)`;
    /// in observe-only mode nothing is engaged and no actions are issued.
    pub fn engage(&mut self, tick: u64, targets: Vec<ContainerId>) -> (bool, Vec<Action>) {
        if !self.actions_enabled {
            return (false, Vec::new());
        }
        self.throttle.note_throttle(tick);
        self.throttle_anchor = None;
        let mut actions = Vec::with_capacity(targets.len());
        for id in targets {
            self.paused_by_us.push(id);
            actions.push(Action::Pause(id));
        }
        (true, actions)
    }
}
