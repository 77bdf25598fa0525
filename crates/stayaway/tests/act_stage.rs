//! The act stage as the state machine it is (§3.3): running → throttled →
//! resumed, with β learning and the optimistic backoff. Random sequences of
//! `engage`, `maybe_resume` (random drift, mode and remembered batch usage)
//! and `note_violation` drive one `ActStage`, called the way the controller
//! calls it, and every step is checked against what §3.3 promises:
//!
//! - β never decreases, and grows by exactly `beta_increment` only when a
//!   violation follows a phase-change resume within `reviolation_window`;
//! - a resume's actions are exactly the pauses of the throttle it ends, and
//!   no container is resumed twice;
//! - only phase-change resumes are vetoed — an optimistic one never is;
//! - with `optimistic_probability = 1` and zero drift, a throttle resumes
//!   within `optimistic_after × 6` sensitive-only periods (6 is the
//!   backoff cap);
//! - in observe-only mode no action is issued;
//! - when every action reached the containers, `reconcile` re-issues
//!   nothing.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stayaway_core::stages::{ActStage, MapStage, ResumeDecision, Sensed};
use stayaway_core::{ControllerConfig, MappingMetrics, ResumeReason};
use stayaway_statespace::{ExecutionMode, Point2};
use stayaway_telemetry::{
    Action, AppClass, ContainerId, ContainerObs, HostSpec, Observation, ResourceKind,
    ResourceVector,
};
use std::collections::HashSet;

/// What the stage would add back on a resume, relative to the map's one
/// violation-state `⟨1, 4⟩` (sensitive CPU 1, total 4).
#[derive(Debug, Clone, Copy)]
enum Batch {
    /// No batch usage remembered yet: nothing to estimate, no veto.
    Unknown,
    /// Lands on the map's safe state `⟨1, 1.5⟩`.
    Safe,
    /// Lands exactly on the violation-state: a phase-change resume is
    /// vetoed.
    Violating,
}

impl Batch {
    fn usage(self) -> Option<&'static [f64]> {
        match self {
            Batch::Unknown => None,
            Batch::Safe => Some(&[0.5]),
            Batch::Violating => Some(&[3.0]),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Throttle `targets` fresh containers (skipped while throttled, as
    /// the controller only engages from the running state).
    Engage { gap: u64, targets: usize },
    /// One `maybe_resume` period with the sensitive state at `(x, 0)`.
    Period {
        gap: u64,
        sensitive_only: bool,
        x: f64,
        batch: Batch,
    },
    /// An observed violation.
    Violation { gap: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    let batch = prop::sample::select(vec![Batch::Unknown, Batch::Safe, Batch::Violating]);
    (0u8..9, 0u64..4, 1usize..4, 0u8..5, 0u32..=20, batch).prop_map(
        |(kind, gap, targets, isolated, x, batch)| match kind {
            0 => Op::Engage { gap, targets },
            1..=6 => Op::Period {
                gap,
                sensitive_only: isolated != 0,
                // Drifts of 0 to 0.1 straddle β₀ = 0.01 and its growth.
                x: f64::from(x) * 0.005,
                batch,
            },
            _ => Op::Violation { gap },
        },
    )
}

#[derive(Debug, Clone)]
struct Knobs {
    beta_increment: f64,
    reviolation_window: u64,
    optimistic_after: u64,
    optimistic_probability: f64,
    actions_enabled: bool,
    seed: u64,
}

fn knobs(optimistic_probabilities: Vec<f64>) -> impl Strategy<Value = Knobs> {
    (
        prop::sample::select(vec![0.005, 0.01, 0.05]),
        0u64..6,
        1u64..8,
        prop::sample::select(optimistic_probabilities),
        0u8..7,
        any::<u64>(),
    )
        .prop_map(
            |(
                beta_increment,
                reviolation_window,
                optimistic_after,
                optimistic_probability,
                observe_only,
                seed,
            )| Knobs {
                beta_increment,
                reviolation_window,
                optimistic_after,
                optimistic_probability,
                actions_enabled: observe_only != 0,
                seed,
            },
        )
}

/// The stage under test, the map it consults, and what the test knows
/// about both from the outside.
struct Machine {
    act: ActStage,
    map: MapStage,
    rng: StdRng,
    knobs: Knobs,
    tick: u64,
    next_id: usize,
    /// Containers paused since the last resume, in engage order.
    paused: Vec<ContainerId>,
    resumed: HashSet<ContainerId>,
    /// The drift anchor as §3.3 defines it: the first isolated state
    /// after a throttle.
    anchor: Option<Point2>,
    last_resume: Option<(u64, ResumeReason)>,
}

impl Machine {
    fn new(knobs: Knobs) -> Self {
        let config = ControllerConfig {
            metrics: vec![ResourceKind::Cpu],
            beta_initial: 0.01,
            beta_increment: knobs.beta_increment,
            reviolation_window: knobs.reviolation_window,
            optimistic_after: knobs.optimistic_after,
            optimistic_probability: knobs.optimistic_probability,
            actions_enabled: knobs.actions_enabled,
            ..ControllerConfig::default()
        };
        let spec = HostSpec::default();
        let mut map = MapStage::new(&config, &spec, MappingMetrics::default()).expect("map stage");
        let contended = sensed(0, ExecutionMode::CoLocated, 4.0);
        let rep = map.ingest(&contended).expect("ingest").rep;
        map.mark_violation(rep).expect("rep exists");
        map.ingest(&sensed(0, ExecutionMode::CoLocated, 1.5))
            .expect("ingest");
        Machine {
            act: ActStage::new(&config, spec.capacities()),
            map,
            rng: StdRng::seed_from_u64(knobs.seed),
            knobs,
            tick: 0,
            next_id: 0,
            paused: Vec::new(),
            resumed: HashSet::new(),
            anchor: None,
            last_resume: None,
        }
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Engage { gap, targets } => {
                self.tick += gap;
                if !self.act.is_throttling() {
                    self.engage(targets)?;
                }
            }
            Op::Period {
                gap,
                sensitive_only,
                x,
                batch,
            } => {
                self.tick += gap;
                self.period(sensitive_only, Point2::new(x, 0.0), batch)?;
            }
            Op::Violation { gap } => {
                self.tick += gap;
                self.violation()?;
            }
        }
        Ok(())
    }

    fn engage(&mut self, targets: usize) -> Result<(), TestCaseError> {
        let ids: Vec<ContainerId> = (0..targets)
            .map(|i| ContainerId::from_raw(self.next_id + i))
            .collect();
        self.next_id += targets;
        let (engaged, pauses) = self.act.engage(self.tick, ids.clone());
        if !self.knobs.actions_enabled {
            prop_assert!(!engaged && pauses.is_empty(), "observe-only mode paused");
            prop_assert!(!self.act.is_throttling());
            return Ok(());
        }
        prop_assert!(engaged && self.act.is_throttling());
        let want: Vec<Action> = ids.iter().copied().map(Action::Pause).collect();
        prop_assert_eq!(pauses, want);
        self.paused.extend(ids);
        self.anchor = None;
        Ok(())
    }

    /// One period; returns the resume reason if the throttle ended.
    fn period(
        &mut self,
        sensitive_only: bool,
        point: Point2,
        batch: Batch,
    ) -> Result<Option<ResumeReason>, TestCaseError> {
        let mode = if sensitive_only {
            ExecutionMode::SensitiveOnly
        } else {
            ExecutionMode::CoLocated
        };
        let drift = match (mode, self.anchor) {
            (ExecutionMode::SensitiveOnly, Some(anchor)) => anchor.distance(point),
            (ExecutionMode::SensitiveOnly, None) => {
                self.anchor = Some(point);
                0.0
            }
            _ => 0.0,
        };
        let (throttling, beta) = (self.act.is_throttling(), self.act.beta());
        let sensed = sensed(self.tick, mode, 1.0);
        let decision =
            self.act
                .maybe_resume(&self.map, &sensed, point, batch.usage(), &mut self.rng);
        prop_assert_eq!(self.act.beta(), beta, "β moved without a violation");
        match decision {
            ResumeDecision::Hold => {
                // A drift beyond β always signals; only the veto holds it.
                prop_assert!(!throttling || drift <= beta, "phase change held");
                prop_assert_eq!(self.act.is_throttling(), throttling);
                Ok(None)
            }
            ResumeDecision::Vetoed => {
                prop_assert!(throttling, "vetoed while running");
                prop_assert!(drift > beta, "an optimistic resume was vetoed");
                prop_assert!(self.act.is_throttling());
                Ok(None)
            }
            ResumeDecision::Resumed { reason, actions } => {
                prop_assert!(throttling, "resumed while running");
                let phase_change = drift > beta;
                prop_assert_eq!(reason == ResumeReason::PhaseChange, phase_change);
                let ended: Vec<ContainerId> = self.paused.drain(..).collect();
                let want: Vec<Action> = ended.iter().copied().map(Action::Resume).collect();
                prop_assert_eq!(actions, want, "resumed other than the pauses");
                for id in ended {
                    prop_assert!(self.resumed.insert(id), "{:?} resumed twice", id);
                }
                prop_assert!(!self.act.is_throttling());
                self.anchor = None;
                self.last_resume = Some((self.tick, reason));
                Ok(Some(reason))
            }
        }
    }

    /// What the stage observes when every action it issued arrived: the
    /// current throttle's targets paused, every other container running.
    fn faithful(&self) -> Observation {
        let containers = (0..self.next_id)
            .map(ContainerId::from_raw)
            .map(|id| ContainerObs {
                id,
                name: "batch".into(),
                class: AppClass::Batch,
                active: !self.paused.contains(&id),
                paused: self.paused.contains(&id),
                finished: false,
                usage: ResourceVector::zero(),
                ipc: 1.0,
                priority: 0,
            });
        Observation {
            containers: containers.collect(),
            ..Observation::default()
        }
    }

    fn violation(&mut self) -> Result<(), TestCaseError> {
        let before = self.act.beta();
        let blamed = match self.last_resume {
            Some((resumed, reason))
                if self.tick.saturating_sub(resumed) <= self.knobs.reviolation_window =>
            {
                self.last_resume = None;
                reason == ResumeReason::PhaseChange
            }
            _ => false,
        };
        prop_assert_eq!(self.act.note_violation(self.tick), blamed);
        let after = self.act.beta();
        if blamed {
            prop_assert_eq!(after, before + self.knobs.beta_increment);
        } else {
            prop_assert_eq!(after, before);
        }
        Ok(())
    }
}

fn sensed(tick: u64, mode: ExecutionMode, total: f64) -> Sensed {
    Sensed {
        tick,
        mode,
        violated: false,
        raw: vec![1.0, total],
        rejected: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn act_stage_keeps_its_section_3_3_promises(
        knobs in knobs(vec![0.0, 0.3, 1.0]),
        ops in proptest::collection::vec(op(), 1..200),
    ) {
        let mut machine = Machine::new(knobs);
        for op in &ops {
            machine.apply(op)?;
            let (observed, mut reissued) = (machine.faithful(), Vec::new());
            prop_assert_eq!(machine.act.reconcile(&observed, &mut reissued), 0);
            prop_assert!(reissued.is_empty());
        }
    }

    #[test]
    fn a_zero_drift_throttle_resumes_within_the_backoff_cap(
        knobs in knobs(vec![1.0]),
        ops in proptest::collection::vec(op(), 0..200),
    ) {
        let knobs = Knobs { actions_enabled: true, ..knobs };
        let bound = knobs.optimistic_after * 6;
        let mut machine = Machine::new(knobs);
        for op in &ops {
            machine.apply(op)?;
        }
        machine.tick += 1;
        if !machine.act.is_throttling() {
            machine.engage(1)?;
        }
        // Zero drift: every period sits on the anchor. The remembered
        // batch usage would veto a phase change, which must not matter.
        let at = machine.anchor.unwrap_or(Point2::new(0.0, 0.0));
        let mut periods = 0;
        loop {
            periods += 1;
            prop_assert!(periods <= bound, "still throttled after {} periods", bound);
            machine.tick += 1;
            if let Some(reason) = machine.period(true, at, Batch::Violating)? {
                prop_assert_eq!(reason, ResumeReason::Optimistic);
                break;
            }
        }
    }
}
