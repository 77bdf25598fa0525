//! The action step: throttle management and β learning (§3.3).
//!
//! Once the batch applications are paused, the controller watches the
//! distance between *consecutive isolated states* of the sensitive
//! application. Small distances mean same phase, same workload — resuming
//! would recreate the contention. A distance above the learned threshold β
//! signals a phase/workload change and triggers a resume. β starts at 0.01
//! and grows whenever a phase-change resume is immediately followed by a
//! violation ("the phase change … was not enough to avoid degradation").
//! A random factor resumes the batch application after long stable periods
//! so it cannot starve forever; a failed random probe is an accepted
//! gamble and does not inflate β.
//!
//! The signal/commit split lets the controller veto a resume against its
//! state map ("the system does not resume the batch application until
//! the system believes that resuming … will not cause a performance
//! degradation"):
//! [`ThrottleManager::resume_signal`] only reports that the §3.3 conditions
//! hold; the resume happens when the controller calls
//! [`ThrottleManager::commit_resume`].

use crate::stats::ResumeReason;
use rand::Rng;

/// Throttle state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottleManager {
    beta: f64,
    beta_increment: f64,
    reviolation_window: u64,
    optimistic_after: u64,
    optimistic_probability: f64,
    throttled: bool,
    stable_ticks: u64,
    last_resume: Option<(u64, ResumeReason)>,
    /// Multiplier on `optimistic_after`, doubled whenever an optimistic
    /// probe immediately re-violates and reset when a resume survives:
    /// probing a co-runner that never changes phase (CPUBomb) becomes
    /// exponentially rarer instead of paying a violation per probe.
    optimistic_backoff: f64,
}

impl ThrottleManager {
    /// Creates the manager.
    ///
    /// # Panics
    ///
    /// Panics if `beta_initial <= 0` (validated upstream by
    /// [`crate::ControllerConfig::validate`]).
    pub fn new(
        beta_initial: f64,
        beta_increment: f64,
        reviolation_window: u64,
        optimistic_after: u64,
        optimistic_probability: f64,
    ) -> Self {
        assert!(beta_initial > 0.0, "beta must start positive");
        ThrottleManager {
            beta: beta_initial,
            beta_increment,
            reviolation_window,
            optimistic_after,
            optimistic_probability,
            throttled: false,
            stable_ticks: 0,
            last_resume: None,
            optimistic_backoff: 1.0,
        }
    }

    /// The current β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// True while the batch applications are paused.
    pub fn is_throttled(&self) -> bool {
        self.throttled
    }

    /// Records that the batch applications were just paused at `tick`. A
    /// preceding resume that survived beyond the re-violation window was a
    /// success and resets the optimistic backoff.
    pub fn note_throttle(&mut self, tick: u64) {
        if let Some((resumed, _)) = self.last_resume {
            if tick.saturating_sub(resumed) > self.reviolation_window {
                self.optimistic_backoff = 1.0;
            }
        }
        self.throttled = true;
        self.stable_ticks = 0;
    }

    /// While throttled: reports whether the §3.3 resume conditions hold,
    /// given the distance between the last two isolated sensitive states.
    /// Does **not** change the throttle state — the controller either
    /// vetoes the signal or commits it with
    /// [`ThrottleManager::commit_resume`].
    pub fn resume_signal<R: Rng + ?Sized>(
        &mut self,
        step_length: f64,
        rng: &mut R,
    ) -> Option<ResumeReason> {
        if !self.throttled {
            return None;
        }
        if step_length > self.beta {
            return Some(ResumeReason::PhaseChange);
        }
        self.stable_ticks += 1;
        let required = (self.optimistic_after as f64 * self.optimistic_backoff) as u64;
        if self.stable_ticks >= required && rng.gen_range(0.0..1.0) < self.optimistic_probability {
            return Some(ResumeReason::Optimistic);
        }
        None
    }

    /// Commits a resume signalled by [`ThrottleManager::resume_signal`].
    pub fn commit_resume(&mut self, tick: u64, reason: ResumeReason) {
        self.throttled = false;
        self.stable_ticks = 0;
        self.last_resume = Some((tick, reason));
    }

    /// Records an observed violation at `tick`. If it follows a
    /// *phase-change* resume within the re-violation window, the phase
    /// change "was not enough": β is incremented and `true` is returned.
    /// Optimistic probes are expected to fail sometimes and never inflate
    /// β.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn manager() -> ThrottleManager {
        ThrottleManager::new(0.01, 0.01, 3, 5, 1.0)
    }

    #[test]
    fn starts_unthrottled() {
        let m = manager();
        assert!(!m.is_throttled());
        assert_eq!(m.beta(), 0.01);
    }

    #[test]
    fn phase_change_signals_resume() {
        let mut m = manager();
        m.note_throttle(0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.resume_signal(0.005, &mut rng), None);
        assert!(m.is_throttled());
        assert_eq!(
            m.resume_signal(0.05, &mut rng),
            Some(ResumeReason::PhaseChange)
        );
        // Still throttled until committed.
        assert!(m.is_throttled());
        m.commit_resume(2, ResumeReason::PhaseChange);
        assert!(!m.is_throttled());
    }

    #[test]
    fn optimistic_signal_after_stability() {
        let mut m = manager(); // probability 1.0 → fires as soon as eligible
        m.note_throttle(0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..4 {
            assert_eq!(m.resume_signal(0.0, &mut rng), None);
        }
        assert_eq!(
            m.resume_signal(0.0, &mut rng),
            Some(ResumeReason::Optimistic)
        );
    }

    #[test]
    fn optimistic_signal_respects_probability_zero() {
        let mut m = ThrottleManager::new(0.01, 0.01, 3, 2, 0.0);
        m.note_throttle(0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(m.resume_signal(0.0, &mut rng), None);
        }
        assert!(m.is_throttled());
    }

    #[test]
    fn premature_phase_change_resume_increases_beta() {
        let mut m = manager();
        m.note_throttle(0);
        m.commit_resume(10, ResumeReason::PhaseChange);
        assert!(m.note_violation(12)); // within window
        assert!((m.beta() - 0.02).abs() < 1e-12);
        // No double blame for a second violation.
        assert!(!m.note_violation(13));
    }

    #[test]
    fn failed_optimistic_probe_does_not_inflate_beta() {
        let mut m = manager();
        m.note_throttle(0);
        m.commit_resume(10, ResumeReason::Optimistic);
        assert!(!m.note_violation(11));
        assert_eq!(m.beta(), 0.01);
    }

    #[test]
    fn late_violation_does_not_blame_resume() {
        let mut m = manager();
        m.note_throttle(0);
        m.commit_resume(10, ResumeReason::PhaseChange);
        assert!(!m.note_violation(20));
        assert_eq!(m.beta(), 0.01);
    }

    #[test]
    fn violation_without_resume_never_blames() {
        let mut m = manager();
        assert!(!m.note_violation(5));
        assert_eq!(m.beta(), 0.01);
    }

    #[test]
    fn resume_signal_is_none_when_not_throttled() {
        let mut m = manager();
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(m.resume_signal(10.0, &mut rng), None);
    }

    #[test]
    fn throttle_resets_stability_counter() {
        let mut m = ThrottleManager::new(0.01, 0.01, 3, 3, 1.0);
        m.note_throttle(0);
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(m.resume_signal(0.0, &mut rng), None);
        assert_eq!(m.resume_signal(0.0, &mut rng), None);
        m.note_throttle(0); // reset
        assert_eq!(m.resume_signal(0.0, &mut rng), None);
        assert_eq!(m.resume_signal(0.0, &mut rng), None);
        assert!(m.resume_signal(0.0, &mut rng).is_some());
    }

    #[test]
    fn vetoed_phase_change_can_fire_again() {
        let mut m = manager();
        m.note_throttle(0);
        let mut rng = StdRng::seed_from_u64(8);
        // The signal fires, the controller vetoes (no commit): the manager
        // stays throttled and signals again next tick.
        assert!(m.resume_signal(0.5, &mut rng).is_some());
        assert!(m.is_throttled());
        assert!(m.resume_signal(0.5, &mut rng).is_some());
    }
}
