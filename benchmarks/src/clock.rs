//! Per-segment clocks and the fastest-segment estimator.
//!
//! On a shared sandbox the wall time of identical work swings by half
//! over tens of seconds (a co-tenant slows the whole VM), so the median
//! of whole repetitions inherits the swing. What does repeat is the time
//! a piece of work takes when nothing disturbs it. A pass therefore
//! clocks its work in *segments* of a few milliseconds — the same
//! segments, in the same order, on every pass — and [`Best`] keeps the
//! fastest time seen for each. Their sum is the pass on a quiet machine,
//! even when no single pass was quiet from end to end.

use crate::stats::Summary;
use std::time::Instant;

/// What a segment counts towards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lap {
    /// What precedes the timed work (`setup_s`): construction, and on
    /// `host-steady` the periods during which the state map forms.
    Setup,
    /// The timed work (`ticks_per_s`).
    Work,
}

/// The segment clocks of one pass. Anything outside a segment is
/// bookkeeping of the benchmark and is not counted.
#[derive(Debug, Default)]
pub struct Laps {
    work: Vec<f64>,
    setup: Vec<f64>,
}

impl Laps {
    /// Runs `f` as the next segment of kind `lap`.
    pub fn lap<R>(&mut self, lap: Lap, f: impl FnOnce() -> R) -> R {
        let clock = Instant::now();
        let result = f();
        let seconds = clock.elapsed().as_secs_f64();
        match lap {
            Lap::Setup => self.setup.push(seconds),
            Lap::Work => self.work.push(seconds),
        }
        result
    }

    /// Runs `f` as the next work segment.
    pub fn work<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.lap(Lap::Work, f)
    }

    /// Runs `f` as the next set-up segment.
    pub fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.lap(Lap::Setup, f)
    }
}

/// The fastest time seen for every segment over the passes absorbed.
#[derive(Debug, Default)]
pub struct Best {
    work: Vec<f64>,
    setup: Vec<f64>,
    pass_work: Vec<f64>,
}

fn keep_fastest(best: &mut Vec<f64>, pass: Vec<f64>, what: &str) -> Result<(), String> {
    if best.is_empty() {
        *best = pass;
    } else if best.len() != pass.len() {
        return Err(format!(
            "a pass clocked {} {what} segments, the first pass {} — the work is not identical",
            pass.len(),
            best.len()
        ));
    } else {
        for (b, p) in best.iter_mut().zip(pass) {
            *b = b.min(p);
        }
    }
    Ok(())
}

impl Best {
    /// Folds one pass in.
    ///
    /// # Errors
    ///
    /// A pass whose segment count differs from the first pass's: the
    /// passes did not do the same work.
    pub fn absorb(&mut self, laps: Laps) -> Result<(), String> {
        self.pass_work.push(laps.work.iter().sum());
        keep_fastest(&mut self.work, laps.work, "work")?;
        keep_fastest(&mut self.setup, laps.setup, "set-up")
    }

    /// Passes absorbed.
    pub fn passes(&self) -> usize {
        self.pass_work.len()
    }

    /// Work segments per pass.
    pub fn segments(&self) -> usize {
        self.work.len()
    }

    /// Seconds of work in a pass whose every segment ran undisturbed.
    pub fn work_s(&self) -> f64 {
        self.work.iter().sum()
    }

    /// Seconds of set-up in such a pass.
    pub fn setup_s(&self) -> f64 {
        self.setup.iter().sum()
    }

    /// Work seconds of whole passes as they ran, disturbances included.
    pub fn pass_work(&self) -> Summary {
        Summary::of(&self.pass_work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(work: &[f64], setup: &[f64]) -> Laps {
        Laps {
            work: work.to_vec(),
            setup: setup.to_vec(),
        }
    }

    #[test]
    fn best_sums_the_fastest_time_of_each_segment() {
        let mut best = Best::default();
        best.absorb(pass(&[1.0, 5.0], &[0.5])).unwrap();
        best.absorb(pass(&[4.0, 2.0], &[0.25])).unwrap();
        assert_eq!((best.passes(), best.segments()), (2, 2));
        assert_eq!((best.work_s(), best.setup_s()), (3.0, 0.25));
        assert_eq!(best.pass_work().median, 6.0);
    }

    #[test]
    fn a_pass_of_another_shape_is_refused() {
        let mut best = Best::default();
        best.absorb(pass(&[1.0, 1.0], &[])).unwrap();
        assert!(best.absorb(pass(&[1.0], &[])).is_err());
    }

    #[test]
    fn laps_clock_what_they_run() {
        let mut laps = Laps::default();
        let answer = laps.work(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        laps.setup(|| ());
        assert_eq!(answer, 42);
        assert!(laps.work[0] >= 0.002 && laps.setup.len() == 1);
    }
}
