//! Offline stand-in for `criterion`.
//!
//! Implements the benchmarking surface this workspace's timing bench
//! targets use: [`Criterion::benchmark_group`], the group's
//! `bench_function` / `bench_with_input` / `sample_size` / `finish`,
//! [`BenchmarkId`], and the [`criterion_group!`]/[`criterion_main!`]
//! macros. Measurement is plain
//! wall-clock sampling — each sample times a batch of iterations sized so a
//! batch takes roughly a millisecond — reporting mean, median and min per
//! iteration. No warmup plots, HTML reports or statistical regression.

use std::time::{Duration, Instant};

/// Identifies one benchmark within a group, optionally parameterised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A benchmark named `function_name` at parameter `parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// A benchmark identified by its parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId {
            label: label.to_string(),
        }
    }
}

/// Passed to the closure given to `bench_function`; runs the measured body.
pub struct Bencher {
    samples: usize,
    /// Per-iteration timings collected by [`Bencher::iter`], in seconds.
    timings: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, collecting `samples` samples of auto-sized batches.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Size batches so one batch takes ~1ms, bounding timer overhead
        // without letting a single sample run long.
        let probe_start = Instant::now();
        std::hint::black_box(routine());
        let probe = probe_start.elapsed().max(Duration::from_nanos(1));
        let per_batch = (Duration::from_millis(1).as_nanos() / probe.as_nanos()).clamp(1, 10_000);

        self.timings.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..per_batch {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed().as_secs_f64() / per_batch as f64;
            self.timings.push(elapsed);
        }
    }
}

fn format_seconds(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} \u{b5}s", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// A named collection of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(2);
        self
    }

    /// Runs and reports one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            samples: self.sample_size,
            timings: Vec::new(),
        };
        f(&mut bencher);
        self.report(&id, &mut bencher.timings);
        self
    }

    /// Runs and reports one benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut bencher = Bencher {
            samples: self.sample_size,
            timings: Vec::new(),
        };
        f(&mut bencher, input);
        self.report(&id, &mut bencher.timings);
        self
    }

    fn report(&self, id: &BenchmarkId, timings: &mut [f64]) {
        if timings.is_empty() {
            println!("{}/{}: no samples (b.iter never called)", self.name, id);
            return;
        }
        // total_cmp: a NaN timing (zero-duration clock glitch divided
        // away) must not panic the whole bench run.
        timings.sort_by(f64::total_cmp);
        let mean = timings.iter().sum::<f64>() / timings.len() as f64;
        let median = timings[timings.len() / 2];
        println!(
            "{}/{}: mean {}  median {}  min {}  ({} samples)",
            self.name,
            id,
            format_seconds(mean),
            format_seconds(median),
            format_seconds(timings[0]),
            timings.len()
        );
    }

    /// Ends the group. Reporting happens per-benchmark; this is a no-op
    /// kept for API compatibility.
    pub fn finish(self) {}
}

/// Top-level benchmark driver handed to each registered bench function.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("benchmark group: {name}");
        BenchmarkGroup {
            name,
            sample_size: self.default_sample_size,
            _criterion: self,
        }
    }
}

/// Bundles bench functions under one name for [`criterion_main!`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main()` running each registered group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("unit");
        group.sample_size(3);
        group.bench_function("sum", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
        });
        group.bench_with_input(BenchmarkId::new("sum_to", 50u64), &50u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>());
        });
        group.finish();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 8).to_string(), "f/8");
        assert_eq!(BenchmarkId::from_parameter(128).to_string(), "128");
    }

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("macro");
        group.bench_function("noop", |b| b.iter(|| 1u32 + 1));
        group.finish();
    }

    criterion_group!(group_macro_expands, sample_bench);

    #[test]
    fn group_macro_is_callable() {
        group_macro_expands();
    }
}
