//! Dependency-free timing harness.
//!
//! The workspace builds fully offline, so the benches cannot depend on
//! an external harness crate. This module provides the tiny subset of
//! the familiar `Criterion` API the benches actually use — groups,
//! `bench_function`, `Bencher::iter` — backed by plain
//! [`std::time::Instant`]. Every `[[bench]]` target sets
//! `harness = false` and drives it through the [`criterion_group!`](crate::criterion_group) /
//! [`criterion_main!`](crate::criterion_main) macros re-exported from this crate, keeping the
//! bench sources byte-for-byte familiar.
//!
//! Methodology: each `iter` closure is run once as warm-up, then 10
//! timed runs; the reported number is the **minimum** (the standard
//! estimator for deterministic workloads — all noise is positive)
//! alongside the mean. `TRACE_BENCH_SAMPLES` sets the number of timed
//! runs, which CI uses to smoke the benches cheaply.

use std::time::{Duration, Instant};

/// Top-level harness handle, playing Criterion's role.
#[derive(Debug, Default)]
pub struct Criterion;

impl Criterion {
    /// Starts a named group of related measurements.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: std::env::var("TRACE_BENCH_SAMPLES")
                .ok()
                .and_then(|v| v.parse().ok())
                .map_or(10, |n: usize| n.max(1)),
        }
    }
}

/// A named group of measurements sharing sampling settings.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Times one closure and prints a `min / mean` line for it.
    pub fn bench_function(
        &mut self,
        id: impl AsRef<str>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher {
            sample_size: self.sample_size,
            min: Duration::MAX,
            total: Duration::ZERO,
            samples: 0,
        };
        f(&mut b);
        let (min, mean) = b.summary();
        println!(
            "{}/{:<44} min {:>10}   mean {:>10}   ({} samples)",
            self.name,
            id.as_ref(),
            fmt_duration(min),
            fmt_duration(mean),
            b.samples,
        );
        self
    }

    /// Ends the group (a blank separator line, for readability).
    pub fn finish(&mut self) {
        println!();
    }
}

/// Passed to each measurement closure; call [`Bencher::iter`] with the
/// code under test.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    min: Duration,
    total: Duration,
    samples: u32,
}

impl Bencher {
    /// Runs `f` once untimed, then `sample_size` timed runs, folding the
    /// result through [`std::hint::black_box`] so it is not optimised
    /// away.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        std::hint::black_box(f());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(f());
            let elapsed = start.elapsed();
            self.min = self.min.min(elapsed);
            self.total += elapsed;
            self.samples += 1;
        }
    }

    fn summary(&self) -> (Duration, Duration) {
        if self.samples == 0 {
            return (Duration::ZERO, Duration::ZERO);
        }
        (self.min, self.total / self.samples)
    }
}

/// Renders a duration with an adaptive unit (ns / µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Declares a bench entry point running each listed function with a
/// fresh [`Criterion`]. Mirrors the external macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `fn main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($group:ident) => {
        fn main() {
            $group();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_every_sample_and_a_min() {
        let mut b = Bencher {
            sample_size: 4,
            min: Duration::MAX,
            total: Duration::ZERO,
            samples: 0,
        };
        let mut runs = 0u32;
        b.iter(|| {
            runs += 1;
            std::hint::black_box(runs)
        });
        // 1 warm-up + 4 timed.
        assert_eq!(runs, 5);
        assert_eq!(b.samples, 4);
        let (min, mean) = b.summary();
        assert!(min <= mean);
    }

    #[test]
    fn durations_format_with_adaptive_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(900)), "900 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(1_500)), "1.50 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
