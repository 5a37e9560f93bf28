//! A dependency-free stand-in for the slice of the Criterion API the
//! bench targets use.
//!
//! The workspace builds in fully offline environments where `criterion`
//! cannot be resolved, so the bench targets link this module instead
//! (`use saber_bench::microbench::{black_box, Criterion}`). The API is
//! source-compatible with the subset the benches exercise — groups,
//! `sample_size`, `bench_function`, `finish`, `final_summary` — and the
//! measurement loop follows the same shape: a warm-up pass, then
//! `sample_size` timed samples, each over enough iterations to clear
//! the timer's resolution.
//!
//! # Examples
//!
//! ```
//! use saber_bench::microbench::{black_box, Criterion};
//!
//! let mut c = Criterion::default().configure_from_args();
//! let mut group = c.benchmark_group("example");
//! group.sample_size(10);
//! group.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2)));
//! group.finish();
//! ```

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Default number of timed samples per benchmark function.
const DEFAULT_SAMPLE_SIZE: usize = 10;

/// Target wall-clock spent per sample; iterations are scaled to reach
/// it so fast functions are not dominated by timer noise.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(20);

/// A summary of one benchmark function's timed samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Fastest per-iteration time observed.
    pub min: Duration,
    /// Mean per-iteration time across samples.
    pub mean: Duration,
    /// Slowest per-iteration time observed.
    pub max: Duration,
    /// Total iterations executed while sampling.
    pub iterations: u64,
}

/// The timing context handed to each benchmark closure.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    iterations: u64,
}

impl Bencher {
    /// Times `routine`: one warm-up call, then `sample_size` samples of
    /// however many iterations reach the per-sample time target.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up; also primes caches and page-ins

        // Calibrate the per-sample iteration count.
        let probe = Instant::now();
        black_box(routine());
        let once = probe.elapsed().max(Duration::from_nanos(1));
        let iters_per_sample = (TARGET_SAMPLE_TIME.as_nanos() / once.as_nanos()).clamp(1, 100_000);

        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            self.samples
                .push(elapsed / u32::try_from(iters_per_sample).expect("clamped to 100k"));
            self.iterations += iters_per_sample as u64;
        }
    }

    fn measurement(&self) -> Measurement {
        let min = self.samples.iter().min().copied().unwrap_or_default();
        let max = self.samples.iter().max().copied().unwrap_or_default();
        let mean = if self.samples.is_empty() {
            Duration::ZERO
        } else {
            self.samples.iter().sum::<Duration>() / self.samples.len() as u32
        };
        Measurement {
            min,
            mean,
            max,
            iterations: self.iterations,
        }
    }
}

/// One named group of benchmark functions.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per function.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs and records one benchmark function.
    pub fn bench_function<S: Into<String>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = Bencher {
            samples: Vec::with_capacity(self.sample_size),
            sample_size: self.sample_size,
            iterations: 0,
        };
        f(&mut bencher);
        let m = bencher.measurement();
        println!(
            "{}/{:<40} time: [{:>12?} {:>12?} {:>12?}]  ({} iters)",
            self.name, id, m.min, m.mean, m.max, m.iterations
        );
        self.criterion.results.push((format!("{}/{}", self.name, id), m));
        self
    }

    /// Ends the group (accepted for API compatibility; results are
    /// recorded eagerly).
    pub fn finish(self) {}
}

/// The top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<(String, Measurement)>,
}

impl Criterion {
    /// Accepts (and ignores) CLI arguments; Criterion-compatible entry
    /// point so `cargo bench -- <filter>` invocations do not error.
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: DEFAULT_SAMPLE_SIZE,
            criterion: self,
        }
    }

    /// All recorded `(id, measurement)` pairs.
    #[must_use]
    pub fn results(&self) -> &[(String, Measurement)] {
        &self.results
    }

    /// Prints the closing summary line.
    pub fn final_summary(&mut self) {
        println!("benchmarked {} function(s)", self.results.len());
    }
}

/// Mean nanoseconds per `saber_trace::span` over `iters` calls, in
/// whatever trace/flight state the caller set up.
fn span_ns(iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        let _ = black_box(saber_trace::span("bench", "probe"));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Mean cost in nanoseconds of one *disabled* tracing probe — a
/// `saber_trace::span` call with both the trace session and the flight
/// recorder off, the configuration production code ships in (the
/// flight recorder adds one relaxed atomic load to the session check).
/// This is the number the `trace_overhead` gate thresholds and
/// `BENCH_trace.json` records.
///
/// # Panics
///
/// Panics if a trace session is active or the flight recorder is armed
/// (the measurement would then time a recording path).
#[must_use]
pub fn disabled_probe_ns() -> f64 {
    assert!(
        !saber_trace::enabled(),
        "disabled-probe measurement requires no active trace session"
    );
    assert!(
        !saber_trace::flight::enabled(),
        "disabled-probe measurement requires the flight recorder off"
    );
    span_ns(1_000_000); // warm-up: caches, branch predictors, clock ramp
    span_ns(4_000_000)
}

/// Mean cost in nanoseconds of one span recorded into the flight ring
/// (recorder armed, no trace session) — the always-on production price
/// once a service arms the recorder at spawn.
///
/// # Panics
///
/// Panics if the armed spans are not recorded into the ring.
#[must_use]
pub fn flight_armed_span_ns() -> f64 {
    use saber_trace::flight;
    let before = flight::recorded_total();
    flight::set_enabled(true);
    let iters: u64 = 200_000;
    let ns = span_ns(iters);
    flight::set_enabled(false);
    let recorded = flight::recorded_total() - before;
    flight::clear_current_thread();
    assert!(
        recorded >= iters,
        "every armed span must be recorded into the flight ring"
    );
    ns
}

/// Mean cost in nanoseconds of one recorded span while a session is
/// live (the price of *profiling*, not of shipping instrumented code).
#[must_use]
pub fn enabled_span_ns() -> f64 {
    let session = saber_trace::start();
    let iters: u64 = 200_000;
    let ns = span_ns(iters);
    let trace = session.finish();
    assert!(
        trace.len() >= iters as usize,
        "every enabled span must be recorded"
    );
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut c = Criterion::default().configure_from_args();
        {
            let mut group = c.benchmark_group("shim");
            group.sample_size(3);
            group.bench_function("noop", |b| b.iter(|| black_box(2u32) * 2));
            group.finish();
        }
        assert_eq!(c.results().len(), 1);
        let (id, m) = &c.results()[0];
        assert_eq!(id, "shim/noop");
        assert!(m.iterations >= 3);
        assert!(m.min <= m.mean && m.mean <= m.max);
        c.final_summary();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sample_size_rejected() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("bad");
        group.sample_size(0);
    }
}
