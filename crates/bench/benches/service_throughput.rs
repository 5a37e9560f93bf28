//! **Service throughput** — worker-count scaling of the concurrent
//! [`KemService`] against the single-thread hot-path engine.
//!
//! For every parameter set this bench measures, closed-loop:
//!
//! * `matvec`: a burst of `A·s` jobs through pools of 1/2/4/8 workers,
//!   with the raw single-thread time of the engine the workers run
//!   ([`EngineKind::default`]) as the work roofline;
//! * `kem_mixed` (Saber): the deterministic load generator's default
//!   server mix through the same pool sizes, against a sequential run
//!   of the identical plan.
//!
//! Scaling numbers are only honest when the host has as many cores as
//! the pool has workers. Each entry therefore records the host's
//! `available_parallelism` **at its own measurement time** and carries
//! a **basis** tag: `measured` when the cores were there and the
//! measurement agrees with the model, `projected` from the calibrated
//! roofline `work_ns / workers + dispatch_overhead_ns` when
//! core-starved (the same modeling convention as the
//! `coprocessor_projection` bench), and `degraded` when the host
//! nominally had the cores but measured >2× the projection. Both
//! numbers are always recorded in `BENCH_service.json`; speedups over
//! 1 worker are derived from those rows (printed, not stored).
//!
//! The bench then runs an **open-loop overload soak**: Poisson and
//! bursty heavy-tail arrival traces offered at ≥2× the 4-worker pool's
//! measured closed-loop capacity, recording goodput, shed counts, and
//! p50/p99 queue wait into the report's `soak` section.

use std::sync::Arc;
use std::time::Instant;

use saber_bench::tables::{host_parallelism, ServiceBenchReport, SoakBenchEntry};
use saber_kem::expand::{gen_matrix, gen_secret};
use saber_kem::params::{ALL_PARAMS, SABER};
use saber_ring::EngineKind;
use saber_service::loadgen::{
    build_plan, run_open_loop, run_sequential, run_service, ArrivalProcess, LoadPlan,
    LoadProfile, OpMix,
};
use saber_service::{KemService, ServiceConfig};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Jobs per closed-loop measurement burst.
const MATVEC_JOBS: usize = 64;
/// Ops in the mixed-KEM plan.
const KEM_OPS: usize = 48;

/// Mean ns/op of `f` over `reps` runs of `jobs` operations each,
/// after one warmup run.
fn measure_per_op(jobs: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup: fills multiplier caches, faults pages, parks threads
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_nanos() as f64 / (reps * jobs) as f64
}

/// Times `work` on one thread — the roofline: the workers' engine, no
/// service — then `job_burst` through pools of every size in
/// [`WORKER_COUNTS`], recording each pool against the roofline. Both
/// closures run `jobs` operations per call.
fn bench_scaling(
    report: &mut ServiceBenchReport,
    (params, op): (&str, &str),
    (jobs, reps): (usize, usize),
    work: impl FnMut(),
    job_burst: impl Fn(&KemService),
) {
    let work_ns = measure_per_op(jobs, reps, work);
    let mut overhead_ns = 0.0;
    for &workers in &WORKER_COUNTS {
        let service = KemService::spawn(&ServiceConfig {
            workers,
            queue_capacity: jobs,
            ..ServiceConfig::default()
        });
        let measured_ns = measure_per_op(jobs, reps, || job_burst(&service));
        drop(service);
        if workers == 1 {
            // Calibrate dispatch overhead from the 1-worker pool: it
            // runs the same single-thread work plus queue+slot costs.
            overhead_ns = (measured_ns - work_ns).max(0.0);
        }
        let projected_ns = work_ns / workers as f64 + overhead_ns;
        report.push(params, op, workers as u64, host_parallelism(), measured_ns, projected_ns);
    }
}

fn bench_matvec(report: &mut ServiceBenchReport) {
    for params in &ALL_PARAMS {
        let matrix = Arc::new(gen_matrix(&[0x5a; 32], params));
        let secret = Arc::new(gen_secret(&[0xa5; 32], params));
        let mut backend = EngineKind::default().build();
        let work = || {
            for _ in 0..MATVEC_JOBS {
                let _ = std::hint::black_box(matrix.mul_vec(&secret, backend.as_mut()));
            }
        };
        bench_scaling(report, (params.name, "matvec"), (MATVEC_JOBS, 3), work, |service| {
            let handles: Vec<_> = (0..MATVEC_JOBS)
                .map(|_| {
                    service
                        .submit_matvec(Arc::clone(&matrix), Arc::clone(&secret))
                        .expect("queue sized for the burst")
                })
                .collect();
            for h in handles {
                let _ = std::hint::black_box(h.wait().expect("matvec job"));
            }
        });
    }
}

fn bench_kem_mixed(report: &mut ServiceBenchReport) {
    let plan: LoadPlan = build_plan(&LoadProfile::new(&SABER, 0xBE_EF, KEM_OPS));
    let mut backend = EngineKind::default().build();
    let work = || {
        let _ = std::hint::black_box(run_sequential(&plan, backend.as_mut()));
    };
    bench_scaling(report, (SABER.name, "kem_mixed"), (KEM_OPS, 2), work, |service| {
        let _ = std::hint::black_box(run_service(&plan, service, KEM_OPS).expect("load run"));
    });
}

/// Overload multiple the soak offers relative to measured capacity.
const OVERLOAD_X: f64 = 2.0;
/// Jobs per soak trace.
const SOAK_OPS: usize = 256;
/// Worker count under soak.
const SOAK_WORKERS: usize = 4;

fn bench_soak(report: &mut ServiceBenchReport) {
    // Measure the pool's closed-loop mat-vec capacity, then offer 2×
    // that rate open-loop. Mat-vec-only keeps per-job cost uniform so
    // "2× overload" means what it says.
    let mut profile = LoadProfile::new(&SABER, 0x50AC, SOAK_OPS);
    profile.mix = OpMix::matvec_only();
    let plan = build_plan(&profile);

    let service = KemService::spawn(&ServiceConfig {
        workers: SOAK_WORKERS,
        queue_capacity: 32,
        ..ServiceConfig::default()
    });
    let closed_ns_per_op = measure_per_op(SOAK_OPS, 2, || {
        let _ = std::hint::black_box(run_service(&plan, &service, 32).expect("load run"));
    });
    drop(service);
    // Offered rate = OVERLOAD_X × capacity ⇒ mean gap = service time / OVERLOAD_X.
    let mean_gap_ns = (closed_ns_per_op / OVERLOAD_X).max(1.0) as u64;

    for process in [
        ArrivalProcess::Poisson { mean_gap_ns },
        ArrivalProcess::Bursty { mean_gap_ns },
    ] {
        let service = KemService::spawn(&ServiceConfig {
            workers: SOAK_WORKERS,
            queue_capacity: 32,
            ..ServiceConfig::default()
        });
        let outcome = run_open_loop(&plan, &service, process, 0x50AC_5EED).expect("soak run");
        drop(service);
        report.soak.push(SoakBenchEntry {
            trace: process.label().into(),
            workers: SOAK_WORKERS as u64,
            overload_x: OVERLOAD_X,
            offered_per_sec: outcome.offered_per_sec(),
            goodput_per_sec: outcome.goodput_per_sec(),
            shed: outcome.shed,
            p50_wait_ns: outcome.p50_wait_ns,
            p99_wait_ns: outcome.p99_wait_ns,
        });
    }
}

fn main() {
    println!("\n=== Concurrent KEM service throughput (worker scaling) ===\n");

    let mut report = ServiceBenchReport {
        host_parallelism: host_parallelism(),
        ..ServiceBenchReport::default()
    };
    bench_matvec(&mut report);
    bench_kem_mixed(&mut report);
    bench_soak(&mut report);

    println!("{}", report.format_text());

    report.report().write("BENCH_service.json");
}
