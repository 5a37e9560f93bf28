//! The open-loop service probe: what a service operator sees.
//!
//! One generator thread offers `loadgen`'s default op mix (1:4:4:3
//! keygen/encaps/decaps/raw mat-vec over its 4-key keyring) to a
//! `KemService` with shipped defaults and `workers = max(1, nproc − 1)`,
//! at a fixed Poisson rate of [`OFFERED_OPS_PER_S`] — about half of one
//! worker's capacity (~1.9k ops/s) when the benchmark was defined. The
//! loop is open: requests are submitted when due whether or not earlier
//! ones are done. Every traced run reports the `service.*` and
//! `loadgen.*` metrics from this probe.
//!
//! The generator records how late it submitted each request
//! (`loadgen.*`); a probe where more than [`MAX_LATE_FRACTION`] of
//! requests went out over [`LATE_US`] late makes the run invalid.
//!
//! Checks: every result's digest must equal `loadgen::recompute_entry`
//! on the same plan, recomputed on `SchoolbookMultiplier` after the
//! probe. Shed and failed requests count as errors.

use std::sync::Arc;
use std::time::{Duration, Instant};

use saber_keccak::Sha3_256;
use saber_kem::{serialize, Ciphertext, KemSecretKey, PublicKey, SharedSecret, SABER};
use saber_ring::mul::SchoolbookMultiplier;
use saber_ring::PolyVec;
use saber_service::loadgen::{
    arrival_gaps, build_plan, recompute_entry, ArrivalProcess, LoadPlan, LoadProfile, PlannedOp,
};
use saber_service::{JobError, JobHandle, KemService, OpKind, ServiceConfig, SubmitError};

use crate::stats::quantile;
use crate::Outcome;

/// Offered load, requests per second.
pub const OFFERED_OPS_PER_S: f64 = 900.0;

/// Distinct planned requests; the schedule cycles through them.
pub const PLAN_OPS: usize = 1200;

/// A request submitted more than this long after its due time is late.
pub const LATE_US: f64 = 2000.0;

/// Largest share of late requests a valid run may have.
pub const MAX_LATE_FRACTION: f64 = 0.05;

const SALT: u64 = 0x7365_7276_6963_6500;

/// Requests submitted and awaited before the open loop starts.
const WARMUP_OPS: usize = 16;

enum Pending {
    Keygen(JobHandle<(PublicKey, KemSecretKey)>),
    Encaps(JobHandle<(Ciphertext, SharedSecret)>),
    Decaps(JobHandle<SharedSecret>),
    MatVec(JobHandle<PolyVec<13>>),
}

enum Output {
    Keygen(Box<(PublicKey, KemSecretKey)>),
    Encaps(Box<(Ciphertext, SharedSecret)>),
    Decaps(SharedSecret),
    MatVec(PolyVec<13>),
}

impl Pending {
    fn is_ready(&self) -> bool {
        match self {
            Pending::Keygen(h) => h.is_ready(),
            Pending::Encaps(h) => h.is_ready(),
            Pending::Decaps(h) => h.is_ready(),
            Pending::MatVec(h) => h.is_ready(),
        }
    }

    fn wait(self) -> Result<Output, JobError> {
        Ok(match self {
            Pending::Keygen(h) => Output::Keygen(Box::new(h.wait()?)),
            Pending::Encaps(h) => Output::Encaps(Box::new(h.wait()?)),
            Pending::Decaps(h) => Output::Decaps(h.wait()?),
            Pending::MatVec(h) => Output::MatVec(h.wait()?),
        })
    }
}

impl Output {
    /// The digest `loadgen` records for this result: SHA3-256 over the
    /// result's canonical bytes.
    fn digest(&self) -> [u8; 32] {
        let mut h = Sha3_256::new();
        match self {
            Output::Keygen(kp) => {
                h.update(&serialize::public_key_to_bytes(&kp.0));
                h.update(&serialize::secret_key_to_bytes(&kp.1));
            }
            Output::Encaps(out) => {
                h.update(&serialize::ciphertext_to_bytes(&out.0, &SABER));
                h.update(out.1.as_bytes());
            }
            Output::Decaps(ss) => h.update(ss.as_bytes()),
            Output::MatVec(v) => {
                for poly in v.iter() {
                    for &c in poly.coeffs() {
                        h.update(&c.to_le_bytes());
                    }
                }
            }
        }
        h.finalize()
    }
}

fn submit(plan: &LoadPlan, service: &KemService, op: &PlannedOp) -> Result<Pending, SubmitError> {
    match op {
        PlannedOp::Keygen { seed } => service
            .submit_keygen(plan.params, *seed)
            .map(Pending::Keygen),
        PlannedOp::Encaps { key, entropy } => service
            .submit_encaps(plan.keyring[*key].0.clone(), *entropy)
            .map(Pending::Encaps),
        PlannedOp::Decaps { key, ct } => service
            .submit_decaps(plan.keyring[*key].1.clone(), (**ct).clone())
            .map(Pending::Decaps),
        PlannedOp::MatVec { matrix, secret } => service
            .submit_matvec(Arc::clone(matrix), Arc::clone(secret))
            .map(Pending::MatVec),
    }
}

/// The pool configuration: shipped defaults, `max(1, nproc − 1)` workers.
#[must_use]
pub fn config() -> ServiceConfig {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    ServiceConfig::with_workers(nproc.saturating_sub(1).max(1))
}

/// Runs the open loop for `duration` from `seed`, adds its requests to
/// `attempted`/`failed` and sets the `service.*` and `loadgen.*` metrics.
pub fn probe(seed: u64, duration: Duration, out: &mut Outcome) {
    let service = KemService::spawn(&config());
    let plan = build_plan(&LoadProfile::new(&SABER, seed ^ SALT, PLAN_OPS));
    for op in &plan.ops[..WARMUP_OPS] {
        let _ = submit(&plan, &service, op).map(Pending::wait);
    }

    let mean_gap_ns = (1e9 / OFFERED_OPS_PER_S) as u64;
    let max_ops = (OFFERED_OPS_PER_S * duration.as_secs_f64() * 1.5) as usize + 64;
    let gaps = arrival_gaps(
        ArrivalProcess::Poisson { mean_gap_ns },
        max_ops,
        seed ^ SALT,
    );

    let mut pending: Vec<(usize, Pending)> = Vec::new();
    let mut done: Vec<(usize, Result<Output, JobError>)> = Vec::new();
    let mut lags_us = Vec::with_capacity(max_ops);
    let mut rejected = 0u64;

    let t0 = Instant::now();
    let mut next = 0usize;
    let mut due = Duration::from_nanos(gaps[0]);
    loop {
        let now = t0.elapsed();
        if due < duration && next + 1 < gaps.len() && now >= due {
            lags_us.push((now - due).as_secs_f64() * 1e6);
            let plan_index = next % PLAN_OPS;
            match submit(&plan, &service, &plan.ops[plan_index]) {
                Ok(handle) => pending.push((plan_index, handle)),
                Err(_) => rejected += 1,
            }
            next += 1;
            due += Duration::from_nanos(gaps[next]);
            continue;
        }
        let mut i = 0;
        while i < pending.len() {
            if pending[i].1.is_ready() {
                let (plan_index, handle) = pending.swap_remove(i);
                done.push((plan_index, handle.wait()));
            } else {
                i += 1;
            }
        }
        let finished = due >= duration || next + 1 >= gaps.len();
        if finished && pending.is_empty() {
            break;
        }
        // Spin: a sleeping generator is woken late by the host and, when
        // it shares a core with a worker, preempts it on every wake-up.
        std::hint::spin_loop();
    }
    let report = service.shutdown();
    let wall = t0.elapsed();

    // Oracle: every planned entry recomputed on the schoolbook backend.
    let oracle = oracle_digests(&plan);
    out.attempted += next as u64;
    out.failed += rejected;
    for (plan_index, result) in &done {
        if !matches!(result, Ok(o) if o.digest() == oracle[*plan_index]) {
            out.failed += 1;
        }
    }

    let late = lags_us.iter().filter(|&&l| l > LATE_US).count() as f64;
    let late_fraction = late / lags_us.len().max(1) as f64;
    if late_fraction > MAX_LATE_FRACTION {
        out.invalid.push(format!(
            "service probe generator fell behind: {:.2}% of requests over {LATE_US} us late (limit {:.2}%)",
            late_fraction * 100.0,
            MAX_LATE_FRACTION * 100.0
        ));
    }

    let mean_us = |hist: Option<&saber_service::metrics::HistogramSnapshot>| {
        hist.map_or(0.0, |h| h.mean_ns() as f64 / 1e3)
    };
    for (op, wait_name, exec_name) in [
        (
            OpKind::Keygen,
            "service.queue_wait_us_mean.keygen",
            "service.execute_us_mean.keygen",
        ),
        (
            OpKind::Encaps,
            "service.queue_wait_us_mean.encaps",
            "service.execute_us_mean.encaps",
        ),
        (
            OpKind::Decaps,
            "service.queue_wait_us_mean.decaps",
            "service.execute_us_mean.decaps",
        ),
        (
            OpKind::MatVec,
            "service.queue_wait_us_mean.matvec",
            "service.execute_us_mean.matvec",
        ),
    ] {
        out.set(wait_name, mean_us(report.op_queue_wait(op)));
        out.set(exec_name, mean_us(report.op_execute(op)));
    }
    let busy_ns: u64 = report.execute.iter().map(|(_, h)| h.total_ns).sum();
    let capacity_ns = report.workers as f64 * wall.as_nanos() as f64;
    out.set(
        "service.worker_busy_pct",
        busy_ns as f64 / capacity_ns * 100.0,
    );
    out.set("service.shed", report.rejected as f64);
    out.set("service.failed", report.failed as f64);
    out.set("service.steal_hits", report.steal_hits as f64);
    out.set("service.queue_high_water", report.queue_high_water as f64);
    out.set("loadgen.lag_us_p99", quantile(&lags_us, 0.99));
    out.set("loadgen.late_fraction", late_fraction);
}

/// `recompute_entry` digests of every planned request on the schoolbook
/// backend, spread over every available core.
fn oracle_digests(plan: &LoadPlan) -> Vec<[u8; 32]> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = plan.ops.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.ops.len())
            .step_by(chunk)
            .map(|lo| {
                scope.spawn(move || {
                    (lo..(lo + chunk).min(plan.ops.len()))
                        .map(|i| recompute_entry(plan, i, &mut SchoolbookMultiplier).digest)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    })
}
