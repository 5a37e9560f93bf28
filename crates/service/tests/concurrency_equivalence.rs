//! Concurrency correctness: for fixed seeds, an N-worker service run is
//! byte-identical to sequential execution — for N in {1, 2, 8}, all
//! three parameter sets, across keygen/encaps/decaps and mat-vec.
//!
//! The transcripts compare SHA3-256 digests of the *serialized* results
//! (public/secret key bytes, ciphertext bytes, shared-secret bytes,
//! mat-vec coefficients), so agreement means bit-identical wire output,
//! not merely equal structs.
//!
//! `SABER_SERVICE_WORKERS=<n>` narrows the matrix to one worker count —
//! `tools/ci.sh` uses this to run the 1/2/8 matrix as separate release
//! stages. `SABER_STEAL_SEED=<u64>` replaces the default steal seed —
//! `tools/ci.sh sched_gate` sweeps it to stress different steal orders.

use std::sync::Arc;

use saber_kem::params::ALL_PARAMS;
use saber_ring::mul::SchoolbookMultiplier;
use saber_ring::CtSchoolbookMultiplier;
use saber_service::loadgen::{build_plan, run_sequential, run_service, LoadProfile, OpMix};
use saber_service::{KemService, ServiceConfig};

/// Worker counts under test: the env override or the full {1, 2, 8}
/// matrix.
fn worker_matrix() -> Vec<usize> {
    match std::env::var("SABER_SERVICE_WORKERS") {
        Ok(v) => vec![v.parse().expect("SABER_SERVICE_WORKERS must be a worker count")],
        Err(_) => vec![1, 2, 8],
    }
}

/// A pool of `workers` over a `queue_capacity`-deep queue, with the
/// steal seed from `SABER_STEAL_SEED` when set.
fn config(workers: usize, queue_capacity: usize) -> ServiceConfig {
    let steal_seed = match std::env::var("SABER_STEAL_SEED") {
        Ok(v) => v.parse().expect("SABER_STEAL_SEED must be a u64"),
        Err(_) => ServiceConfig::default().steal_seed,
    };
    ServiceConfig {
        workers,
        queue_capacity,
        steal_seed,
        ..ServiceConfig::default()
    }
}

/// Debug builds run the cycle-accurate-slow path; keep the fixed-seed
/// sweeps small there and broader in release (CI's stress stages).
fn ops_per_config() -> usize {
    if cfg!(debug_assertions) {
        8
    } else {
        48
    }
}

#[test]
fn mixed_kem_load_matches_sequential_for_all_sets_and_worker_counts() {
    for params in &ALL_PARAMS {
        let mut profile = LoadProfile::new(params, 0x0D0C_2021, ops_per_config());
        profile.keyring = 2;
        let plan = build_plan(&profile);
        let reference = run_sequential(&plan, &mut SchoolbookMultiplier);

        for workers in worker_matrix() {
            let service = KemService::spawn(&config(workers, 16));
            let got = run_service(&plan, &service, 12).expect("load run");
            let report = service.shutdown();
            assert_eq!(
                got, reference,
                "{} with {workers} workers diverged from sequential",
                params.name
            );
            assert_eq!(report.failed, 0, "{}: no job may fail", params.name);
            assert_eq!(
                report.completed,
                plan.ops.len() as u64,
                "{}: every op completes exactly once",
                params.name
            );
        }
    }
}

#[test]
fn matvec_only_load_matches_sequential() {
    for params in &ALL_PARAMS {
        let mut profile = LoadProfile::new(params, 0xAB5E, ops_per_config());
        profile.mix = OpMix::matvec_only();
        profile.keyring = 3;
        let plan = build_plan(&profile);
        // The oracle transcript runs on plain schoolbook — agreement
        // also re-proves ct-vs-schoolbook equivalence under load.
        let reference = run_sequential(&plan, &mut SchoolbookMultiplier);

        for workers in worker_matrix() {
            let service = KemService::spawn(&config(workers, 8));
            let got = run_service(&plan, &service, 8).expect("load run");
            drop(service);
            assert_eq!(
                got, reference,
                "{} mat-vec with {workers} workers diverged",
                params.name
            );
        }
    }
}

#[test]
fn typed_submissions_match_direct_calls() {
    // The typed handle API (not just the load generator) returns exactly
    // what a direct single-threaded call returns.
    let params = &ALL_PARAMS[1]; // Saber
    let mut backend = CtSchoolbookMultiplier::new();
    let (pk, sk) = saber_kem::keygen(params, &[5; 32], &mut backend);
    let (ct, ss_enc) = saber_kem::encaps(&pk, &[6; 32], &mut backend);
    let ss_dec = saber_kem::decaps(&sk, &ct, &mut backend);

    for workers in worker_matrix() {
        let service = KemService::spawn(&config(workers, 8));
        let (pk2, sk2) = service
            .submit_keygen(params, [5; 32])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(pk2, pk, "{workers} workers: keygen pk");
        let (ct2, ss2) = service
            .submit_encaps(pk2.clone(), [6; 32])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(ct2, ct, "{workers} workers: encaps ct");
        assert_eq!(ss2, ss_enc, "{workers} workers: encaps ss");
        let ss3 = service.submit_decaps(sk2, ct2).unwrap().wait().unwrap();
        assert_eq!(ss3, ss_dec, "{workers} workers: decaps ss");
        let _ = sk; // sequential sk compared indirectly through ss_dec
        let report = service.shutdown();
        assert_eq!(report.completed, 3);
    }
}

#[test]
fn matvec_handles_resolve_to_backend_products() {
    use saber_kem::expand::{gen_matrix, gen_secret};

    let params = &ALL_PARAMS[2]; // FireSaber, rank 4: the widest batch
    let matrix = Arc::new(gen_matrix(&[0x11; 32], params));
    let secret = Arc::new(gen_secret(&[0x22; 32], params));
    let expected = matrix.mul_vec(&secret, &mut SchoolbookMultiplier);

    for workers in worker_matrix() {
        let service = KemService::spawn(&config(workers, 8));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                service
                    .submit_matvec(Arc::clone(&matrix), Arc::clone(&secret))
                    .unwrap()
            })
            .collect();
        for h in handles {
            assert_eq!(h.wait().unwrap(), expected, "{workers} workers");
        }
        drop(service);
    }
}
