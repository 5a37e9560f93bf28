//! Layer probes of a traced run.
//!
//! Some layers are too fine-grained to span call by call (one Keccak
//! permutation, one ring multiply); those are timed here as tight loops
//! over the public call, median of [`REPS`] repetitions. A traced run of
//! a workload that does not drive the KEM ledger or the cycle models gets
//! those layers from a short pass drawn from the same seed
//! ([`kem_seq::ledger_probe`], [`hwsim::probe`]), and every traced run
//! gets the service layer from the open-loop probe
//! ([`service_open::probe`]), so every traced run reports every layer.

use std::hint::black_box;
use std::time::{Duration, Instant};

use saber_keccak::{keccak_f1600, Sha3_256, Shake128};
use saber_kem::{kem, serialize, SABER};
use saber_ring::{PolyQ, SecretPoly};
use saber_testkit::Rng;

use crate::spans::Recorder;
use crate::stats::median;
use crate::{hwsim, kem_seq, service_open, Outcome, RunConfig};

/// Repetitions of each probe loop.
pub const REPS: usize = 7;

/// Sessions a ledger probe replays.
pub const LEDGER_PROBE_SESSIONS: u64 = 64;

/// Sessions a cycle-model probe runs.
pub const SIM_PROBE_SESSIONS: u64 = 2;

/// Length of the open-loop service probe that gives every traced run its
/// `service.*` and `loadgen.*` metrics.
pub const SERVICE_PROBE: Duration = Duration::from_secs(2);

/// Median over [`REPS`] runs of `body`'s ns per iteration.
fn ns_per_iter(iters: u32, mut body: impl FnMut()) -> f64 {
    let per_rep: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                body();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&per_rep)
}

/// Sets the `keccak.*` metrics and `ring.mul_ns`.
pub fn micro(seed: u64, out: &mut Outcome) {
    let mut rng = Rng::new(seed);
    let mut state = [0u64; 25];
    for lane in &mut state {
        *lane = rng.next_u64();
    }
    out.set(
        "keccak.f1600_ns",
        ns_per_iter(20_000, || keccak_f1600(black_box(&mut state))),
    );

    let mut xof = Shake128::new();
    xof.absorb(&rng.bytes32());
    let mut block = [0u8; 168];
    out.set(
        "keccak.shake128_ns_per_block",
        ns_per_iter(4_000, || xof.read(black_box(&mut block))),
    );

    let mut engine = crate::default_engine();
    let (pk, _) = kem::keygen(&SABER, &rng.bytes32(), &mut *engine);
    let pk_bytes = serialize::public_key_to_bytes(&pk);
    debug_assert_eq!(pk_bytes.len(), SABER.public_key_bytes());
    out.set(
        "keccak.sha3_256_pk_ns",
        ns_per_iter(4_000, || {
            black_box(Sha3_256::digest(black_box(&pk_bytes)));
        }),
    );

    let a = PolyQ::from_fn(|_| rng.range_u16(0, 8191));
    let s = SecretPoly::from_fn(|_| rng.secret_coeff(4));
    out.set(
        "ring.mul_ns",
        ns_per_iter(2_000, || {
            black_box(engine.multiply(black_box(&a), black_box(&s)));
        }),
    );
}

/// Completes a traced run's per-layer metrics (see the module docs).
pub fn fill_missing_layers(cfg: &RunConfig, out: &mut Outcome) {
    micro(cfg.seed, out);
    if !out.has("ledger.keygen.residual_pct") {
        let (ledger, rec) = kem_seq::ledger_probe(cfg.seed, LEDGER_PROBE_SESSIONS);
        if ledger.mismatches > 0 {
            out.invalid.push(format!(
                "ledger probe: {} replayed sessions differ from kem::*",
                ledger.mismatches
            ));
        }
        ledger.report(&rec, &SABER, out);
    }
    if !out.has("sim.hs1.cycles_per_mult") {
        hwsim::probe(cfg.seed, SIM_PROBE_SESSIONS, out);
    }
    service_open::probe(cfg.seed, SERVICE_PROBE, out);
}

/// Writes a traced run's spans under the run's output directory.
pub fn save_spans(cfg: &RunConfig, rec: &Recorder) {
    if let Some(dir) = &cfg.out_dir {
        let path = dir.join(format!(
            "spans-{}-seed{}.tsv",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) = rec.write_tsv(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}
