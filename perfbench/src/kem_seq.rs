//! `kem-seq`: a library user's closed loop.
//!
//! One thread runs fresh Saber sessions back to back — `kem::keygen` →
//! `kem::encaps` → `kem::decaps` on `EngineKind::default().build()` —
//! each from a new seed, so no key is ever reused. Every eighth decaps
//! gets a ciphertext with one flipped bit, which drives implicit
//! rejection. No service or simulator code runs.
//!
//! Checks: every untampered decaps must agree with its encaps and every
//! tampered one must differ; after the timed region the per-op digests
//! of pk/sk, ct/ss and the decapsulated ss are compared with the same
//! sessions recomputed on `SchoolbookMultiplier`.

use std::time::Instant;

use saber_keccak::Sha3_256;
use saber_kem::pke::CompressedPoly;
use saber_kem::{kem, serialize, Ciphertext, KemSecretKey, PublicKey, SharedSecret, SABER};
use saber_ring::mul::SchoolbookMultiplier;
use saber_ring::{PolyMultiplier, N};
use saber_testkit::Rng;

use crate::ledger::{self, Ledger};
use crate::spans::Recorder;
use crate::stats::{Blocked, Clock};
use crate::{Outcome, RunConfig, Timings, BLOCKS};

/// Mixed into the run seed so workloads draw unrelated streams.
const SALT: u64 = 0x6b65_6d2d_7365_7100;

/// Every how many sessions one decaps gets a tampered ciphertext.
pub const TAMPER_EVERY: u64 = 8;

/// Every how many sessions the timed region sets up again (about 30
/// set-ups per block, ~6% of the region).
pub const SETUP_EVERY: u64 = 16;

/// The inputs of one session, drawn from the run seed.
#[derive(Debug, Clone, Copy)]
pub struct SessionInput {
    /// `kem::keygen` seed.
    pub keygen_seed: [u8; 32],
    /// `kem::encaps` entropy.
    pub entropy: [u8; 32],
    /// `c_m` coefficient whose low bit is flipped before decaps.
    pub tamper: Option<usize>,
}

impl SessionInput {
    /// Draws session `index`'s inputs.
    pub fn draw(rng: &mut Rng, index: u64) -> Self {
        let keygen_seed = rng.bytes32();
        let entropy = rng.bytes32();
        let at = rng.range_usize(0, N - 1);
        Self {
            keygen_seed,
            entropy,
            tamper: (index % TAMPER_EVERY == TAMPER_EVERY - 1).then_some(at),
        }
    }
}

/// `ct` with the low bit of `c_m[at]` flipped.
#[must_use]
pub fn tamper(ct: &Ciphertext, at: usize) -> Ciphertext {
    let mut values = [0u16; N];
    for (i, v) in values.iter_mut().enumerate() {
        *v = ct.cm.coeff(i);
    }
    values[at] ^= 1;
    Ciphertext {
        b_prime: ct.b_prime.clone(),
        cm: CompressedPoly::new(values, ct.cm.bits()),
    }
}

/// One session's outputs and per-op times.
pub struct SessionRun {
    /// Generated public key.
    pub pk: PublicKey,
    /// Generated secret key.
    pub sk: KemSecretKey,
    /// Encapsulated ciphertext (before any tampering).
    pub ct: Ciphertext,
    /// Encapsulated secret.
    pub ss_enc: SharedSecret,
    /// Decapsulated secret.
    pub ss_dec: SharedSecret,
    /// keygen, encaps, decaps wall time, ns.
    pub ns: [u64; 3],
}

impl SessionRun {
    /// Untampered decaps agrees with encaps; tampered decaps differs.
    #[must_use]
    pub fn agrees(&self, input: &SessionInput) -> bool {
        (self.ss_dec == self.ss_enc) != input.tamper.is_some()
    }

    /// Digests of the keygen (pk ‖ sk), encaps (ct ‖ ss) and decaps (ss)
    /// outputs.
    #[must_use]
    pub fn digests(&self) -> [[u8; 32]; 3] {
        let mut keygen = Sha3_256::new();
        keygen.update(&serialize::public_key_to_bytes(&self.pk));
        keygen.update(&serialize::secret_key_to_bytes(&self.sk));
        let mut encaps = Sha3_256::new();
        encaps.update(&serialize::ciphertext_to_bytes(&self.ct, &self.pk.params));
        encaps.update(self.ss_enc.as_bytes());
        [
            keygen.finalize(),
            encaps.finalize(),
            *self.ss_dec.as_bytes(),
        ]
    }
}

/// Runs one session, timing each op.
pub fn session<M: PolyMultiplier + ?Sized>(input: &SessionInput, backend: &mut M) -> SessionRun {
    let t0 = Instant::now();
    let (pk, sk) = kem::keygen(&SABER, &input.keygen_seed, backend);
    let t1 = Instant::now();
    let (ct, ss_enc) = kem::encaps(&pk, &input.entropy, backend);
    let t2 = Instant::now();
    let tampered = input.tamper.map(|at| tamper(&ct, at));
    let t3 = Instant::now();
    let ss_dec = kem::decaps(&sk, tampered.as_ref().unwrap_or(&ct), backend);
    let t4 = Instant::now();
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    SessionRun {
        pk,
        sk,
        ct,
        ss_enc,
        ss_dec,
        ns: [ns(t0, t1), ns(t1, t2), ns(t3, t4)],
    }
}

/// Replays `run`'s session through the layer calls under spans and adds
/// it to `ledger`, counting a mismatch unless every replayed output is
/// byte-identical to the untraced one.
pub fn replay<M: PolyMultiplier + ?Sized>(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    req: u64,
    input: &SessionInput,
    run: &SessionRun,
    backend: &mut M,
) {
    let (pk, sk, root) = ledger::keygen(rec, req, &SABER, &input.keygen_seed, backend);
    ledger.add(0, rec, root, run.ns[0]);
    let (ct, ss_enc, root) = ledger::encaps(rec, req, &pk, &input.entropy, backend);
    ledger.add(1, rec, root, run.ns[1]);
    let tampered = input.tamper.map(|at| tamper(&ct, at));
    let (ss_dec, root) = ledger::decaps(rec, req, &sk, tampered.as_ref().unwrap_or(&ct), backend);
    ledger.add(2, rec, root, run.ns[2]);
    let params = &SABER;
    let same = serialize::public_key_to_bytes(&pk) == serialize::public_key_to_bytes(&run.pk)
        && serialize::secret_key_to_bytes(&sk) == serialize::secret_key_to_bytes(&run.sk)
        && serialize::ciphertext_to_bytes(&ct, params)
            == serialize::ciphertext_to_bytes(&run.ct, params)
        && &ss_enc == run.ss_enc.as_bytes()
        && &ss_dec == run.ss_dec.as_bytes();
    if !same {
        ledger.mismatches += 1;
    }
}

/// Per-op digests of `inputs` recomputed on the schoolbook oracle,
/// spread over every available core.
#[must_use]
pub fn schoolbook_digests(inputs: &[SessionInput]) -> Vec<[[u8; 32]; 3]> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = inputs.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|input| session(input, &mut SchoolbookMultiplier).digests())
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

/// One set-up: builds the engine and runs one warm-up session on it.
/// Returns the engine and the seconds it took.
pub fn setup(cfg: &RunConfig, rng: &mut Rng) -> (Box<dyn PolyMultiplier + Send>, f64) {
    let warm = SessionInput::draw(rng, 0);
    let start = Instant::now();
    let mut engine = (cfg.engine)();
    let _ = session(&warm, &mut *engine);
    (engine, start.elapsed().as_secs_f64())
}

/// Traced replay of `sessions` fresh sessions drawn from `seed`: the
/// ledger a traced run of another workload reports.
#[must_use]
pub fn ledger_probe(seed: u64, sessions: u64) -> (Ledger, Recorder) {
    let mut rng = Rng::new(seed ^ SALT);
    let mut engine = crate::default_engine();
    let mut rec = Recorder::new();
    let mut ledger = Ledger::default();
    for index in 0..sessions {
        let input = SessionInput::draw(&mut rng, index);
        let run = session(&input, &mut *engine);
        replay(&mut rec, &mut ledger, index, &input, &run, &mut *engine);
    }
    (ledger, rec)
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed ^ SALT);
    let mut t = Timings::new();
    let (mut engine, setup_s) = setup(cfg, &mut rng);
    t.setup.push(0, setup_s);
    out.header
        .push(("engine", saber_ring::EngineKind::default().label().into()));
    out.header.push(("engine_shard", engine.name().into()));

    let mut inputs = Vec::new();
    let mut records = Vec::new();
    let mut rec = cfg.trace.then(Recorder::new);
    let mut ledger = Ledger::default();

    let clock = Clock::start(cfg.duration);
    let mut index = 0u64;
    while !clock.done() {
        let input = SessionInput::draw(&mut rng, index);
        let block = clock.block();
        let run = session(&input, &mut *engine);
        for (k, &ns) in run.ns.iter().enumerate() {
            t.ops[k].push(block, ns as f64 / 1e3);
            t.latency.push(block, ns as f64 / 1e3);
        }
        t.handshake
            .push(block, run.ns.iter().sum::<u64>() as f64 / 1e3);
        if let Some(rec) = rec.as_mut() {
            replay(rec, &mut ledger, index, &input, &run, &mut *engine);
        }
        records.push((block, run.agrees(&input), run.digests()));
        inputs.push(input);
        index += 1;
        if index.is_multiple_of(SETUP_EVERY) {
            // Later sessions run on the engine just set up, as a user's
            // would.
            let (fresh, setup_s) = setup(cfg, &mut rng);
            t.setup.push(clock.block(), setup_s);
            engine = fresh;
        }
    }
    let block_s = clock.block_seconds(clock.elapsed());

    let oracle = schoolbook_digests(&inputs);
    let mut good_ops = Blocked::new(BLOCKS);
    for ((block, agrees, got), want) in records.iter().zip(&oracle) {
        let ok = [
            got[0] == want[0],
            got[1] == want[1],
            got[2] == want[2] && *agrees,
        ];
        for ok in ok {
            out.attempted += 1;
            if ok {
                good_ops.push(*block, 1.0);
            } else {
                out.failed += 1;
            }
        }
    }
    out.header.push(("sessions", inputs.len().to_string()));

    if let Some(rec) = rec {
        if ledger.mismatches > 0 {
            out.invalid.push(format!(
                "{} replayed sessions differ from the untraced kem::* output",
                ledger.mismatches
            ));
        }
        ledger.report(&rec, &SABER, &mut out);
        out.set("trace.overhead_pct", ledger.overhead_pct());
        crate::probes::save_spans(cfg, &rec);
    }
    let handshakes_per_s = t.handshake.block_rate(1e6);
    let goodput = good_ops.block_sum_over(&block_s);
    t.report(&mut out, handshakes_per_s, goodput);
    out
}
