//! `hwsim`: the paper's cycle-accurate models, timed on the host.
//!
//! One thread runs fresh Saber sessions (the `kem-seq` session shape)
//! whose multiplies alternate between the HS-I model
//! (`CentralizedMultiplier::new(256)`) and the HS-II model
//! (`DspPackedMultiplier::new()`): within every handshake the even-indexed
//! multiplies run on HS-I and the odd-indexed ones on HS-II. Each session
//! also runs one `LightweightMultiplier` multiply and one
//! `saber_soc::scenario::run_scenario`, alternating strides 1 and 2.
//! Host time here is simulator time. A session's `handshake` sample is
//! all of its simulator time: the HS-I/HS-II handshake plus its LW
//! multiply and SoC run, so the LW and SoC models are timed by a bounded
//! figure too.
//!
//! Checks: cycles per multiply equal `crates/verify/kats/cycle_totals.json`
//! on every call; the session transcripts equal the schoolbook recompute
//! (so every model product is bit-exact); LW and SoC products equal the
//! schoolbook product; SoC makespans are 395/629 and contended cycles
//! 19/7 at strides 1/2.

use std::time::Instant;

use saber_core::{CentralizedMultiplier, DspPackedMultiplier, HwMultiplier, LightweightMultiplier};
use saber_keccak::Shake128;
use saber_ring::{packing, schoolbook, PolyMultiplier, PolyQ, SecretPoly};
use saber_soc::scenario::{operands, PUBLIC_WORDS};
use saber_soc::{run_scenario, ScenarioConfig};
use saber_testkit::Rng;

use crate::kem_seq::{self, SessionInput};
use crate::spans::Recorder;
use crate::stats::{mean, Blocked, Clock};
use crate::{Outcome, RunConfig, Timings, BLOCKS};

const SALT: u64 = 0x6877_7369_6d00_0000;

/// Every how many sessions the timed region sets up again (about 25
/// set-ups per block, ~7% of the region).
pub const SETUP_EVERY: u64 = 2;

/// Frozen cycle totals the models must reproduce.
const CYCLE_KATS: &str = include_str!("../../crates/verify/kats/cycle_totals.json");

/// Golden SoC `(stride, makespan, contended cycles)`.
pub const SOC_GOLDEN: [(u64, u64, u64); 2] = [(1, 395, 19), (2, 629, 7)];

/// `total_cycles` of `model` in the frozen KAT file.
///
/// # Panics
///
/// Panics if the file does not list the model.
#[must_use]
pub fn kat_cycles(model: &str) -> u64 {
    let doc = saber_testkit::json::parse(CYCLE_KATS).expect("cycle KAT file parses");
    doc.get("vectors")
        .and_then(|v| v.as_array())
        .and_then(|vs| {
            vs.iter()
                .find(|v| v.get("model").and_then(|m| m.as_str()) == Some(model))
        })
        .and_then(|v| v.get("total_cycles"))
        .and_then(|c| c.as_int())
        .unwrap_or_else(|| panic!("cycle KAT for {model}")) as u64
}

/// A cycle model with call, host-time and cycle counters.
pub struct Counted<M> {
    model: M,
    kat: u64,
    /// `multiply` calls.
    pub calls: u64,
    /// Host ns spent inside `multiply`.
    pub host_ns: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Cycles of the last call.
    pub last_cycles: u64,
    /// Calls whose cycle count differed from the KAT.
    pub bad_cycles: u64,
}

impl<M: HwMultiplier> Counted<M> {
    fn new(model: M, kat: u64) -> Self {
        Self {
            model,
            kat,
            calls: 0,
            host_ns: 0,
            cycles: 0,
            last_cycles: 0,
            bad_cycles: 0,
        }
    }

    /// Runs one multiply, counting it; returns the product and the host
    /// interval it took.
    fn multiply(&mut self, a: &PolyQ, s: &SecretPoly) -> (PolyQ, Instant, Instant) {
        let start = Instant::now();
        let product = self.model.multiply(a, s);
        let end = Instant::now();
        let cycles = self.model.report().cycles.total();
        self.calls += 1;
        self.host_ns += end.duration_since(start).as_nanos() as u64;
        self.cycles += cycles;
        self.last_cycles = cycles;
        if cycles != self.kat {
            self.bad_cycles += 1;
        }
        (product, start, end)
    }

    /// Host ns per simulated cycle.
    fn ns_per_cycle(&self) -> f64 {
        self.host_ns as f64 / self.cycles.max(1) as f64
    }
}

/// The handshake backend: even-indexed multiplies on HS-I, odd-indexed
/// on HS-II; with tracing on, each multiply is kept as a span interval.
pub struct SimPair {
    hs1: Counted<CentralizedMultiplier>,
    hs2: Counted<DspPackedMultiplier>,
    parity: usize,
    spans: Option<Vec<(&'static str, Instant, Instant)>>,
}

impl SimPair {
    fn new() -> Self {
        Self {
            hs1: Counted::new(CentralizedMultiplier::new(256), kat_cycles("hs1-256")),
            hs2: Counted::new(DspPackedMultiplier::new(), kat_cycles("hs2-128")),
            parity: 0,
            spans: None,
        }
    }
}

impl PolyMultiplier for SimPair {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        let hs1 = self.parity.is_multiple_of(2);
        self.parity += 1;
        let (product, start, end) = if hs1 {
            self.hs1.multiply(public, secret)
        } else {
            self.hs2.multiply(public, secret)
        };
        if let Some(spans) = self.spans.as_mut() {
            spans.push((if hs1 { "sim.hs1.mul" } else { "sim.hs2.mul" }, start, end));
        }
        product
    }

    fn name(&self) -> &str {
        "HS-I 256 / HS-II 128 cycle models"
    }
}

/// Every model the workload drives.
struct Models {
    pair: SimPair,
    lw: Counted<LightweightMultiplier>,
    soc_runs: u64,
    soc_host_ns: u64,
    soc_cycles: u64,
    soc_last: [(u64, u64); 2],
}

impl Models {
    fn new() -> Self {
        Self {
            pair: SimPair::new(),
            lw: Counted::new(LightweightMultiplier::new(), kat_cycles("lw-4")),
            soc_runs: 0,
            soc_host_ns: 0,
            soc_cycles: 0,
            soc_last: [(0, 0); 2],
        }
    }

    /// One LW multiply on random operands; true if the product and the
    /// cycle count are right.
    fn lw_step(&mut self, rng: &mut Rng) -> (bool, Instant, Instant) {
        let a = PolyQ::from_fn(|_| rng.range_u16(0, 8191));
        let s = SecretPoly::from_fn(|_| rng.secret_coeff(4));
        let bad_before = self.lw.bad_cycles;
        let (product, start, end) = self.lw.multiply(&a, &s);
        let ok = product == schoolbook::mul_asym(&a, &s) && self.lw.bad_cycles == bad_before;
        (ok, start, end)
    }

    /// One SoC co-simulation at `stride`; true if its makespan,
    /// contention and product are right.
    fn soc_step(&mut self, rng: &mut Rng, stride: u64) -> (bool, Instant, Instant) {
        let seed = rng.next_u64();
        let start = Instant::now();
        let (outcome, _) = run_scenario(&ScenarioConfig::reference(seed, stride));
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        self.soc_runs += 1;
        self.soc_host_ns += ns;
        self.soc_cycles += outcome.makespan;
        let slot = usize::from(stride == 2);
        self.soc_last[slot] = (outcome.makespan, outcome.contended_cycles);
        let (_, makespan, contended) = SOC_GOLDEN[slot];
        let (seed_bytes, secret) = operands(seed);
        let xof: Vec<u64> = Shake128::xof(&seed_bytes, PUBLIC_WORDS * 8)
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        let expected = schoolbook::mul_asym(&packing::poly13_from_words(&xof), &secret);
        let ok = !outcome.timed_out
            && outcome.makespan == makespan
            && outcome.contended_cycles == contended
            && outcome.product_words == packing::poly13_to_words(&expected);
        (ok, start, end)
    }
}

/// What a pass over the models measured.
struct Pass {
    models: Models,
    inputs: Vec<SessionInput>,
    /// (block, decaps agreement, digests, cycle-count failures) per session.
    sessions: Vec<(usize, bool, [[u8; 32]; 3], u64)>,
    timings: Timings,
    traced_handshake_us: Vec<f64>,
    untraced_handshake_us: Vec<f64>,
    other_ok: Blocked,
    other_failed: u64,
    other_attempted: u64,
    kem_host_ns: u64,
    kem_mul_ns: u64,
    rec: Option<Recorder>,
}

/// Runs sessions until `clock` is done (or `max_sessions` ran), setting
/// up again every [`SETUP_EVERY`] sessions; adds to `timings`.
fn pass(seed: u64, clock: &Clock, max_sessions: u64, trace: bool, timings: Timings) -> Pass {
    let mut rng = Rng::new(seed ^ SALT);
    let mut setup_rng = Rng::new(seed ^ SALT ^ 1);
    let mut p = Pass {
        models: Models::new(),
        inputs: Vec::new(),
        sessions: Vec::new(),
        timings,
        traced_handshake_us: Vec::new(),
        untraced_handshake_us: Vec::new(),
        other_ok: Blocked::new(BLOCKS),
        other_failed: 0,
        other_attempted: 0,
        kem_host_ns: 0,
        kem_mul_ns: 0,
        rec: trace.then(Recorder::new),
    };
    let mut index = 0u64;
    while !clock.done() && index < max_sessions {
        let input = SessionInput::draw(&mut rng, index);
        let block = clock.block();
        let traced = trace && block % 2 == 1;
        let m = &mut p.models;
        m.pair.parity = 0;
        m.pair.spans = traced.then(Vec::new);
        let bad_before = m.pair.hs1.bad_cycles + m.pair.hs2.bad_cycles;
        let mul_before = m.pair.hs1.host_ns + m.pair.hs2.host_ns;
        let start = Instant::now();
        let run = kem_seq::session(&input, &mut m.pair);
        let end = Instant::now();
        let bad = m.pair.hs1.bad_cycles + m.pair.hs2.bad_cycles - bad_before;
        let handshake_ns: u64 = run.ns.iter().sum();
        p.kem_host_ns += handshake_ns;
        p.kem_mul_ns += m.pair.hs1.host_ns + m.pair.hs2.host_ns - mul_before;
        for (k, &ns) in run.ns.iter().enumerate() {
            p.timings.ops[k].push(block, ns as f64 / 1e3);
            p.timings.latency.push(block, ns as f64 / 1e3);
        }
        if let (Some(rec), Some(spans)) = (p.rec.as_mut(), m.pair.spans.take()) {
            let root = rec.record(index, "hwsim.handshake", None, start, end);
            for (name, s, e) in spans {
                rec.record(index, name, Some(root), s, e);
            }
        }

        let (lw_ok, lw_start, lw_end) = m.lw_step(&mut rng);
        let (soc_ok, soc_start, soc_end) = m.soc_step(&mut rng, 1 + index % 2);
        if let Some(rec) = p.rec.as_mut().filter(|_| traced) {
            rec.record(index, "sim.lw.mul", None, lw_start, lw_end);
            rec.record(index, "sim.soc.run", None, soc_start, soc_end);
        }
        let session_ns = handshake_ns
            + lw_end.duration_since(lw_start).as_nanos() as u64
            + soc_end.duration_since(soc_start).as_nanos() as u64;
        let session_us = session_ns as f64 / 1e3;
        p.timings.handshake.push(block, session_us);
        if traced {
            p.traced_handshake_us.push(session_us);
        } else {
            p.untraced_handshake_us.push(session_us);
        }
        for ok in [lw_ok, soc_ok] {
            p.other_attempted += 1;
            if ok {
                p.other_ok.push(block, 1.0);
            } else {
                p.other_failed += 1;
            }
        }
        p.sessions
            .push((block, run.agrees(&input), run.digests(), bad));
        p.inputs.push(input);
        index += 1;
        if index.is_multiple_of(SETUP_EVERY) {
            let setup_s = setup(&mut setup_rng);
            p.timings.setup.push(clock.block(), setup_s);
        }
    }
    p
}

/// Checks a pass against the schoolbook oracle; returns per-block
/// correct op counts and fills `attempted`/`failed`.
fn check(p: &Pass, out: &mut Outcome) -> Blocked {
    let oracle = kem_seq::schoolbook_digests(&p.inputs);
    let mut good = p.other_ok.clone();
    out.attempted += p.other_attempted;
    out.failed += p.other_failed;
    for ((block, agrees, got, bad_cycles), want) in p.sessions.iter().zip(&oracle) {
        let ok = [
            got[0] == want[0],
            got[1] == want[1],
            got[2] == want[2] && *agrees,
        ];
        for ok in ok {
            out.attempted += 1;
            if ok && *bad_cycles == 0 {
                good.push(*block, 1.0);
            } else {
                out.failed += 1;
            }
        }
    }
    good
}

/// Sets every `sim.*`, `sim_*` and `soc.*` metric from a pass.
fn report_layers(p: &Pass, out: &mut Outcome) {
    let m = &p.models;
    out.set("sim.hs1.cycles_per_mult", m.pair.hs1.last_cycles as f64);
    out.set("sim.hs2.cycles_per_mult", m.pair.hs2.last_cycles as f64);
    out.set("sim.lw.cycles_per_mult", m.lw.last_cycles as f64);
    out.set("sim.hs1.host_ns_per_cycle", m.pair.hs1.ns_per_cycle());
    out.set("sim.hs2.host_ns_per_cycle", m.pair.hs2.ns_per_cycle());
    out.set("sim.lw.host_ns_per_cycle", m.lw.ns_per_cycle());
    out.set(
        "sim.mult_host_share_pct",
        p.kem_mul_ns as f64 / p.kem_host_ns.max(1) as f64 * 100.0,
    );
    let cycles = m.pair.hs1.cycles + m.pair.hs2.cycles + m.lw.cycles + m.soc_cycles;
    let host_ns = p.kem_host_ns + m.lw.host_ns + m.soc_host_ns;
    out.set(
        "sim_mcycles_per_s",
        cycles as f64 / host_ns.max(1) as f64 * 1e3,
    );
    let mults = (m.pair.hs1.calls + m.pair.hs2.calls) as f64 / p.sessions.len().max(1) as f64;
    out.set(
        "sim_cycles_per_handshake",
        m.pair.hs1.last_cycles as f64 * mults,
    );
    out.set("soc.makespan_cycles.s1", m.soc_last[0].0 as f64);
    out.set("soc.makespan_cycles.s2", m.soc_last[1].0 as f64);
    out.set("soc.contended_cycles.s1", m.soc_last[0].1 as f64);
    out.set("soc.contended_cycles.s2", m.soc_last[1].1 as f64);
    out.set(
        "soc.host_us_per_run",
        m.soc_host_ns as f64 / m.soc_runs.max(1) as f64 / 1e3,
    );
}

/// One set-up: builds the models and runs each once. Returns the
/// seconds it took; the warmed models are dropped, so the counters of a
/// pass cover its own calls only.
fn setup(rng: &mut Rng) -> f64 {
    let a = PolyQ::from_fn(|_| rng.range_u16(0, 8191));
    let s = SecretPoly::from_fn(|_| rng.secret_coeff(4));
    let soc_seed = rng.next_u64();
    let start = Instant::now();
    let mut models = Models::new();
    let _ = models.pair.multiply(&a, &s);
    let _ = models.pair.multiply(&a, &s);
    let _ = models.lw.multiply(&a, &s);
    let _ = run_scenario(&ScenarioConfig::reference(soc_seed, 1));
    start.elapsed().as_secs_f64()
}

/// A short pass (`sessions` sessions) for the `sim.*`/`soc.*` metrics
/// of a traced run of another workload; its outputs are checked like the
/// workload's own.
pub fn probe(seed: u64, sessions: u64, out: &mut Outcome) {
    let clock = Clock::start(std::time::Duration::from_secs(3600));
    let p = pass(seed, &clock, sessions, false, Timings::new());
    let _ = check(&p, out);
    report_layers(&p, out);
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut timings = Timings::new();
    timings
        .setup
        .push(0, setup(&mut Rng::new(cfg.seed ^ SALT ^ 2)));
    out.header.push((
        "models",
        "HS-I 256 / HS-II 128 / LW 4-MAC / SoC s1,s2".into(),
    ));

    let clock = Clock::start(cfg.duration);
    let p = pass(cfg.seed, &clock, u64::MAX, cfg.trace, timings);
    let block_s = clock.block_seconds(clock.elapsed());
    let good = check(&p, &mut out);
    out.header.push(("sessions", p.sessions.len().to_string()));

    if cfg.trace {
        report_layers(&p, &mut out);
        out.set(
            "trace.overhead_pct",
            (mean(&p.traced_handshake_us) / mean(&p.untraced_handshake_us) - 1.0) * 100.0,
        );
        if let Some(rec) = &p.rec {
            crate::probes::save_spans(cfg, rec);
        }
    }
    let handshakes_per_s = p.timings.handshake.block_rate(1e6);
    let goodput = good.block_sum_over(&block_s);
    p.timings.report(&mut out, handshakes_per_s, goodput);
    out
}
