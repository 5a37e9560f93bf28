//! **Timing leakage** — the dudect-style leakage detector
//! (`saber-timing`) run over the hot-path engine, the KEM pipelines on
//! it, and the two planted timing mutants, plus the engine's
//! single-product latency.
//!
//! Roles:
//!
//! - `negative-control`: the constant-time `ct` engine and the KEM
//!   pipelines on it — the scan must show |t| under the gate threshold.
//! - `positive-control`: the `saber_core::fault::TimingFault` mutants —
//!   bit-exact products with secret-dependent timing that the detector
//!   must flag, or a passing gate proves nothing.
//!
//! Emits `BENCH_timing.json` via
//! [`TimingReport`](saber_bench::tables::TimingReport); the README
//! "Constant time" section quotes its numbers.

use saber_bench::microbench::{black_box, Criterion};
use saber_bench::tables::{host_parallelism, TimingLeakEntry, TimingReport};
use saber_core::fault::{TimingFault, TimingLeakMultiplier};
use saber_kem::params::LIGHT_SABER;
use saber_ring::{EngineKind, PolyQ, SecretPoly};
use saber_testkit::Rng;
use saber_timing::{detect, DecapsTarget, EncapsTarget, LeakReport, MulTarget, TimingConfig, Verdict};
use saber_trace::MonotonicClock;

fn verdict_label(v: Verdict) -> &'static str {
    match v {
        Verdict::Pass => "pass",
        Verdict::Leak => "leak",
        Verdict::Inconclusive => "inconclusive",
    }
}

fn record(report: &mut TimingReport, target: &str, role: &str, run: &LeakReport) {
    report.entries.push(TimingLeakEntry {
        target: target.into(),
        role: role.into(),
        verdict: verdict_label(run.verdict).into(),
        t_stat: run.t_stat,
        samples: run.samples_collected as u64,
        cropped: run.cropped as u64,
    });
}

fn main() {
    println!("\n=== Timing leakage: fixed-vs-random leakage, ct engine cost ===\n");
    let cfg = TimingConfig::from_env();
    println!(
        "budget {} samples, |t| gate {}, seed {:#x}\n",
        cfg.samples, cfg.threshold, cfg.seed
    );

    let mut report = TimingReport {
        host_parallelism: host_parallelism(),
        ..TimingReport::default()
    };

    let engine = EngineKind::default();
    let mut target = MulTarget::engine();
    let run = detect(&mut target, &cfg, &mut MonotonicClock);
    record(
        &mut report,
        &format!("mul/{}", engine.label()),
        "negative-control",
        &run,
    );

    // Full KEM pipelines on the ct engine (quarter budget: one decaps
    // is ~20 multiplies plus hashing).
    let mut kem_cfg = TimingConfig {
        min_leak_samples: (cfg.samples / 8).clamp(32, cfg.samples.max(1)),
        min_kept: cfg.samples / 8,
        ..cfg
    };
    kem_cfg.samples /= 4;
    let mut rng = Rng::new(cfg.seed ^ 0xDECA);
    let mut decaps = DecapsTarget::new(&LIGHT_SABER, 8, &mut rng);
    let run = detect(&mut decaps, &kem_cfg, &mut MonotonicClock);
    record(&mut report, "kem/decaps-ct", "negative-control", &run);
    let mut rng = Rng::new(cfg.seed ^ 0xE9CA);
    let mut encaps = EncapsTarget::new(&LIGHT_SABER, &mut rng);
    let run = detect(&mut encaps, &kem_cfg, &mut MonotonicClock);
    record(&mut report, "kem/encaps-ct", "negative-control", &run);

    // Planted mutants: the detector's positive controls.
    for fault in TimingFault::ALL {
        let mutant = TimingLeakMultiplier::new(fault);
        let mut target = MulTarget::from_backend(Box::new(mutant), 5);
        let run = detect(&mut target, &cfg, &mut MonotonicClock);
        let label = match fault {
            TimingFault::CtScanEarlyExit => "mutant/ct-scan-early-exit",
            TimingFault::SwarRowSelectBranch => "mutant/swar-row-select",
        };
        record(&mut report, label, "positive-control", &run);
    }

    // Single-product latency of the ct engine on a dense workload.
    let mut criterion = Criterion::default().configure_from_args();
    let mut state = cfg.seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let a = PolyQ::from_fn(|_| (next() & 0x1fff) as u16);
    let s = SecretPoly::from_fn(|_| ((next() % 11) as i8) - 5);
    let mut group = criterion.benchmark_group("timing_cost");
    group.bench_function(engine.label(), |b| {
        let mut shard = engine.build();
        b.iter(|| black_box(shard.multiply(black_box(&a), black_box(&s))));
    });
    group.finish();
    let id = format!("timing_cost/{}", engine.label());
    if let Some((_, m)) = criterion.results().iter().find(|(k, _)| *k == id) {
        report.ct_ns_per_product = m.mean.as_nanos() as f64;
    }

    println!("{}", report.format_text());
    assert!(
        report.controls_hold(),
        "timing leakage controls misbehaved — see the table above"
    );

    report.report().write("BENCH_timing.json");

    criterion.final_summary();
}
