//! Batch ≡ mapped equivalence for every hot-path engine
//! ([`EngineKind::ALL`]) across every parameter-set secret bound, and
//! the secret-caching engines' `hs1.*`/`swar.*` trace counters
//! surviving all the way into the Chrome-trace export.
//!
//! The unit tests inside each engine module already pin the batch path
//! to the mapped path on one bound; this battery re-runs the property
//! under the secret bounds of all three Saber parameter sets
//! (LightSaber 5, Saber 4, FireSaber 3) through the [`EngineKind`]
//! selector — the exact construction path the service layer uses.

use saber_ring::{
    schoolbook, CachedSchoolbookMultiplier, EngineKind, PolyMultiplier, PolyQ, SecretPoly,
    SwarMultiplier,
};
use saber_testkit::json::Value;
use saber_testkit::Rng;

/// Secret bounds of LightSaber / Saber / FireSaber.
const BOUNDS: [i8; 3] = [5, 4, 3];

/// A deterministic workload: `publics` full-width public polynomials
/// and `secrets` secrets within `bound`, paired by cycling.
fn workload(
    seed: u64,
    bound: i8,
    publics: usize,
    secrets: usize,
) -> (Vec<PolyQ>, Vec<SecretPoly>) {
    let mut rng = Rng::new(seed);
    let span = u32::from(2 * bound as u8 + 1);
    let a = (0..publics)
        .map(|_| PolyQ::from_fn(|_| (rng.next_u32() & 0x1fff) as u16))
        .collect();
    let s = (0..secrets)
        .map(|_| SecretPoly::from_fn(|_| ((rng.next_u32() % span) as i8) - bound))
        .collect();
    (a, s)
}

/// The property itself: `multiply_batch` must agree element-wise with
/// the mapped `multiply` calls *and* with the schoolbook oracle.
fn assert_batch_matches_mapped(kind: EngineKind) {
    for (i, bound) in BOUNDS.into_iter().enumerate() {
        let (publics, secrets) = workload(0xE9_B47C ^ (i as u64), bound, 7, 3);
        let ops: Vec<(&PolyQ, &SecretPoly)> = publics
            .iter()
            .zip(secrets.iter().cycle())
            .collect();
        let expected: Vec<PolyQ> = ops
            .iter()
            .map(|(a, s)| schoolbook::mul_asym(a, s))
            .collect();
        let mut batch_shard = kind.build();
        assert_eq!(
            batch_shard.multiply_batch(&ops),
            expected,
            "{kind} batch path, bound {bound}"
        );
        let mut mapped_shard = kind.build();
        let mapped: Vec<PolyQ> = ops
            .iter()
            .map(|(a, s)| mapped_shard.multiply(a, s))
            .collect();
        assert_eq!(mapped, expected, "{kind} mapped path, bound {bound}");
    }
}

#[test]
fn every_engine_batch_matches_mapped_multiplies_across_all_bounds() {
    for kind in EngineKind::ALL {
        assert_batch_matches_mapped(kind);
    }
}

#[test]
fn engine_counters_survive_into_the_chrome_export() {
    // Drive both secret-caching engines through a batch with secret
    // reuse inside a capture session, then check every instrumentation
    // counter both in the raw trace and in the validated Chrome-trace
    // document.
    let session = saber_trace::start();
    let (publics, secrets) = workload(0xC0_FFEE, 5, 6, 2);
    let ops: Vec<(&PolyQ, &SecretPoly)> = publics.iter().zip(secrets.iter().cycle()).collect();
    let cached_out = CachedSchoolbookMultiplier::new().multiply_batch(&ops);
    let swar_out = SwarMultiplier::new().multiply_batch(&ops);
    let trace = session.finish();
    assert_eq!(cached_out, swar_out, "engines agree on the traced batch");

    const COUNTERS: [&str; 6] = [
        "hs1.bucket_build",
        "hs1.bucket_hit",
        "hs1.bucket_miss",
        "swar.rows_built",
        "swar.bucket_hit",
        "swar.bucket_miss",
    ];
    for name in COUNTERS {
        assert!(
            trace.counter_total(name) > 0,
            "counter {name} missing from the captured trace"
        );
    }

    let text = saber_trace::chrome::export_string(Some(&trace), &[]);
    let doc = saber_testkit::json::parse(&text).expect("export parses");
    saber_trace::chrome::validate(&doc).expect("export validates");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    for name in COUNTERS {
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(Value::as_str) == Some("C")
                    && e.get("name").and_then(Value::as_str) == Some(name)
            }),
            "counter {name} missing from the Chrome export"
        );
    }
}
