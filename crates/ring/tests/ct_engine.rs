//! Property battery for the constant-time engine
//! ([`saber_ring::ct::CtSchoolbookMultiplier`], the hot-path engine):
//! bit-exact against the schoolbook oracle across all three Saber
//! parameter-set secret bounds and batch sizes 1/4/16/64, with the
//! batch path identical to the mapped path — the per-engine deep dive
//! behind `engine_batch.rs`.
//!
//! The adversarial shapes lean on what a *broken* constant-time scan
//! would get wrong: all-zero secrets (anything with an early exit
//! degenerates here), single-coefficient secrets at both ends of the
//! ring (the negacyclic fold), and saturated ±bound secrets (the
//! largest partial sums, which wrap the u16 lanes).

use saber_ring::{schoolbook, CtSchoolbookMultiplier, EngineKind, PolyMultiplier, PolyQ, SecretPoly};
use saber_testkit::Rng;

/// Secret bounds of LightSaber / Saber / FireSaber.
const BOUNDS: [i8; 3] = [5, 4, 3];

/// Batch sizes the ISSUE pins: single-shot through mat-vec scale.
const BATCH_SIZES: [usize; 4] = [1, 4, 16, 64];

fn workload(seed: u64, bound: i8, publics: usize, secrets: usize) -> (Vec<PolyQ>, Vec<SecretPoly>) {
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

#[test]
fn ct_batch_matches_mapped_and_oracle_across_bounds_and_batch_sizes() {
    for (i, bound) in BOUNDS.into_iter().enumerate() {
        for (j, batch) in BATCH_SIZES.into_iter().enumerate() {
            let seed = 0xC7_E9617E ^ ((i as u64) << 8) ^ (j as u64);
            let secrets_n = (batch / 2).max(1); // exercises secret reuse
            let (publics, secrets) = workload(seed, bound, batch, secrets_n);
            let ops: Vec<(&PolyQ, &SecretPoly)> =
                publics.iter().zip(secrets.iter().cycle()).collect();
            let expected: Vec<PolyQ> = ops
                .iter()
                .map(|(a, s)| schoolbook::mul_asym(a, s))
                .collect();
            let mut batch_shard = EngineKind::default().build();
            assert_eq!(
                batch_shard.multiply_batch(&ops),
                expected,
                "ct batch path, bound {bound}, batch {batch}"
            );
            let mut mapped_shard = EngineKind::default().build();
            let mapped: Vec<PolyQ> = ops
                .iter()
                .map(|(a, s)| mapped_shard.multiply(a, s))
                .collect();
            assert_eq!(mapped, expected, "ct mapped path, bound {bound}, batch {batch}");
        }
    }
}

#[test]
fn ct_engine_handles_adversarial_secret_shapes() {
    let mut engine = CtSchoolbookMultiplier::new();
    let a = PolyQ::from_fn(|i| (i as u16).wrapping_mul(2741) & 0x1fff);
    let mut shapes: Vec<SecretPoly> = vec![
        SecretPoly::zero(),
        SecretPoly::from_fn(|i| if i == 0 { 5 } else { 0 }),
        SecretPoly::from_fn(|i| if i == 255 { -5 } else { 0 }),
        SecretPoly::from_fn(|_| 5),
        SecretPoly::from_fn(|_| -5),
        SecretPoly::from_fn(|i| if i % 2 == 0 { 5 } else { -5 }),
    ];
    for bound in BOUNDS {
        shapes.push(SecretPoly::from_fn(|i| {
            let span = 2 * bound as usize + 1;
            (((i * 13) % span) as i8) - bound
        }));
    }
    for s in &shapes {
        assert_eq!(
            engine.multiply(&a, s),
            schoolbook::mul_asym(&a, s),
            "shape with support {}",
            s.iter().filter(|&&c| c != 0).count()
        );
    }
}

#[test]
fn ct_engine_state_does_not_bleed_between_calls() {
    // The engine reuses its accumulator arena across calls; a missing
    // reset would poison later products. Interleave dense and zero
    // secrets and re-check against fresh-engine results.
    let mut rng = Rng::new(0x5C7A7E);
    let mut reused = CtSchoolbookMultiplier::new();
    for round in 0..12 {
        let a = PolyQ::from_fn(|_| (rng.next_u32() & 0x1fff) as u16);
        let s = if round % 3 == 2 {
            SecretPoly::zero()
        } else {
            SecretPoly::from_fn(|_| rng.secret_coeff(5))
        };
        let mut fresh = CtSchoolbookMultiplier::new();
        assert_eq!(
            reused.multiply(&a, &s),
            fresh.multiply(&a, &s),
            "round {round}"
        );
    }
}
