//! Batch ≡ mapped equivalence for the hot-path engine across every
//! parameter-set secret bound (LightSaber 5, Saber 4, FireSaber 3),
//! built through [`EngineKind`] — the exact construction path the
//! service layer uses.

use saber_ring::{schoolbook, EngineKind, PolyQ, SecretPoly};
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

/// `multiply_batch` must agree element-wise with the mapped `multiply`
/// calls *and* with the schoolbook oracle.
#[test]
fn engine_batch_matches_mapped_multiplies_across_all_bounds() {
    let kind = EngineKind::default();
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
            "batch path, bound {bound}"
        );
        let mut mapped_shard = kind.build();
        let mapped: Vec<PolyQ> = ops
            .iter()
            .map(|(a, s)| mapped_shard.multiply(a, s))
            .collect();
        assert_eq!(mapped, expected, "mapped path, bound {bound}");
    }
}
