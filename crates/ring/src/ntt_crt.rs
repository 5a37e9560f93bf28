//! Negacyclic NTT multiplication over **two small primes with CRT
//! reconstruction** — the technique Chung et al. (\[14\] in the paper)
//! actually deploy on Cortex-M4 for NTT-unfriendly rings.
//!
//! The [`crate::ntt`] module uses one 64-bit prime; real embedded
//! implementations prefer word-sized moduli. Here we pick two ~14-bit
//! primes `p₁, p₂ ≡ 1 (mod 512)` (found and verified at start-up, no
//! magic constants), run the 256-point negacyclic NTT modulo each, and
//! recover the integer coefficients — bounded by `256·8191·5 < 2^24 <
//! p₁·p₂/2` — by the Chinese Remainder Theorem with a centered lift.
//!
//! Cross-checked against both the schoolbook oracle and the
//! single-prime NTT.

use std::sync::OnceLock;

use crate::modulus::N;
use crate::poly::Poly;
use crate::secret::SecretPoly;

/// log2 of the transform size.
const LOG_N: u32 = 8;

/// One small NTT field with its precomputed twiddle tables.
#[derive(Debug, Clone)]
struct SmallField {
    prime: u32,
    psi: [u32; N],
    psi_inv_scaled: [u32; N],
    omega: [u32; N],
    omega_inv: [u32; N],
}

fn mul_mod(a: u32, b: u32, p: u32) -> u32 {
    ((u64::from(a) * u64::from(b)) % u64::from(p)) as u32
}

fn pow_mod(mut base: u32, mut exp: u32, p: u32) -> u32 {
    let mut acc = 1u32;
    base %= p;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, p);
        }
        base = mul_mod(base, base, p);
        exp >>= 1;
    }
    acc
}

fn inv_mod(a: u32, p: u32) -> u32 {
    pow_mod(a, p - 2, p)
}

fn is_prime(n: u32) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2u32;
    while u64::from(d) * u64::from(d) <= u64::from(n) {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Finds a primitive 512-th root of unity modulo `p` (requires
/// `p ≡ 1 mod 512`).
fn find_psi(p: u32) -> Option<u32> {
    let cofactor = (p - 1) / 512;
    (2..p.min(4_000)).find_map(|g| {
        let c = pow_mod(g, cofactor, p);
        (pow_mod(c, 256, p) == p - 1).then_some(c)
    })
}

fn build_field(prime: u32) -> SmallField {
    let psi_root = find_psi(prime).expect("prime admits a 512th root");
    let omega_root = mul_mod(psi_root, psi_root, prime);
    let psi_inv = inv_mod(psi_root, prime);
    let omega_inv_root = inv_mod(omega_root, prime);
    let n_inv = inv_mod(N as u32, prime);

    let mut field = SmallField {
        prime,
        psi: [0; N],
        psi_inv_scaled: [0; N],
        omega: [0; N],
        omega_inv: [0; N],
    };
    let (mut a, mut b, mut c, mut d) = (1u32, n_inv, 1u32, 1u32);
    for j in 0..N {
        field.psi[j] = a;
        field.psi_inv_scaled[j] = b;
        field.omega[j] = c;
        field.omega_inv[j] = d;
        a = mul_mod(a, psi_root, prime);
        b = mul_mod(b, psi_inv, prime);
        c = mul_mod(c, omega_root, prime);
        d = mul_mod(d, omega_inv_root, prime);
    }
    field
}

/// The two fields plus CRT constants.
#[derive(Debug, Clone)]
struct CrtContext {
    f1: SmallField,
    f2: SmallField,
    /// `p₁⁻¹ mod p₂` for Garner's reconstruction.
    p1_inv_mod_p2: u32,
    modulus: u64,
}

fn context() -> &'static CrtContext {
    static CTX: OnceLock<CrtContext> = OnceLock::new();
    CTX.get_or_init(|| {
        // Search for the two smallest ~14-bit primes ≡ 1 (mod 512) with
        // the required roots, starting above 2^13 so products fit u32.
        let mut primes = Vec::new();
        let mut candidate = 512 * 17 + 1; // 8 705, first ≥ 2^13
        while primes.len() < 2 {
            if is_prime(candidate) && find_psi(candidate).is_some() {
                primes.push(candidate);
            }
            candidate += 512;
        }
        let (p1, p2) = (primes[0], primes[1]);
        CrtContext {
            f1: build_field(p1),
            f2: build_field(p2),
            p1_inv_mod_p2: inv_mod(p1 % p2, p2),
            modulus: u64::from(p1) * u64::from(p2),
        }
    })
}

fn bit_reverse_permute(values: &mut [u32; N]) {
    for i in 0..N {
        let j = ((i as u32).reverse_bits() >> (32 - LOG_N)) as usize;
        if i < j {
            values.swap(i, j);
        }
    }
}

fn transform(values: &mut [u32; N], powers: &[u32; N], p: u32) {
    bit_reverse_permute(values);
    let mut len = 2;
    while len <= N {
        let step = N / len;
        for start in (0..N).step_by(len) {
            for k in 0..len / 2 {
                let w = powers[k * step];
                let u = values[start + k];
                let v = mul_mod(values[start + k + len / 2], w, p);
                values[start + k] = (u + v) % p;
                values[start + k + len / 2] = (u + p - v) % p;
            }
        }
        len <<= 1;
    }
}

/// Lifts `src` into the field, applies the ψ pre-twist, and runs the
/// forward transform in place — the per-operand half of the pipeline.
fn forward_into(src: &[i64; N], f: &SmallField, out: &mut [u32; N]) {
    let p = f.prime;
    for (j, slot) in out.iter_mut().enumerate() {
        *slot = mul_mod(src[j].rem_euclid(i64::from(p)) as u32, f.psi[j], p);
    }
    transform(out, &f.omega, p);
}

/// Pointwise product with `other`, inverse transform, and ψ⁻¹/N descale,
/// all in place on `values` — the per-product tail of the pipeline.
fn pointwise_inverse_into(values: &mut [u32; N], other: &[u32; N], f: &SmallField) {
    let p = f.prime;
    for (x, &y) in values.iter_mut().zip(other.iter()) {
        *x = mul_mod(*x, y, p);
    }
    transform(values, &f.omega_inv, p);
    for (j, x) in values.iter_mut().enumerate() {
        *x = mul_mod(*x, f.psi_inv_scaled[j], p);
    }
}

/// Garner reconstruction of the centered integer coefficients from the
/// two per-field residue vectors, written into `out`.
fn recombine_centered(r1: &[u32; N], r2: &[u32; N], out: &mut [i64; N]) {
    let ctx = context();
    let (p1, p2) = (ctx.f1.prime, ctx.f2.prime);
    for (j, slot) in out.iter_mut().enumerate() {
        // Garner: x = r1 + p1·((r2 − r1)·p1⁻¹ mod p2), centered.
        let diff = (r2[j] + p2 - (r1[j] % p2)) % p2;
        let t = mul_mod(diff, ctx.p1_inv_mod_p2, p2);
        let x = u64::from(r1[j]) + u64::from(p1) * u64::from(t);
        *slot = if x > ctx.modulus / 2 {
            (x as i64) - (ctx.modulus as i64)
        } else {
            x as i64
        };
    }
}

fn negacyclic_mul_field(a: &[i64; N], b: &[i64; N], f: &SmallField) -> [u32; N] {
    let mut fa = [0u32; N];
    let mut fb = [0u32; N];
    forward_into(a, f, &mut fa);
    forward_into(b, f, &mut fb);
    pointwise_inverse_into(&mut fa, &fb, f);
    fa
}

/// Negacyclic product via two small-prime NTTs and CRT reconstruction.
///
/// Correct whenever every true coefficient satisfies
/// `|c| < p₁·p₂ / 2 ≈ 2^27` — ample for all Saber operands.
#[must_use]
pub fn negacyclic_mul(a: &[i64; N], b: &[i64; N]) -> [i64; N] {
    let ctx = context();
    let r1 = negacyclic_mul_field(a, b, &ctx.f1);
    let r2 = negacyclic_mul_field(a, b, &ctx.f2);
    let mut out = [0i64; N];
    recombine_centered(&r1, &r2, &mut out);
    out
}

/// CRT-NTT product of two ring polynomials.
///
/// # Examples
///
/// ```
/// use saber_ring::{PolyQ, ntt_crt, schoolbook};
///
/// let a = PolyQ::from_fn(|i| (i * 9) as u16);
/// let b = PolyQ::from_fn(|i| (i ^ 0xa5) as u16);
/// assert_eq!(ntt_crt::mul(&a, &b), schoolbook::mul(&a, &b));
/// ```
#[must_use]
pub fn mul<const QBITS: u32>(a: &Poly<QBITS>, b: &Poly<QBITS>) -> Poly<QBITS> {
    // Center the operands so products stay within the CRT range even for
    // symmetric 13-bit × 13-bit multiplications
    // (256·4096² = 2^36 would overflow; centered: 256·4096·4096 — still
    // 2^36! — so symmetric products route coefficient-centered values
    // through i64 convolution bounds of 2^36 > 2^27: reject).
    // The CRT pair covers the *asymmetric* Saber profile; for symmetric
    // inputs fall back to splitting b into high/low nibbles.
    // Coefficient bound per CRT product: |Σ aᵢ·bⱼ| < p₁·p₂/2 ≈ 2^26.
    // With a centered (|a| ≤ 4096) the second operand may contribute at
    // most ~2^26 / (256·4096) = 64 in magnitude per limb.
    let a_centered = a.to_i64_centered();
    let b_centered = b.to_i64_centered();
    let b_max = b_centered.iter().map(|v| v.abs()).max().unwrap_or(0);
    if b_max <= 32 {
        Poly::from_signed(&negacyclic_mul(&a_centered, &b_centered))
    } else {
        // Split b into three signed 5-bit limbs (|limb| ≤ 16), multiply
        // each against a, and recombine with shifts — the "limb-split"
        // trick [14] uses when coefficients exceed the CRT budget.
        let mut limbs = [[0i64; N]; 3];
        for j in 0..N {
            let mut r = b_centered[j];
            for limb in limbs.iter_mut() {
                let l = ((r + 16) & 31) - 16;
                limb[j] = l;
                r = (r - l) >> 5;
            }
            debug_assert_eq!(r, 0, "three 5-bit limbs cover ±4096");
        }
        let mut sum = [0i64; N];
        for (k, limb) in limbs.iter().enumerate() {
            let partial = negacyclic_mul(&a_centered, limb);
            for j in 0..N {
                sum[j] = sum[j].wrapping_add(partial[j] << (5 * k));
            }
        }
        Poly::from_signed(&sum)
    }
}

/// CRT-NTT product of a public polynomial and a small secret (the
/// operand profile \[14\] targets).
#[must_use]
pub fn mul_asym<const QBITS: u32>(a: &Poly<QBITS>, s: &SecretPoly) -> Poly<QBITS> {
    Poly::from_signed(&negacyclic_mul(&a.to_i64(), &s.to_i64()))
}

/// The two primes in use (exposed for reporting/tests).
#[must_use]
pub fn primes() -> (u32, u32) {
    let ctx = context();
    (ctx.f1.prime, ctx.f2.prime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::PolyQ;
    use crate::schoolbook;

    #[test]
    fn primes_have_required_structure() {
        let (p1, p2) = primes();
        assert!(is_prime(p1) && is_prime(p2));
        assert_eq!(p1 % 512, 1);
        assert_eq!(p2 % 512, 1);
        assert!(p1 > 8_192 && p2 > p1);
        // The CRT modulus covers the asymmetric coefficient bound.
        assert!(u64::from(p1) * u64::from(p2) / 2 > 256 * 8_191 * 5);
    }

    #[test]
    fn asym_matches_schoolbook_and_single_prime_ntt() {
        let a = PolyQ::from_fn(|i| (i as u16).wrapping_mul(201) & 0x1fff);
        let s = SecretPoly::from_fn(|i| (((i * 3) % 11) as i8) - 5);
        let expected = schoolbook::mul_asym(&a, &s);
        assert_eq!(mul_asym(&a, &s), expected);
        assert_eq!(crate::ntt::mul_asym(&a, &s), expected);
    }

    #[test]
    fn worst_case_asym_magnitudes() {
        let a = PolyQ::from_fn(|_| 8_191);
        let s = SecretPoly::from_fn(|i| if i % 2 == 0 { 5 } else { -5 });
        assert_eq!(mul_asym(&a, &s), schoolbook::mul_asym(&a, &s));
    }

    #[test]
    fn symmetric_products_via_split() {
        let a = PolyQ::from_fn(|i| (8_191 - i) as u16);
        let b = PolyQ::from_fn(|i| (i as u16).wrapping_mul(57) & 0x1fff);
        assert_eq!(mul(&a, &b), schoolbook::mul(&a, &b));
    }

    #[test]
    fn symmetric_worst_case() {
        let a = PolyQ::from_fn(|_| 8_191);
        let b = PolyQ::from_fn(|_| 8_191);
        assert_eq!(mul(&a, &b), schoolbook::mul(&a, &b));
    }
}
