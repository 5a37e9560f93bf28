//! Constant-time schoolbook multiplier: secret-independent scan order
//! and memory access pattern.
//!
//! [`CtSchoolbookMultiplier`] is the workspace's one hot-path engine: a
//! fixed-order 256 × 256 multiply-accumulate scan whose iteration count,
//! branch trace, and memory addresses are identical for every secret in
//! the domain. There is no zero skip, no sign branch, and no
//! value-indexed table — coefficient `j` of the secret always touches
//! accumulator slots `j .. j + 256` in the same order, whatever its
//! value. Those are exactly the structures a software copy of the
//! paper's HS-I (value buckets over the secret's support) or HS-II
//! (a complement path for negative secret rows) schedule would bring,
//! which is why that structure stays in the hardware cycle models.
//!
//! The residual assumption, standard for this style of hardening, is
//! that the CPU's integer multiply has operand-independent latency
//! (true of every mainstream 64-bit core; see DESIGN.md §14 for the
//! threat model). The `saber-timing` crate's dudect-style harness is
//! the *measured* check on that assumption: this engine is the one
//! backend expected to pass the fixed-vs-random leakage gate.
//!
//! # Exactness in wrapping `u16` lanes
//!
//! The accumulator is `[u16; 2N]` with wrapping arithmetic, so every
//! product and partial sum is only known modulo 2^16. That is enough:
//! `u16` wrapping arithmetic is the ring `Z/2^16`, and reduction
//! `Z/2^16 → Z/2^13` is a ring homomorphism because 2^13 divides 2^16.
//! Sign-extending a secret coefficient `c` (`c as i16 as u16`) gives the
//! residue of `c` mod 2^16, multiplication and addition commute with the
//! reduction, and the negacyclic fold `acc[k] - acc[k + N]` is one more
//! ring subtraction. Masking the folded lanes to 13 bits
//! ([`PolyQ::from_coeffs`]) therefore yields exactly the integer
//! convolution reduced mod q, however often the lanes wrapped on the
//! way. No bound on `|c|` or on the accumulator is needed, and nothing
//! can trip `overflow-checks`. The loop is plain safe Rust that LLVM
//! auto-vectorizes into 16-bit SIMD multiply-adds.

use crate::modulus::N;
use crate::mul::PolyMultiplier;
use crate::poly::PolyQ;
use crate::secret::SecretPoly;

/// Constant-time fixed-scan schoolbook backend: the hot-path engine
/// behind [`EngineKind`](crate::engine::EngineKind).
///
/// Stateless: the accumulator lives on the stack of each
/// [`multiply`](PolyMultiplier::multiply) call, so no secret-dependent
/// partial sum outlives the call in the engine value.
///
/// # Examples
///
/// ```
/// use saber_ring::mul::{PolyMultiplier, SchoolbookMultiplier};
/// use saber_ring::{CtSchoolbookMultiplier, PolyQ, SecretPoly};
///
/// let a = PolyQ::from_fn(|i| (i as u16 * 31) & 0x1fff);
/// let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
/// let mut ct = CtSchoolbookMultiplier::new();
/// let mut oracle = SchoolbookMultiplier;
/// assert_eq!(ct.multiply(&a, &s), oracle.multiply(&a, &s));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CtSchoolbookMultiplier;

impl CtSchoolbookMultiplier {
    /// A fresh engine.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl PolyMultiplier for CtSchoolbookMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        let a = public.coeffs();
        // Pass `j` always writes `acc[j .. j + N]`: the address pattern
        // is independent of the secret.
        let mut acc = [0u16; 2 * N];
        // Fixed scan: every secret coefficient — zero, positive, or
        // negative — performs exactly N multiply-accumulates over the
        // same contiguous window. No early exit, no sign branch.
        for (j, &c) in secret.coeffs().iter().enumerate() {
            let sj = c as i16 as u16;
            for (slot, &av) in acc[j..j + N].iter_mut().zip(a.iter()) {
                *slot = slot.wrapping_add(sj.wrapping_mul(av));
            }
        }
        // Negacyclic fold: x^(k+N) ≡ -x^k in Z[x]/(x^N + 1). The fold
        // reads every slot unconditionally, so it is as uniform as the
        // scan above.
        let mut folded = [0u16; N];
        for (k, out) in folded.iter_mut().enumerate() {
            *out = acc[k].wrapping_sub(acc[k + N]);
        }
        PolyQ::from_coeffs(folded)
    }

    // multiply_batch: the trait default (a plain map over `multiply`)
    // is already secret-independent — no override, so the batch path
    // inherits the uniform scan verbatim.

    fn name(&self) -> &str {
        "ct-schoolbook constant-time (software)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::SchoolbookMultiplier;
    use saber_testkit::Rng;

    #[test]
    fn matches_the_schoolbook_oracle_on_random_operands() {
        let mut rng = Rng::new(0x5ABE_C701);
        let mut ct = CtSchoolbookMultiplier::new();
        let mut oracle = SchoolbookMultiplier;
        for _ in 0..24 {
            let a = PolyQ::from_fn(|_| (rng.next_u32() & 0x1fff) as u16);
            let s = SecretPoly::from_fn(|_| rng.secret_coeff(5));
            assert_eq!(ct.multiply(&a, &s), oracle.multiply(&a, &s));
        }
    }

    #[test]
    fn zero_secret_yields_zero_product() {
        let mut ct = CtSchoolbookMultiplier::new();
        let a = PolyQ::from_fn(|i| (i as u16) & 0x1fff);
        let product = ct.multiply(&a, &SecretPoly::zero());
        assert_eq!(product, PolyQ::zero());
    }

    #[test]
    fn extreme_magnitude_secrets_stay_exact() {
        // All-(+5) and all-(-5) secrets give the largest partial sums.
        let mut ct = CtSchoolbookMultiplier::new();
        let mut oracle = SchoolbookMultiplier;
        let a = PolyQ::from_fn(|_| 0x1fff);
        for mag in [5i8, -5] {
            let s = SecretPoly::from_fn(|_| mag);
            assert_eq!(ct.multiply(&a, &s), oracle.multiply(&a, &s));
        }
        // Alternating ±5 against all-0x1fff: partial sums swing through
        // both signs, so the u16 lanes wrap downward and upward.
        let s = SecretPoly::from_fn(|i| if i % 2 == 0 { 5 } else { -5 });
        assert_eq!(ct.multiply(&a, &s), oracle.multiply(&a, &s));
    }
}
