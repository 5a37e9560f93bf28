//! Ready-made [`TimingTarget`]s: the hot-path multiplier engine, any
//! boxed backend, and the full KEM encapsulation/decapsulation
//! pipelines on the engine.
//!
//! Class semantics follow dudect's fixed-vs-random recipe, with the
//! *secret* as the class variable and everything public randomized in
//! both classes:
//!
//! - [`MulTarget`]: fixed class reuses one secret polynomial (the
//!   all-zero secret by default — the extreme that maximizes the
//!   signal of support-dependent backends, and a perfectly legal
//!   input); random class draws a fresh bounded secret per sample.
//!   Public operands are fresh in *both* classes, so a detected
//!   difference can only come from the secret.
//! - [`DecapsTarget`]: fixed class decapsulates one (key, ciphertext)
//!   pair; random class draws from a pool of independently generated
//!   pairs, prepared at construction so per-sample work is a pool
//!   index, not a keygen.
//! - [`EncapsTarget`]: fixed class reuses one entropy input against a
//!   fixed public key; random class draws fresh entropy.

use saber_kem::{decaps, encaps, keygen, Ciphertext, KemSecretKey, PublicKey, SaberParams};
use saber_ring::{EngineKind, PolyMultiplier, PolyQ, SecretPoly};
use saber_testkit::Rng;

use crate::harness::{Class, TimingTarget};

type Backend = Box<dyn PolyMultiplier + Send>;

/// Times one polynomial multiplication per sample on any boxed backend.
pub struct MulTarget {
    backend: Backend,
    fixed: SecretPoly,
    bound: i8,
}

impl MulTarget {
    /// Target for the hot-path engine, at the full LightSaber bound.
    #[must_use]
    pub fn engine() -> Self {
        Self::from_backend(EngineKind::default().build(), 5)
    }

    /// Target for an arbitrary backend (the timing mutants enter here),
    /// drawing random-class secrets with |s| ≤ `bound`.
    #[must_use]
    pub fn from_backend(backend: Backend, bound: i8) -> Self {
        Self {
            backend,
            fixed: SecretPoly::zero(),
            bound,
        }
    }

    /// Overrides the fixed-class secret (default: all-zero).
    #[must_use]
    pub fn with_fixed_secret(mut self, secret: SecretPoly) -> Self {
        self.fixed = secret;
        self
    }

    /// The backend's self-reported name.
    #[must_use]
    pub fn backend_name(&self) -> &str {
        self.backend.name()
    }
}

impl TimingTarget for MulTarget {
    type Input = (PolyQ, SecretPoly);

    fn prepare(&mut self, class: Class, rng: &mut Rng) -> Self::Input {
        // The public operand is random in BOTH classes: only the secret
        // distinguishes them.
        let public = PolyQ::from_fn(|_| (rng.next_u32() & 0x1fff) as u16);
        let secret = match class {
            Class::Fixed => self.fixed.clone(),
            Class::Random => {
                let bound = self.bound;
                SecretPoly::from_fn(|_| rng.secret_coeff(bound))
            }
        };
        (public, secret)
    }

    fn execute(&mut self, input: &Self::Input) {
        let product = self.backend.multiply(&input.0, &input.1);
        std::hint::black_box(product.coeff(0));
    }
}

/// Times one full decapsulation per sample: fixed (key, ciphertext)
/// pair vs a pool of random pairs.
pub struct DecapsTarget {
    backend: Backend,
    fixed: (KemSecretKey, Ciphertext),
    pool: Vec<(KemSecretKey, Ciphertext)>,
}

impl DecapsTarget {
    /// Builds the fixed pair and a `pool_size`-entry random pool for
    /// `params`, running all key generation up front (outside any timed
    /// region).
    #[must_use]
    pub fn new(params: &SaberParams, pool_size: usize, rng: &mut Rng) -> Self {
        let mut backend = EngineKind::default().build();
        let mut pair = |rng: &mut Rng| {
            let (pk, sk) = keygen(params, &rng.bytes32(), backend.as_mut());
            let (ct, _ss) = encaps(&pk, &rng.bytes32(), backend.as_mut());
            (sk, ct)
        };
        let fixed = pair(rng);
        let pool = (0..pool_size.max(1)).map(|_| pair(rng)).collect();
        Self {
            backend,
            fixed,
            pool,
        }
    }
}

impl TimingTarget for DecapsTarget {
    type Input = (Class, usize);

    fn prepare(&mut self, class: Class, rng: &mut Rng) -> Self::Input {
        let idx = rng.range_usize(0, self.pool.len() - 1);
        (class, idx)
    }

    fn execute(&mut self, input: &Self::Input) {
        let (sk, ct) = match input.0 {
            Class::Fixed => &self.fixed,
            Class::Random => &self.pool[input.1],
        };
        let ss = decaps(sk, ct, self.backend.as_mut());
        std::hint::black_box(ss.as_bytes()[0]);
    }
}

/// Times one full encapsulation per sample against a fixed public key:
/// fixed vs fresh entropy.
pub struct EncapsTarget {
    backend: Backend,
    pk: PublicKey,
    fixed_entropy: [u8; 32],
}

impl EncapsTarget {
    /// Builds the key pair up front (outside any timed region).
    #[must_use]
    pub fn new(params: &SaberParams, rng: &mut Rng) -> Self {
        let mut backend = EngineKind::default().build();
        let (pk, _sk) = keygen(params, &rng.bytes32(), backend.as_mut());
        let fixed_entropy = rng.bytes32();
        Self {
            backend,
            pk,
            fixed_entropy,
        }
    }
}

impl TimingTarget for EncapsTarget {
    type Input = [u8; 32];

    fn prepare(&mut self, class: Class, rng: &mut Rng) -> Self::Input {
        match class {
            Class::Fixed => self.fixed_entropy,
            Class::Random => rng.bytes32(),
        }
    }

    fn execute(&mut self, input: &Self::Input) {
        let (_ct, ss) = encaps(&self.pk, input, self.backend.as_mut());
        std::hint::black_box(ss.as_bytes()[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_kem::LIGHT_SABER;

    #[test]
    fn mul_target_classes_differ_only_in_the_secret() {
        let mut target = MulTarget::engine();
        let mut rng = Rng::new(42);
        let (_, s_fixed) = target.prepare(Class::Fixed, &mut rng);
        let (_, s_fixed2) = target.prepare(Class::Fixed, &mut rng);
        assert_eq!(s_fixed, s_fixed2, "fixed class reuses one secret");
        assert_eq!(s_fixed, SecretPoly::zero(), "default fixed secret");
        let (_, s_rand) = target.prepare(Class::Random, &mut rng);
        let (_, s_rand2) = target.prepare(Class::Random, &mut rng);
        assert_ne!(s_rand, s_rand2, "random class draws fresh secrets");
    }

    #[test]
    fn mul_target_executes_on_the_engine() {
        let mut rng = Rng::new(7);
        let mut target = MulTarget::engine();
        for class in [Class::Fixed, Class::Random] {
            let input = target.prepare(class, &mut rng);
            target.execute(&input);
        }
    }

    #[test]
    fn kem_targets_run_end_to_end() {
        let mut rng = Rng::new(9);
        let mut dec = DecapsTarget::new(&LIGHT_SABER, 4, &mut rng);
        for class in [Class::Fixed, Class::Random] {
            let input = dec.prepare(class, &mut rng);
            dec.execute(&input);
        }
        let mut enc = EncapsTarget::new(&LIGHT_SABER, &mut rng);
        for class in [Class::Fixed, Class::Random] {
            let input = enc.prepare(class, &mut rng);
            enc.execute(&input);
        }
    }
}
