//! The KEM layer ledger: each Saber operation replayed from the public
//! layer calls `saber_kem::kem` composes, with a span around each layer.
//!
//! The replay re-derives keys, ciphertexts and shared secrets through
//! `expand::gen_matrix`/`gen_secret`, `PolyMultiplier::multiply_batch`,
//! `PolyMatrix::mul_vec_transposed`, `PolyVec::inner_product_mod_p`,
//! `rounding::scale_floor`, `serialize::*_to_bytes` and
//! `Sha3_256`/`Sha3_512`/`Shake256`. Its outputs are compared byte for
//! byte with the untraced `kem::*` outputs of the same session before
//! any layer figure is reported ([`Ledger::mismatches`]).

use saber_keccak::{Sha3_256, Sha3_512, Shake256};
use saber_kem::expand::{gen_matrix, gen_secret};
use saber_kem::pke::{CompressedPoly, CpaSecretKey};
use saber_kem::{serialize, Ciphertext, KemSecretKey, PublicKey, SaberParams};
use saber_ring::rounding::{h1, h2, scale_floor};
use saber_ring::{packing, Poly, PolyMultiplier, PolyP, PolyQ, PolyVec, SecretPoly, EPS_P, N};

use crate::spans::Recorder;

/// Span names of the polynomial-multiply layer.
pub const MUL_SPANS: [&str; 3] = ["ring.matvec", "ring.encrypt_batch", "ring.inner_product"];

/// Per-operation sums over every replayed session.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpLedger {
    /// Replayed operations.
    pub count: u64,
    /// Untraced `kem::*` time, ns.
    pub whole_ns: u64,
    /// Traced replay time (the op's root span), ns.
    pub replay_ns: u64,
    /// Sum of the root span's direct child spans, ns.
    pub layers_ns: u64,
    /// Sum of the multiply spans anywhere below the root, ns.
    pub mul_ns: u64,
}

impl OpLedger {
    /// Whole op minus its layer spans, as a percentage of the whole.
    #[must_use]
    pub fn residual_pct(&self) -> f64 {
        (self.whole_ns as f64 - self.layers_ns as f64) / self.whole_ns.max(1) as f64 * 100.0
    }

    /// Multiply spans as a percentage of the whole op.
    #[must_use]
    pub fn mul_share_pct(&self) -> f64 {
        self.mul_ns as f64 / self.whole_ns.max(1) as f64 * 100.0
    }
}

/// The ledger of a traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// keygen, encaps, decaps.
    pub ops: [OpLedger; 3],
    /// Replayed outputs that differed from the untraced ones.
    pub mismatches: u64,
}

impl Ledger {
    /// Adds one replayed op: `root` is the index of its root span.
    pub fn add(&mut self, op: usize, rec: &Recorder, root: usize, whole_ns: u64) {
        let spans = rec.spans();
        let entry = &mut self.ops[op];
        entry.count += 1;
        entry.whole_ns += whole_ns;
        entry.replay_ns += spans[root].ns();
        for s in &spans[root + 1..] {
            if s.parent == Some(root) {
                entry.layers_ns += s.ns();
            }
            if MUL_SPANS.contains(&s.name) {
                entry.mul_ns += s.ns();
            }
        }
    }

    /// Replay time over untraced time, minus one, in percent.
    #[must_use]
    pub fn overhead_pct(&self) -> f64 {
        let whole: u64 = self.ops.iter().map(|o| o.whole_ns).sum();
        let replay: u64 = self.ops.iter().map(|o| o.replay_ns).sum();
        (replay as f64 / whole.max(1) as f64 - 1.0) * 100.0
    }

    /// Sets every `ledger.*`, `expand.*`, `ring.*` (but `ring.mul_ns`),
    /// `pke.*` and `kem.*` metric from the ledger and its spans.
    pub fn report(&self, rec: &Recorder, params: &SaberParams, out: &mut crate::Outcome) {
        use saber_kem::cost::{decaps_cost, encaps_cost, keygen_cost, CostModel};
        let model = CostModel::default();
        let predicted = [
            keygen_cost(params, &model).multiplication_share(),
            encaps_cost(params, &model).multiplication_share(),
            decaps_cost(params, &model).multiplication_share(),
        ];
        let names = [
            [
                "ledger.keygen.residual_pct",
                "ledger.keygen.mul_share_pct",
                "ledger.keygen.mul_share_model_pct",
            ],
            [
                "ledger.encaps.residual_pct",
                "ledger.encaps.mul_share_pct",
                "ledger.encaps.mul_share_model_pct",
            ],
            [
                "ledger.decaps.residual_pct",
                "ledger.decaps.mul_share_pct",
                "ledger.decaps.mul_share_model_pct",
            ],
        ];
        for ((op, [residual, share, model_share]), predicted) in
            self.ops.iter().zip(names).zip(predicted)
        {
            out.set(residual, op.residual_pct());
            out.set(share, op.mul_share_pct());
            out.set(model_share, predicted * 100.0);
        }
        for (metric, span) in [
            ("expand.gen_matrix_us", "expand.gen_matrix"),
            ("expand.gen_secret_us", "expand.gen_secret"),
            ("ring.encrypt_batch_us", "ring.encrypt_batch"),
            ("ring.matvec_us", "ring.matvec"),
            ("ring.inner_product_us", "ring.inner_product"),
            ("ring.round_us", "ring.round"),
            ("pke.encrypt_us", "pke.encrypt"),
            ("pke.decrypt_us", "pke.decrypt"),
        ] {
            out.set(metric, rec.mean_us(span));
        }
        let ops: u64 = self.ops.iter().map(|o| o.count).sum::<u64>().max(1);
        out.set(
            "kem.pack_us",
            rec.total_ns("kem.pack") as f64 / ops as f64 / 1e3,
        );
        out.set(
            "kem.hash_us",
            rec.total_ns("kem.hash") as f64 / ops as f64 / 1e3,
        );
    }
}

/// Replays `kem::keygen`; returns the key pair and the root span.
pub fn keygen<M: PolyMultiplier + ?Sized>(
    rec: &mut Recorder,
    req: u64,
    params: &SaberParams,
    seed: &[u8; 32],
    backend: &mut M,
) -> (PublicKey, KemSecretKey, usize) {
    let root = rec.open(req, "kem.keygen", None);
    let p = Some(root);
    let (seed_a, seed_s, z) = rec.leaf(req, "kem.hash", p, || {
        let mut xof = Shake256::new();
        xof.absorb(seed);
        xof.absorb(b"saber-kem-keygen");
        (xof.read_array(), xof.read_array::<32>(), xof.read_array())
    });
    let a = rec.leaf(req, "expand.gen_matrix", p, || gen_matrix(&seed_a, params));
    let s = rec.leaf(req, "expand.gen_secret", p, || gen_secret(&seed_s, params));
    let product = rec.leaf(req, "ring.matvec", p, || a.mul_vec_transposed(&s, backend));
    let b = rec.leaf(req, "ring.round", p, || round_to_p(&product));
    let pk = PublicKey {
        seed_a,
        b,
        params: *params,
    };
    let pk_bytes = rec.leaf(req, "kem.pack", p, || serialize::public_key_to_bytes(&pk));
    let pk_hash = rec.leaf(req, "kem.hash", p, || Sha3_256::digest(&pk_bytes));
    let cpa = CpaSecretKey { s, params: *params };
    let sk = KemSecretKey::from_parts(cpa, pk.clone(), pk_hash, z);
    rec.close(root);
    (pk, sk, root)
}

/// Replays `kem::encaps`; returns the ciphertext, the shared secret and
/// the root span.
pub fn encaps<M: PolyMultiplier + ?Sized>(
    rec: &mut Recorder,
    req: u64,
    pk: &PublicKey,
    entropy: &[u8; 32],
    backend: &mut M,
) -> (Ciphertext, [u8; 32], usize) {
    let root = rec.open(req, "kem.encaps", None);
    let p = Some(root);
    let m = rec.leaf(req, "kem.hash", p, || Sha3_256::digest(entropy));
    let pk_bytes = rec.leaf(req, "kem.pack", p, || serialize::public_key_to_bytes(pk));
    let pk_hash = rec.leaf(req, "kem.hash", p, || Sha3_256::digest(&pk_bytes));
    let (khat, coins) = rec.leaf(req, "kem.hash", p, || g_split(&pk_hash, &m));
    let ct = encrypt(rec, req, p, pk, &m, &coins, backend);
    let ct_bytes = rec.leaf(req, "kem.pack", p, || {
        serialize::ciphertext_to_bytes(&ct, &pk.params)
    });
    let ss = rec.leaf(req, "kem.hash", p, || final_key(&khat, &ct_bytes));
    rec.close(root);
    (ct, ss, root)
}

/// Replays `kem::decaps`; returns the shared secret and the root span.
pub fn decaps<M: PolyMultiplier + ?Sized>(
    rec: &mut Recorder,
    req: u64,
    sk: &KemSecretKey,
    ct: &Ciphertext,
    backend: &mut M,
) -> ([u8; 32], usize) {
    let root = rec.open(req, "kem.decaps", None);
    let p = Some(root);
    let m_prime = decrypt(rec, req, p, sk.cpa(), ct, backend);
    let (khat, coins) = rec.leaf(req, "kem.hash", p, || g_split(sk.pk_hash(), &m_prime));
    let ct_prime = encrypt(rec, req, p, sk.public_key(), &m_prime, &coins, backend);
    let (ct_bytes, ct_prime_bytes) = rec.leaf(req, "kem.pack", p, || {
        (
            serialize::ciphertext_to_bytes(ct, sk.params()),
            serialize::ciphertext_to_bytes(&ct_prime, sk.params()),
        )
    });
    let key = if saber_kem::secret::ct_eq(&ct_prime_bytes, &ct_bytes) {
        khat
    } else {
        *sk.z()
    };
    let ss = rec.leaf(req, "kem.hash", p, || final_key(&key, &ct_bytes));
    rec.close(root);
    (ss, root)
}

fn g_split(pk_hash: &[u8; 32], m: &[u8; 32]) -> ([u8; 32], [u8; 32]) {
    let mut g = Sha3_512::new();
    g.update(pk_hash);
    g.update(m);
    let out = g.finalize();
    let mut khat = [0u8; 32];
    let mut coins = [0u8; 32];
    khat.copy_from_slice(&out[..32]);
    coins.copy_from_slice(&out[32..]);
    (khat, coins)
}

fn final_key(khat: &[u8; 32], ct_bytes: &[u8]) -> [u8; 32] {
    let mut h = Sha3_256::new();
    h.update(khat);
    h.update(ct_bytes);
    h.finalize()
}

/// `((v + h1) mod q) >> (ε_q − ε_p)` over a vector.
fn round_to_p(v: &PolyVec<13>) -> PolyVec<10> {
    PolyVec::from_polys(
        v.add_constant(h1())
            .iter()
            .map(scale_floor::<13, 10>)
            .collect(),
    )
}

/// Replays `pke::encrypt` under a `pke.encrypt` span.
fn encrypt<M: PolyMultiplier + ?Sized>(
    rec: &mut Recorder,
    req: u64,
    parent: Option<usize>,
    pk: &PublicKey,
    message: &[u8; 32],
    coins: &[u8; 32],
    backend: &mut M,
) -> Ciphertext {
    let id = rec.open(req, "pke.encrypt", parent);
    let p = Some(id);
    let params = &pk.params;
    let rank = params.rank;
    let a = rec.leaf(req, "expand.gen_matrix", p, || {
        gen_matrix(&pk.seed_a, params)
    });
    let s_prime = rec.leaf(req, "expand.gen_secret", p, || gen_secret(coins, params));
    let wides: Vec<PolyQ> = pk.b.iter().map(|b| b.embed_to::<13>()).collect();
    let mut ops: Vec<(&PolyQ, &SecretPoly)> = Vec::with_capacity(rank * (rank + 1));
    for col in 0..rank {
        for row in 0..rank {
            ops.push((a.entry(row, col), &s_prime[col]));
        }
        ops.push((&wides[col], &s_prime[col]));
    }
    let products = rec.leaf(req, "ring.encrypt_batch", p, || {
        backend.multiply_batch(&ops)
    });
    let mut b_rows = vec![PolyQ::zero(); rank];
    let mut v_acc = PolyQ::zero();
    for (k, product) in products.iter().enumerate() {
        let slot = k % (rank + 1);
        if slot < rank {
            b_rows[slot] += product;
        } else {
            v_acc += product;
        }
    }
    let b_prime = rec.leaf(req, "ring.round", p, || {
        round_to_p(&PolyVec::from_polys(b_rows))
    });
    let v_prime = v_acc.reduce_to::<10>().add_constant(h1());
    let m_poly = packing::message_to_poly(message);
    let shift = EPS_P - params.eps_t;
    let mut cm = [0u16; N];
    for (i, slot) in cm.iter_mut().enumerate() {
        let with_msg = v_prime
            .coeff(i)
            .wrapping_sub(m_poly.coeff(i) << (EPS_P - 1))
            & PolyP::MASK;
        *slot = with_msg >> shift;
    }
    let ct = Ciphertext {
        b_prime,
        cm: CompressedPoly::new(cm, params.eps_t),
    };
    rec.close(id);
    ct
}

/// Replays `pke::decrypt` under a `pke.decrypt` span.
fn decrypt<M: PolyMultiplier + ?Sized>(
    rec: &mut Recorder,
    req: u64,
    parent: Option<usize>,
    sk: &CpaSecretKey,
    ct: &Ciphertext,
    backend: &mut M,
) -> [u8; 32] {
    let id = rec.open(req, "pke.decrypt", parent);
    let params = &sk.params;
    let v = rec.leaf(req, "ring.inner_product", Some(id), || {
        ct.b_prime.inner_product_mod_p(&sk.s, backend)
    });
    let shift = EPS_P - params.eps_t;
    let h2_val = h2(params.eps_t);
    let mut m_poly = Poly::<1>::zero();
    for i in 0..N {
        let x = v
            .coeff(i)
            .wrapping_add(h2_val)
            .wrapping_sub(ct.cm.coeff(i) << shift)
            & PolyP::MASK;
        m_poly.set_coeff(i, x >> (EPS_P - 1));
    }
    let m = packing::poly_to_message(&m_poly);
    rec.close(id);
    m
}
