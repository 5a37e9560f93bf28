//! Differential verification subsystem for the Saber multiplier
//! workspace.
//!
//! The paper's claim is *exact* functional equivalence: HS-I, HS-II and
//! the LW multiplier must compute the same negacyclic products as the
//! baseline schoolbook design, coefficient for coefficient. This crate
//! is the tooling that makes that claim falsifiable at scale, in three
//! pillars:
//!
//! 1. **Differential fuzzing** ([`differential`]) — a deterministic
//!    corpus of structured random and adversarial inputs ([`corpus`])
//!    swept across every [`saber_ring::PolyMultiplier`] backend in the
//!    workspace ([`backends`]) against the schoolbook oracle, for all
//!    three parameter sets. Failures shrink to minimal reproducers
//!    ([`shrink`]).
//! 2. **Golden KATs** ([`kat`]) — checked-in JSON
//!    known-answer vectors for ring multiplication, keccak, PKE and full
//!    KEM round trips, generated once (`gen-kats` binary +
//!    `tools/gen_keccak_json_kats.py`) and replayed in CI, so
//!    regressions are caught against frozen answers rather than
//!    self-consistency.
//! 3. **Fault-injection sensitivity** — the seeded mutants of
//!    [`saber_core::fault`] are run through the same fuzzer, which must
//!    detect **every** one (`tests/fault_sensitivity.rs`): a
//!    mutation-style proof that the corpus actually exercises the sign
//!    handling, the negacyclic wrap and the HS-II correction network.
//!
//! Everything is offline and deterministic: the same seeds run on every
//! machine, and a reported failure names the seed and the shrunk
//! operands needed to replay it.
//!
//! # Examples
//!
//! ```
//! use saber_verify::differential::{run, FuzzConfig};
//!
//! let report = run(&FuzzConfig { seed: 1, cases_per_set: 4 });
//! assert!(report.mismatches.is_empty(), "{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
pub mod corpus;
pub mod differential;
pub mod kat;
pub mod shrink;

pub use backends::{registry, BackendEntry};
pub use corpus::{Case, CaseKind};
pub use differential::{run, sweep_backend, FuzzConfig, FuzzReport, Mismatch};
pub use shrink::{shrink, ShrunkCase};
