//! CI gate for the constant-time hot-path engine
//! (`saber_ring::ct::CtSchoolbookMultiplier`).
//!
//! The ct engine must be bit-exact against the schoolbook oracle over
//! the full configured fuzz budget (2,048 cases per set in release CI). The timing *mutants*, by
//! contrast, must be functionally invisible here — they compute correct
//! products with secret-dependent timing, which is exactly why the
//! differential fuzzer cannot stand in for the timing gate
//! (`cargo test -p saber-timing --test timing_gate`).

use saber_core::fault::{TimingFault, TimingLeakMultiplier};
use saber_ring::CtSchoolbookMultiplier;
use saber_verify::differential::{sweep_backend, FuzzConfig, DEFAULT_SEED};

#[test]
fn ct_engine_is_bit_exact_across_the_full_fuzz_budget() {
    let cases = FuzzConfig::standard().cases_per_set;
    let mut ct = CtSchoolbookMultiplier::new();
    if let Some(mismatch) = sweep_backend(&mut ct, 5, DEFAULT_SEED, cases) {
        panic!("constant-time engine diverged from the schoolbook oracle: {mismatch}");
    }
}

#[test]
fn timing_mutants_are_invisible_to_the_differential_fuzzer() {
    // Positive controls for the *timing* gate are negative controls
    // here: if a timing mutant ever produced a wrong product, it would
    // be a correctness mutant and the leakage detector's catch would
    // prove nothing about timing analysis.
    for fault in TimingFault::ALL {
        let mut mutant = TimingLeakMultiplier::new(fault);
        assert!(
            sweep_backend(&mut mutant, 5, DEFAULT_SEED, 256).is_none(),
            "timing mutant '{}' changed a product",
            fault.label()
        );
    }
}
