//! **Tracing overhead gate** — proves the disabled tracing path costs
//! ~nothing on the hot paths it instruments.
//!
//! The tracing layer's contract is that a probe with no session active
//! and the flight recorder off is two relaxed atomic loads (plus a
//! branch). This bench measures:
//!
//! * the per-probe cost of that disabled `saber_trace::span` call — the
//!   one number the CI gate thresholds, at [`MAX_DISABLED_NS`];
//! * the per-span cost with a trace session live, for scale;
//! * the per-span cost with the flight recorder armed, for scale.
//!
//! Exits nonzero when the disabled-probe cost breaches the threshold,
//! so `tools/ci.sh` can run it as a hard gate.

use saber_bench::microbench::{disabled_probe_ns, enabled_span_ns, flight_armed_span_ns};

/// Ceiling on one disabled probe, nanoseconds (measured ~3–4 ns).
const MAX_DISABLED_NS: f64 = 10.0;

fn main() {
    println!("\n=== Tracing overhead (disabled-path gate) ===\n");

    let disabled = disabled_probe_ns();
    println!("disabled probe:     {disabled:.3} ns");
    println!("enabled span:       {:.1} ns", enabled_span_ns());
    println!("flight-armed span:  {:.1} ns", flight_armed_span_ns());

    if disabled > MAX_DISABLED_NS {
        eprintln!("FAIL: disabled probe costs {disabled:.3} ns > {MAX_DISABLED_NS:.1} ns");
        std::process::exit(1);
    }
    println!("\ndisabled-path gate: OK ({disabled:.3} ns <= {MAX_DISABLED_NS:.1} ns)");
}
