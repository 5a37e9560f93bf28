//! **Cycle-model occupancy** — per-architecture occupancy and stall
//! summaries from the timelines the cycle models record, written to
//! `BENCH_trace.json`.
//!
//! Each instrumented architecture ([10] 256/512, HS-I 256/512, HS-II in
//! both bank configurations, LW) runs one multiplication; its recorded
//! [`saber_trace::CycleTimeline`] is summarized around the steady-state
//! compute phase. The numbers reproduce the paper's Table-1 budgets as
//! *evidence* — phase breakdowns that tile the measured totals — rather
//! than re-derived constants: HS-II sustains 4 coefficient-MACs per DSP
//! per issue cycle over exactly 128 issue cycles, HS-I keeps every MAC
//! busy for 256/128 cycles, and LW's stalls are precisely its memory
//! cycles. The tracing layer's probe costs ride along so the JSON
//! records the cost of the instrumentation that produced it.

use saber_bench::microbench::{disabled_probe_ns, enabled_span_ns};
use saber_bench::tables::{host_parallelism, trace_report};

fn main() {
    println!("\n=== Cycle-model occupancy (timeline evidence) ===\n");

    let report = trace_report(host_parallelism(), disabled_probe_ns(), enabled_span_ns());
    println!("{}", report.format_text());
    report.write("BENCH_trace.json");
}
