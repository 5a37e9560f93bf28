//! Table generation: the measured (modeled) counterpart of every figure
//! the paper's evaluation reports. The benches print these tables; the
//! functions are also unit-tested so the numbers in EXPERIMENTS.md are
//! regenerated, not transcribed.

use saber_core::{
    BaselineMultiplier, CentralizedMultiplier, DspPackedMultiplier, HwMultiplier,
    LightweightMultiplier,
};
use saber_ring::{PolyMultiplier, PolyQ, SecretPoly};

use crate::literature::{Table1Row, TABLE1_PAPER};

/// Canonical operands for the table runs (any operands give the same
/// cycle counts — the schedules are data-independent).
#[must_use]
pub fn canonical_operands() -> (PolyQ, SecretPoly) {
    (
        PolyQ::from_fn(|i| (i as u16).wrapping_mul(2718) & 0x1fff),
        SecretPoly::from_fn(|i| (((i * 5) % 9) as i8) - 4),
    )
}

/// One measured Table-1 row produced by our models.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredRow {
    /// Architecture label (matches the paper's).
    pub name: String,
    /// Cycle count using the paper's accounting (compute cycles for the
    /// high-speed rows, total incl. memory for LW).
    pub cycles: u64,
    /// Modeled clock (MHz, from the critical-path model).
    pub clock_mhz: f64,
    /// Modeled LUTs.
    pub luts: u32,
    /// Modeled FFs.
    pub ffs: u32,
    /// DSP slices.
    pub dsps: u32,
}

/// Runs all our architectures and returns their measured Table-1 rows.
#[must_use]
pub fn measured_table1() -> Vec<MeasuredRow> {
    let (a, s) = canonical_operands();
    let mut rows = Vec::new();

    // LW row uses the total (the paper's LW figure includes memory
    // overhead since the design streams through memory by construction).
    let mut lw = LightweightMultiplier::new();
    let _ = lw.multiply(&a, &s);
    let r = lw.report();
    rows.push(MeasuredRow {
        name: "LW".into(),
        cycles: r.cycles.total(),
        clock_mhz: r.fmax_mhz(),
        luts: r.area.luts,
        ffs: r.area.ffs,
        dsps: r.area.dsps,
    });

    // High-speed rows use compute cycles (paper: "the high-speed results
    // do not include the overhead").
    let mut push_hs = |name: &str, hw: &mut dyn HwMultiplier| {
        let _ = hw.multiply(&a, &s);
        let r = hw.report();
        rows.push(MeasuredRow {
            name: name.into(),
            cycles: r.cycles.compute_cycles,
            clock_mhz: r.fmax_mhz(),
            luts: r.area.luts,
            ffs: r.area.ffs,
            dsps: r.area.dsps,
        });
    };
    push_hs("HS-I 256", &mut CentralizedMultiplier::new(256));
    push_hs("HS-I 512", &mut CentralizedMultiplier::new(512));
    push_hs("HS-II", &mut DspPackedMultiplier::new());
    push_hs("[10] 256", &mut BaselineMultiplier::new(256));
    push_hs("[10] 512", &mut BaselineMultiplier::new(512));

    rows
}

/// Formats the measured-vs-paper Table 1 as printable text.
#[must_use]
pub fn format_table1() -> String {
    let measured = measured_table1();
    let mut out = String::new();
    out.push_str(
        "Table 1 — polynomial multipliers, model vs paper\n\
         (cycle accounting as in the paper: LW includes memory overhead, HS rows are pure compute)\n\n",
    );
    out.push_str(&format!(
        "{:<10} {:>8} {:>8} | {:>7} {:>7} {:>7} | {:>6} {:>6} | {:>4} {:>4}\n",
        "arch", "cyc", "cyc*", "LUT", "LUT*", "ΔLUT", "FF", "FF*", "DSP", "DSP*"
    ));
    out.push_str(&format!("{}\n", "-".repeat(92)));
    for m in &measured {
        let paper: Option<&Table1Row> = TABLE1_PAPER.iter().find(|p| p.name == m.name);
        if let Some(p) = paper {
            let delta = 100.0 * (f64::from(m.luts) - f64::from(p.luts)) / f64::from(p.luts);
            out.push_str(&format!(
                "{:<10} {:>8} {:>8} | {:>7} {:>7} {:>+6.1}% | {:>6} {:>6} | {:>4} {:>4}\n",
                m.name, m.cycles, p.cycles, m.luts, p.luts, delta, m.ffs, p.ffs, m.dsps, p.dsps
            ));
        }
    }
    out.push_str("\n(* = paper-reported value; [7] is cited data only — see EXPERIMENTS.md)\n");
    out
}

/// One service-scaling data point: one operation on one parameter set
/// at one worker count, with both the measured time and the model's
/// projection (see [`ServiceBenchReport`] for the basis policy).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceBenchEntry {
    /// Parameter set name (`LightSaber` / `Saber` / `FireSaber`).
    pub params: String,
    /// Operation measured (`matvec`, `kem_mixed`, …).
    pub op: String,
    /// Worker threads in the service pool.
    pub workers: u64,
    /// `std::thread::available_parallelism()` on the measuring host,
    /// recorded **per entry at measurement time** — a report assembled
    /// across hosts (or a host whose visible cores change mid-run)
    /// keeps each entry's basis honest.
    pub host_parallelism: u64,
    /// Measured mean time per operation on *this* host, nanoseconds.
    pub measured_ns_per_op: f64,
    /// Modeled time per operation on a host with ≥ `workers` cores:
    /// `work_ns / workers + dispatch_overhead_ns`, where `work_ns` is
    /// the measured single-thread engine time and the overhead
    /// is calibrated from the 1-worker service measurement.
    pub projected_ns_per_op: f64,
    /// Which number is authoritative for this entry: `"measured"` when
    /// the host had at least `workers` cores **and** the measurement is
    /// consistent with the model (real parallelism was exercised);
    /// `"projected"` when the host was core-starved (the roofline model
    /// is the honest estimate — same convention as the
    /// `coprocessor_projection` bench); `"degraded"` when the host
    /// nominally had enough cores but the measurement exceeded the
    /// projection by more than 2×, or a multi-worker pool measured under
    /// [`MIN_MEASURED_SPEEDUP`] over the 1-worker pool — an
    /// oversubscribed/noisy host whose number must not be published as
    /// clean scaling.
    pub basis: String,
}

impl ServiceBenchEntry {
    /// The basis-selected time per operation. A `degraded` entry keeps
    /// its measurement (that *is* what the host did — it just isn't a
    /// scaling claim), so the degradation stays visible downstream.
    #[must_use]
    pub fn effective_ns_per_op(&self) -> f64 {
        if self.basis == "projected" {
            self.projected_ns_per_op
        } else {
            self.measured_ns_per_op
        }
    }

    /// Operations per second implied by the basis-selected time.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        let ns = self.effective_ns_per_op();
        if ns > 0.0 {
            1e9 / ns
        } else {
            0.0
        }
    }
}

/// Smallest speedup over the 1-worker pool a multi-worker entry may
/// publish as `measured`; a flatter measurement on a host that
/// nominally had the cores is `degraded`.
pub const MIN_MEASURED_SPEEDUP: f64 = 1.1;

/// The `BENCH_service.json` report produced by the `service_throughput`
/// bench: worker-count scaling of the concurrent KEM service against
/// the single-thread engine.
///
/// Every entry carries measured *and* projected numbers plus an
/// explicit `basis` tag, because scaling measurements are only
/// meaningful when the host has as many cores as the pool has workers;
/// on a smaller host the per-entry basis switches to the calibrated
/// projection, and the JSON says so rather than publishing a
/// core-starved measurement as if it were scaling.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceBenchReport {
    /// `std::thread::available_parallelism()` on the host that started
    /// the bench run (summary convenience; each entry records its own).
    pub host_parallelism: u64,
    /// All recorded data points.
    pub entries: Vec<ServiceBenchEntry>,
    /// Open-loop overload soak results (goodput + wait quantiles).
    pub soak: Vec<SoakBenchEntry>,
}

impl ServiceBenchReport {
    /// Records one data point. `host_parallelism` is the core count
    /// observed **when this entry was measured**; the basis derives
    /// from it: `projected` when core-starved (`host_parallelism <
    /// workers`), `degraded` when the host had the cores but the
    /// measurement exceeds the projection by more than 2× or scales
    /// less than [`MIN_MEASURED_SPEEDUP`]× over the already-recorded
    /// 1-worker entry (an oversubscribed host masquerading as a scaling
    /// result), else `measured`.
    pub fn push(
        &mut self,
        params: &str,
        op: &str,
        workers: u64,
        host_parallelism: u64,
        measured_ns_per_op: f64,
        projected_ns_per_op: f64,
    ) {
        let flat = workers > 1
            && self.entry(params, op, 1).is_some_and(|one| {
                one.measured_ns_per_op < MIN_MEASURED_SPEEDUP * measured_ns_per_op
            });
        let basis = if host_parallelism < workers {
            "projected"
        } else if measured_ns_per_op > 2.0 * projected_ns_per_op || flat {
            "degraded"
        } else {
            "measured"
        };
        self.entries.push(ServiceBenchEntry {
            params: params.into(),
            op: op.into(),
            workers,
            host_parallelism,
            measured_ns_per_op,
            projected_ns_per_op,
            basis: basis.into(),
        });
    }

    /// The entry for one (params, op, workers) cell.
    #[must_use]
    pub fn entry(&self, params: &str, op: &str, workers: u64) -> Option<&ServiceBenchEntry> {
        self.entries
            .iter()
            .find(|e| e.params == params && e.op == op && e.workers == workers)
    }

    /// Throughput speedup of the `workers`-worker pool over the
    /// 1-worker pool for one (params, op) cell, using each entry's
    /// basis-selected time.
    #[must_use]
    pub fn speedup_vs_single(&self, params: &str, op: &str, workers: u64) -> Option<f64> {
        let one = self.entry(params, op, 1)?;
        let n = self.entry(params, op, workers)?;
        if n.effective_ns_per_op() > 0.0 {
            Some(one.effective_ns_per_op() / n.effective_ns_per_op())
        } else {
            None
        }
    }

    /// Serializes as `BENCH_service.json`: the `bench` tag, the host
    /// core count, the flat entry list (measured + projected + basis),
    /// and the derived worker-scaling speedups.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"bench\": \"service_throughput\",\n  \"host_parallelism\": {},\n  \"entries\": [\n",
            self.host_parallelism
        );
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"params\": \"{}\", \"op\": \"{}\", \"workers\": {}, \
                 \"host_parallelism\": {}, \
                 \"measured_ns_per_op\": {:.1}, \"projected_ns_per_op\": {:.1}, \
                 \"basis\": \"{}\", \"ops_per_sec\": {:.2}}}{}\n",
                e.params,
                e.op,
                e.workers,
                e.host_parallelism,
                e.measured_ns_per_op,
                e.projected_ns_per_op,
                e.basis,
                e.ops_per_sec(),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"scaling\": [\n");
        let lines: Vec<String> = self
            .entries
            .iter()
            .filter(|e| e.workers > 1)
            .filter_map(|e| {
                self.speedup_vs_single(&e.params, &e.op, e.workers).map(|s| {
                    format!(
                        "    {{\"params\": \"{}\", \"op\": \"{}\", \"workers\": {}, \
                         \"speedup_vs_1\": {s:.2}, \"basis\": \"{}\"}}",
                        e.params, e.op, e.workers, e.basis
                    )
                })
            })
            .collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n  ],\n  \"soak\": [\n");
        let soak_lines: Vec<String> = self
            .soak
            .iter()
            .map(|s| {
                format!(
                    "    {{\"trace\": \"{}\", \"workers\": {}, \
                     \"overload_x\": {:.2}, \"offered_per_sec\": {:.2}, \
                     \"goodput_per_sec\": {:.2}, \"shed\": {}, \
                     \"p50_wait_ns\": {}, \"p99_wait_ns\": {}}}",
                    s.trace,
                    s.workers,
                    s.overload_x,
                    s.offered_per_sec,
                    s.goodput_per_sec,
                    s.shed,
                    s.p50_wait_ns,
                    s.p99_wait_ns
                )
            })
            .collect();
        out.push_str(&soak_lines.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Formats the report as a printable text table.
    #[must_use]
    pub fn format_text(&self) -> String {
        let mut out = format!("host parallelism: {} cores\n", self.host_parallelism);
        out.push_str(&format!(
            "{:<12} {:<10} {:>7} {:>5} {:>14} {:>14} {:<10} {:>9}\n",
            "params", "op", "workers", "cores", "measured ns", "projected ns", "basis", "vs 1w"
        ));
        out.push_str(&format!("{}\n", "-".repeat(88)));
        for e in &self.entries {
            let speedup = self
                .speedup_vs_single(&e.params, &e.op, e.workers)
                .map_or_else(|| "-".into(), |s| format!("{s:.2}x"));
            out.push_str(&format!(
                "{:<12} {:<10} {:>7} {:>5} {:>14.0} {:>14.0} {:<10} {:>9}\n",
                e.params,
                e.op,
                e.workers,
                e.host_parallelism,
                e.measured_ns_per_op,
                e.projected_ns_per_op,
                e.basis,
                speedup
            ));
        }
        if !self.soak.is_empty() {
            out.push_str(&format!(
                "\nsoak (open-loop overload)\n{:<8} {:>7} {:>6} {:>12} {:>12} {:>6} {:>12} {:>12}\n",
                "trace", "workers", "over", "offered/s", "goodput/s", "shed", "p50 wait ns",
                "p99 wait ns"
            ));
            out.push_str(&format!("{}\n", "-".repeat(81)));
            for s in &self.soak {
                out.push_str(&format!(
                    "{:<8} {:>7} {:>5.1}x {:>12.1} {:>12.1} {:>6} {:>12} {:>12}\n",
                    s.trace,
                    s.workers,
                    s.overload_x,
                    s.offered_per_sec,
                    s.goodput_per_sec,
                    s.shed,
                    s.p50_wait_ns,
                    s.p99_wait_ns
                ));
            }
        }
        out
    }
}

/// One open-loop overload soak result: a seeded arrival trace offered
/// at a multiple of the pool's measured capacity — the honest "what
/// does saturation cost" measurement the closed-loop scaling entries
/// cannot make.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakBenchEntry {
    /// Arrival process label (`poisson` / `bursty`).
    pub trace: String,
    /// Worker threads in the pool under soak.
    pub workers: u64,
    /// Offered load as a multiple of measured closed-loop capacity
    /// (≥ 2.0 for the committed report).
    pub overload_x: f64,
    /// Offered jobs per second of wall clock.
    pub offered_per_sec: f64,
    /// Completed jobs per second of wall clock.
    pub goodput_per_sec: f64,
    /// Jobs shed at submit time.
    pub shed: u64,
    /// Median queue wait, nanoseconds.
    pub p50_wait_ns: u64,
    /// 99th-percentile queue wait, nanoseconds.
    pub p99_wait_ns: u64,
}

/// One architecture's occupancy/stall summary, derived from the
/// [`saber_trace::CycleTimeline`] its cycle model records while
/// simulating (the evidence behind the Table-1 cycle budgets).
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyEntry {
    /// Timeline track name (`hs1-512`, `hs2-128`, `lw-4`, …).
    pub arch: String,
    /// Parallel compute units on the track.
    pub units: u64,
    /// Total cycles in the timeline (tiles the model's measured total).
    pub total_cycles: u64,
    /// Name of the steady-state compute phase (`compute` or `issue`).
    pub steady_phase: String,
    /// Cycles spent in the steady-state phase.
    pub steady_cycles: u64,
    /// Coefficient-MACs per unit per steady-state cycle.
    pub occupancy: f64,
    /// Whole-run utilization: `ops_total / (units × total_cycles)`.
    pub utilization: f64,
    /// Cycles in zero-op phases (memory transfers and stalls).
    pub stall_cycles: u64,
    /// Total coefficient-MACs performed (N² = 65,536 per product).
    pub ops_total: u64,
}

impl OccupancyEntry {
    /// Summarizes a recorded timeline around its steady-state phase.
    #[must_use]
    pub fn from_timeline(t: &saber_trace::CycleTimeline, steady_phase: &str) -> Self {
        Self {
            arch: t.track().to_string(),
            units: t.units(),
            total_cycles: t.total_cycles(),
            steady_phase: steady_phase.to_string(),
            steady_cycles: t.cycles_in(steady_phase),
            occupancy: t.occupancy(steady_phase),
            utilization: t.utilization(),
            stall_cycles: t.stall_cycles(),
            ops_total: t.ops_total(),
        }
    }
}

/// Runs every instrumented architecture once and summarizes the
/// occupancy evidence from its recorded timeline.
#[must_use]
pub fn measured_occupancy() -> Vec<OccupancyEntry> {
    let (a, s) = canonical_operands();
    let mut entries = Vec::new();
    let mut push = |hw: &mut dyn HwMultiplier, steady: &str| {
        let _ = hw.multiply(&a, &s);
        let t = hw.timeline().expect("instrumented model records a timeline");
        entries.push(OccupancyEntry::from_timeline(t, steady));
    };
    push(&mut BaselineMultiplier::new(256), "compute");
    push(&mut BaselineMultiplier::new(512), "compute");
    push(&mut CentralizedMultiplier::new(256), "compute");
    push(&mut CentralizedMultiplier::new(512), "compute");
    push(&mut DspPackedMultiplier::new(), "issue");
    push(&mut DspPackedMultiplier::with_dsps(256), "issue");
    push(&mut LightweightMultiplier::new(), "compute");
    entries
}

/// The `BENCH_trace.json` report: per-architecture occupancy/stall
/// summaries plus the tracing layer's measured probe costs (the
/// disabled-path cost is the number the CI gate thresholds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBenchReport {
    /// Occupancy summaries, one per architecture configuration.
    pub entries: Vec<OccupancyEntry>,
    /// Mean cost of one *disabled* tracing probe, nanoseconds.
    pub disabled_probe_ns: f64,
    /// Mean cost of one *enabled* (recording) span, nanoseconds.
    pub enabled_probe_ns: f64,
}

impl TraceBenchReport {
    /// The entry for one architecture track, if recorded.
    #[must_use]
    pub fn arch(&self, arch: &str) -> Option<&OccupancyEntry> {
        self.entries.iter().find(|e| e.arch == arch)
    }

    /// Serializes as `BENCH_trace.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"bench\": \"trace_occupancy\",\n  \"disabled_probe_ns\": {:.3},\n  \"enabled_probe_ns\": {:.3},\n  \"entries\": [\n",
            self.disabled_probe_ns, self.enabled_probe_ns
        );
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"arch\": \"{}\", \"units\": {}, \"total_cycles\": {}, \
                 \"steady_phase\": \"{}\", \"steady_cycles\": {}, \"occupancy\": {:.4}, \
                 \"utilization\": {:.4}, \"stall_cycles\": {}, \"ops_total\": {}}}{}\n",
                e.arch,
                e.units,
                e.total_cycles,
                e.steady_phase,
                e.steady_cycles,
                e.occupancy,
                e.utilization,
                e.stall_cycles,
                e.ops_total,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Formats the report as a printable text table.
    #[must_use]
    pub fn format_text(&self) -> String {
        let mut out = format!(
            "{:<10} {:>6} {:>13} {:>14} {:>10} {:>12} {:>8}\n",
            "arch", "units", "total cycles", "steady cycles", "occupancy", "utilization", "stalls"
        );
        out.push_str(&format!("{}\n", "-".repeat(80)));
        for e in &self.entries {
            out.push_str(&format!(
                "{:<10} {:>6} {:>13} {:>14} {:>10.3} {:>12.3} {:>8}\n",
                e.arch, e.units, e.total_cycles, e.steady_cycles, e.occupancy, e.utilization, e.stall_cycles
            ));
        }
        out.push_str(&format!(
            "probe cost: disabled {:.2} ns, enabled {:.2} ns\n",
            self.disabled_probe_ns, self.enabled_probe_ns
        ));
        out
    }
}

/// One leakage-detector run in the timing report: a target (engine,
/// KEM pipeline, or planted mutant), its verdict, and the final Welch
/// t-statistic behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingLeakEntry {
    /// Target label, e.g. `mul/ct`, `kem/decaps-ct`,
    /// `mutant/ct-scan-early-exit`.
    pub target: String,
    /// `negative-control` (must pass) or `positive-control` (must leak).
    pub role: String,
    /// Detector verdict: `pass`, `leak`, or `inconclusive`.
    pub verdict: String,
    /// Final Welch t-statistic (signed; |t| is what the gate compares).
    pub t_stat: f64,
    /// Samples collected before the verdict (early exit on leak).
    pub samples: usize,
    /// Samples discarded by the percentile crop.
    pub cropped: usize,
}

/// The `BENCH_timing.json` document: per-target leakage verdicts plus
/// the constant-time engine's single-product latency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingReport {
    /// All detector runs, controls included.
    pub entries: Vec<TimingLeakEntry>,
    /// Single-product latency of the ct engine (ns), if measured.
    pub ct_ns_per_product: f64,
}

impl TimingReport {
    /// Records one detector run.
    pub fn push(
        &mut self,
        target: &str,
        role: &str,
        verdict: &str,
        t_stat: f64,
        samples: usize,
        cropped: usize,
    ) {
        self.entries.push(TimingLeakEntry {
            target: target.into(),
            role: role.into(),
            verdict: verdict.into(),
            t_stat,
            samples,
            cropped,
        });
    }

    /// Whether every control behaved: negative controls pass, positive
    /// controls leak.
    #[must_use]
    pub fn controls_hold(&self) -> bool {
        self.entries.iter().all(|e| match e.role.as_str() {
            "negative-control" => e.verdict == "pass",
            "positive-control" => e.verdict == "leak",
            _ => true,
        })
    }

    /// Serializes as the `BENCH_timing.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"bench\": \"timing_leakage\",\n  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"target\": \"{}\", \"role\": \"{}\", \"verdict\": \"{}\", \
                 \"t_stat\": {:.3}, \"samples\": {}, \"cropped\": {}}}{}\n",
                e.target,
                e.role,
                e.verdict,
                e.t_stat,
                e.samples,
                e.cropped,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"controls_hold\": {},\n",
            self.controls_hold()
        ));
        out.push_str(&format!(
            "  \"ct_ns_per_product\": {:.1}\n}}\n",
            self.ct_ns_per_product
        ));
        out
    }

    /// Formats the report as a printable text table.
    #[must_use]
    pub fn format_text(&self) -> String {
        let mut out = format!(
            "{:<28} {:<18} {:<14} {:>10} {:>9} {:>9}\n",
            "target", "role", "verdict", "t", "samples", "cropped"
        );
        out.push_str(&format!("{}\n", "-".repeat(94)));
        for e in &self.entries {
            out.push_str(&format!(
                "{:<28} {:<18} {:<14} {:>10.2} {:>9} {:>9}\n",
                e.target, e.role, e.verdict, e.t_stat, e.samples, e.cropped
            ));
        }
        if self.ct_ns_per_product > 0.0 {
            out.push_str(&format!(
                "ct engine cost: {:.0} ns/product\n",
                self.ct_ns_per_product
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_report_checks_controls_and_records_ct_cost() {
        let mut r = TimingReport::default();
        r.push("mul/ct", "negative-control", "pass", 0.8, 2000, 160);
        r.push("mutant/early-exit", "positive-control", "leak", 64.2, 512, 40);
        assert!(r.controls_hold());
        r.ct_ns_per_product = 5_000.0;
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"timing_leakage\""));
        assert!(json.contains("\"controls_hold\": true"));
        assert!(json.contains("\"ct_ns_per_product\": 5000.0"));
        let text = r.format_text();
        assert!(text.contains("mutant/early-exit"));
        assert!(text.contains("5000 ns/product"));
    }

    #[test]
    fn timing_report_flags_misbehaving_controls() {
        let mut r = TimingReport::default();
        r.push("mul/ct", "negative-control", "leak", 12.0, 900, 70);
        assert!(!r.controls_hold(), "a leaking ct engine must fail");
        let mut r = TimingReport::default();
        r.push("mutant/early-exit", "positive-control", "pass", 1.0, 2000, 160);
        assert!(!r.controls_hold(), "an undetected mutant must fail");
    }

    #[test]
    fn measured_rows_cover_the_modelable_paper_rows() {
        let rows = measured_table1();
        assert_eq!(rows.len(), 6);
        for m in &rows {
            assert!(
                TABLE1_PAPER.iter().any(|p| p.name == m.name),
                "{} not in the paper table",
                m.name
            );
        }
    }

    #[test]
    fn measured_cycles_match_paper_exactly_for_hs_rows() {
        for m in measured_table1() {
            let p = TABLE1_PAPER.iter().find(|p| p.name == m.name).unwrap();
            if m.name.starts_with("HS") || m.name.starts_with("[10]") {
                assert_eq!(m.cycles, p.cycles, "{}", m.name);
            }
        }
    }

    #[test]
    fn lw_cycles_within_5_percent() {
        let rows = measured_table1();
        let lw = rows.iter().find(|r| r.name == "LW").unwrap();
        assert!((lw.cycles as f64 - 19_471.0).abs() / 19_471.0 < 0.05);
    }

    #[test]
    fn all_lut_models_within_10_percent() {
        for m in measured_table1() {
            let p = TABLE1_PAPER.iter().find(|p| p.name == m.name).unwrap();
            let delta = (f64::from(m.luts) - f64::from(p.luts)).abs() / f64::from(p.luts);
            assert!(delta < 0.10, "{}: ΔLUT = {delta:.3}", m.name);
        }
    }

    #[test]
    fn formatted_table_mentions_every_row() {
        let text = format_table1();
        for name in [
            "LW", "HS-I 256", "HS-I 512", "HS-II", "[10] 256", "[10] 512",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    fn sample_service_report() -> ServiceBenchReport {
        let mut r = ServiceBenchReport {
            host_parallelism: 2,
            ..ServiceBenchReport::default()
        };
        // work = 4000ns, overhead = 100ns → projected(N) = 4000/N + 100.
        r.push("Saber", "matvec", 1, 2, 4100.0, 4100.0);
        r.push("Saber", "matvec", 2, 2, 2150.0, 2100.0);
        r.push("Saber", "matvec", 4, 2, 4100.0, 1100.0);
        r
    }

    #[test]
    fn service_report_basis_follows_host_core_count() {
        let r = sample_service_report();
        assert_eq!(r.entry("Saber", "matvec", 1).unwrap().basis, "measured");
        assert_eq!(r.entry("Saber", "matvec", 2).unwrap().basis, "measured");
        let four = r.entry("Saber", "matvec", 4).unwrap();
        assert_eq!(four.basis, "projected", "core-starved → projection");
        assert!((four.effective_ns_per_op() - 1100.0).abs() < 1e-9);
        assert!(r.entries.iter().all(|e| e.host_parallelism == 2));
    }

    #[test]
    fn service_report_degraded_basis_flags_oversubscribed_measurements() {
        let mut r = ServiceBenchReport {
            host_parallelism: 8,
            ..ServiceBenchReport::default()
        };
        // Enough cores, but the measurement is >2× the projection: an
        // oversubscribed host must not publish this as "measured".
        r.push("Saber", "matvec", 1, 8, 4100.0, 4100.0);
        r.push("Saber", "matvec", 4, 8, 4000.0, 1100.0);
        // Within 2× of the projection stays measured.
        r.push("Saber", "matvec", 2, 8, 2900.0, 2100.0);
        // Within 2× of the projection but flat against 1 worker: the
        // cores were not really there.
        r.push("Saber", "matvec", 8, 8, 3900.0, 2100.0);
        assert_eq!(r.entry("Saber", "matvec", 8).unwrap().basis, "degraded");
        let four = r.entry("Saber", "matvec", 4).unwrap();
        assert_eq!(four.basis, "degraded");
        assert!(
            (four.effective_ns_per_op() - 4000.0).abs() < 1e-9,
            "degraded keeps the (suspect) measurement visible"
        );
        assert_eq!(r.entry("Saber", "matvec", 2).unwrap().basis, "measured");
        let json = r.to_json();
        assert!(json.contains("\"basis\": \"degraded\""), "{json}");
    }

    #[test]
    fn soak_entries_serialize_into_their_own_section() {
        let mut r = sample_service_report();
        r.soak.push(SoakBenchEntry {
            trace: "poisson".into(),
            workers: 4,
            overload_x: 2.0,
            offered_per_sec: 1000.0,
            goodput_per_sec: 480.5,
            shed: 519,
            p50_wait_ns: 4_096_000,
            p99_wait_ns: 16_384_000,
        });
        let json = r.to_json();
        assert!(json.contains("\"soak\": ["), "{json}");
        assert!(json.contains("\"trace\": \"poisson\""));
        assert!(json.contains("\"overload_x\": 2.00"));
        assert!(json.contains("\"goodput_per_sec\": 480.50"));
        assert!(json.contains("\"p99_wait_ns\": 16384000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let text = r.format_text();
        assert!(text.contains("soak (open-loop overload)"), "{text}");
        assert!(text.contains("poisson"));
    }

    #[test]
    fn service_report_scaling_uses_basis_selected_times() {
        let r = sample_service_report();
        // measured 2-worker vs measured 1-worker.
        let two = r.speedup_vs_single("Saber", "matvec", 2).unwrap();
        assert!((two - 4100.0 / 2150.0).abs() < 1e-9);
        // projected 4-worker vs measured 1-worker; comfortably >1.5x.
        let four = r.speedup_vs_single("Saber", "matvec", 4).unwrap();
        assert!((four - 4100.0 / 1100.0).abs() < 1e-9);
        assert!(four > 1.5);
        assert!(r.speedup_vs_single("Saber", "kem_mixed", 4).is_none());
    }

    #[test]
    fn service_report_json_shape() {
        let json = sample_service_report().to_json();
        assert!(json.contains("\"bench\": \"service_throughput\""));
        assert!(json.contains("\"host_parallelism\": 2"));
        assert!(json.contains("\"basis\": \"projected\""));
        assert!(json.contains("\"speedup_vs_1\": 3.73"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn service_report_text_lists_scaling() {
        let text = sample_service_report().format_text();
        assert!(text.contains("host parallelism: 2 cores"));
        assert!(text.contains("projected"));
        assert!(text.contains("3.73x"));
    }

    #[test]
    fn measured_occupancy_reproduces_the_paper_budgets() {
        let entries = measured_occupancy();
        assert_eq!(entries.len(), 7);
        let report = TraceBenchReport {
            entries,
            ..TraceBenchReport::default()
        };
        // HS-II: ≥ 4 MACs per DSP per issue cycle, 128 issue cycles.
        let hs2 = report.arch("hs2-128").expect("HS-II entry");
        assert!(hs2.occupancy >= 4.0 - 1e-9, "{}", hs2.occupancy);
        assert_eq!(hs2.steady_cycles, 128);
        assert_eq!(hs2.ops_total, 65_536);
        // HS-I 512 halves compute at full occupancy.
        let hs1 = report.arch("hs1-512").expect("HS-I entry");
        assert_eq!(hs1.steady_cycles, 128);
        assert!((hs1.occupancy - 1.0).abs() < 1e-12);
        // LW: 16,384 compute cycles, stalls = everything else.
        let lw = report.arch("lw-4").expect("LW entry");
        assert_eq!(lw.steady_cycles, 16_384);
        assert_eq!(lw.stall_cycles, lw.total_cycles - 16_384);
    }

    #[test]
    fn trace_report_json_shape() {
        let report = TraceBenchReport {
            entries: measured_occupancy(),
            disabled_probe_ns: 0.9,
            enabled_probe_ns: 42.5,
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"trace_occupancy\""));
        assert!(json.contains("\"disabled_probe_ns\": 0.900"));
        assert!(json.contains("\"arch\": \"hs2-128\""));
        assert!(json.contains("\"steady_phase\": \"issue\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let text = report.format_text();
        assert!(text.contains("probe cost"));
        assert!(text.contains("lw-4"));
    }
}
