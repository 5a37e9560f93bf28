//! Table generation: the measured (modeled) counterpart of every figure
//! the paper's evaluation reports. The benches print these tables; the
//! functions are also unit-tested so the numbers in EXPERIMENTS.md are
//! regenerated, not transcribed.
//!
//! The committed `BENCH_*.json` reports share one shape, [`BenchReport`]:
//! a header (`bench` tag, `host_parallelism`), optional named scalars,
//! and named sections of rows. Every row is an entry type's ordered
//! `(column, value)` cells ([`Row`]), so one function serializes every
//! report through [`saber_testkit::json::write`], one column formatter
//! prints every text table, and the schema test reads each section's
//! columns from the same rows. Values derivable from the rows (service
//! speedups and `ops_per_sec`, the timing `controls_hold` verdict) are
//! printed, never stored.

use saber_core::{
    BaselineMultiplier, CentralizedMultiplier, DspPackedMultiplier, HwMultiplier,
    LightweightMultiplier,
};
use saber_ring::{PolyMultiplier, PolyQ, SecretPoly};
use saber_testkit::json::{self, Value};

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

/// One report row: `(column, value)` cells in column order.
pub type Row = Vec<(&'static str, Value)>;

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).expect("report counters fit in i64"))
}

fn object(cells: &Row) -> Value {
    let fields = cells.iter().map(|(k, v)| (k.to_string(), v.clone()));
    Value::Object(fields.collect())
}

fn rows<T>(entries: &[T], row: fn(&T) -> Row) -> Vec<Row> {
    entries.iter().map(row).collect()
}

fn cell_text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:.2}"),
        _ => "-".into(),
    }
}

/// Formats rows as a text table: one column per cell name, numbers
/// right-aligned, strings left-aligned, each column as wide as its
/// widest cell.
#[must_use]
pub fn format_table(rows: &[Row]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let header = first.iter().map(|(name, _)| (*name).to_string());
    let mut table = vec![header.collect::<Vec<_>>()];
    for row in rows {
        table.push(row.iter().map(|(_, v)| cell_text(v)).collect());
    }
    let mut widths = vec![0; first.len()];
    for texts in &table {
        for (w, t) in widths.iter_mut().zip(texts) {
            *w = (*w).max(t.chars().count());
        }
    }
    let mut out = String::new();
    for (n, texts) in table.iter().enumerate() {
        let mut line = String::new();
        for ((t, &w), (_, v)) in texts.iter().zip(&widths).zip(first) {
            match v {
                Value::Str(_) => line.push_str(&format!("{t:<w$}  ")),
                _ => line.push_str(&format!("{t:>w$}  ")),
            }
        }
        let line = line.trim_end();
        out.push_str(&format!("{line}\n"));
        if n == 0 {
            out.push_str(&format!("{}\n", "-".repeat(line.chars().count())));
        }
    }
    out
}

/// `std::thread::available_parallelism()` on this host (1 if unknown).
#[must_use]
pub fn host_parallelism() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// One `BENCH_*.json` report: a header (`bench` tag and the writing
/// host's `host_parallelism`), named scalars, and named sections of
/// [`Row`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The `bench` tag naming the writer.
    pub bench: &'static str,
    /// Cores visible to the host that wrote the report.
    pub host_parallelism: u64,
    /// Named report-wide measurements.
    pub scalars: Vec<(&'static str, f64)>,
    /// Named row sections, in document order.
    pub sections: Vec<(&'static str, Vec<Row>)>,
}

impl BenchReport {
    /// The report as one JSON document: header, scalars, then sections.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut doc: Row = vec![
            ("bench", Value::Str(self.bench.into())),
            ("host_parallelism", int(self.host_parallelism)),
        ];
        doc.extend(self.scalars.iter().map(|&(k, v)| (k, Value::Float(v))));
        for (k, rows) in &self.sections {
            doc.push((k, Value::Array(rows.iter().map(object).collect())));
        }
        object(&doc)
    }

    /// Serializes [`Self::to_value`] with [`saber_testkit::json::write`].
    #[must_use]
    pub fn to_json(&self) -> String {
        json::write(&self.to_value())
    }

    /// Formats the report as text: header, scalars, one table per
    /// section.
    #[must_use]
    pub fn format_text(&self) -> String {
        let mut out = format!(
            "{} (host parallelism: {} cores)\n",
            self.bench, self.host_parallelism
        );
        for (name, value) in &self.scalars {
            out.push_str(&format!("{name}: {value:.3}\n"));
        }
        for (name, rows) in &self.sections {
            out.push_str(&format!("\n{name}\n{}", format_table(rows)));
        }
        out
    }

    /// Writes the JSON to `path` (benches run with `crates/bench` as
    /// their working directory) and says where it went.
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }
}

/// One service-scaling data point: one operation on one parameter set
/// at one worker count, with both the measured time and the model's
/// projection (see [`ServiceBenchReport`] for the basis policy).
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// The entry's report row.
    #[must_use]
    pub fn row(&self) -> Row {
        vec![
            ("params", Value::Str(self.params.clone())),
            ("op", Value::Str(self.op.clone())),
            ("workers", int(self.workers)),
            ("host_parallelism", int(self.host_parallelism)),
            ("measured_ns_per_op", Value::Float(self.measured_ns_per_op)),
            ("projected_ns_per_op", Value::Float(self.projected_ns_per_op)),
            ("basis", Value::Str(self.basis.clone())),
        ]
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

    /// The `BENCH_service.json` report: the `entries` (measured +
    /// projected + basis) and `soak` sections.
    #[must_use]
    pub fn report(&self) -> BenchReport {
        BenchReport {
            bench: "service_throughput",
            host_parallelism: self.host_parallelism,
            scalars: Vec::new(),
            sections: vec![
                ("entries", rows(&self.entries, ServiceBenchEntry::row)),
                ("soak", rows(&self.soak, SoakBenchEntry::row)),
            ],
        }
    }

    /// Formats the report as text, with each entry's derived speedup
    /// over 1 worker and basis-selected throughput appended.
    #[must_use]
    pub fn format_text(&self) -> String {
        let mut report = self.report();
        for (row, e) in report.sections[0].1.iter_mut().zip(&self.entries) {
            let speedup = self.speedup_vs_single(&e.params, &e.op, e.workers);
            row.push(("speedup_vs_1", speedup.map_or(Value::Null, Value::Float)));
            row.push(("ops_per_sec", Value::Float(1e9 / e.effective_ns_per_op())));
        }
        report.format_text()
    }
}

/// One open-loop overload soak result: a seeded arrival trace offered
/// at a multiple of the pool's measured capacity — the honest "what
/// does saturation cost" measurement the closed-loop scaling entries
/// cannot make.
#[derive(Debug, Clone, Default, PartialEq)]
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

impl SoakBenchEntry {
    /// The soak result's report row.
    #[must_use]
    pub fn row(&self) -> Row {
        vec![
            ("trace", Value::Str(self.trace.clone())),
            ("workers", int(self.workers)),
            ("overload_x", Value::Float(self.overload_x)),
            ("offered_per_sec", Value::Float(self.offered_per_sec)),
            ("goodput_per_sec", Value::Float(self.goodput_per_sec)),
            ("shed", int(self.shed)),
            ("p50_wait_ns", int(self.p50_wait_ns)),
            ("p99_wait_ns", int(self.p99_wait_ns)),
        ]
    }
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

    /// The summary's report row.
    #[must_use]
    pub fn row(&self) -> Row {
        vec![
            ("arch", Value::Str(self.arch.clone())),
            ("units", int(self.units)),
            ("total_cycles", int(self.total_cycles)),
            ("steady_phase", Value::Str(self.steady_phase.clone())),
            ("steady_cycles", int(self.steady_cycles)),
            ("occupancy", Value::Float(self.occupancy)),
            ("utilization", Value::Float(self.utilization)),
            ("stall_cycles", int(self.stall_cycles)),
            ("ops_total", int(self.ops_total)),
        ]
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

/// The `BENCH_trace.json` report: [`measured_occupancy`] as `entries`,
/// plus the tracing layer's measured probe costs (the disabled-path
/// cost is the number the CI gate thresholds).
#[must_use]
pub fn trace_report(
    host_parallelism: u64,
    disabled_probe_ns: f64,
    enabled_probe_ns: f64,
) -> BenchReport {
    BenchReport {
        bench: "trace_occupancy",
        host_parallelism,
        scalars: vec![
            ("disabled_probe_ns", disabled_probe_ns),
            ("enabled_probe_ns", enabled_probe_ns),
        ],
        sections: vec![("entries", rows(&measured_occupancy(), OccupancyEntry::row))],
    }
}

/// One leakage-detector run in the timing report: a target (engine,
/// KEM pipeline, or planted mutant), its verdict, and the final Welch
/// t-statistic behind it.
#[derive(Debug, Clone, Default, PartialEq)]
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
    pub samples: u64,
    /// Samples discarded by the percentile crop.
    pub cropped: u64,
}

impl TimingLeakEntry {
    /// The detector run's report row.
    #[must_use]
    pub fn row(&self) -> Row {
        vec![
            ("target", Value::Str(self.target.clone())),
            ("role", Value::Str(self.role.clone())),
            ("verdict", Value::Str(self.verdict.clone())),
            ("t_stat", Value::Float(self.t_stat)),
            ("samples", int(self.samples)),
            ("cropped", int(self.cropped)),
        ]
    }
}

/// The `BENCH_timing.json` document: per-target leakage verdicts plus
/// the constant-time engine's single-product latency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingReport {
    /// Cores visible to the measuring host.
    pub host_parallelism: u64,
    /// All detector runs, controls included.
    pub entries: Vec<TimingLeakEntry>,
    /// Single-product latency of the ct engine (ns), if measured.
    pub ct_ns_per_product: f64,
}

impl TimingReport {
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

    /// The `BENCH_timing.json` report: `ct_ns_per_product` and the
    /// detector runs as `entries`.
    #[must_use]
    pub fn report(&self) -> BenchReport {
        BenchReport {
            bench: "timing_leakage",
            host_parallelism: self.host_parallelism,
            scalars: vec![("ct_ns_per_product", self.ct_ns_per_product)],
            sections: vec![("entries", rows(&self.entries, TimingLeakEntry::row))],
        }
    }

    /// Formats the report as text, with the derived control verdict.
    #[must_use]
    pub fn format_text(&self) -> String {
        format!("{}controls_hold: {}\n", self.report().format_text(), self.controls_hold())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses the report's JSON back with the in-tree codec: every
    /// header field, scalar and row cell must read back equal, in order.
    fn round_trip(report: &BenchReport) -> Value {
        let doc = json::parse(&report.to_json()).expect("writer emits valid JSON");
        assert_eq!(doc, report.to_value());
        doc
    }

    fn leak_run(target: &str, role: &str, verdict: &str, t_stat: f64) -> TimingLeakEntry {
        TimingLeakEntry {
            target: target.into(),
            role: role.into(),
            verdict: verdict.into(),
            t_stat,
            samples: 512,
            cropped: 40,
        }
    }

    #[test]
    fn timing_report_round_trips_without_stored_verdict() {
        let r = TimingReport {
            host_parallelism: 2,
            entries: vec![
                leak_run("mul/ct", "negative-control", "pass", 0.8),
                leak_run("mutant/early-exit", "positive-control", "leak", 64.2),
            ],
            ct_ns_per_product: 5_000.0,
        };
        assert!(r.controls_hold());
        let doc = round_trip(&r.report());
        let entries = doc.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(entries[1].get("t_stat"), Some(&Value::Float(64.2)));
        assert_eq!(entries[1].int_field("samples").unwrap(), 512);
        assert_eq!(doc.get("ct_ns_per_product"), Some(&Value::Float(5000.0)));
        assert!(doc.get("controls_hold").is_none(), "derived, not stored");
        let text = r.format_text();
        assert!(text.contains("mutant/early-exit"), "{text}");
        assert!(text.contains("ct_ns_per_product: 5000.000"), "{text}");
        assert!(text.contains("controls_hold: true"), "{text}");
    }

    #[test]
    fn timing_report_flags_misbehaving_controls() {
        let mut r = TimingReport::default();
        r.entries.push(leak_run("mul/ct", "negative-control", "leak", 12.0));
        assert!(!r.controls_hold(), "a leaking ct engine must fail");
        let mut r = TimingReport::default();
        r.entries.push(leak_run("mutant/early-exit", "positive-control", "pass", 1.0));
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
    }

    #[test]
    fn service_report_round_trips_entries_and_soak() {
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
        let doc = round_trip(&r.report());
        let entries = doc.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(entries[2].str_field("basis").unwrap(), "projected");
        assert_eq!(entries[1].get("measured_ns_per_op"), Some(&Value::Float(2150.0)));
        let soak = doc.get("soak").and_then(Value::as_array).unwrap();
        assert_eq!(soak[0].int_field("p99_wait_ns").unwrap(), 16_384_000);
        assert_eq!(soak[0].get("goodput_per_sec"), Some(&Value::Float(480.5)));
        for derived in ["scaling", "ops_per_sec"] {
            assert!(doc.get(derived).is_none(), "{derived} is derived, not stored");
            assert!(entries[0].get(derived).is_none(), "{derived} is derived, not stored");
        }
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
    fn service_report_text_lists_derived_scaling() {
        let text = sample_service_report().format_text();
        assert!(text.contains("host parallelism: 2 cores"), "{text}");
        assert!(text.contains("projected"));
        assert!(text.contains("speedup_vs_1"));
        assert!(text.contains("3.73"), "4-worker speedup 4100/1100: {text}");
        assert!(text.contains("909090.91"), "4-worker ops/s 1e9/1100: {text}");
    }

    #[test]
    fn measured_occupancy_reproduces_the_paper_budgets() {
        let entries = measured_occupancy();
        assert_eq!(entries.len(), 7);
        let arch = |name: &str| entries.iter().find(|e| e.arch == name).expect(name);
        // HS-II: ≥ 4 MACs per DSP per issue cycle, 128 issue cycles.
        let hs2 = arch("hs2-128");
        assert!(hs2.occupancy >= 4.0 - 1e-9, "{}", hs2.occupancy);
        assert_eq!(hs2.steady_cycles, 128);
        assert_eq!(hs2.ops_total, 65_536);
        // HS-I 512 halves compute at full occupancy.
        let hs1 = arch("hs1-512");
        assert_eq!(hs1.steady_cycles, 128);
        assert!((hs1.occupancy - 1.0).abs() < 1e-12);
        // LW: 16,384 compute cycles, stalls = everything else.
        let lw = arch("lw-4");
        assert_eq!(lw.steady_cycles, 16_384);
        assert_eq!(lw.stall_cycles, lw.total_cycles - 16_384);
    }

    #[test]
    fn trace_report_round_trips_occupancy_and_probe_costs() {
        let report = trace_report(2, 0.9, 42.5);
        let doc = round_trip(&report);
        assert_eq!(doc.get("disabled_probe_ns"), Some(&Value::Float(0.9)));
        let entries = doc.get("entries").and_then(Value::as_array).unwrap();
        let hs2 = entries
            .iter()
            .find(|e| e.str_field("arch").ok() == Some("hs2-128"))
            .expect("HS-II row");
        assert_eq!(hs2.get("occupancy"), Some(&Value::Float(4.0)));
        assert_eq!(hs2.str_field("steady_phase").unwrap(), "issue");
        let text = report.format_text();
        assert!(text.contains("disabled_probe_ns: 0.900"), "{text}");
        assert!(text.contains("lw-4"));
    }

    #[test]
    fn column_formatter_aligns_every_row() {
        let rows: Vec<Row> = vec![
            vec![("name", Value::Str("a".into())), ("n", Value::Int(7))],
            vec![("name", Value::Str("longer".into())), ("n", Value::Int(12345))],
        ];
        let text = format_table(&rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "name        n");
        assert_eq!(lines[2], "a           7");
        assert_eq!(lines[3], "longer  12345");
        assert!(format_table(&[]).is_empty());
    }
}
