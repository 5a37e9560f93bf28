//! Schema validation for the committed `BENCH_*.json` artifacts.
//!
//! The bench reports are the repo's measured-performance trajectory:
//! each bench target rewrites its report in place, and CI commits the
//! result. A malformed or stale report (hand-edited, truncated by a
//! crashed bench, or drifted from the writer's schema) would poison
//! every later comparison, so `tools/ci.sh bench_reports` runs this
//! test. The schema is not restated here: every artifact must parse
//! with the in-tree JSON codec and match, key for key and kind for
//! kind, what its own writer ([`BenchReport`]) emits for a sample
//! report — the same header and scalars, and in every section exactly
//! the writer's row columns. Derived values (service speedups, the
//! timing controls verdict) are recomputed from the rows. The
//! trace-occupancy report additionally pins the golden cycle totals
//! (341/213/216/152/18928) — the same family of constants the
//! cycle-model KATs and the SoC VCD consistency tests lock, so a report
//! regenerated from a perturbed model fails here even if it is
//! syntactically perfect.

use std::path::Path;

use saber_bench::tables::{trace_report, BenchReport, ServiceBenchReport, TimingReport};
use saber_ring::EngineKind;
use saber_testkit::json::{parse, Value};

/// Each committed report with a one-row-per-section sample from its
/// writer, which fixes the header, scalars, columns and value kinds.
fn writers() -> [(&'static str, BenchReport); 3] {
    let service = ServiceBenchReport {
        entries: vec![Default::default()],
        soak: vec![Default::default()],
        ..ServiceBenchReport::default()
    };
    let timing = TimingReport {
        entries: vec![Default::default()],
        ..TimingReport::default()
    };
    [
        ("BENCH_service.json", service.report()),
        ("BENCH_timing.json", timing.report()),
        ("BENCH_trace.json", trace_report(1, 0.0, 0.0)),
    ]
}

fn keys(object: &[(String, Value)]) -> Vec<&str> {
    object.iter().map(|(k, _)| k.as_str()).collect()
}

/// Whether `got` has the shape of the writer's `want`: objects with the
/// same keys in order, non-empty arrays whose every element conforms to
/// the writer's first, and scalars of the same JSON kind (strings
/// non-empty).
fn conforms(want: &Value, got: &Value, at: &str) -> Result<(), String> {
    match (want, got) {
        (Value::Object(w), Value::Object(g)) => {
            if keys(w) != keys(g) {
                let (w, g) = (keys(w), keys(g));
                return Err(format!("{at}: keys {g:?}, writer emits {w:?}"));
            }
            for ((k, w), (_, g)) in w.iter().zip(g) {
                conforms(w, g, &format!("{at}.{k}"))?;
            }
            Ok(())
        }
        (Value::Array(w), Value::Array(g)) => {
            let sample = w.first().ok_or(format!("{at}: empty writer sample"))?;
            if g.is_empty() {
                return Err(format!("{at}: empty section"));
            }
            for (i, item) in g.iter().enumerate() {
                conforms(sample, item, &format!("{at}[{i}]"))?;
            }
            Ok(())
        }
        _ if std::mem::discriminant(want) != std::mem::discriminant(got) => {
            Err(format!("{at}: writer emits {want:?}-kind, found {got:?}"))
        }
        _ if got.as_str() == Some("") => Err(format!("{at}: empty string")),
        _ => Ok(()),
    }
}

/// Checks `doc` against its writer: the same shape as the writer's
/// sample report, the writer's `bench` tag, and a positive
/// `host_parallelism`.
fn check_shape(doc: &Value, writer: &BenchReport) -> Result<(), String> {
    conforms(&writer.to_value(), doc, "report")?;
    if doc.str_field("bench")? != writer.bench {
        return Err(format!("bench tag is not {:?}", writer.bench));
    }
    if doc.int_field("host_parallelism")? < 1 {
        return Err("host_parallelism must be at least 1".into());
    }
    Ok(())
}

fn load(file: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{file}: missing bench report ({e}); run `cargo bench`"));
    parse(&text).unwrap_or_else(|e| panic!("{file}: malformed JSON: {e}"))
}

fn first_entry(doc: &Value) -> &Value {
    &doc.get("entries").and_then(Value::as_array).expect("entries")[0]
}

#[test]
fn every_committed_bench_report_matches_its_writer() {
    for (file, writer) in writers() {
        check_shape(&load(file), &writer).unwrap_or_else(|e| panic!("{file}: {e}"));
    }
}

/// Dropping any one column from a committed row must fail the shape
/// check: the schema is the writer's full column list, not a subset.
#[test]
fn a_row_missing_one_writer_column_is_rejected() {
    for (file, writer) in writers() {
        let (doc, want) = (load(file), writer.to_value());
        let (row, sample) = (first_entry(&doc), first_entry(&want));
        conforms(sample, row, file).unwrap_or_else(|e| panic!("{e}"));
        let Value::Object(cells) = row else {
            panic!("{file}: row is not an object");
        };
        for c in 0..cells.len() {
            let mut cut = cells.clone();
            let (column, _) = cut.remove(c);
            assert!(
                conforms(sample, &Value::Object(cut), file).is_err(),
                "{file}: a row without {column:?} passed the schema"
            );
        }
    }
}

/// The service report's measurement-honesty contract: every basis is
/// one of the three known values; a `measured` basis is only legal when
/// the entry's own recorded host core count covers its workers; and no
/// multi-worker entry published as `measured` on a multi-core host may
/// show sub-1.1× scaling — a flat "measured speedup" is exactly the
/// projected-as-measured dishonesty this schema exists to block.
#[test]
fn service_report_bases_are_honest() {
    let doc = load("BENCH_service.json");
    let entries = doc.get("entries").and_then(Value::as_array).expect("entries");
    let effective = |e: &Value| -> f64 {
        let basis = e.str_field("basis").expect("basis");
        let key = if basis == "projected" {
            "projected_ns_per_op"
        } else {
            "measured_ns_per_op"
        };
        e.get(key).and_then(Value::as_number).expect("ns_per_op")
    };
    for (i, entry) in entries.iter().enumerate() {
        let basis = entry.str_field("basis").expect("basis");
        assert!(
            matches!(basis, "measured" | "projected" | "degraded"),
            "entry {i}: unknown basis {basis:?}"
        );
        let workers = entry.int_field("workers").expect("workers");
        let cores = entry.int_field("host_parallelism").expect("host_parallelism");
        if basis == "measured" {
            assert!(
                cores >= workers,
                "entry {i}: measured basis on a {cores}-core host with {workers} workers"
            );
            if workers > 1 && cores > 1 {
                let params = entry.str_field("params").expect("params");
                let op = entry.str_field("op").expect("op");
                let single = entries
                    .iter()
                    .find(|e| {
                        e.str_field("params").ok() == Some(params)
                            && e.str_field("op").ok() == Some(op)
                            && e.int_field("workers").ok() == Some(1)
                    })
                    .unwrap_or_else(|| panic!("entry {i}: no 1-worker baseline"));
                let speedup = effective(single) / effective(entry);
                assert!(
                    speedup >= 1.1,
                    "entry {i} ({params}/{op}/{workers}w): measured basis with only \
                     {speedup:.2}x scaling on a {cores}-core host"
                );
            }
        }
    }
}

/// The soak section covers both arrival traces at ≥2× overload with
/// positive goodput: exactly one row per trace (the service always
/// rejects at capacity, so there is no policy dimension).
#[test]
fn service_report_soak_section_covers_both_traces_under_overload() {
    let doc = load("BENCH_service.json");
    let soak = doc.get("soak").and_then(Value::as_array).expect("soak array");
    assert_eq!(soak.len(), 2, "soak section holds one row per trace");
    for trace in ["poisson", "bursty"] {
        let entry = soak
            .iter()
            .find(|e| e.str_field("trace").ok() == Some(trace))
            .unwrap_or_else(|| panic!("soak missing {trace}"));
        let ctx = format!("soak {trace}");
        let overload = entry.get("overload_x").and_then(Value::as_number).unwrap();
        assert!(overload >= 2.0, "{ctx}: overload_x {overload} below the 2x floor");
        let goodput = entry
            .get("goodput_per_sec")
            .and_then(Value::as_number)
            .unwrap();
        assert!(goodput > 0.0, "{ctx}: zero goodput");
    }
}

/// Every timing verdict is `pass` or `leak`; the controls hold —
/// recomputed from each row's role and verdict: negative controls pass,
/// positive controls leak; the `mul/*` rows cover exactly the hot-path
/// engine; and the constant-time engine is the clean one.
#[test]
fn timing_report_controls_hold_over_the_selectable_engines() {
    let doc = load("BENCH_timing.json");
    let entries = doc.get("entries").and_then(Value::as_array).expect("entries");
    for e in entries {
        let target = e.str_field("target").expect("target");
        let verdict = e.str_field("verdict").expect("verdict");
        assert!(
            matches!(verdict, "pass" | "leak"),
            "{target}: unknown timing verdict {verdict:?}"
        );
        let required = match e.str_field("role").expect("role") {
            "negative-control" => "pass",
            "positive-control" => "leak",
            other => panic!("{target}: unknown role {other:?}"),
        };
        assert_eq!(verdict, required, "{target}: control misbehaved");
    }
    let surveyed: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.str_field("target").ok()?.strip_prefix("mul/"))
        .collect();
    assert_eq!(surveyed, [EngineKind::default().label()], "mul/* targets");
    let ct = entries
        .iter()
        .find(|e| e.str_field("target").ok() == Some("mul/ct"))
        .expect("mul/ct entry");
    assert_eq!(ct.str_field("verdict").expect("verdict"), "pass");
}

/// The trace-occupancy report carries the paper's golden cycle totals;
/// a regenerated report from a perturbed cycle model fails here even if
/// its schema is intact (same family of constants as the cycle KATs and
/// the SoC VCD consistency tests).
#[test]
fn trace_report_pins_the_golden_cycle_totals() {
    const GOLDEN: &[(&str, i64)] = &[
        ("baseline-256", 341),
        ("baseline-512", 213),
        ("hs1-256", 341),
        ("hs1-512", 213),
        ("hs2-128", 216),
        ("hs2-256", 152),
        ("lw-4", 18928),
    ];
    let doc = load("BENCH_trace.json");
    let entries = doc.get("entries").and_then(Value::as_array).expect("entries");
    for (arch, cycles) in GOLDEN {
        let entry = entries
            .iter()
            .find(|e| e.str_field("arch").ok() == Some(arch))
            .unwrap_or_else(|| panic!("trace report lost arch {arch:?}"));
        assert_eq!(
            entry.int_field("total_cycles").expect("total_cycles"),
            *cycles,
            "{arch}: golden cycle total drifted"
        );
    }
}
