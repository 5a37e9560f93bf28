//! Schema validation for the committed `BENCH_*.json` artifacts.
//!
//! The bench reports are the repo's measured-performance trajectory:
//! each bench target rewrites its report in place, and CI commits the
//! result. A malformed or stale report (hand-edited, truncated by a
//! crashed bench, or drifted from the writer's schema) would poison
//! every later comparison, so `tools/ci.sh bench_reports` runs this
//! test: every artifact must parse with the in-tree JSON codec, carry
//! its expected `bench` tag, and type-check field-by-field against the
//! writer's schema. The trace-occupancy report additionally pins the
//! golden cycle totals (341/213/216/152/18928) — the same family of
//! constants the cycle-model KATs and the SoC VCD consistency tests
//! lock, so a report regenerated from a perturbed model fails here even
//! if it is syntactically perfect.

use std::path::Path;

use saber_ring::EngineKind;
use saber_testkit::json::{parse, Value};

/// Field type expectations, matching what each bench writer emits.
#[derive(Clone, Copy)]
enum Kind {
    Str,
    Int,
    /// Any finite number (integer or float).
    Num,
}

struct Schema {
    file: &'static str,
    bench_tag: &'static str,
    /// Required non-entry top-level fields.
    top: &'static [(&'static str, Kind)],
    /// Required fields of every element of `entries`.
    entry: &'static [(&'static str, Kind)],
}

const SCHEMAS: &[Schema] = &[
    Schema {
        file: "BENCH_service.json",
        bench_tag: "service_throughput",
        top: &[("host_parallelism", Kind::Int)],
        entry: &[
            ("params", Kind::Str),
            ("op", Kind::Str),
            ("workers", Kind::Int),
            ("host_parallelism", Kind::Int),
            ("measured_ns_per_op", Kind::Num),
            ("projected_ns_per_op", Kind::Num),
            ("basis", Kind::Str),
            ("ops_per_sec", Kind::Num),
        ],
    },
    Schema {
        file: "BENCH_timing.json",
        bench_tag: "timing_leakage",
        top: &[],
        entry: &[
            ("target", Kind::Str),
            ("role", Kind::Str),
            ("verdict", Kind::Str),
            ("t_stat", Kind::Num),
            ("samples", Kind::Int),
            ("cropped", Kind::Int),
        ],
    },
    Schema {
        file: "BENCH_trace.json",
        bench_tag: "trace_occupancy",
        top: &[
            ("disabled_probe_ns", Kind::Num),
            ("enabled_probe_ns", Kind::Num),
        ],
        entry: &[
            ("arch", Kind::Str),
            ("units", Kind::Int),
            ("total_cycles", Kind::Int),
            ("steady_phase", Kind::Str),
            ("steady_cycles", Kind::Int),
            ("occupancy", Kind::Num),
            ("utilization", Kind::Num),
            ("stall_cycles", Kind::Int),
            ("ops_total", Kind::Int),
        ],
    },
];

fn check_field(owner: &Value, name: &str, kind: Kind, ctx: &str) {
    let field = owner
        .get(name)
        .unwrap_or_else(|| panic!("{ctx}: missing field {name:?}"));
    match kind {
        Kind::Str => {
            assert!(
                field.as_str().is_some_and(|s| !s.is_empty()),
                "{ctx}: field {name:?} must be a non-empty string"
            );
        }
        Kind::Int => {
            assert!(
                field.as_int().is_some(),
                "{ctx}: field {name:?} must be an integer"
            );
        }
        Kind::Num => {
            let v = field
                .as_number()
                .unwrap_or_else(|| panic!("{ctx}: field {name:?} must be a number"));
            assert!(v.is_finite(), "{ctx}: field {name:?} must be finite, got {v}");
        }
    }
}

fn load(file: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{file}: missing bench report ({e}); run `cargo bench`"));
    parse(&text).unwrap_or_else(|e| panic!("{file}: malformed JSON: {e}"))
}

#[test]
fn every_committed_bench_report_matches_its_schema() {
    for schema in SCHEMAS {
        let doc = load(schema.file);
        let ctx = schema.file;
        assert_eq!(
            doc.str_field("bench").unwrap_or_else(|e| panic!("{ctx}: {e}")),
            schema.bench_tag,
            "{ctx}: wrong bench tag"
        );
        for (name, kind) in schema.top {
            check_field(&doc, name, *kind, ctx);
        }
        let entries = doc
            .get("entries")
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{ctx}: missing entries array"));
        assert!(!entries.is_empty(), "{ctx}: entries must be non-empty");
        for (i, entry) in entries.iter().enumerate() {
            let ctx = format!("{ctx} entry {i}");
            for (name, kind) in schema.entry {
                check_field(entry, name, *kind, &ctx);
            }
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

/// The soak section must cover both arrival traces at ≥2× overload with
/// well-formed goodput/wait fields: one row per trace, and no overload
/// policy dimension (the service always rejects at capacity).
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
        for (name, kind) in [
            ("workers", Kind::Int),
            ("overload_x", Kind::Num),
            ("offered_per_sec", Kind::Num),
            ("goodput_per_sec", Kind::Num),
            ("shed", Kind::Int),
            ("p50_wait_ns", Kind::Int),
            ("p99_wait_ns", Kind::Int),
        ] {
            check_field(entry, name, kind, &ctx);
        }
        for retired in ["policy", "degraded_admissions"] {
            assert!(entry.get(retired).is_none(), "{ctx}: retired field {retired:?}");
        }
        let overload = entry.get("overload_x").and_then(Value::as_number).unwrap();
        assert!(overload >= 2.0, "{ctx}: overload_x {overload} below the 2x floor");
        let goodput = entry
            .get("goodput_per_sec")
            .and_then(Value::as_number)
            .unwrap();
        assert!(goodput > 0.0, "{ctx}: zero goodput");
    }
}

#[test]
fn timing_report_verdicts_are_pass_or_leak() {
    let doc = load("BENCH_timing.json");
    for entry in doc.get("entries").and_then(Value::as_array).expect("entries") {
        let verdict = entry.str_field("verdict").expect("verdict");
        assert!(
            matches!(verdict, "pass" | "leak"),
            "unknown timing verdict {verdict:?}"
        );
    }
}

/// The timing report's `mul/*` rows cover exactly the hot-path engine,
/// its controls hold, and the constant-time engine is the clean one.
#[test]
fn timing_report_controls_hold_over_the_selectable_engines() {
    let doc = load("BENCH_timing.json");
    assert!(
        matches!(doc.get("controls_hold"), Some(Value::Bool(true))),
        "BENCH_timing.json: controls_hold must be true"
    );
    let entries = doc.get("entries").and_then(Value::as_array).expect("entries");
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
