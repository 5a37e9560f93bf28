//! Smoke pass over every workload, the positive control for the output
//! checks, and the match between the metric tables and `BENCHMARK.json`.

use std::time::Duration;

use saber_core::fault::{Fault, FaultyMultiplier};
use saber_perfbench::{run, RunConfig, Workload, E2E_METRICS, LAYER_METRICS};
use saber_ring::PolyMultiplier;

const SHORT: Duration = Duration::from_millis(400);

fn mutant() -> Box<dyn PolyMultiplier + Send> {
    Box::new(FaultyMultiplier::new(Fault::HsIMuxSelectFlip))
}

#[test]
fn mutant_multiplier_is_caught_by_the_kem_seq_checks() {
    let mut cfg = RunConfig::new(Workload::KemSeq, 7, SHORT, false);
    cfg.engine = mutant;
    let outcome = run(&cfg);
    assert!(outcome.attempted > 0);
    assert!(
        outcome.error_ratio() > 0.0,
        "a faulty multiplier must show up in error_ratio"
    );
    assert!(!outcome.correct());
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, table) in [(false, &E2E_METRICS[..]), (true, &LAYER_METRICS[..])] {
            let outcome = run(&RunConfig::new(workload, 3, SHORT, trace));
            // Validity of an open-loop run depends on wall-clock pacing,
            // which parallel tests disturb; outputs must be right anyway.
            assert!(
                outcome.attempted > 0 && outcome.failed == 0,
                "{} trace={trace}: failed {} of {}",
                workload.name(),
                outcome.failed,
                outcome.attempted
            );
            let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, table, "{} trace={trace}", workload.name());
            for m in &outcome.metrics {
                assert!(
                    m.value.is_finite(),
                    "{} {}: {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
            if !trace {
                for m in &outcome.metrics {
                    assert!(
                        m.value > 0.0,
                        "{} {} must never be 0",
                        workload.name(),
                        m.name
                    );
                }
            }
            let line = outcome.result_json();
            assert!(line.starts_with("{\"correct\": "));
            assert!(line.contains(", \"failed\": 0, \"metrics\": {"));
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = saber_testkit::json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key} array"))
            .iter()
            .map(|m| {
                let s = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(&E2E_METRICS));
    assert_eq!(names("per_layer"), table(&LAYER_METRICS));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
}
