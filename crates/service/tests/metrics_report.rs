//! Metrics battery: histogram bucket boundaries, counter monotonicity
//! under live traffic, and `ServiceReport` JSON round-trips through the
//! in-tree `saber_testkit::json` codec.

use std::sync::Arc;

use saber_kem::expand::{gen_matrix, gen_secret};
use saber_kem::params::{LIGHT_SABER, SABER};
use saber_service::metrics::{bucket_index, BUCKET_BOUNDS_NS, BUCKET_COUNT};
use saber_service::{KemService, OpKind, ServiceConfig, ServiceReport};

#[test]
fn bucket_boundaries_partition_the_latency_axis() {
    // Each finite bound is an exclusive upper limit: the sample one
    // below it stays in the bucket, the sample at it rolls over.
    for (i, &bound) in BUCKET_BOUNDS_NS.iter().take(BUCKET_COUNT - 1).enumerate() {
        assert_eq!(bucket_index(bound - 1), i, "just below bound {i}");
        assert_eq!(bucket_index(bound), i + 1, "exactly at bound {i}");
    }
    // The overflow bucket swallows everything past the last finite bound.
    assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    // Bounds strictly increase, so buckets never overlap or gap.
    for w in BUCKET_BOUNDS_NS.windows(2) {
        assert!(w[0] < w[1], "bounds must be strictly increasing");
    }
}

/// Every counter in `b` is at least its value in `a`.
fn assert_monotone(a: &ServiceReport, b: &ServiceReport, at: &str) {
    assert!(b.submitted >= a.submitted, "{at}: submitted");
    assert!(b.completed >= a.completed, "{at}: completed");
    assert!(b.rejected >= a.rejected, "{at}: rejected");
    assert!(b.failed >= a.failed, "{at}: failed");
    assert!(b.worker_panics >= a.worker_panics, "{at}: worker_panics");
    assert!(b.queue_high_water >= a.queue_high_water, "{at}: high_water");
    for kind in OpKind::ALL {
        let (ha, hb) = (a.op(kind).unwrap(), b.op(kind).unwrap());
        assert!(hb.count >= ha.count, "{at}: {} count", kind.label());
        assert!(hb.total_ns >= ha.total_ns, "{at}: {} total", kind.label());
        assert!(hb.max_ns >= ha.max_ns, "{at}: {} max", kind.label());
        for (i, (&ca, &cb)) in ha.counts.iter().zip(hb.counts.iter()).enumerate() {
            assert!(cb >= ca, "{at}: {} bucket {i}", kind.label());
        }
    }
}

#[test]
fn live_snapshots_are_monotone() {
    let params = &LIGHT_SABER;
    let matrix = Arc::new(gen_matrix(&[0x61; 32], params));
    let secret = Arc::new(gen_secret(&[0x62; 32], params));
    let service = KemService::spawn(&ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    });

    let mut prev = service.report();
    for round in 0..5 {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                service
                    .submit_matvec(Arc::clone(&matrix), Arc::clone(&secret))
                    .expect("admitted")
            })
            .collect();
        // Snapshot while jobs may still be in flight: still monotone.
        let mid = service.report();
        assert_monotone(&prev, &mid, &format!("round {round} mid"));
        for h in handles {
            h.wait().expect("matvec");
        }
        let settled = service.report();
        assert_monotone(&mid, &settled, &format!("round {round} settled"));
        prev = settled;
    }
    let last = service.shutdown();
    assert_monotone(&prev, &last, "final");
    assert_eq!(last.completed, 15);
    assert_eq!(last.op(OpKind::MatVec).unwrap().count, 15);

    // The split histograms tile the end-to-end one: same sample count on
    // both sides, and wait + execute sums to the combined total exactly
    // (record_completed records the sum, not an independent clock read).
    let total = last.op(OpKind::MatVec).unwrap();
    let wait = last.op_queue_wait(OpKind::MatVec).unwrap();
    let exec = last.op_execute(OpKind::MatVec).unwrap();
    assert_eq!(wait.count, 15);
    assert_eq!(exec.count, 15);
    assert_eq!(wait.total_ns + exec.total_ns, total.total_ns);
    assert!(exec.total_ns > 0, "executing 15 mat-vecs takes time");
    assert!(wait.max_ns <= total.max_ns);
    assert!(exec.max_ns <= total.max_ns);
}

#[test]
fn service_report_roundtrips_through_json() {
    // Produce a report with non-trivial content in every section.
    let service = KemService::spawn(&ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let (pk, sk) = service
        .submit_keygen(&SABER, [0x71; 32])
        .unwrap()
        .wait()
        .unwrap();
    let (ct, _ss) = service
        .submit_encaps(pk, [0x72; 32])
        .unwrap()
        .wait()
        .unwrap();
    let _ = service.submit_decaps(sk, ct).unwrap().wait().unwrap();
    let report = service.shutdown();
    assert_eq!(report.completed, 3);

    // String round-trip through the saber-testkit codec.
    let text = report.to_json_string();
    let back = ServiceReport::from_json_str(&text).expect("parse own output");
    assert_eq!(back, report);

    // Every worker recorded the engine its shard was built from, and
    // the labels survive JSON.
    assert_eq!(report.engines.len(), 2, "one label per worker");
    for label in &report.engines {
        assert_eq!(label, saber_ring::EngineKind::default().label());
    }
    assert!(text.contains("\"engines\""));
    assert_eq!(back.engines, report.engines);

    // Derived fields in the document agree with the struct.
    let keygen = report.op(OpKind::Keygen).expect("keygen histogram");
    assert_eq!(keygen.count, 1);
    assert!(text.contains("\"report\": \"saber-service\""));
    assert!(text.contains("\"mean_ns\""));
    assert!(text.contains("\"bucket_bounds_ns\""));

    // The queue-wait/execute split survives the round-trip too.
    assert!(text.contains("\"queue_wait\""));
    assert!(text.contains("\"execute\""));
    let wait = back.op_queue_wait(OpKind::Keygen).expect("wait histogram");
    let exec = back.op_execute(OpKind::Keygen).expect("execute histogram");
    assert_eq!(wait.count, 1);
    assert_eq!(exec.count, 1);
    assert_eq!(wait.total_ns + exec.total_ns, keygen.total_ns);
    // The one-line summary surfaces both halves.
    assert!(report.format_summary().contains("wait="));
    assert!(report.format_summary().contains("exec="));
}

#[test]
fn malformed_reports_are_rejected_with_field_names() {
    assert!(ServiceReport::from_json_str("{").is_err(), "syntax error");
    assert!(
        ServiceReport::from_json_str("{\"report\": \"something-else\"}")
            .unwrap_err()
            .contains("not a saber-service report"),
        "wrong document tag"
    );
    let missing = ServiceReport::from_json_str("{\"report\": \"saber-service\"}")
        .expect_err("missing fields");
    assert!(
        missing.contains("ops") || missing.contains("workers") || missing.contains("engines"),
        "{missing}"
    );

    // Truncated bucket arrays are caught, not silently zero-filled.
    let service = KemService::spawn(&ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    });
    let good = service.shutdown().to_json_string();
    let truncated = good.replacen("\"buckets\": [", "\"buckets\": [7, ", 1);
    assert!(
        ServiceReport::from_json_str(&truncated)
            .expect_err("bucket count mismatch")
            .contains("buckets"),
    );
}
