#!/usr/bin/env sh
# Offline CI gate for the workspace. Everything here runs with zero
# network access — the workspace has no external dependencies.
#
#   tools/ci.sh               # every stage: lint + build + test + fuzz
#                             # + fault/engine/timing gates + benches
#   tools/ci.sh timing_gate   # one named stage (plus its dependencies)
#
# Stage names: lint build test fuzz fault_gate ct_engine_gate
# timing_gate soc_gate service sched_gate trace obs_gate
# bench_reports bench
set -eu

cd "$(dirname "$0")/.."

STAGE="${1:-all}"
want() { [ "$STAGE" = "all" ] || [ "$STAGE" = "$1" ]; }

if want lint; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
fi

if want build; then
    echo "==> cargo build --release"
    cargo build --release
fi

if want test; then
    echo "==> cargo test -q"
    cargo test -q
fi

# Differential fuzz sweep: a fixed seed and an explicit case budget
# (2,048 stratified cases per parameter set, every backend against the
# schoolbook oracle) in release, where the full budget fits the CI
# window. Plain `cargo test -q` above already ran the debug smoke sweep.
if want fuzz; then
    echo "==> fuzz sweep: SABER_FUZZ_CASES=2048 (release)"
    SABER_FUZZ_CASES=2048 cargo test -q --release -p saber-verify --test differential_fuzz
fi

# Fault-injection sensitivity gate: every seeded mutant of the
# cycle-accurate datapaths must be flagged by the fuzzer — 100 %
# detection or the corpus has a blind spot.
if want fault_gate; then
    echo "==> fault-injection sensitivity gate (release)"
    cargo test -q --release -p saber-verify --test fault_sensitivity
fi

# Constant-time engine gate: the hot-path engine (ct) must
# stay bit-exact over the full release budget, and the planted *timing*
# mutants must be functionally invisible to the differential fuzzer
# (they leak time, not values — that separation is what makes them
# valid positive controls for the timing gate below, which depends on
# this stage).
if want ct_engine_gate || [ "$STAGE" = "timing_gate" ]; then
    echo "==> ct-engine gate: bit-exactness + mutant invisibility (release)"
    SABER_FUZZ_CASES=2048 cargo test -q --release -p saber-verify --test ct_engine_gate
fi

# Timing-leakage gate (dudect-style fixed-vs-random Welch t-test):
# the constant-time engine and the KEM pipelines built on it must stay
# under the |t| threshold, and both planted timing mutants must be
# flagged within the sample budget — the detector is only trusted
# because its positive controls fire. The seed is pinned so a CI
# failure reproduces locally with the identical measurement schedule;
# budgets/threshold are tunable via SABER_TIMING_* (see
# saber_timing::TimingConfig::from_env).
if want timing_gate; then
    echo "==> timing gate: ct engine clean + planted mutants flagged (release)"
    SABER_TIMING_SEED=1518301440 cargo test -q --release -p saber-timing --test timing_gate
fi

# SoC schedule-race gate: the pinned-seed tick-order fuzz sweep
# (base seed 0x5ABE_2026, 64 cases) must leave the unmutated SoC
# permutation-invariant at both clock ratios, both planted schedule
# races (insertion-order arbitration, unlatched Keccak valid flag) must
# be caught *and* shrunk to minimal reproducers within the budget, and
# every cycle model under the event scheduler must match its standalone
# paper-reconciled total. The frozen cycle-total KATs replay alongside
# so a timing drift and a schedule race cannot mask each other.
if want soc_gate; then
    echo "==> soc gate: tick-order fuzz + planted races + equivalence (release)"
    cargo test -q --release -p saber-soc --test tick_fuzz
    cargo test -q --release -p saber-soc --test scheduler_equivalence
    cargo test -q --release -p saber-soc --test cosim_scenario
    echo "==> soc gate: frozen cycle-total KATs replay (release)"
    cargo test -q --release -p saber-verify --test golden_kats cycle_total
fi

if want service; then
    # Concurrency stress: the service's N-worker ≡ sequential
    # equivalence battery across the worker-count matrix, then a bounded
    # deterministic soak (10k mixed KEM ops through a 4-worker pool,
    # spot-checked against the schoolbook oracle). Release mode: debug
    # already ran small versions of both under `cargo test -q` above.
    echo "==> service stress: worker matrix 1/2/8 (release)"
    for w in 1 2 8; do
        echo "    SABER_SERVICE_WORKERS=$w"
        SABER_SERVICE_WORKERS=$w cargo test -q --release -p saber-service --test concurrency_equivalence
    done

    echo "==> service soak: SABER_SOAK_OPS=10000 (release)"
    SABER_SOAK_OPS=10000 cargo test -q --release -p saber-service --test soak
fi

# Scheduler gate: the work-stealing dispatcher's stress battery —
# seeded steal-order stress (the soc fuzzer's seeded-shuffle pattern
# applied to victim selection), forced-steal counter checks, the
# structural convoy test, and a shutdown-under-load drain check. Then
# the steal-seed sweep: the equivalence battery must be
# transcript-identical under several steal seeds. The committed
# BENCH_service.json's measurement-honesty schema (per-entry
# host_parallelism, legal basis values, soak section) runs with the
# bench_reports stage below, which this stage also selects.
if want sched_gate; then
    echo "==> sched gate: steal stress battery (release)"
    cargo test -q --release -p saber-service --test sched_stress

    echo "==> sched gate: steal-seed sweep over the equivalence battery (release)"
    for s in 1 2 3; do
        echo "    SABER_STEAL_SEED=$s"
        SABER_STEAL_SEED=$s cargo test -q --release -p saber-service --test concurrency_equivalence
    done
fi

if want trace; then
    # Observability gates. The trace_profile example records one full
    # KEM round trip plus the cycle-model lanes and validates the
    # exported Chrome trace-event JSON against the schema checker (it
    # exits nonzero on any violation). The no-default-features build
    # proves the fully compiled-out configuration (every probe a no-op
    # at compile time) still builds.
    echo "==> trace: profile example + Chrome trace schema validation"
    cargo run -q --release --example trace_profile

    echo "==> trace: capture feature compiled out still builds"
    cargo build -q -p saber-trace --no-default-features
fi

# The tracing layer's core contract, shared by the trace and obs_gate
# stages: a probe with no trace session live and the flight recorder
# off (the always-on production configuration) stays under a fixed
# 10 ns — measured cost is ~3–4 ns.
if want trace || [ "$STAGE" = "obs_gate" ]; then
    echo "==> trace/obs: disabled-probe overhead gate (release)"
    cargo bench -q -p saber-bench --bench trace_overhead
fi

# Observability gate (plus the disabled-probe gate above). Three
# checks: (1) the SoC VCD consistency battery — probe
# non-perturbation, busy/stall wires equal to scheduler totals at both
# clock ratios, Chrome-vs-VCD cross-format agreement, and the
# byte-frozen golden 1:1 waveform (regenerate deliberately with
# SABER_BLESS=1); (2) the MetricsSnapshot JSON round-trip +
# schema-version refusal; (3) the Prometheus text exposition lint
# (metric names, single TYPE per family, cumulative histograms ending
# at le="+Inf" == _count).
if want obs_gate; then
    echo "==> obs gate: VCD golden waveform + cross-format consistency (release)"
    cargo test -q --release -p saber-soc --test vcd_consistency

    echo "==> obs gate: metrics snapshot round-trip + Prometheus lint"
    cargo test -q -p saber-service snapshot::
    cargo test -q -p saber snapshot
fi

# Bench-report hygiene: every committed BENCH_*.json artifact must
# parse with the in-tree codec, carry exactly the columns its writer's
# rows produce, and keep its invariants (golden cycle totals, honest
# service bases, timing controls) — stale or malformed reports fail
# here instead of silently poisoning later comparisons. sched_gate
# selects this stage for the service report's honesty schema.
if want bench_reports || [ "$STAGE" = "sched_gate" ]; then
    echo "==> bench reports: schema validation of committed BENCH_*.json"
    cargo test -q -p saber-bench --test bench_reports_schema
fi

if want bench; then
    echo "==> cargo bench --workspace --no-run"
    cargo bench --workspace --no-run
fi

echo "==> ci: $STAGE green"
