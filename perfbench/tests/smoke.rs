//! Smoke runs of the benchmark binary on small inputs (`--smoke`).
//!
//! Each workload must run clean against the oracle, print every metric of
//! its mode, and repeat every exact count and heap size to the unit across
//! two runs of one seed. Each run is its own process, so the counting
//! allocator sees only that run.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["protein_single", "distinct_k1000", "churn_zipf_k1000"];

const END_TO_END: [&str; 7] = [
    "throughput_mib_s",
    "emit_latency_us_p50",
    "emit_latency_us_tail",
    "setup_s",
    "sub_update_us_p50",
    "heap_peak_mib",
    "sub_resident_kib",
];

/// Per-layer metrics that are counts or sizes, not times: they must repeat.
const EXACT: [&str; 17] = [
    "xmlsax.events_per_kib",
    "core.multi.dispatch_hits_per_event",
    "core.machine.pushes_per_event",
    "core.machine.predicate_evals_per_event",
    "core.machine.evals_per_match",
    "core.machine.candidates_created_per_event",
    "core.machine.peak_kib",
    "core.multi.callbacks_per_solution",
    "core.plan.groups",
    "core.plan.machine_nodes",
    "core.plan.trie_nodes",
    "core.plan.plan_kib",
    "core.plan.recycled_slots",
    "emit.buffer_bytes_p50",
    "emit.buffer_bytes_max",
    "heap.allocs_per_kib",
    "heap.alloc_kib_per_kib",
];

const TIMES: [&str; 7] = [
    "xmlsax.parse_ns_per_kib",
    "core.match_ns_per_kib",
    "xpath.parse_us_per_query",
    "core.register_us_per_query",
    "core.retire_us_per_query",
    "emit.stamp_overhead_pct",
    "trace.overhead_pct",
];

/// Runs the benchmark and returns its last stdout line.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let trace_out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke_trace_{workload}_{seed}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--trace-out")
        .arg(&trace_out)
        .output()
        .expect("the benchmark binary starts");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    if trace {
        let json = std::fs::read_to_string(&trace_out).expect("the traced run writes its spans");
        assert!(json.starts_with("{\"traceEvents\":["), "Chrome trace-event JSON");
    }
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

/// The number after `"key": ` in the result line.
fn field(line: &str, key: &str) -> f64 {
    let at = line.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("{key} in {line}"));
    let rest = &line[at + key.len() + 4..];
    let rest = rest.strip_prefix("{\"value\": ").unwrap_or(rest);
    let end = rest.find([',', '}']).expect("a terminated number");
    rest[..end].parse().unwrap_or_else(|e| panic!("{key}: {e}"))
}

fn assert_clean(workload: &str, line: &str) {
    assert!(line.starts_with("{\"correct\": true,"), "{workload}: {line}");
    assert!(field(line, "attempted") >= 1.0, "{workload}: {line}");
    assert_eq!(field(line, "failed"), 0.0, "{workload}: {line}");
}

#[test]
fn end_to_end_runs_are_clean_and_heap_sizes_repeat() {
    for workload in WORKLOADS {
        let a = run(workload, 7, false);
        let b = run(workload, 7, false);
        assert_clean(workload, &a);
        for name in END_TO_END {
            assert!(field(&a, name) > 0.0, "{workload}: {name} is positive");
        }
        for name in ["heap_peak_mib", "sub_resident_kib"] {
            assert_eq!(field(&a, name), field(&b, name), "{workload}: {name} repeats");
        }
    }
}

#[test]
fn traced_runs_print_every_layer_and_counts_repeat() {
    for workload in WORKLOADS {
        let a = run(workload, 11, true);
        let b = run(workload, 11, true);
        assert_clean(workload, &a);
        for name in TIMES {
            field(&a, name);
        }
        for name in EXACT {
            assert_eq!(field(&a, name), field(&b, name), "{workload}: {name} repeats");
        }
    }
}
