//! End-to-end check of `ones-sim --trace-out`: the emitted file must be
//! valid Chrome-trace-format JSON carrying spans from at least four crates
//! (simulator, ones, evo, predictor), plus a metrics JSONL snapshot.

use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn trace_out_emits_spans_from_four_crates() {
    let dir = std::env::temp_dir().join("ones-sim-obs-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let metrics_path = dir.join("metrics.jsonl");

    let output = Command::new(env!("CARGO_BIN_EXE_ones-sim"))
        .args([
            "--scheduler",
            "ones",
            "--jobs",
            "10",
            "--gpus",
            "16",
            "--json",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ])
        .output()
        .expect("ones-sim runs");
    assert!(
        output.status.success(),
        "ones-sim failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // --trace-out implies --obs full, reported in the JSON output.
    let report: Value =
        serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).expect("JSON report");
    assert_eq!(
        report.get("obs_level").and_then(Value::as_str),
        Some("full")
    );
    let perf = report.get("scheduler_perf").expect("scheduler_perf");
    assert!(perf.get("cache_hit_rate").and_then(Value::as_f64).is_some());
    assert!(perf.get("derive_ms").and_then(Value::as_f64).is_some());
    assert!(perf.get("fill_rounds").and_then(Value::as_u64).unwrap() > 0);
    assert!(perf.get("fill_probes").and_then(Value::as_u64).unwrap() > 0);

    let trace: Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).expect("valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(events.len() > 10, "only {} trace events", events.len());

    let mut span_cats: BTreeSet<String> = BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph field");
        match ph {
            "X" => {
                // Duration events carry the full field set.
                assert!(e.get("name").and_then(Value::as_str).is_some());
                assert!(e.get("ts").and_then(Value::as_f64).is_some());
                assert!(e.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
                let cat = e.get("cat").and_then(Value::as_str).expect("cat field");
                span_cats.insert(cat.to_string());
            }
            "i" => {
                assert!(e.get("ts").and_then(Value::as_f64).is_some());
            }
            "M" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for cat in ["simulator", "ones", "evo", "predictor"] {
        assert!(
            span_cats.contains(cat),
            "no spans from `{cat}`: {span_cats:?}"
        );
    }

    // The metrics snapshot covers all five instrumented crates.
    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    let keys: Vec<String> = metrics
        .lines()
        .map(|l| {
            let v: Value = serde_json::from_str(l).expect("valid JSONL line");
            v.get("key").and_then(Value::as_str).unwrap().to_string()
        })
        .collect();
    for prefix in [
        "simulator.engine.",
        "ones.scheduler.",
        "evo.search.",
        "predictor.progress.",
        "cluster.allreduce.",
    ] {
        assert!(
            keys.iter().any(|k| k.starts_with(prefix)),
            "no `{prefix}*` metrics in snapshot: {keys:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn obs_off_still_runs_and_reports() {
    let output = Command::new(env!("CARGO_BIN_EXE_ones-sim"))
        .args([
            "--scheduler",
            "fifo",
            "--jobs",
            "6",
            "--gpus",
            "16",
            "--obs",
            "off",
            "--json",
        ])
        .output()
        .expect("ones-sim runs");
    assert!(output.status.success());
    let report: Value =
        serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).expect("JSON report");
    assert_eq!(report.get("obs_level").and_then(Value::as_str), Some("off"));
    assert!(report.get("makespan_secs").and_then(Value::as_f64).unwrap() > 0.0);
}
