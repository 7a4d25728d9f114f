//! A `--quick` run of every workload, untraced and traced, must emit
//! exactly the metrics `BENCHMARK.json` names, with their units, in a
//! result line that survives a JSON round trip.

use std::collections::BTreeMap;
use std::process::Command;

use telemetry::json::{parse, JsonValue};

const EXE: &str = env!("CARGO_BIN_EXE_perfbench");

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    doc.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(metrics: &JsonValue) -> BTreeMap<String, String> {
    metrics
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name} has no value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(JsonValue::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn quick_runs_emit_every_declared_metric() {
    let detail = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke.json");
    let out = Command::new(EXE)
        .args(["--quick", "--seconds", "1", "--seed", "3", "--json"])
        .arg(&detail)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let merged =
        parse(&std::fs::read_to_string(&detail).expect("--json file")).expect("valid JSON");
    for w in ["steady-n4", "faults-n4", "cold-n16-digest", "cold-n8-eager"] {
        for (label, list) in [
            (w.to_string(), "end_to_end"),
            (format!("{w}.traced"), "per_layer"),
        ] {
            let run = merged
                .get(&label)
                .unwrap_or_else(|| panic!("no result for {label}"));
            assert_eq!(
                run.get("failed").and_then(JsonValue::as_i64),
                Some(0),
                "{label}"
            );
            assert_eq!(
                emitted(run.get("metrics").expect("metrics")),
                declared(list),
                "{label}"
            );
        }
    }
}

#[test]
fn the_result_line_has_the_contract_keys_and_round_trips() {
    let out = Command::new(EXE)
        .args([
            "--workload",
            "faults-n4",
            "--quick",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("perfbench runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    let doc = parse(line).expect("the last line is JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
    assert!(doc.get("attempted").and_then(JsonValue::as_i64) >= Some(4));
    assert_eq!(
        emitted(doc.get("metrics").expect("metrics")),
        declared("end_to_end")
    );
    assert_eq!(parse(&doc.to_compact()).expect("re-parses"), doc);
}
