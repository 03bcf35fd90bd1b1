//! The benchmark's own tests: tiny-size runs of every workload print
//! every metric `BENCHMARK.json` names, with its unit, and a corrupted
//! oracle reference is caught as failed operations.

use ovlp_serve::json::{self, Value};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["scale-bus", "flow-fattree", "serve-mixed"];

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.as_obj()
        .and_then(|o| o.get(list))
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let o = m.as_obj().expect("metric object");
            let field = |k| o.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run a tiny benchmark; returns (result document, summary line).
fn run(workload: &str, trace: bool, extra: &[&str]) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: {stdout}");
    let parse = |l: &str| json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}"));
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

fn num(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .as_obj()
            .and_then(|o| o.get(key))
            .unwrap_or_else(|| panic!("missing {path:?} in {v}"));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("{path:?} is not a number in {v}"))
}

fn assert_metrics(workload: &str, summary: &Value, want: &[(String, String)]) {
    let metrics = summary
        .as_obj()
        .and_then(|o| o.get("metrics"))
        .and_then(Value::as_obj)
        .expect("metrics object");
    let got: Vec<&str> = metrics.keys().collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, names, "{workload}: metric names");
    for (name, unit) in want {
        let m = metrics.get(name).and_then(Value::as_obj).expect("metric");
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    assert_eq!(
        summary.as_obj().unwrap().get("correct"),
        Some(&Value::Bool(true))
    );
    assert_eq!(num(summary, &["failed"]), 0.0, "{workload}");
    assert!(num(summary, &["attempted"]) >= 1.0, "{workload}");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let want = listed("end_to_end");
    for w in WORKLOADS {
        let (doc, summary) = run(w, false, &[]);
        assert_metrics(w, &summary, &want);
        for (name, _) in &want {
            assert!(
                num(&doc, &["end_to_end", name, "value"]) > 0.0,
                "{w}: {name}"
            );
        }
        assert_eq!(num(&doc, &["end_to_end", "error_rate", "value"]), 0.0);
        for key in ["hardware_threads", "seed", "ranks", "jobs"] {
            num(&doc, &["env", key]);
        }
        let named: &[&str] = match w {
            "serve-mixed" => &["points_per_s", "job_p50_ms", "job_p90_ms"],
            _ => &["events_per_s"],
        };
        for name in named {
            assert!(
                num(&doc, &["end_to_end", name, "value"]) > 0.0,
                "{w}: {name}"
            );
        }
    }
}

#[test]
fn every_traced_workload_prints_every_per_layer_metric() {
    let want = listed("per_layer");
    for w in WORKLOADS {
        let (doc, summary) = run(w, true, &[]);
        assert_metrics(w, &summary, &want);
        let spans = doc
            .as_obj()
            .and_then(|o| o.get("spans"))
            .and_then(Value::as_obj);
        let spans = spans.expect("span totals in the traced document");
        assert!(num(&doc, &["spans", "run", "self_s"]) < num(&doc, &["spans", "run", "total_s"]));
        assert!(spans.get("op").is_some() || spans.get("serve.job").is_some());
    }
}

#[test]
fn a_corrupted_oracle_reference_raises_the_error_rate() {
    for w in WORKLOADS {
        let (doc, summary) = run(w, false, &["--corrupt-oracle"]);
        assert_eq!(
            summary.as_obj().unwrap().get("correct"),
            Some(&Value::Bool(false))
        );
        assert!(num(&summary, &["failed"]) > 0.0, "{w}");
        assert!(
            num(&doc, &["end_to_end", "error_rate", "value"]) > 0.0,
            "{w}"
        );
    }
}
