//! Benchmark self-test: every workload at toy scale emits every declared
//! metric as a finite number, and `BENCHMARK.json` declares exactly the
//! metrics the benchmark emits.

use nemo_perfbench::workload::{Scale, Workload};
use nemo_perfbench::{run, END_TO_END, PER_LAYER};

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the array is closed")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(declared(&json, "end_to_end"), names(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), names(&PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared(&json, "workloads"), workloads);
    for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            json.contains(&format!("\"unit\": \"{unit}\"")),
            "unit {unit} declared"
        );
    }
}

fn check_toy(w: Workload, trace: bool) {
    let out = run(w, &Scale::toy(), 7, 2.0, trace).expect("toy run");
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(out.metrics.len(), list.len());
    for (m, (name, unit)) in out.metrics.iter().zip(list) {
        assert_eq!((m.name, m.unit), (*name, *unit));
        assert!(m.value.is_finite(), "{} {name} = {}", w.name(), m.value);
    }
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.notes);
    assert!(out.correct());
    let json = out.json();
    assert!(json.starts_with("{\"correct\": true"), "{json}");
    if !trace {
        // (`alwa` may read 0 here: a toy window can end before any SG
        // flush.)
        for name in ["setup_s", "miss_ratio", "dram_bits_per_object"] {
            assert!(
                out.get(name).unwrap() > 0.0,
                "{} {name} is positive",
                w.name()
            );
        }
        let reported = |name: &str| out.reported.iter().find(|m| m.name == name);
        for name in ["get_p50_us", "get_p99_us", "set_p99_us"] {
            assert!(reported(name).is_some(), "{} reports {name}", w.name());
        }
        // The rate ladder behind `rps_at_slo` runs on the wire only.
        assert_eq!(
            reported("rps_at_slo").is_some(),
            w != Workload::EngineZipf,
            "{} rps_at_slo",
            w.name()
        );
        assert_eq!(reported("error_ratio").map(|m| m.value), Some(0.0));
        assert!(reported("get_p50_us").unwrap().value > 0.0);
        assert!(reported("ops_per_s").unwrap().value > 0.0);
        assert!(out.reported.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn wire_zipf_toy_run_emits_every_metric() {
    check_toy(Workload::WireZipf, false);
    check_toy(Workload::WireZipf, true);
}

#[test]
fn wire_churn_toy_run_emits_every_metric() {
    check_toy(Workload::WireChurn, false);
    check_toy(Workload::WireChurn, true);
}

#[test]
fn engine_zipf_toy_run_emits_every_metric() {
    check_toy(Workload::EngineZipf, false);
    check_toy(Workload::EngineZipf, true);
}
