//! Tiny-size smoke runs of every workload, untraced and traced, checked
//! against the metric lists in the repository's `BENCHMARK.json`.
//!
//! One test drives them all in sequence: the worker pool size and the
//! probe switch are process-wide, so concurrent runs would disturb each
//! other's counts.

use std::time::Instant;

use ccdn_obs::json::{parse, Value};
use ccdn_perfbench::workload::{Scale, Workload};
use ccdn_perfbench::{offline, online, traced, Report};

/// `(name, unit)` of each metric in one `BENCHMARK.json` list.
fn listed(benchmark: &Value, key: &str) -> Vec<(String, String)> {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or_default().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(report: &Report) -> Vec<(String, String)> {
    report.metrics.iter().map(|m| (m.name.to_owned(), m.unit.to_owned())).collect()
}

#[test]
fn every_workload_runs_tiny_and_reports_the_listed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let benchmark = parse(&text).expect("BENCHMARK.json parses");
    let end_to_end = listed(&benchmark, "end_to_end");
    let per_layer = listed(&benchmark, "per_layer");
    let names: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .expect("a workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));

    for workload in Workload::ALL {
        let workers = workload.workers();
        let start = Instant::now();
        let untraced = match workload {
            Workload::OnlineChaos => online::run(5, 0.01, Scale::Tiny, workers, start),
            _ => offline::run(workload, 5, 0.01, Scale::Tiny, workers, start),
        };
        assert!(untraced.correct(), "{}: {:?}", workload.name(), untraced.errors);
        assert_eq!(reported(&untraced), end_to_end, "{}", workload.name());
        assert!(untraced.metrics.iter().all(|m| m.value > 0.0), "{:?}", untraced.metrics);

        // Counts are the program's deterministic counters: the same at
        // one worker and at two.
        let counts = |workers| {
            let run = traced::run(workload, 5, 0.01, Scale::Tiny, workers);
            assert!(run.correct(), "{} traced: {:?}", workload.name(), run.errors);
            assert_eq!(reported(&run), per_layer, "{}", workload.name());
            let coverage = run.metrics.iter().find(|m| m.name == "bench.layer_coverage");
            assert!(coverage.is_some_and(|m| m.value >= 0.9), "{coverage:?}");
            run.metrics.into_iter().filter(|m| m.unit == "count").collect::<Vec<_>>()
        };
        assert_eq!(counts(1), counts(2), "{}", workload.name());
    }
}
