//! Runs the whole benchmark through `run.sh` with one-second phases and
//! checks what it prints: no failed op, and every metric named in
//! `BENCHMARK.json` printed exactly once by each workload it applies to.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

use tssa_benchmark::metrics::{self, WORKLOADS};
use tssa_obs::json;

#[test]
fn smoke_run_prints_every_metric_once_and_nothing_fails() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = root.join("benchmark/out/smoke");
    let run = Command::new("bash")
        .arg(root.join("benchmark/run.sh"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run.sh failed\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // (workload, metric) -> (times printed, last value).
    let mut printed: HashMap<(String, String), (usize, f64)> = HashMap::new();
    for line in stdout.lines() {
        if let [workload, metric, _unit, value] =
            line.split_ascii_whitespace().collect::<Vec<_>>()[..]
        {
            let entry = printed
                .entry((workload.to_string(), metric.to_string()))
                .or_default();
            *entry = (entry.0 + 1, value.parse().expect("numeric value"));
        }
    }
    let end_to_end: Vec<_> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::end_to_end_suite_only())
        .collect();
    for workload in WORKLOADS {
        let times = |name: &str| {
            printed
                .get(&(workload.to_string(), name.to_string()))
                .map_or(0, |e| e.0)
        };
        for d in &end_to_end {
            let want = usize::from(metrics::applies(&d.name, workload));
            assert_eq!(times(&d.name), want, "{workload} {}", d.name);
        }
        for d in metrics::per_layer() {
            let want = usize::from(metrics::layer_applies(&d.name, workload));
            assert_eq!(times(&d.name), want, "{workload} {}", d.name);
        }
        let value = |name: &str| printed[&(workload.to_string(), name.to_string())].1;
        assert_eq!(value("failed_share"), 0.0, "{workload}");
        assert!(value("client.verify_checked") > 0.0, "{workload}");
        for d in metrics::end_to_end() {
            assert!(value(&d.name) > 0.0, "{workload} {} is 0", d.name);
        }

        let trace = std::fs::read_to_string(out.join(format!("trace-{workload}.json")))
            .expect("trace written");
        let trace = json::parse(&trace).expect("trace parses");
        let events = trace.get("traceEvents").and_then(|e| e.as_array());
        assert!(events.is_some_and(|e| !e.is_empty()), "{workload} trace");
    }
    // The acceptance floors of the issue.
    for workload in ["exec-cv", "exec-rnn"] {
        let coverage = printed[&(workload.to_string(), "backend.observed_coverage".into())].1;
        assert!(coverage >= 0.9, "{workload} observed_coverage {coverage}");
    }
    let coverage = printed[&("plan-load".to_string(), "serve.load_cold_coverage".into())].1;
    assert!(coverage >= 0.8, "plan-load cold-load coverage {coverage}");

    let results = std::fs::read_to_string(out.join("results.json")).expect("results written");
    let results = json::parse(&results).expect("results parse");
    for workload in WORKLOADS {
        let entry = results.get("workloads").and_then(|w| w.get(workload));
        assert!(entry.is_some(), "{workload} missing from results.json");
    }
    std::fs::remove_dir_all(&out).ok();
}
