//! The whole benchmark in one command: every workload untraced (end-to-end
//! metrics), then every workload traced (per-layer metrics), each in a
//! fresh process so that `peak_rss_mb` and `setup_s` belong to it; the
//! numbers are collected into `results.json`.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use tssa_obs::json::{self, JsonValue};

use crate::metrics::WORKLOADS;
use crate::workloads::nproc;
use crate::Options;

/// One child run's outcome: its metric lines and its result object.
struct ChildRun {
    /// `(metric, unit, value)` in print order.
    metrics: Vec<(String, String, f64)>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// Run `workload` in one mode in a child process, echoing its metric lines.
fn child(o: &Options, workload: &str, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out)
        .stdout(Stdio::piped());
    if o.smoke {
        command.arg("--smoke");
    }
    let mut process = command.spawn().map_err(|e| e.to_string())?;
    let stdout = process.stdout.take().expect("piped stdout");
    let mut metrics = Vec::new();
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        if let [w, name, unit, value] = fields[..] {
            if w == workload {
                if let Ok(value) = value.parse() {
                    println!("{line}");
                    metrics.push((name.to_string(), unit.to_string(), value));
                }
            }
        }
        last = line;
    }
    // The child has closed stdout; wait for it to end.
    let status = process.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{workload} (trace {}) {status}", u8::from(traced)));
    }
    let result = json::parse(&last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let count = |key: &str| result.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
    Ok(ChildRun {
        metrics,
        correct: result.get("correct") == Some(&JsonValue::Bool(true)),
        attempted: count("attempted"),
        failed: count("failed"),
    })
}

fn metrics_json(run: &ChildRun) -> String {
    let entries: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn outcome_json(run: &ChildRun) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}}}",
        run.correct, run.attempted, run.failed
    )
}

/// Run the selected workloads in both modes and write `results.json`.
/// Returns whether every run's outputs were correct.
pub fn suite(o: &Options) -> Result<bool, String> {
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| o.workload.as_deref().is_none_or(|only| only == *w))
        .collect();
    let mut untraced = Vec::new();
    for w in &selected {
        untraced.push(child(o, w, false)?);
    }
    let mut traced = Vec::new();
    for w in &selected {
        traced.push(child(o, w, true)?);
    }
    let mut all_correct = true;
    let mut entries = Vec::new();
    for ((w, plain), with_trace) in selected.iter().zip(&untraced).zip(&traced) {
        all_correct &= plain.correct && with_trace.correct;
        entries.push(format!(
            "    \"{w}\": {{\n      \"untraced\": {},\n      \"traced\": {},\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
            outcome_json(plain),
            outcome_json(with_trace),
            metrics_json(plain),
            metrics_json(with_trace)
        ));
    }
    let text = format!(
        "{{\n  \"schema\": 1,\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        o.seed,
        o.seconds,
        nproc(),
        entries.join(",\n")
    );
    let path = o.out.join("results.json");
    std::fs::create_dir_all(&o.out).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("results -> {}", path.display());
    if !all_correct {
        eprintln!("tssa-benchmark: some outputs failed their check (failed_share > 0)");
    }
    Ok(all_correct)
}
