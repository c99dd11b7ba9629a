//! `tssa-profile`: the op-level execution profiler as a CLI, over the
//! paper's eight workloads.
//!
//! Every workload is compiled through the TensorSSA pipeline and executed
//! under an always-on [`Profiler`]; the merged table is then presented
//! three ways:
//!
//! * `rank [--top N] [--runs N]` — the codegen work-list: fusion groups
//!   ranked by cumulative wall self-time, with each group's share of the
//!   total and the running cumulative share. The run asserts that the
//!   attributed self-time covers at least 90% of the measured execution
//!   wall time — the profiler accounts for where the time actually went —
//!   and that the flamegraph export parses as collapsed-stack.
//! * `flame [--out PATH] [--runs N]` — collapsed-stack flamegraph lines
//!   (`plan;group;op <self_us>`), renderable by `flamegraph.pl` or
//!   speedscope as-is.
//! * `trace [--out PATH] [--runs N]` — Chrome-trace JSON for
//!   `chrome://tracing` / Perfetto.
//!
//! `rank` is what `scripts/ci.sh` runs; see EXPERIMENTS.md for a measured
//! walkthrough.

use std::sync::Arc;
use std::time::Instant;

use tssa_bench::print_table;
use tssa_obs::{group_frame, Profiler};
use tssa_pipelines::{Pipeline, ProfileRecorder, TensorSsa};
use tssa_workloads::all_workloads;

const USAGE: &str = "usage: tssa-profile [rank|flame|trace] [options]

  rank            fusion-group hotness ranking over the eight workloads
                  (default subcommand)
  flame           collapsed-stack flamegraph to stdout or --out PATH
  trace           Chrome-trace JSON to stdout or --out PATH

  --runs N        executions per workload (default 3)
  --top N         rows in the ranking table (default 12; rank only)
  --out PATH      write flame/trace output to PATH instead of stdout
";

/// Run every workload `runs` times under `profiler`, returning the wall
/// time spent inside execution (the denominator coverage is measured
/// against).
fn profile_all(profiler: &Profiler, runs: usize) -> u64 {
    let mut exec_wall_ns = 0u64;
    for w in all_workloads() {
        let g = w
            .graph()
            .unwrap_or_else(|e| panic!("{}: frontend: {e}", w.name));
        let program = TensorSsa::default().compile(&g);
        let mut session = program
            .session()
            .observed(Arc::new(ProfileRecorder::new(profiler.sink(w.name))));
        let inputs = w.inputs(2, 8, 1);
        for _ in 0..runs {
            let t = Instant::now();
            session
                .run(&inputs)
                .unwrap_or_else(|e| panic!("{}: exec: {e}", w.name));
            exec_wall_ns += t.elapsed().as_nanos() as u64;
        }
    }
    exec_wall_ns
}

fn rank(top: usize, runs: usize) {
    let profiler = Profiler::new();
    let exec_wall_ns = profile_all(&profiler, runs);
    let snapshot = profiler.snapshot();
    let total_self_ns = snapshot.total_self_ns();
    let hot = snapshot.hotness();

    let mut rows = Vec::new();
    let mut cumulative = 0u64;
    for (i, g) in hot.iter().take(top).enumerate() {
        cumulative += g.self_ns;
        rows.push(vec![
            (i + 1).to_string(),
            g.plan.to_string(),
            group_frame(g.group),
            format!("{:.3}", g.self_ns as f64 / 1e6),
            format!(
                "{:.1}%",
                100.0 * g.self_ns as f64 / total_self_ns.max(1) as f64
            ),
            format!(
                "{:.1}%",
                100.0 * cumulative as f64 / total_self_ns.max(1) as f64
            ),
            g.count.to_string(),
            g.sites.to_string(),
        ]);
    }
    print_table(
        &format!(
            "tssa-profile — fusion-group hotness, {} workloads x {runs} runs (TensorSSA pipeline)",
            all_workloads().len()
        ),
        &[
            "#".into(),
            "plan".into(),
            "group".into(),
            "self ms".into(),
            "share".into(),
            "cum".into(),
            "ops".into(),
            "sites".into(),
        ],
        &rows,
    );
    let coverage = total_self_ns as f64 / exec_wall_ns.max(1) as f64;
    println!(
        "  {} groups, {} op sites; attributed self-time {:.3}ms of {:.3}ms exec wall ({:.1}% coverage, target >= 90%)",
        hot.len(),
        snapshot.entries.len(),
        total_self_ns as f64 / 1e6,
        exec_wall_ns as f64 / 1e6,
        coverage * 100.0
    );
    assert!(
        coverage >= 0.90,
        "op self-time must cover >= 90% of measured exec wall time ({:.1}%)",
        coverage * 100.0
    );

    // The flamegraph export must round-trip as collapsed-stack: every line
    // is `plan;group;op <count>` with non-empty, space-free frames.
    let collapsed = snapshot.collapsed(usize::MAX);
    let mut lines = 0usize;
    for line in collapsed.lines() {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("flame line lacks a count: {line}"));
        assert_eq!(stack.split(';').count(), 3, "plan;group;op frames: {line}");
        assert!(stack.split(';').all(|f| !f.is_empty() && !f.contains(' ')));
        count
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("flame count not an integer: {line}"));
        lines += 1;
    }
    assert!(lines > 0, "flamegraph export is empty");
    println!("  flamegraph export: {lines} collapsed-stack lines, all parse\n");
}

fn export(kind: &str, out: Option<&str>, runs: usize) {
    let profiler = Profiler::new();
    profile_all(&profiler, runs);
    let snapshot = profiler.snapshot();
    let text = match kind {
        "flame" => snapshot.collapsed(usize::MAX),
        _ => snapshot.chrome_trace(usize::MAX),
    };
    match out {
        Some(path) => {
            std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("tssa-profile: {kind} output written to {path}");
        }
        None => print!("{text}"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut sub: Option<String> = None;
    let mut runs = 3usize;
    let mut top = 12usize;
    let mut out: Option<String> = None;
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut take = |flag: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("tssa-profile: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--runs" => {
                runs = take("--runs").parse().unwrap_or_else(|_| {
                    eprintln!("tssa-profile: --runs needs an integer");
                    std::process::exit(2);
                });
            }
            "--top" => {
                top = take("--top").parse().unwrap_or_else(|_| {
                    eprintln!("tssa-profile: --top needs an integer");
                    std::process::exit(2);
                });
            }
            "--out" => out = Some(take("--out")),
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            name if !name.starts_with('-') && sub.is_none() => sub = Some(name.to_string()),
            other => {
                eprintln!("tssa-profile: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if runs == 0 {
        eprintln!("tssa-profile: --runs must be at least 1");
        std::process::exit(2);
    }
    match sub.as_deref() {
        None | Some("rank") => rank(top.max(1), runs),
        Some("flame") => export("flame", out.as_deref(), runs),
        Some("trace") => export("trace", out.as_deref(), runs),
        Some(other) => {
            eprintln!("tssa-profile: unknown subcommand `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    }
}
