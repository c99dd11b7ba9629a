//! `tssa-lint`: static analysis CLI for imperative tensor DSL programs.
//!
//! ```text
//! tssa-lint rules                              # list the four rules and their severities
//! tssa-lint lint FILE...                       # lint DSL source files
//! tssa-lint workloads                          # lint + purity-certify the paper workloads
//! tssa-lint shapes                             # shape-polymorphism certificates for the workloads
//! tssa-lint fuzz [--seeds N] [--start K]       # differential fuzz of the full pipeline
//! ```
//!
//! Exit status is 1 when any Deny-level diagnostic fires, a workload's
//! compiled graph fails purity or shape certification, or any fuzz seed
//! diverges.

use std::process::ExitCode;

use tensorssa::backend::RtValue;
use tensorssa::ir::Graph;
use tensorssa::lint::{certify_pure, certify_shapes, check_effects, fuzz, lint, Severity};
use tensorssa::pipelines::{Pipeline, TensorSsa};
use tensorssa::serve::{signature_of, ClassSignature, PipelineKind};
use tensorssa::workloads::all_workloads;

const USAGE: &str = "usage: tssa-lint <rules|lint|workloads|shapes|fuzz> [options]

  rules                                list the lint rules and their severities
  lint FILE...                         lint DSL source files (exit 1 on deny)
  workloads                            lint the paper workloads and certify the
                                       TensorSSA pipeline output mutation-free
  shapes                               certify shape polymorphism of each
                                       workload's compiled plan (exit 1 when
                                       any output dim is data-dependent)
  fuzz [--seeds N] [--start K]         differential fuzz: N random programs
                                       (default 200) through the full pipeline
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        "rules" => cmd_rules(),
        "lint" => cmd_lint(rest),
        "workloads" => cmd_workloads(),
        "shapes" => cmd_shapes(),
        "fuzz" => cmd_fuzz(rest),
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("tssa-lint: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_rules() -> Result<bool, String> {
    for (name, severity, describe) in tensorssa::lint::rules() {
        println!("{severity:<5} {name:<36} {describe}");
    }
    Ok(true)
}

fn cmd_lint(files: &[String]) -> Result<bool, String> {
    if let Some(option) = files.iter().find(|f| f.starts_with("--")) {
        return Err(format!("unknown option `{option}`\n{USAGE}"));
    }
    if files.is_empty() {
        return Err(format!("no input files\n{USAGE}"));
    }
    let mut denies = 0usize;
    let mut warns = 0usize;
    for path in files {
        let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let graph = tensorssa::frontend::compile(&source).map_err(|e| format!("{path}: {e}"))?;
        for d in lint(&graph) {
            println!("{path}: {d}");
            match d.severity {
                Severity::Deny => denies += 1,
                _ => warns += 1,
            }
        }
    }
    println!(
        "{} file(s) linted: {warns} warning(s), {denies} denial(s)",
        files.len()
    );
    Ok(denies == 0)
}

fn cmd_workloads() -> Result<bool, String> {
    let mut failed = false;
    for w in all_workloads() {
        let g = w.graph().map_err(|e| format!("{}: {e}", w.name))?;
        let report = check_effects(&g);
        let diags = lint(&g);
        let denies = diags
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count();
        if denies > 0 {
            failed = true;
            for d in diags.iter().filter(|d| d.severity == Severity::Deny) {
                println!("{}: {d}", w.name);
            }
        }
        let cp = TensorSsa::default().compile(&g);
        let purity = certify_pure(&cp.graph);
        match &purity {
            Ok(()) => println!(
                "{:<10} {:3} imperative effect(s), {:2} lint warning(s) -> compiled graph PURE",
                w.name,
                report.violations.len(),
                diags.len() - denies,
            ),
            Err(violations) => {
                failed = true;
                println!(
                    "{:<10} compiled graph NOT pure ({} violation(s)):",
                    w.name,
                    violations.len()
                );
                for v in violations {
                    println!("    {v}");
                }
            }
        }
    }
    Ok(!failed)
}

fn cmd_shapes() -> Result<bool, String> {
    let mut failed = false;
    for w in all_workloads() {
        let g = w.graph().map_err(|e| format!("{}: {e}", w.name))?;
        let cp = TensorSsa::default().compile(&g);
        // The ranks the plan is specialized to: defaults for batch/seq, the
        // same signature the serving layer certifies against on load.
        let ranks: Vec<Option<usize>> = w
            .inputs(0, 0, 1)
            .iter()
            .map(|v| match v {
                RtValue::Tensor(t) => Some(t.rank()),
                _ => None,
            })
            .collect();
        let sig = certify_shapes(&cp.graph, &ranks);
        let data_dependent = sig.data_dependent_output_dims();
        println!(
            "{:<10} {} polymorphic, {} specialized input dim(s){}",
            w.name,
            sig.polymorphic_dims(),
            sig.specialized_dims(),
            if data_dependent > 0 {
                format!(" -- {data_dependent} DATA-DEPENDENT output dim(s)")
            } else {
                String::new()
            }
        );
        print!("{}", sig.render());
        // The skeleton the serving cache keys its shape class on: `*` dims
        // admit any extent, pinned dims split classes. One skeleton = one
        // cached plan serving every admitted concrete shape.
        let args = signature_of(&w.inputs(0, 0, 1));
        match ClassSignature::derive(w.source, PipelineKind::TensorSsa, &args, &sig) {
            Some(class) => println!(
                "  class {:016x}: {}",
                class.key.class_hash(),
                class.key.render()
            ),
            None => println!("  class: ineligible (example not admitted)"),
        }
        if data_dependent > 0 {
            failed = true;
        }
    }
    Ok(!failed)
}

fn cmd_fuzz(rest: &[String]) -> Result<bool, String> {
    let mut seeds = 200u64;
    let mut start = 0u64;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let parse = |v: Option<&String>, what: &str| -> Result<u64, String> {
            v.ok_or_else(|| format!("{what} needs a number"))?
                .parse::<u64>()
                .map_err(|e| format!("{what}: {e}"))
        };
        match arg.as_str() {
            "--seeds" => seeds = parse(iter.next(), "--seeds")?,
            "--start" => start = parse(iter.next(), "--start")?,
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let compile = |g: &Graph| -> Result<(Graph, tensorssa::backend::ExecConfig), String> {
        let cp = TensorSsa::default().compile(g);
        Ok((cp.graph, cp.exec_config))
    };
    // The last seed is `start + seeds - 1`; a range past `u64::MAX` would
    // wrap to nothing (release) or panic (debug), so it is refused.
    if seeds > 0 && start.checked_add(seeds - 1).is_none() {
        return Err(format!(
            "--start {start} with --seeds {seeds} runs past seed {}",
            u64::MAX
        ));
    }
    let mut failures = 0usize;
    for seed in (0..seeds).map(|i| start + i) {
        if let Err(e) = fuzz::diff_case_compiled(seed, &compile) {
            failures += 1;
            eprintln!("{e}");
        }
    }
    println!("fuzz: {seeds} seed(s) starting at {start}, {failures} divergence(s)");
    Ok(failures == 0)
}
