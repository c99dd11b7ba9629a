//! `tssa-benchmark`: the wall-clock, layer-by-layer benchmark of the
//! TensorSSA stack. See `benchmark/README.md`.
//!
//! ```text
//! tssa-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! tssa-benchmark suite [--workload W] [--seed N] [--seconds S] [--smoke] [--out DIR]
//! tssa-benchmark compare A.json B.json
//! ```

use std::process::ExitCode;

use tssa_benchmark::{alloc, compare, parse_options, run, suite};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &args[..]),
    };
    let outcome = match command {
        "run" => parse_options(rest).and_then(|o| run::run(&o)),
        "suite" => parse_options(rest).and_then(|o| suite::suite(&o)),
        "compare" => match rest {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref()),
            _ => Err("compare needs two result files".into()),
        },
        _ => Err("usage: tssa-benchmark run|suite|compare … (see benchmark/README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("tssa-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
