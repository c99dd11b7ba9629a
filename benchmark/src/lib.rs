//! `tssa-benchmark`: the wall-clock, layer-by-layer benchmark of the
//! TensorSSA stack. See `benchmark/README.md`.
//!
//! The library holds everything; `main.rs` installs the counting allocator
//! and dispatches the three commands.

pub mod alloc;
pub mod cells;
pub mod compare;
pub mod http;
pub mod layers;
pub mod metrics;
pub mod procfs;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;

/// Length of a timed phase when `--seconds` is not given; `BENCHMARK.json`
/// carries the same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Options shared by `run` and `suite`.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One-second phases and a single set-up: for `cargo test`.
    pub smoke: bool,
    pub out: PathBuf,
}

pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |what: &str| format!("{flag}: not {what}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.to_string()),
            "--seed" => o.seed = value()?.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| bad("a number"))?;
                seconds_given = true;
            }
            "--trace" => {
                o.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.smoke && !seconds_given {
        o.seconds = 1.0;
    }
    if !(o.seconds > 0.0 && o.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if let Some(w) = &o.workload {
        if !metrics::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                metrics::WORKLOADS.join(", ")
            ));
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let o = opts(&[
            "--workload",
            "edge-http",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("edge-http"));
        assert_eq!((o.seed, o.seconds, o.traced), (7, 10.0, true));
        let smoke = opts(&["--smoke"]).unwrap();
        assert_eq!((smoke.seconds, smoke.seed), (1.0, DEFAULT_SEED));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(opts(&["--workload", "nope"]).is_err());
        assert!(opts(&["--trace", "2"]).is_err());
        assert!(opts(&["--seconds", "0"]).is_err());
        assert!(opts(&["--seed"]).is_err());
        assert!(opts(&["--frobnicate"]).is_err());
    }
}
