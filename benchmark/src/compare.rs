//! `compare A.json B.json`: hold run set B against run set A, metric by
//! metric, with the bounds the benchmark fixes.

use std::path::Path;

use tssa_obs::json::{self, JsonValue};

use crate::metrics::{self, Better, Def, WORKLOADS};

/// How B's reading of one metric relates to A's.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    /// `(b − a) / a`, signed as measured.
    pub relative: f64,
    /// B is worse than A by more than the bound allows.
    pub breach: bool,
}

/// Judge one metric. A metric with bound 0 (`failed_share`) breaches on any
/// worsening at all.
pub fn judge(def: &Def, a: f64, b: f64) -> Verdict {
    let relative = if a == 0.0 { 0.0 } else { (b - a) / a };
    let worse_by = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    Verdict {
        relative,
        breach: worse_by > def.bound * a.abs(),
    }
}

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn value(results: &JsonValue, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compare two result files and print one row per (workload, end-to-end
/// metric). Returns whether B stayed within every bound.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut defs = metrics::end_to_end();
    defs.extend(metrics::end_to_end_suite_only());
    let mut within = true;
    let mut rows = 0;
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for workload in WORKLOADS {
        for def in defs.iter().filter(|d| metrics::applies(&d.name, workload)) {
            let (Some(va), Some(vb)) = (
                value(&a, workload, &def.name),
                value(&b, workload, &def.name),
            ) else {
                continue;
            };
            let verdict = judge(def, va, vb);
            within &= !verdict.breach;
            rows += 1;
            println!(
                "{workload:<12} {:<18} {va:>14.4} {vb:>14.4} {:>+7.1}% {:>5.0}%{}",
                def.name,
                verdict.relative * 100.0,
                def.bound * 100.0,
                if verdict.breach { "  BREACH" } else { "" }
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> Def {
        metrics::end_to_end()
            .into_iter()
            .chain(metrics::end_to_end_suite_only())
            .find(|d| d.name == name)
            .expect("defined")
    }

    #[test]
    fn lower_is_better_breaches_above_the_bound_only() {
        let latency = def("latency_p50_us"); // 25 %
        assert!(!judge(&latency, 100.0, 124.9).breach);
        assert!(judge(&latency, 100.0, 125.1).breach);
        assert!(!judge(&latency, 100.0, 50.0).breach);
        assert!((judge(&latency, 100.0, 105.0).relative - 0.05).abs() < 1e-12);
    }

    #[test]
    fn higher_is_better_breaches_below_the_bound_only() {
        let speedup = def("speedup_vs_eager"); // 10 %
        assert!(!judge(&speedup, 1.0, 0.901).breach);
        assert!(judge(&speedup, 1.0, 0.899).breach);
        assert!(!judge(&speedup, 1.0, 2.0).breach);
    }

    #[test]
    fn failed_share_breaches_on_any_increase() {
        let failed = def("failed_share");
        assert!(!judge(&failed, 0.0, 0.0).breach);
        assert!(judge(&failed, 0.0, 0.001).breach);
        assert!(!judge(&failed, 0.01, 0.0).breach);
    }

    #[test]
    fn speedup_applies_to_exec_workloads_only() {
        assert!(metrics::applies("speedup_vs_eager", "exec-rnn"));
        assert!(!metrics::applies("speedup_vs_eager", "plan-load"));
        assert!(metrics::applies("setup_s", "plan-load"));
    }
}
