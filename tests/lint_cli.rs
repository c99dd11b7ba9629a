//! The `tssa-lint` binary's command line: the rule table it lists, the
//! options it refuses, the seed ranges it refuses to run, and the source
//! errors it reports.

use std::process::{Command, Output};

fn tssa_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tssa-lint"))
        .args(args)
        .output()
        .expect("tssa-lint runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn rules_lists_the_four_rules() {
    let out = tssa_lint(&["rules"]);
    assert!(out.status.success());
    let names: Vec<String> = text(&out.stdout)
        .lines()
        .map(|l| l.split_whitespace().nth(1).unwrap_or_default().to_string())
        .collect();
    assert_eq!(
        names,
        [
            "shape-incompatible-view-chain",
            "symbolic-broadcast-mismatch",
            "data-dependent-shape-escapes-output",
            "non-functionalizable",
        ]
    );
}

#[test]
fn lint_accepts_no_severity_flag() {
    for flag in ["--deny", "--allow", "--warn"] {
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/dsl/figure4.tssa");
        let out = tssa_lint(&["lint", flag, "non-functionalizable", file]);
        assert!(!out.status.success(), "{flag} was accepted");
        let stderr = text(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option `{flag}`")),
            "{stderr}"
        );
    }
}

#[test]
fn fuzz_refuses_a_seed_range_past_u64_max() {
    let out = tssa_lint(&["fuzz", "--start", &u64::MAX.to_string(), "--seeds", "2"]);
    let stderr = text(&out.stderr);
    assert!(!out.status.success(), "{}", text(&out.stdout));
    assert!(stderr.contains("runs past seed"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn fuzz_runs_the_last_seed() {
    let out = tssa_lint(&["fuzz", "--start", &u64::MAX.to_string(), "--seeds", "1"]);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", text(&out.stderr));
    assert!(stdout.contains("fuzz: 1 seed(s)"), "{stdout}");
}

#[test]
fn lint_denies_a_select_from_a_rank_0_value_without_panicking() {
    let path = std::env::temp_dir().join(format!("tssa-lint-rank0-{}.tssa", std::process::id()));
    std::fs::write(
        &path,
        "def f(n: int):\n    z = zeros([4])\n    s = z.sum(0)\n    y = s[0]\n    return y\n",
    )
    .expect("write the program");
    let out = tssa_lint(&["lint", path.to_str().expect("utf-8 temp path")]);
    std::fs::remove_file(&path).ok();
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}{}", text(&out.stderr));
    assert!(
        stdout.contains("shape-incompatible-view-chain")
            && stdout.contains("out of range for rank 0"),
        "{stdout}"
    );
}

#[test]
fn lint_denies_a_cat_of_operands_with_different_ranks_without_panicking() {
    for dim in [0, 1] {
        let path = std::env::temp_dir().join(format!(
            "tssa-lint-cat-rank-{dim}-{}.tssa",
            std::process::id()
        ));
        std::fs::write(
            &path,
            format!(
                "def f(n: int):\n    z = zeros([4, 2])\n    w = zeros([3])\n    \
                 y = cat([z, w], {dim})\n    return y\n"
            ),
        )
        .expect("write the program");
        let out = tssa_lint(&["lint", path.to_str().expect("utf-8 temp path")]);
        std::fs::remove_file(&path).ok();
        let stdout = text(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(1),
            "dim {dim}: {stdout}{}",
            text(&out.stderr)
        );
        assert!(
            stdout.contains("shape-incompatible-view-chain")
                && stdout.contains("operand 1 has rank 1"),
            "dim {dim}: {stdout}"
        );
    }
}

#[test]
fn lint_reports_a_builtin_missing_its_argument_on_its_line() {
    let path = std::env::temp_dir().join(format!("tssa-lint-arity-{}.tssa", std::process::id()));
    std::fs::write(
        &path,
        "def f(x: Tensor):\n    z = x.relu()\n    y = x.softmax()\n    return y\n",
    )
    .expect("write the program");
    let out = tssa_lint(&["lint", path.to_str().expect("utf-8 temp path")]);
    std::fs::remove_file(&path).ok();
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("line 3:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
