//! No DSL source panics the frontend. Seeded mutations and truncations of
//! every in-repo program (the 8 workloads, `examples/dsl/*.tssa` and
//! differential-fuzzer programs) go through `compile` under `catch_unwind`;
//! each must come back as a graph or a typed `FrontendError`. A failure
//! names the case seed and prints the source that panicked.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorssa::frontend::compile;
use tensorssa::lint::fuzz::generate_source;
use tensorssa::workloads::all_workloads;

/// Mutated programs per base program.
const CASES_PER_BASE: u64 = 200;

/// Text a mutation splices in, `|`-separated: punctuation, literals,
/// builtin and method calls short of arguments, and statement heads.
const FRAGMENTS: &str = "(|)|[|]|,|:|=|+|-|0|1.5|x|True|\n|    |.softmax()|.size()|.view()|\
    .transpose(0)|.clamp_(1.0)|zeros()|full([2])|cat()|where(x)|return |if |\
    for i in range(|while ";

fn bases() -> Vec<String> {
    let mut out: Vec<String> = all_workloads()
        .iter()
        .map(|w| w.source.to_string())
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/dsl");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/dsl exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "tssa"))
        .collect();
    files.sort();
    for path in files {
        out.push(std::fs::read_to_string(&path).expect("read a DSL example"));
    }
    out.extend((0..16).map(generate_source));
    out
}

/// One random edit at a random character position.
fn mutate(src: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = src.chars().collect();
    let at = rng.gen_range(0..chars.len() + 1);
    match rng.gen_range(0u32..5) {
        // Truncate.
        0 => chars.truncate(at),
        // Delete a short run.
        1 => {
            let end = (at + rng.gen_range(1usize..8)).min(chars.len());
            chars.drain(at..end);
        }
        // Splice in a fragment.
        2 => {
            let fragments: Vec<&str> = FRAGMENTS.split('|').collect();
            let frag = fragments[rng.gen_range(0..fragments.len())];
            chars.splice(at..at, frag.chars());
        }
        // Drop every argument of the call opening at or after `at`.
        3 => {
            if let Some(open) = chars[at..].iter().position(|&c| c == '(') {
                let open = at + open + 1;
                if let Some(len) = chars[open..].iter().position(|&c| c == ')') {
                    chars.drain(open..open + len);
                }
            }
        }
        // Give the call opening at or after `at` one more argument.
        _ => {
            if let Some(open) = chars[at..].iter().position(|&c| c == '(') {
                chars.splice(at + open + 1..at + open + 1, "0, ".chars());
            }
        }
    }
    chars.into_iter().collect()
}

#[test]
fn mutated_programs_never_panic_the_frontend() {
    let bases = bases();
    let cases = CASES_PER_BASE * bases.len() as u64;
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(case);
        let mut src = bases[(case % bases.len() as u64) as usize].clone();
        for _ in 0..rng.gen_range(1u32..4) {
            src = mutate(&src, &mut rng);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| compile(&src).map(drop)));
        assert!(
            outcome.is_ok(),
            "case seed {case} panicked the frontend on:\n{src}"
        );
    }
}
