//! The optimized graph of every program, pinned by hash.
//!
//! A compile-time change that claims to "change no output graph" is held to
//! it here: each of the eight programs is compiled under three pipelines
//! (`TensorSsa`, `TensorSsa` without block propagation, `DynamoInductor`),
//! printed, canonicalised — every `%<digits>` value renumbered by first
//! appearance, so fresh value ids do not matter — and hashed with
//! FNV-1a-64. The generated deep-N programs (the compile-scaling cells) are
//! pinned as a node *multiset*, in whatever order independent nodes land:
//! every value is named by what computes it (operator and the names of its
//! operands, or its block and position for a parameter), one line per node
//! in those names, and the hash is over the sorted lines. Renumbering by
//! first appearance would not do here — two independent nodes that swap
//! places swap numbers too, and so would every line that reads them.
//!
//! On a mismatch the test prints the canonical graph it got, so the diff
//! against the previous tree is one `diff` away.

use std::collections::HashMap;

use tensorssa::frontend::compile;
use tensorssa::ir::{BlockId, Graph, ValueId};
use tensorssa::pipelines::{DynamoInductor, Pipeline, TensorSsa};
use tensorssa::workloads::all_workloads;

/// Program × (`TensorSsa`, no block propagation, `DynamoInductor`).
const PINNED: &[(&str, [u64; 3])] = &[
    (
        "yolov3",
        [0x7697f2f9841f8cc6, 0x7697f2f9841f8cc6, 0x7697f2f9841f8cc6],
    ),
    (
        "ssd",
        [0x7cf2ff78b163ebbc, 0xb202862201cd26e1, 0xb202862201cd26e1],
    ),
    (
        "yolact",
        [0x62b0f31d58ae8e42, 0x62b0f31d58ae8e42, 0x62b0f31d58ae8e42],
    ),
    (
        "fcos",
        [0xbacb3bb6907203dc, 0xbacb3bb6907203dc, 0xbacb3bb6907203dc],
    ),
    (
        "nasrnn",
        [0x7d366d6672073c54, 0x0fdccf0632792126, 0x0fdccf0632792126],
    ),
    (
        "lstm",
        [0x257547cbaa8d3694, 0xec746aee75b9a90f, 0xec746aee75b9a90f],
    ),
    (
        "seq2seq",
        [0x02005df879bec0ab, 0xc02ab7d59c3c85db, 0xc02ab7d59c3c85db],
    ),
    (
        "attention",
        [0x177c008f80b0710e, 0x751a3fb57d2c54c3, 0x751a3fb57d2c54c3],
    ),
];

/// deep-N × the same three pipelines, hashed over sorted structural lines.
/// The lines spell each operator by its `Debug` text, so renaming an `Op`
/// variant moves these hashes even when no node changes.
const PINNED_DEEP: &[(usize, [u64; 3])] = &[
    (
        16,
        [0x88ec9ec4dacb4eb1, 0x88ec9ec4dacb4eb1, 0x88ec9ec4dacb4eb1],
    ),
    (
        32,
        [0xa8cdf4ae335fb5f0, 0xa8cdf4ae335fb5f0, 0xa8cdf4ae335fb5f0],
    ),
    (
        48,
        [0x630f295e1863bcb3, 0x630f295e1863bcb3, 0x630f295e1863bcb3],
    ),
];

fn pipelines() -> [(&'static str, Box<dyn Pipeline>); 3] {
    [
        ("TensorSsa", Box::new(TensorSsa::default())),
        (
            "TensorSsa{block_propagation: false}",
            Box::new(TensorSsa {
                block_propagation: false,
                ..TensorSsa::default()
            }),
        ),
        ("DynamoInductor", Box::new(DynamoInductor)),
    ]
}

/// `n` dependent partial writes `y[i % 8] = relu(y[(i + 1) % 8])`.
fn deep_source(n: usize) -> String {
    let mut source = String::from("def f(x: Tensor):\n    y = x.clone()\n");
    for i in 0..n {
        source.push_str(&format!("    y[{}] = relu(y[{}])\n", i % 8, (i + 1) % 8));
    }
    source.push_str("    return y\n");
    source
}

/// The printed graph with every `%<digits>` renumbered by first appearance.
fn canonical(g: &Graph) -> String {
    let text = g.to_string();
    let bytes = text.as_bytes();
    let mut ids: Vec<&str> = Vec::new();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < bytes.len() {
        out.push(bytes[i] as char);
        if bytes[i] == b'%' {
            let start = i + 1;
            let mut end = start;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            let ident_continues =
                end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
            if end > start && !ident_continues {
                let id = &text[start..end];
                let k = ids.iter().position(|&s| s == id).unwrap_or_else(|| {
                    ids.push(id);
                    ids.len() - 1
                });
                out.push_str(&format!("v{k}"));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The graph's node multiset: one line per node and per block return, every
/// value written as the hash of what computes it; sorted.
fn structural_lines(g: &Graph) -> String {
    fn walk(
        g: &Graph,
        block: BlockId,
        scope: u64,
        names: &mut HashMap<ValueId, u64>,
        lines: &mut Vec<String>,
    ) {
        for (i, &p) in g.block(block).params.iter().enumerate() {
            names.insert(p, fnv1a64(&format!("{scope}/param{i}")));
        }
        for &n in &g.block(block).nodes {
            let node = g.node(n);
            let operands: Vec<u64> = node.inputs.iter().map(|v| names[v]).collect();
            let line = format!("{:?}{operands:?}", node.op);
            let h = fnv1a64(&line);
            for (k, &out) in node.outputs.iter().enumerate() {
                names.insert(out, fnv1a64(&format!("{h}/out{k}")));
            }
            lines.push(format!("{line} -> {}", node.outputs.len()));
            for (k, &b) in node.blocks.iter().enumerate() {
                walk(g, b, fnv1a64(&format!("{h}/block{k}")), names, lines);
            }
        }
        let returns: Vec<u64> = g.block(block).returns.iter().map(|v| names[v]).collect();
        lines.push(format!("{scope}: return {returns:?}"));
    }
    let mut names = HashMap::new();
    let mut lines = Vec::new();
    walk(g, g.top(), 0, &mut names, &mut lines);
    lines.sort_unstable();
    lines.join("\n")
}

fn check(label: &str, want: u64, got: u64, shown: &str, failures: &mut Vec<String>) {
    if want != got {
        failures.push(format!(
            "{label}: hash {got:#018x}, pinned {want:#018x}\n{shown}"
        ));
    }
}

#[test]
fn the_eight_programs_compile_to_their_pinned_graphs() {
    let workloads = all_workloads();
    assert_eq!(workloads.len(), PINNED.len());
    let mut failures = Vec::new();
    for (name, hashes) in PINNED {
        let w = workloads.iter().find(|w| w.name == *name).unwrap();
        let graph = w.graph().unwrap();
        for ((label, pipeline), want) in pipelines().iter().zip(hashes) {
            let text = canonical(&pipeline.compile(&graph).graph);
            check(
                &format!("{name} under {label}"),
                *want,
                fnv1a64(&text),
                &text,
                &mut failures,
            );
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn deep_programs_compile_to_their_pinned_node_multisets() {
    let mut failures = Vec::new();
    for (n, hashes) in PINNED_DEEP {
        let graph = compile(&deep_source(*n)).unwrap();
        for ((label, pipeline), want) in pipelines().iter().zip(hashes) {
            let optimized = pipeline.compile(&graph).graph;
            check(
                &format!("deep-{n} under {label} (node multiset)"),
                *want,
                fnv1a64(&structural_lines(&optimized)),
                &canonical(&optimized),
                &mut failures,
            );
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
