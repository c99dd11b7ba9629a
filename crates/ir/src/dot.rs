//! Graphviz (DOT) export for visual inspection of graphs.

use std::fmt::Write as _;

use crate::graph::{BlockId, Graph};

/// Render the graph as a Graphviz `digraph`, one cluster per block.
///
/// Data edges run from defining node (or block parameter) to user; control
/// structure is shown by cluster nesting. Paste the output into any DOT
/// viewer.
pub fn to_dot(g: &Graph) -> String {
    let mut out = String::new();
    out.push_str("digraph ir {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n");
    let top = g.top();
    for (i, &p) in g.block(top).params.iter().enumerate() {
        let _ = writeln!(
            out,
            "  param{} [label=\"{} : {}\", shape=ellipse];",
            i,
            g.value_name(p),
            g.value(p).ty
        );
    }
    emit_block(g, top, 1, &mut out);
    // Data edges.
    for n in g.nodes_recursive(top) {
        for &inp in &g.node(n).inputs {
            match g.def_node(inp) {
                Some(def) => {
                    let _ = writeln!(out, "  n{} -> n{};", def.index(), n.index());
                }
                None => {
                    // A block parameter; link graph inputs explicitly.
                    if let Some(pos) = g.block(top).params.iter().position(|&p| p == inp) {
                        let _ = writeln!(out, "  param{} -> n{};", pos, n.index());
                    }
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

fn emit_block(g: &Graph, block: BlockId, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    for &n in &g.block(block).nodes {
        let node = g.node(n);
        let label = node.op.name().replace('"', "'");
        let _ = writeln!(out, "{pad}n{} [label=\"{label}\"];", n.index());
        for (bi, &b) in node.blocks.iter().enumerate() {
            let _ = writeln!(
                out,
                "{pad}subgraph cluster_{}_{bi} {{ label=\"{label} block{bi}\";",
                n.index()
            );
            emit_block(g, b, depth + 1, out);
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_graph;

    #[test]
    fn dot_contains_nodes_edges_and_clusters() {
        let g = parse_graph(
            "graph(%x : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %o : Tensor = prim::Loop(%n, %t, %x)
                 block0(%i : int, %c : Tensor):
                   %u : Tensor = aten::relu(%c)
                   -> (%t, %u)
               return (%o)",
        )
        .unwrap();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph ir {"));
        assert!(dot.contains("prim::Loop"), "{dot}");
        assert!(dot.contains("subgraph cluster_"), "{dot}");
        assert!(dot.contains("aten::relu"), "{dot}");
        assert!(dot.contains("->"), "{dot}");
        assert!(dot.trim_end().ends_with('}'), "{dot}");
    }

    #[test]
    fn graph_inputs_become_ellipse_nodes() {
        let g = parse_graph(
            "graph(%x : Tensor):
               %y : Tensor = aten::relu(%x)
               return (%y)",
        )
        .unwrap();
        let dot = to_dot(&g);
        assert!(dot.contains("shape=ellipse"), "{dot}");
        assert!(dot.contains("param0 -> "), "{dot}");
    }
}
