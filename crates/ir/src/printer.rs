//! TorchScript-flavoured textual form of a graph.
//!
//! The format round-trips through [`crate::parse_graph`]:
//!
//! ```text
//! graph(%x : Tensor, %n : int):
//!   %2 : int = prim::Constant[value=1]()
//!   %4 : Tensor = prim::Loop(%n, %3, %x)
//!     block0(%i : int, %b : Tensor):
//!       %5 : Tensor = aten::relu(%b)
//!       -> (%3, %5)
//!   return (%4)
//! ```

use std::fmt;

use crate::graph::{BlockId, Graph};
use crate::ops::{Op, ViewKind};
use crate::types::ConstValue;

fn int_list(v: &[i64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn view_attrs(kind: &ViewKind) -> String {
    match kind {
        ViewKind::Select { dim } => format!("dim={dim}"),
        ViewKind::SliceView { dim } => format!("dim={dim}"),
        ViewKind::Permute { perm } => format!("perm={}", int_list(perm)),
        ViewKind::Transpose { dim0, dim1 } => format!("dim0={dim0}, dim1={dim1}"),
        ViewKind::Unsqueeze { dim } => format!("dim={dim}"),
        ViewKind::Squeeze { dim } => format!("dim={dim}"),
        ViewKind::Expand { shape } => format!("shape={}", int_list(shape)),
        ViewKind::ViewShape { shape } => format!("shape={}", int_list(shape)),
    }
}

/// The `[k=v, …]` attribute string for an op, if it has attributes.
pub(crate) fn attr_string(op: &Op) -> Option<String> {
    match op {
        Op::Constant(c) => Some(match c {
            ConstValue::Int(v) => format!("value={v}"),
            ConstValue::Float(v) => format!("value={v:?}"),
            ConstValue::Bool(v) => format!("value={v}"),
            ConstValue::IntList(v) => format!("value={}", int_list(v)),
        }),
        Op::Size { dim } => Some(format!("dim={dim}")),
        Op::Zeros { shape } | Op::Ones { shape } | Op::Full { shape } | Op::Reshape { shape } => {
            Some(format!("shape={}", int_list(shape)))
        }
        Op::View(k) | Op::Access(k) | Op::Assign(k) => Some(view_attrs(k)),
        Op::Softmax { dim } | Op::Cumsum { dim } => Some(format!("dim={dim}")),
        Op::SumDim { dim, keepdim }
        | Op::MeanDim { dim, keepdim }
        | Op::MaxDim { dim, keepdim }
        | Op::MinDim { dim, keepdim }
        | Op::ArgmaxDim { dim, keepdim } => Some(format!("dim={dim}, keepdim={keepdim}")),
        Op::Concat { dim } | Op::Stack { dim } | Op::Gather { dim } | Op::IndexSelect { dim } => {
            Some(format!("dim={dim}"))
        }
        Op::Cast { dtype } => Some(format!("dtype={dtype}")),
        Op::ParallelMap { dim } => Some(format!("dim={dim}")),
        _ => None,
    }
}

impl Graph {
    fn fmt_block(&self, f: &mut fmt::Formatter<'_>, block: BlockId, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        for &n in &self.block(block).nodes {
            let node = self.node(n);
            write!(f, "{pad}")?;
            if !node.outputs.is_empty() {
                let outs: Vec<String> = node
                    .outputs
                    .iter()
                    .map(|&v| format!("{} : {}", self.value_name(v), self.value(v).ty))
                    .collect();
                write!(f, "{} = ", outs.join(", "))?;
            }
            write!(f, "{}", node.op.name())?;
            if let Some(attrs) = attr_string(&node.op) {
                write!(f, "[{attrs}]")?;
            }
            let ins: Vec<String> = node.inputs.iter().map(|&v| self.value_name(v)).collect();
            writeln!(f, "({})", ins.join(", "))?;
            for (bi, &b) in node.blocks.iter().enumerate() {
                let params: Vec<String> = self
                    .block(b)
                    .params
                    .iter()
                    .map(|&v| format!("{} : {}", self.value_name(v), self.value(v).ty))
                    .collect();
                writeln!(f, "{pad}  block{bi}({}):", params.join(", "))?;
                self.fmt_block(f, b, indent + 2)?;
                let rets: Vec<String> = self
                    .block(b)
                    .returns
                    .iter()
                    .map(|&v| self.value_name(v))
                    .collect();
                writeln!(f, "{pad}    -> ({})", rets.join(", "))?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let top = self.top();
        let params: Vec<String> = self
            .block(top)
            .params
            .iter()
            .map(|&v| format!("{} : {}", self.value_name(v), self.value(v).ty))
            .collect();
        writeln!(f, "graph({}):", params.join(", "))?;
        self.fmt_block(f, top, 1)?;
        let rets: Vec<String> = self
            .block(top)
            .returns
            .iter()
            .map(|&v| self.value_name(v))
            .collect();
        writeln!(f, "  return ({})", rets.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::Graph;
    use crate::ops::{MutateKind, Op, UnaryKind, ViewKind};
    use crate::types::Type;

    #[test]
    fn prints_straight_line() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let n = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        let y = g.out(n);
        g.set_returns(g.top(), &[y]);
        let s = g.to_string();
        assert!(s.contains("graph(%x : Tensor):"), "{s}");
        assert!(s.contains("aten::relu(%x)"), "{s}");
        assert!(s.contains("return ("), "{s}");
    }

    #[test]
    fn prints_attrs_and_blocks() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let i = g.constant_int(2);
        let sel = g.append(
            g.top(),
            Op::View(ViewKind::Select { dim: 0 }),
            &[x, i],
            &[Type::Tensor],
        );
        let v = g.out(sel);
        g.append(g.top(), Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
        let c = g.constant_bool(true);
        let iff = g.append(g.top(), Op::If, &[c], &[]);
        let tb = g.add_node_block(iff);
        let eb = g.add_node_block(iff);
        g.set_returns(tb, &[]);
        g.set_returns(eb, &[]);
        let s = g.to_string();
        assert!(s.contains("aten::select[dim=0]"), "{s}");
        assert!(s.contains("prim::Constant[value=true]"), "{s}");
        assert!(s.contains("block0():"), "{s}");
        assert!(s.contains("block1():"), "{s}");
        assert!(s.contains("aten::relu_"), "{s}");
    }
}
