//! Parser for the textual graph form produced by the printer.
//!
//! `parse_graph(&g.to_string())` reconstructs a structurally-identical graph;
//! this powers round-trip tests and lets workloads or test fixtures be
//! written as IR text.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::graph::{BlockId, Graph, ValueId};
use crate::ops::{BinaryKind, MutateKind, Op, ScalarKind, UnaryKind, ViewKind};
use crate::types::{ConstValue, ScalarType, Type};

/// Error produced by [`parse_graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParseIrError {
    /// What went wrong, with token context.
    pub message: String,
}

impl fmt::Display for ParseIrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir parse error: {}", self.message)
    }
}

impl Error for ParseIrError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseIrError> {
    Err(ParseIrError {
        message: message.into(),
    })
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Value(String), // %name
    Num(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Eq,
    Arrow,
}

fn lex(src: &str) -> Result<Vec<Tok>, ParseIrError> {
    let mut toks = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            '-' => {
                if i + 1 < chars.len() && chars[i + 1] == '>' {
                    toks.push(Tok::Arrow);
                    i += 2;
                } else {
                    // negative number
                    let mut s = String::from('-');
                    i += 1;
                    while i < chars.len()
                        && (chars[i].is_ascii_digit() || chars[i] == '.' || chars[i] == 'e')
                    {
                        s.push(chars[i]);
                        i += 1;
                    }
                    toks.push(Tok::Num(s));
                }
            }
            ':' => {
                // "::" is glued into identifiers by the ident rule; a bare
                // ':' here is a type/block separator.
                toks.push(Tok::Colon);
                i += 1;
            }
            '%' => {
                let mut s = String::new();
                i += 1;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    s.push(chars[i]);
                    i += 1;
                }
                toks.push(Tok::Value(s));
            }
            _ if c.is_ascii_digit() => {
                let mut s = String::new();
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || (chars[i] == '-' && s.ends_with('e')))
                {
                    s.push(chars[i]);
                    i += 1;
                }
                toks.push(Tok::Num(s));
            }
            _ if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    s.push(chars[i]);
                    i += 1;
                }
                // Glue "::" namespaces into one identifier.
                while i + 1 < chars.len() && chars[i] == ':' && chars[i + 1] == ':' {
                    s.push_str("::");
                    i += 2;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        s.push(chars[i]);
                        i += 1;
                    }
                }
                toks.push(Tok::Ident(s));
            }
            _ => return err(format!("unexpected character {c:?}")),
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    graph: Graph,
    env: HashMap<String, ValueId>,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, ParseIrError> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ParseIrError {
                message: "unexpected end of input".into(),
            })?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseIrError> {
        let t = self.next()?;
        if t != tok {
            return err(format!("expected {tok:?}, got {t:?}"));
        }
        Ok(())
    }

    fn expect_ident(&mut self, name: &str) -> Result<(), ParseIrError> {
        match self.next()? {
            Tok::Ident(s) if s == name => Ok(()),
            other => err(format!("expected `{name}`, got {other:?}")),
        }
    }

    fn parse_type(&mut self) -> Result<Type, ParseIrError> {
        let base = match self.next()? {
            Tok::Ident(s) => match s.as_str() {
                "Tensor" => Type::Tensor,
                "int" => Type::Int,
                "float" => Type::Float,
                "bool" => Type::Bool,
                other => return err(format!("unknown type `{other}`")),
            },
            other => return err(format!("expected type, got {other:?}")),
        };
        let mut ty = base;
        while self.peek() == Some(&Tok::LBracket) {
            self.pos += 1;
            self.expect(Tok::RBracket)?;
            ty = Type::List(Box::new(ty));
        }
        Ok(ty)
    }

    /// Parse `(%a : T, %b : T)`-style parameter lists; returns (name, type).
    fn parse_param_list(&mut self) -> Result<Vec<(String, Type)>, ParseIrError> {
        self.expect(Tok::LParen)?;
        let mut out = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            let name = match self.next()? {
                Tok::Value(s) => s,
                other => return err(format!("expected value, got {other:?}")),
            };
            self.expect(Tok::Colon)?;
            let ty = self.parse_type()?;
            out.push((name, ty));
            match self.next()? {
                Tok::Comma => continue,
                Tok::RParen => break,
                other => return err(format!("expected , or ), got {other:?}")),
            }
        }
        Ok(out)
    }

    fn lookup(&self, name: &str) -> Result<ValueId, ParseIrError> {
        self.env.get(name).copied().ok_or_else(|| ParseIrError {
            message: format!("undefined value %{name}"),
        })
    }

    fn parse_value_list(&mut self) -> Result<Vec<ValueId>, ParseIrError> {
        self.expect(Tok::LParen)?;
        let mut out = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            match self.next()? {
                Tok::Value(s) => out.push(self.lookup(&s)?),
                other => return err(format!("expected value, got {other:?}")),
            }
            match self.next()? {
                Tok::Comma => continue,
                Tok::RParen => break,
                other => return err(format!("expected , or ), got {other:?}")),
            }
        }
        Ok(out)
    }

    fn parse_attrs(&mut self) -> Result<HashMap<String, AttrVal>, ParseIrError> {
        let mut attrs = HashMap::new();
        if self.peek() != Some(&Tok::LBracket) {
            return Ok(attrs);
        }
        self.pos += 1;
        loop {
            let key = match self.next()? {
                Tok::Ident(s) => s,
                other => return err(format!("expected attr key, got {other:?}")),
            };
            self.expect(Tok::Eq)?;
            let val = match self.next()? {
                Tok::Num(s) => {
                    if s.contains('.') || s.contains('e') {
                        AttrVal::Float(s.parse().map_err(|_| ParseIrError {
                            message: format!("bad float {s}"),
                        })?)
                    } else {
                        AttrVal::Int(s.parse().map_err(|_| ParseIrError {
                            message: format!("bad int {s}"),
                        })?)
                    }
                }
                Tok::Ident(s) if s == "true" => AttrVal::Bool(true),
                Tok::Ident(s) if s == "false" => AttrVal::Bool(false),
                Tok::Ident(s) => AttrVal::Word(s),
                Tok::LBracket => {
                    let mut items = Vec::new();
                    if self.peek() == Some(&Tok::RBracket) {
                        self.pos += 1;
                        AttrVal::IntList(items)
                    } else {
                        loop {
                            match self.next()? {
                                Tok::Num(s) => items.push(s.parse().map_err(|_| ParseIrError {
                                    message: format!("bad int {s}"),
                                })?),
                                other => return err(format!("expected int, got {other:?}")),
                            }
                            match self.next()? {
                                Tok::Comma => continue,
                                Tok::RBracket => break,
                                other => return err(format!("expected , or ], got {other:?}")),
                            }
                        }
                        AttrVal::IntList(items)
                    }
                }
                other => return err(format!("bad attr value {other:?}")),
            };
            attrs.insert(key, val);
            match self.next()? {
                Tok::Comma => continue,
                Tok::RBracket => break,
                other => return err(format!("expected , or ], got {other:?}")),
            }
        }
        Ok(attrs)
    }

    fn parse_block_body(&mut self, block: BlockId) -> Result<(), ParseIrError> {
        loop {
            match self.peek() {
                Some(Tok::Arrow) => {
                    self.pos += 1;
                    let rets = self.parse_value_list()?;
                    self.graph.set_returns(block, &rets);
                    return Ok(());
                }
                Some(Tok::Ident(s)) if s == "return" => {
                    self.pos += 1;
                    let rets = self.parse_value_list()?;
                    self.graph.set_returns(block, &rets);
                    return Ok(());
                }
                None => return err("unterminated block"),
                _ => self.parse_stmt(block)?,
            }
        }
    }

    fn parse_stmt(&mut self, block: BlockId) -> Result<(), ParseIrError> {
        // Optional output list: %a : T, %b : T =
        let mut outs: Vec<(String, Type)> = Vec::new();
        if matches!(self.peek(), Some(Tok::Value(_))) {
            loop {
                let name = match self.next()? {
                    Tok::Value(s) => s,
                    other => return err(format!("expected value, got {other:?}")),
                };
                self.expect(Tok::Colon)?;
                let ty = self.parse_type()?;
                outs.push((name, ty));
                match self.next()? {
                    Tok::Comma => continue,
                    Tok::Eq => break,
                    other => return err(format!("expected , or =, got {other:?}")),
                }
            }
        }
        let op_name = match self.next()? {
            Tok::Ident(s) => s,
            other => return err(format!("expected op name, got {other:?}")),
        };
        let attrs = self.parse_attrs()?;
        let inputs = self.parse_value_list()?;
        let out_types: Vec<Type> = outs.iter().map(|(_, t)| t.clone()).collect();
        let op = op_from_name(&op_name, &attrs, &out_types)?;
        let node = self.graph.append(block, op, &inputs, &out_types);
        for (i, (name, _)) in outs.iter().enumerate() {
            let v = self.graph.node(node).outputs[i];
            self.graph.set_value_name(v, name);
            self.env.insert(name.clone(), v);
        }
        // Nested blocks.
        while matches!(self.peek(), Some(Tok::Ident(s)) if s.starts_with("block")) {
            self.pos += 1;
            let params = self.parse_param_list()?;
            self.expect(Tok::Colon)?;
            let b = self.graph.add_node_block(node);
            for (name, ty) in params {
                let v = self.graph.add_block_param(b, ty);
                self.graph.set_value_name(v, &name);
                self.env.insert(name, v);
            }
            self.parse_block_body(b)?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
enum AttrVal {
    Int(i64),
    Float(f64),
    Bool(bool),
    IntList(Vec<i64>),
    Word(String),
}

fn attr_int(attrs: &HashMap<String, AttrVal>, key: &str) -> Result<i64, ParseIrError> {
    match attrs.get(key) {
        Some(AttrVal::Int(v)) => Ok(*v),
        _ => err(format!("missing int attr `{key}`")),
    }
}

fn attr_bool(attrs: &HashMap<String, AttrVal>, key: &str) -> Result<bool, ParseIrError> {
    match attrs.get(key) {
        Some(AttrVal::Bool(v)) => Ok(*v),
        _ => err(format!("missing bool attr `{key}`")),
    }
}

fn attr_list(attrs: &HashMap<String, AttrVal>, key: &str) -> Result<Vec<i64>, ParseIrError> {
    match attrs.get(key) {
        Some(AttrVal::IntList(v)) => Ok(v.clone()),
        _ => err(format!("missing int-list attr `{key}`")),
    }
}

fn view_kind_from(base: &str, attrs: &HashMap<String, AttrVal>) -> Result<ViewKind, ParseIrError> {
    Ok(match base {
        "select" => ViewKind::Select {
            dim: attr_int(attrs, "dim")?,
        },
        "slice" => ViewKind::SliceView {
            dim: attr_int(attrs, "dim")?,
        },
        "permute" => ViewKind::Permute {
            perm: attr_list(attrs, "perm")?,
        },
        "transpose" => ViewKind::Transpose {
            dim0: attr_int(attrs, "dim0")?,
            dim1: attr_int(attrs, "dim1")?,
        },
        "unsqueeze" => ViewKind::Unsqueeze {
            dim: attr_int(attrs, "dim")?,
        },
        "squeeze" => ViewKind::Squeeze {
            dim: attr_int(attrs, "dim")?,
        },
        "expand" => ViewKind::Expand {
            shape: attr_list(attrs, "shape")?,
        },
        "view" => ViewKind::ViewShape {
            shape: attr_list(attrs, "shape")?,
        },
        other => return err(format!("unknown op `{other}`")),
    })
}

fn op_from_name(
    name: &str,
    attrs: &HashMap<String, AttrVal>,
    out_types: &[Type],
) -> Result<Op, ParseIrError> {
    let (ns, base) = name.split_once("::").unwrap_or(("aten", name));
    match ns {
        "prim" => {
            return Ok(match base {
                "Constant" => {
                    let cv = match attrs.get("value") {
                        Some(AttrVal::Int(v)) => {
                            if out_types.first() == Some(&Type::Float) {
                                ConstValue::Float(*v as f64)
                            } else {
                                ConstValue::Int(*v)
                            }
                        }
                        Some(AttrVal::Float(v)) => ConstValue::Float(*v),
                        Some(AttrVal::Bool(v)) => ConstValue::Bool(*v),
                        Some(AttrVal::IntList(v)) => ConstValue::IntList(v.clone()),
                        _ => return err("constant missing value"),
                    };
                    Op::Constant(cv)
                }
                "ListConstruct" => Op::ListConstruct,
                "ListUnpack" => Op::ListUnpack,
                "If" => Op::If,
                "Loop" => Op::Loop,
                "FusionGroup" => Op::FusionGroup,
                "ParallelMap" => Op::ParallelMap {
                    dim: attr_int(attrs, "dim")?,
                },
                other => return err(format!("unknown prim op `{other}`")),
            });
        }
        "immut" => {
            return Ok(if let Some(rest) = base.strip_prefix("assign_") {
                Op::Assign(view_kind_from(rest, attrs)?)
            } else {
                Op::Access(view_kind_from(base, attrs)?)
            });
        }
        "tssa" => {
            if base == "update" {
                return Ok(Op::Update);
            }
            return err(format!("unknown tssa op `{base}`"));
        }
        "aten" => {}
        other => return err(format!("unknown namespace `{other}`")),
    }
    Ok(match base {
        "size" => Op::Size {
            dim: attr_int(attrs, "dim")?,
        },
        "item_float" => Op::ItemFloat,
        "item_int" => Op::ItemInt,
        "item_bool" => Op::ItemBool,
        "zeros" => Op::Zeros {
            shape: attr_list(attrs, "shape")?,
        },
        "ones" => Op::Ones {
            shape: attr_list(attrs, "shape")?,
        },
        "full" => Op::Full {
            shape: attr_list(attrs, "shape")?,
        },
        "arange" => Op::Arange,
        "zeros_like" => Op::ZerosLike,
        "ones_like" => Op::OnesLike,
        "full_like" => Op::FullLike,
        "broadcast_like" => Op::BroadcastLike,
        "softmax" => Op::Softmax {
            dim: attr_int(attrs, "dim")?,
        },
        "sum" => Op::SumDim {
            dim: attr_int(attrs, "dim")?,
            keepdim: attr_bool(attrs, "keepdim")?,
        },
        "mean" => Op::MeanDim {
            dim: attr_int(attrs, "dim")?,
            keepdim: attr_bool(attrs, "keepdim")?,
        },
        "max" => Op::MaxDim {
            dim: attr_int(attrs, "dim")?,
            keepdim: attr_bool(attrs, "keepdim")?,
        },
        "min" => Op::MinDim {
            dim: attr_int(attrs, "dim")?,
            keepdim: attr_bool(attrs, "keepdim")?,
        },
        "argmax" => Op::ArgmaxDim {
            dim: attr_int(attrs, "dim")?,
            keepdim: attr_bool(attrs, "keepdim")?,
        },
        "cumsum" => Op::Cumsum {
            dim: attr_int(attrs, "dim")?,
        },
        "matmul" => Op::Matmul,
        "bmm" => Op::Bmm,
        "cat" => Op::Concat {
            dim: attr_int(attrs, "dim")?,
        },
        "stack" => Op::Stack {
            dim: attr_int(attrs, "dim")?,
        },
        "where" => Op::WhereSelect,
        "gather" => Op::Gather {
            dim: attr_int(attrs, "dim")?,
        },
        "index_select" => Op::IndexSelect {
            dim: attr_int(attrs, "dim")?,
        },
        "to" => Op::Cast {
            dtype: match attrs.get("dtype") {
                Some(AttrVal::Word(w)) if w == "f32" => ScalarType::F32,
                Some(AttrVal::Word(w)) if w == "i64" => ScalarType::I64,
                Some(AttrVal::Word(w)) if w == "bool" => ScalarType::Bool,
                _ => return err("bad dtype attr"),
            },
        },
        "clone" => Op::CloneOp,
        "contiguous" => Op::Contiguous,
        "reshape" => Op::Reshape {
            shape: attr_list(attrs, "shape")?,
        },
        other => {
            let op = (MutateKind::from_name(other).map(Op::Mutate))
                .or_else(|| UnaryKind::from_name(other).map(Op::Unary))
                .or_else(|| BinaryKind::from_name(other).map(Op::Binary))
                .or_else(|| ScalarKind::from_name(other).map(Op::Scalar));
            match op {
                Some(op) => op,
                None => Op::View(view_kind_from(other, attrs)?),
            }
        }
    })
}

/// Parse the textual graph format produced by [`Graph`]'s `Display` impl.
///
/// # Errors
///
/// Returns a [`ParseIrError`] describing the first syntactic problem.
pub fn parse_graph(src: &str) -> Result<Graph, ParseIrError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        graph: Graph::new(),
        env: HashMap::new(),
    };
    p.expect_ident("graph")?;
    let params = p.parse_param_list()?;
    p.expect(Tok::Colon)?;
    for (name, ty) in params {
        let v = p.graph.add_input(&name, ty);
        p.env.insert(name, v);
    }
    let top = p.graph.top();
    p.parse_block_body(top)?;
    Ok(p.graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    #[test]
    fn parses_minimal_graph() {
        let g = parse_graph("graph(%x : Tensor):\n  %1 : Tensor = aten::relu(%x)\n  return (%1)\n")
            .unwrap();
        assert!(g.verify().is_ok());
        assert_eq!(g.block(g.top()).nodes.len(), 1);
        assert_eq!(g.block(g.top()).returns.len(), 1);
    }

    #[test]
    fn round_trips_loop_graph() {
        let src = "graph(%n : int, %x : Tensor):
  %t : bool = prim::Constant[value=true]()
  %out : Tensor = prim::Loop(%n, %t, %x)
    block0(%i : int, %c : Tensor):
      %u : Tensor = aten::relu(%c)
      -> (%t, %u)
  return (%out)
";
        let g = parse_graph(src).unwrap();
        assert!(g.verify().is_ok(), "{:?}", g.verify());
        let printed = g.to_string();
        let g2 = parse_graph(&printed).unwrap();
        assert!(g2.verify().is_ok());
        assert_eq!(printed, g2.to_string());
    }

    #[test]
    fn parses_views_mutations_and_attrs() {
        let src = "graph(%x : Tensor):
  %i : int = prim::Constant[value=0]()
  %v : Tensor = aten::select[dim=1](%x, %i)
  %f : float = prim::Constant[value=2.5]()
  %m : Tensor = aten::mul_scalar_(%v, %f)
  %a : Tensor = immut::select[dim=1](%x, %i)
  %s : Tensor = immut::assign_select[dim=1](%x, %a, %i)
  return (%s)
";
        let g = parse_graph(src).unwrap();
        assert!(g.verify().is_ok(), "{:?}", g.verify());
        let round = parse_graph(&g.to_string()).unwrap().to_string();
        assert_eq!(g.to_string(), round);
    }

    #[test]
    fn rejects_undefined_values() {
        let r = parse_graph("graph(%x : Tensor):\n  %1 : Tensor = aten::relu(%y)\n  return (%1)\n");
        assert!(r.is_err());
    }

    #[test]
    fn rejects_unknown_ops() {
        let r = parse_graph(
            "graph(%x : Tensor):\n  %1 : Tensor = aten::frobnicate(%x)\n  return (%1)\n",
        );
        assert!(r.is_err());
    }

    #[test]
    fn constant_float_coerced_by_output_type() {
        let g = parse_graph("graph():\n  %1 : float = prim::Constant[value=2]()\n  return (%1)\n")
            .unwrap();
        assert_eq!(g.value(g.block(g.top()).returns[0]).ty, Type::Float);
    }
}
