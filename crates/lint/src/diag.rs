//! Structured diagnostics shared by the effect checker and the lint rules.

use std::fmt;

use tssa_ir::{Graph, NodeId, SrcSpan, ValueId};

/// How seriously a diagnostic is taken. Each rule's severity is fixed in
/// the rule table; `Deny` makes the `tssa-lint` CLI (and CI) fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Reported, does not fail the build.
    Warn,
    /// Reported and fails the `tssa-lint` CLI / CI gate.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// One finding: a rule name, a severity, a location and a message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Name of the rule (or effect judgment) that fired.
    pub rule: &'static str,
    /// Severity of the rule (or judgment) that fired.
    pub severity: Severity,
    /// Offending node, when attributable.
    pub node: Option<NodeId>,
    /// Offending value, when attributable.
    pub value: Option<ValueId>,
    /// Source span of the offending node (frontend-lowered graphs only).
    pub span: Option<SrcSpan>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic attached to `node`, inheriting its source span and op
    /// name from `g`.
    pub(crate) fn at_node(
        rule: &'static str,
        severity: Severity,
        g: &Graph,
        node: NodeId,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            severity,
            node: Some(node),
            value: None,
            span: g.node_span(node),
            message: format!(
                "node {} ({}): {}",
                node.index(),
                g.node(node).op.name(),
                message.into()
            ),
        }
    }

    /// A diagnostic attached to a value (e.g. an escaping block return).
    pub(crate) fn at_value(
        rule: &'static str,
        severity: Severity,
        g: &Graph,
        value: ValueId,
        message: impl Into<String>,
    ) -> Diagnostic {
        let (node, span) = match g.def_node(value) {
            Some(n) => (Some(n), g.node_span(n)),
            None => (None, None),
        };
        Diagnostic {
            rule,
            severity,
            node,
            value: Some(value),
            span,
            message: format!("value {}: {}", g.value_name(value), message.into()),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.rule)?;
        if let Some(span) = self.span {
            write!(f, " {span}")?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_ir::{Type, UnaryKind};

    #[test]
    fn renders_rule_span_and_message() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        g.set_current_span(Some(SrcSpan::line(7)));
        let n = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        g.set_current_span(None);
        let d = Diagnostic::at_node("a-rule", Severity::Warn, &g, n, "result never used");
        assert_eq!(
            d.to_string(),
            "warn[a-rule] line 7: node 0 (aten::relu): result never used"
        );
        assert!(Severity::Warn < Severity::Deny);
    }
}
