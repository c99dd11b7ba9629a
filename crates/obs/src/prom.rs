//! Prometheus text-exposition encoder (version 0.0.4 of the format): the
//! small, dependency-free subset needed to publish family headers and sample
//! lines (with labels and exemplars).

use std::fmt::Write as _;

/// Builds one exposition document. Metric families are emitted in call
/// order, each with its `# HELP` / `# TYPE` header.
#[derive(Debug, Default)]
pub(crate) struct PromText {
    out: String,
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escape a label *value* per the text exposition format: backslash,
/// double quote and newline must be escaped; everything else is literal.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render `labels` as a `{k="v",...}` fragment (empty string when there
/// are no labels). Label names are sanitized, values escaped.
fn labels_fragment(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize(k), escape_label_value(v)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

impl PromText {
    /// An empty document.
    pub(crate) fn new() -> PromText {
        PromText::default()
    }

    /// Emit a family header (`# HELP` / `# TYPE`) alone, for callers that
    /// emit their own (typically labeled) sample lines via
    /// [`PromText::sample`]. Returns the sanitized family name.
    pub(crate) fn family(&mut self, name: &str, help: &str, kind: &str) -> String {
        let name = sanitize(name);
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
        name
    }

    /// One sample line: `name{labels} value`. `name` may carry a suffix
    /// (`_bucket`, `_sum`, `_count`); it is sanitized either way.
    pub(crate) fn sample(
        &mut self,
        name: &str,
        labels: &[(String, String)],
        value: impl std::fmt::Display,
    ) {
        let _ = writeln!(
            self.out,
            "{}{} {}",
            sanitize(name),
            labels_fragment(labels),
            value
        );
    }

    /// One sample line carrying an OpenMetrics-style exemplar suffix:
    /// `name{labels} value # {trace_id="<hex>"} exemplar_value`. Classic
    /// Prometheus text parsers must treat everything after `#` as ignorable;
    /// the in-repo scrapers strip the suffix explicitly.
    pub(crate) fn sample_with_exemplar(
        &mut self,
        name: &str,
        labels: &[(String, String)],
        value: impl std::fmt::Display,
        trace_id: u64,
        exemplar_value: u64,
    ) {
        let _ = writeln!(
            self.out,
            "{}{} {} # {{trace_id=\"{:016x}\"}} {}",
            sanitize(name),
            labels_fragment(labels),
            value,
            trace_id,
            exemplar_value
        );
    }

    /// The finished document.
    pub(crate) fn render(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_labeled_sample_format() {
        let mut p = PromText::new();
        let reqs = p.family("reqs_total", "Total requests.", "counter");
        p.sample(&reqs, &[], 7);
        let name = p.family("occupancy", "Mean batch occupancy.", "gauge");
        p.sample(&name, &[("plan".to_string(), "a\"b".to_string())], 2.5);
        let text = p.render();
        assert!(text.contains("# TYPE reqs_total counter"));
        assert!(text.contains("reqs_total 7"));
        assert!(text.contains("# TYPE occupancy gauge"));
        assert!(text.contains("occupancy{plan=\"a\\\"b\"} 2.5"));
    }

    #[test]
    fn names_are_sanitized() {
        let mut p = PromText::new();
        let name = p.family("bad-name.x", "h", "counter");
        p.sample(&name, &[], 1);
        assert!(p.render().contains("bad_name_x 1"));
    }
}
