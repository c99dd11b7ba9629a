//! Chrome-trace (`chrome://tracing` / Perfetto "JSON Array Format")
//! exporter.
//!
//! Spans become complete (`"ph": "X"`) events. Chrome nests events on the
//! same `tid` by time containment, so each span tree is laid out on its own
//! track: `tid` is the id of the span's root ancestor, and `pid` is a single
//! shared process. Counters and the explicit parent link ride in `args`, so
//! nothing from the [`SpanRecord`] is lost in export.

use std::collections::HashMap;

use crate::json::escape;
use crate::span::SpanRecord;

/// Root ancestor of each span, for track assignment. Spans whose parent is
/// missing from `records` (ring overflow) are treated as roots.
fn root_of(records: &[SpanRecord]) -> HashMap<u64, u64> {
    let parents: HashMap<u64, Option<u64>> = records.iter().map(|r| (r.id, r.parent)).collect();
    let mut roots = HashMap::with_capacity(records.len());
    for r in records {
        let mut cur = r.id;
        let mut hops = 0;
        while let Some(&Some(p)) = parents.get(&cur) {
            if !parents.contains_key(&p) || hops > records.len() {
                break;
            }
            cur = p;
            hops += 1;
        }
        roots.insert(r.id, cur);
    }
    roots
}

/// Render `records` as a Chrome-trace JSON document (the object form:
/// `{"traceEvents": [...]}`), loadable in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let roots = root_of(records);
    let mut events: Vec<&SpanRecord> = records.iter().collect();
    events.sort_by_key(|r| (r.start_ns, r.id));
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let tid = roots.get(&r.id).copied().unwrap_or(r.id);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{",
            escape(&r.name),
            escape(r.category),
            tid,
            r.start_ns as f64 / 1_000.0,
            r.dur_ns as f64 / 1_000.0,
        ));
        out.push_str(&format!("\"span_id\":{}", r.id));
        if let Some(p) = r.parent {
            out.push_str(&format!(",\"parent_id\":{p}"));
        }
        for (name, value) in &r.counters {
            out.push_str(&format!(",\"{}\":{}", escape(name), value));
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Render `records` as an indented text tree (one line per span with timing
/// and counters) — the "screenshot-free walkthrough" companion to the JSON
/// export, for terminals and docs.
pub fn text_tree(records: &[SpanRecord]) -> String {
    let mut children: HashMap<Option<u64>, Vec<&SpanRecord>> = HashMap::new();
    let present: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
    for r in records {
        // Orphans (parent evicted from the ring) are promoted to roots.
        let key = r.parent.filter(|p| present.contains(p));
        children.entry(key).or_default().push(r);
    }
    for v in children.values_mut() {
        v.sort_by_key(|r| (r.start_ns, r.id));
    }
    let mut out = String::new();
    fn visit(
        out: &mut String,
        children: &HashMap<Option<u64>, Vec<&SpanRecord>>,
        node: &SpanRecord,
        depth: usize,
    ) {
        let indent = "  ".repeat(depth);
        let counters = if node.counters.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = node
                .counters
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            format!("  [{}]", parts.join(" "))
        };
        out.push_str(&format!(
            "{indent}{} ({})  {:.1}us{counters}\n",
            node.name,
            node.category,
            node.dur_ns as f64 / 1_000.0
        ));
        if let Some(kids) = children.get(&Some(node.id)) {
            for k in kids {
                visit(out, children, k, depth + 1);
            }
        }
    }
    if let Some(tops) = children.get(&None) {
        for r in tops {
            visit(&mut out, &children, r, 0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    fn rec(id: u64, parent: Option<u64>, name: &str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            root: parent.unwrap_or(id),
            name: name.to_string(),
            category: "test",
            start_ns,
            dur_ns,
            counters: vec![("n".to_string(), 3)],
        }
    }

    #[test]
    fn chrome_export_parses_and_nests_by_track() {
        let records = vec![
            rec(1, None, "compile", 0, 100),
            rec(2, Some(1), "pass:dce", 10, 20),
            rec(3, None, "exec \"q\"", 200, 50),
        ];
        let json = chrome_trace_json(&records);
        let doc = parse(&json).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(events.len(), 3);
        // Child rides the parent's track.
        let child = &events[1];
        assert_eq!(child.get("tid").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(
            child
                .get("args")
                .and_then(|a| a.get("parent_id"))
                .and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("n"))
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
        // Quote in the name must round-trip.
        assert_eq!(
            events[2].get("name").and_then(JsonValue::as_str),
            Some("exec \"q\"")
        );
    }

    #[test]
    fn text_tree_indents_children() {
        let records = vec![
            rec(1, None, "request", 0, 100),
            rec(2, Some(1), "exec", 10, 20),
            rec(3, Some(2), "batch[0]", 11, 15),
        ];
        let tree = text_tree(&records);
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("request"));
        assert!(lines[1].starts_with("  exec"));
        assert!(lines[2].starts_with("    batch[0]"));
    }

    #[test]
    fn orphaned_spans_become_roots() {
        let records = vec![rec(5, Some(99), "late", 0, 10)];
        assert!(text_tree(&records).starts_with("late"));
        assert!(parse(&chrome_trace_json(&records)).is_ok());
    }
}
