//! Per-layer metrics every workload reports: the cost of the tracing itself,
//! the client's own view of the run, and the size of the code under test.

use std::path::Path;

use tssa_obs::Tracer;

use crate::metrics::{Report, CRATES};
use crate::stats::{geomean, percentile, tail_percentile};
use crate::workloads::{timed_us, Samples};

/// Nanoseconds to open, annotate and record one span into a ring.
pub fn span_record_ns() -> f64 {
    const SPANS: usize = 20_000;
    let (tracer, sink) = Tracer::ring(SPANS);
    let (_, us) = timed_us(|| {
        for _ in 0..SPANS {
            let mut span = tracer.root("probe", "harness");
            span.counter("n", 1);
            span.finish();
        }
    });
    assert_eq!(sink.len(), SPANS);
    us * 1e3 / SPANS as f64
}

/// The client's view: the latency tail at the highest percentile every cell
/// has enough samples for, as a geomean over cells. Informational — tails do
/// not repeat within a tenth on a shared host, so no bound rests on them.
pub fn client(samples: &Samples, report: &mut Report) {
    let fewest = samples.lat_us.iter().map(Vec::len).min().unwrap_or(0);
    let p = tail_percentile(fewest).unwrap_or(50.0);
    let tails: Vec<f64> = samples
        .lat_us
        .iter()
        .map(|cell| {
            let mut sorted = cell.clone();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, p)
        })
        .collect();
    report.set("client.latency_tail_us", geomean(&tails));
    report.set("client.tail_percentile", p);
    report.set("client.samples", samples.completed() as f64);
    report.set("client.verify_checked", samples.tally.checked as f64);
}

fn is_pub_item(line: &str) -> bool {
    const KINDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "const", "type", "mod", "static",
    ];
    line.strip_prefix("pub ")
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .is_some_and(|word| KINDS.contains(&word))
}

/// `(non-blank lines, pub items)` of the Rust sources under `dir`.
fn count_dir(dir: &Path) -> (usize, usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let (mut loc, mut items) = (0, 0);
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (l, i) = count_dir(&path);
            loc += l;
            items += i;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
                loc += 1;
                items += usize::from(is_pub_item(line));
            }
        }
    }
    (loc, items)
}

/// Lines and public items per crate, counted from `<root>/crates/*/src`.
pub fn size(root: &Path, report: &mut Report) {
    let (mut loc_total, mut items_total) = (0, 0);
    for name in CRATES {
        let (loc, items) = count_dir(&root.join("crates").join(name).join("src"));
        report.set(format!("size.loc.{name}"), loc as f64);
        loc_total += loc;
        items_total += items;
    }
    report.set("size.loc_total", loc_total as f64);
    report.set("size.pub_items_total", items_total as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pub_items_are_counted_by_their_keyword() {
        assert!(is_pub_item("pub fn f() {"));
        assert!(is_pub_item("pub struct S;"));
        assert!(!is_pub_item("pub(crate) fn f() {"));
        assert!(!is_pub_item("pub use x::y;"));
        assert!(!is_pub_item("pub field: u32,"));
        assert!(!is_pub_item("fn private() {"));
    }

    #[test]
    fn size_counts_this_crates_own_sources() {
        let (loc, items) = count_dir(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/src")));
        assert!(loc > 500 && items > 10, "{loc} lines, {items} items");
        assert_eq!(count_dir(Path::new("/nonexistent")), (0, 0));
    }

    #[test]
    fn client_tail_uses_the_scarcest_cell() {
        let mut s = Samples::new(2);
        s.lat_us[0] = (1..=1000).map(f64::from).collect();
        s.lat_us[1] = (1..=100).map(f64::from).collect();
        let mut r = Report::default();
        client(&s, &mut r);
        assert_eq!(r.get("client.tail_percentile"), Some(90.0));
        assert_eq!(r.get("client.samples"), Some(1100.0));
        let want = (900.0f64 * 90.0).sqrt();
        assert!((r.get("client.latency_tail_us").unwrap() - want).abs() < 1e-9);
    }
}
