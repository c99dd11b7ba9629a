//! The traced run's span handling: joining the service's own spans under
//! the harness's per-op spans, computing self times, and writing the Chrome
//! trace.
//!
//! The harness and the service under test record into one
//! [`tssa_obs::Tracer`] (one id space, one epoch, one in-memory ring), so a
//! span the service opened for a request can be re-parented under the
//! harness span of the op that caused it once the run is over.

use std::collections::HashMap;
use std::path::Path;

use tssa_obs::{chrome_trace_json, SpanRecord};

/// Category of every span the harness opens itself.
pub const HARNESS: &str = "harness";

/// Spans kept in memory per traced run; older ones are dropped (and
/// counted in `obs.spans_dropped`).
pub const RING_CAPACITY: usize = 1 << 19;

fn is_harness_op(r: &SpanRecord) -> bool {
    r.category == HARNESS && r.parent.is_none()
}

/// Hang every trace whose root is a key of `adopt` under the harness op
/// span the key maps to.
fn reparent(records: &mut [SpanRecord], adopt: &HashMap<u64, u64>) {
    for r in records.iter_mut() {
        if let Some(&op) = adopt.get(&r.root) {
            if r.id == r.root {
                r.parent = Some(op);
            }
            r.root = op;
        }
    }
}

/// Join for a single generator thread: ids are minted in call order from
/// one counter, so a root span the service opened belongs to the harness op
/// span with the greatest id below its own.
pub fn join_by_id_order(records: &mut [SpanRecord]) {
    let mut ops: Vec<u64> = records
        .iter()
        .filter(|r| is_harness_op(r))
        .map(|r| r.id)
        .collect();
    ops.sort_unstable();
    let adopt: HashMap<u64, u64> = records
        .iter()
        .filter(|r| r.parent.is_none() && r.category != HARNESS)
        .filter_map(|r| {
            let at = ops.partition_point(|&op| op < r.id);
            (at > 0).then(|| (r.id, ops[at - 1]))
        })
        .collect();
    reparent(records, &adopt);
}

/// Join for concurrent generator threads: a root span the service opened
/// is adopted by the shortest harness op span that was open when it began
/// and that has not adopted one yet. (Only the start is tested: the service
/// records a request span after it has released the reply, so the span may
/// end a few microseconds after the client's round trip did.) Returns how
/// many were left unjoined.
pub fn join_by_containment(records: &mut [SpanRecord]) -> usize {
    let mut ops: Vec<(u64, u64, u64)> = records
        .iter()
        .filter(|r| is_harness_op(r))
        .map(|r| (r.start_ns, r.end_ns(), r.id))
        .collect();
    ops.sort_unstable();
    let mut orphans: Vec<(u64, u64)> = records
        .iter()
        .filter(|r| r.parent.is_none() && r.category != HARNESS)
        .map(|r| (r.start_ns, r.id))
        .collect();
    orphans.sort_unstable();
    let mut taken = vec![false; ops.len()];
    let mut adopt = HashMap::new();
    let mut unjoined = 0;
    for (start, id) in orphans {
        // Ops are sorted by start: only those that began at or before the
        // orphan can have caused it.
        let upto = ops.partition_point(|op| op.0 <= start);
        let best = (0..upto)
            .filter(|&i| !taken[i] && ops[i].1 >= start)
            .min_by_key(|&i| ops[i].1 - ops[i].0);
        match best {
            Some(i) => {
                taken[i] = true;
                adopt.insert(id, ops[i].2);
            }
            None => unjoined += 1,
        }
    }
    reparent(records, &adopt);
    unjoined
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and a
/// child is clipped to its parent's interval).
pub fn self_times(records: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    for r in records {
        if let Some(parent) = r.parent.and_then(|p| by_id.get(&p)) {
            let (start, end) = (
                r.start_ns.max(parent.start_ns),
                r.end_ns().min(parent.end_ns()),
            );
            if end > start {
                children.entry(parent.id).or_default().push((start, end));
            }
        }
    }
    records
        .iter()
        .map(|r| {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&r.id) {
                intervals.sort_unstable();
                let mut reach = 0;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (r.id, r.dur_ns.saturating_sub(covered))
        })
        .collect()
}

/// Durations in µs of the spans named `name`.
pub fn durations_us(records: &[SpanRecord], name: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.dur_ns as f64 / 1e3)
        .collect()
}

/// Write `records` as Chrome-trace JSON, each event carrying its self time
/// as the `self_ns` argument.
pub fn write_chrome_trace(path: &Path, records: &[SpanRecord]) -> std::io::Result<()> {
    let selfs = self_times(records);
    let annotated: Vec<SpanRecord> = records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.counters.push((
                "self_ns".into(),
                selfs.get(&r.id).copied().unwrap_or(0) as i64,
            ));
            r
        })
        .collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_trace_json(&annotated))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        category: &'static str,
        start: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            root: parent.unwrap_or(id),
            name: format!("s{id}"),
            category,
            start_ns: start,
            dur_ns: dur,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let records = vec![
            span(1, None, HARNESS, 0, 100),
            span(2, Some(1), "x", 10, 30), // 10..40
            span(3, Some(1), "x", 30, 30), // 30..60, overlaps 2
            span(4, Some(1), "x", 90, 50), // 90..140, clipped to 90..100
            span(5, Some(2), "x", 15, 5),  // grandchild: not subtracted from 1
        ];
        let selfs = self_times(&records);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 25);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 5);
    }

    #[test]
    fn id_order_join_adopts_service_roots() {
        let mut records = vec![
            span(1, None, HARNESS, 0, 50),
            span(2, None, "serve", 5, 40),
            span(3, Some(2), "serve", 6, 10),
            span(4, None, HARNESS, 60, 50),
            span(5, None, "serve", 65, 40),
        ];
        join_by_id_order(&mut records);
        assert_eq!(records[1].parent, Some(1));
        assert_eq!(records[2].parent, Some(2));
        assert_eq!(records[2].root, 1);
        assert_eq!(records[4].parent, Some(4));
        assert_eq!(self_times(&records)[&1], 10);
    }

    #[test]
    fn containment_join_prefers_the_tightest_free_op() {
        let mut records = vec![
            span(1, None, HARNESS, 0, 1000),  // long round trip
            span(2, None, HARNESS, 100, 200), // short one, inside it
            span(3, None, "serve", 150, 160), // begins in both: goes to 2
            span(4, None, "serve", 400, 100), // begins only in 1
            span(5, None, "serve", 2000, 10), // begins in none
        ];
        assert_eq!(join_by_containment(&mut records), 1);
        assert_eq!(records[2].parent, Some(2));
        assert_eq!(records[3].parent, Some(1));
        assert_eq!(records[4].parent, None);
    }
}
