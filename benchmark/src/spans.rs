//! In-memory spans recorded from the benchmark's side of the public API.
//!
//! A span is one timed interval at a layer boundary: name, start, end and
//! the span that caused it. Spans live in memory while the run is timed
//! and are written to `benchmark/out/trace_<workload>.json` when the
//! benchmark ends. A layer's *self time* is its span's duration minus the
//! part of that interval its child spans cover.

use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within one trace file.
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// `run`, `setup.data`, `setup.sim`, `cell`, `round`, `eval`,
    /// `finalize`, or `probe.<layer>.<fn>`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Thread budget the span ran under.
    pub budget: usize,
    /// Small integer naming the OS thread that recorded the span (worker
    /// attribution for campaign cells).
    pub thread: u64,
    /// Span-specific count: trained nodes for `round`, cell index for
    /// `cell`, iterations for `probe.*`.
    pub tag: u64,
    /// Heap bytes the whole process requested during the span (recorded
    /// for `round` spans; under a parallel campaign other cells' requests
    /// are included).
    pub alloc_bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_INDEX: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A fresh span id, unique across threads.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A small stable integer for the calling thread.
pub fn thread_index() -> u64 {
    THREAD_INDEX.with(|t| *t)
}

/// The clock every span of one process is stamped against.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover (overlapping children — parallel cells
/// under one `run` — count once). `None` when `id` is not in `spans`.
pub fn self_time_ns(spans: &[Span], id: u64) -> Option<u64> {
    let span = spans.iter().find(|s| s.id == id)?;
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let covered = covered_ns(span.start_ns, span.end_ns, &mut children);
    Some(span.duration_ns() - covered)
}

/// Checks the structure the per-layer arithmetic relies on: every child
/// lies inside its parent, and (when `serial`) siblings do not overlap, so
/// children + self time add up to the parent exactly.
pub fn check_nesting(spans: &[Span], serial: bool) -> Result<(), String> {
    for child in spans {
        let Some(pid) = child.parent else { continue };
        let Some(parent) = spans.iter().find(|s| s.id == pid) else {
            return Err(format!("span {} names a missing parent {pid}", child.id));
        };
        if child.start_ns < parent.start_ns || child.end_ns > parent.end_ns {
            return Err(format!(
                "span {} ({}) is not inside its parent {} ({})",
                child.id, child.name, parent.id, parent.name
            ));
        }
    }
    if serial {
        let mut by_parent: Vec<(u64, u64, u64)> = spans
            .iter()
            .filter_map(|s| s.parent.map(|p| (p, s.start_ns, s.end_ns)))
            .collect();
        by_parent.sort_unstable();
        for pair in by_parent.windows(2) {
            if pair[0].0 == pair[1].0 && pair[1].1 < pair[0].2 {
                return Err(format!("sibling spans under {} overlap", pair[0].0));
            }
        }
    }
    Ok(())
}

/// The trace file's content.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let rows = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("id".into(), Value::UInt(s.id)),
                ("parent".into(), s.parent.map_or(Value::Null, Value::UInt)),
                ("name".into(), Value::String(s.name.into())),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
                ("workload".into(), Value::String(workload.into())),
                ("budget".into(), Value::UInt(s.budget as u64)),
                ("thread".into(), Value::UInt(s.thread)),
                ("tag".into(), Value::UInt(s.tag)),
                ("alloc_bytes".into(), Value::UInt(s.alloc_bytes)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::String(workload.into())),
        (
            "unit".into(),
            Value::String("ns since process start".into()),
        ),
        ("spans".into(), Value::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            budget: 1,
            thread: 0,
            tag: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // two adjacent children and a gap before the third
            span(2, Some(1), 10, 30),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 70, 90),
            // a grandchild covers part of span 2 only
            span(5, Some(2), 12, 20),
        ];
        assert_eq!(self_time_ns(&spans, 1), Some(100 - 20 - 20 - 20));
        assert_eq!(self_time_ns(&spans, 2), Some(20 - 8));
        assert_eq!(self_time_ns(&spans, 3), Some(20));
        assert_eq!(self_time_ns(&spans, 5), Some(8));
        assert_eq!(self_time_ns(&spans, 99), None);
        check_nesting(&spans, true).expect("well nested");
        // children + self time add up to the parent exactly
        let children: u64 = [2, 3, 4]
            .iter()
            .map(|&id| spans[id as usize - 1].duration_ns())
            .sum();
        assert_eq!(children + self_time_ns(&spans, 1).unwrap(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // two parallel cells under one run
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(1), 40, 90),
        ];
        assert_eq!(self_time_ns(&spans, 1), Some(20));
        check_nesting(&spans, false).expect("nested, parallel");
        assert!(check_nesting(&spans, true).is_err());
    }

    #[test]
    fn escaping_child_is_reported() {
        let spans = vec![span(1, None, 10, 50), span(2, Some(1), 40, 60)];
        assert!(check_nesting(&spans, false).is_err());
        let orphan = vec![span(2, Some(7), 0, 1)];
        assert!(check_nesting(&orphan, false).is_err());
    }

    #[test]
    fn trace_json_lists_every_field() {
        let text = serde_json::to_string(&to_json("w", &[span(1, None, 0, 5)])).unwrap();
        for key in [
            "\"id\"",
            "\"parent\":null",
            "\"start_ns\"",
            "\"budget\"",
            "\"workload\":\"w\"",
        ] {
            assert!(text.contains(key), "{key} missing from {text}");
        }
    }
}
