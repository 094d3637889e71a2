//! Span recorder for the traced replay, and exclusive-time attribution.
//!
//! Spans are recorded from the benchmark's own code around each public
//! call it makes into a layer; nothing inside the program is
//! instrumented. Spans live in memory and are written out as JSON lines
//! when the run ends.
//!
//! Self time follows the timeline: every instant covered by at least one
//! span belongs to the spans active then that have no active child, split
//! equally when several such spans overlap (completion-sink work running
//! on two worker threads at once). A span's self time is therefore its
//! duration minus the time its children cover, and the self times of all
//! spans plus the uncovered time add up to the wall time exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are seconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub job: Option<String>,
    pub start: f64,
    pub end: f64,
}

/// Collects spans when enabled; a disabled recorder records nothing and
/// costs one branch per call site.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the recorder's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Reserve a span id before the span's children start (so they can
    /// name it as their parent). Returns `None` when disabled.
    pub fn open(&self) -> Option<(u64, f64)> {
        self.enabled
            .then(|| (self.next_id.fetch_add(1, Ordering::Relaxed), self.now()))
    }

    /// Close a span opened with [`Recorder::open`].
    pub fn close(
        &self,
        opened: Option<(u64, f64)>,
        name: &'static str,
        parent: Option<u64>,
        job: Option<&str>,
    ) {
        if let Some((id, start)) = opened {
            let end = self.now();
            self.spans.lock().expect("span list poisoned").push(Span {
                id,
                parent,
                name,
                job: job.map(str::to_string),
                start,
                end,
            });
        }
    }

    /// Time `f` as one span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: Option<&str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let opened = self.open();
        let out = f();
        self.close(opened, name, parent, job);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list poisoned")
    }
}

/// Exclusive self time per span name, plus the covered time (the union
/// of all spans).
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    // Sweep the span boundaries in time order, keeping the active set and
    // how many active children each active span has.
    let mut events: Vec<(f64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (ix, span) in spans.iter().enumerate() {
        events.push((span.start, true, ix));
        events.push((span.end, false, ix));
    }
    // Ends before starts at equal times, so zero-length overlaps vanish.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let by_id: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(ix, s)| (s.id, ix)).collect();
    let parent_ix: Vec<Option<usize>> = spans
        .iter()
        .map(|s| s.parent.and_then(|p| by_id.get(&p).copied()))
        .collect();
    let mut active_children = vec![0usize; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut self_time = vec![0.0f64; spans.len()];
    let mut covered = 0.0;
    let mut last = events.first().map_or(0.0, |e| e.0);
    for (time, is_start, ix) in events {
        let dt = time - last;
        if dt > 0.0 && !active.is_empty() {
            let leaves: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&a| active_children[a] == 0)
                .collect();
            let share = dt / leaves.len() as f64;
            for leaf in leaves {
                self_time[leaf] += share;
            }
            covered += dt;
        }
        last = time;
        if is_start {
            active.push(ix);
            if let Some(p) = parent_ix[ix] {
                active_children[p] += 1;
            }
        } else {
            active.retain(|&a| a != ix);
            if let Some(p) = parent_ix[ix] {
                active_children[p] -= 1;
            }
        }
    }
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, t) in spans.iter().zip(self_time) {
        *by_name.entry(span.name).or_insert(0.0) += t;
    }
    (by_name, covered)
}

/// Write spans as JSON lines (one object per span, start order).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in sorted {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let job = span
            .job
            .as_ref()
            .map_or("null".to_string(), |j| format!("\"{j}\""));
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"job\":{job},\"start_s\":{:.9},\"end_s\":{:.9}}}",
            span.name, span.id, span.start, span.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            job: None,
            start,
            end,
        }
    }

    #[test]
    fn self_times_add_up_to_covered_time() {
        let spans = vec![
            span(1, None, "dispatch", 0.0, 10.0),
            // Two overlapping children on different threads.
            span(2, Some(1), "write", 2.0, 6.0),
            span(3, Some(1), "write", 4.0, 8.0),
            span(4, None, "submit", 12.0, 13.0),
        ];
        let (by_name, covered) = self_times(&spans);
        assert!((covered - 11.0).abs() < 1e-12);
        assert!((by_name["dispatch"] - 4.0).abs() < 1e-12);
        assert!((by_name["write"] - 6.0).abs() < 1e-12);
        assert!((by_name["submit"] - 1.0).abs() < 1e-12);
        let total: f64 = by_name.values().sum();
        assert!((total - covered).abs() < 1e-12);
    }
}
