//! In-memory spans around calls into the library's public functions.
//!
//! Each thread owns one [`Tracer`]; a span records its name, start, end
//! and the span that was open on the same thread when it began (its
//! parent). Spans stay in memory until the run ends, when they are
//! merged, summarised per name (count, total, self time, duration
//! histogram) and written out. A disabled tracer runs the closure and
//! records nothing, so the untraced measurement path pays one branch.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Tracer slots handed out so far: every tracer of a run gets its own
/// id range, so span ids never repeat across threads or rounds.
static SLOTS: AtomicU64 = AtomicU64::new(1);

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique across the run (thread slot in the high bits).
    pub id: u64,
    /// The enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Layer-qualified call name, e.g. `facade.publish`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder with a fresh id range; `on == false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Self {
        let slot = SLOTS.fetch_add(1, Ordering::Relaxed);
        Self {
            on,
            epoch,
            next: (slot << 40) + 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next;
        self.next += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        r
    }

    /// Opens a span that later calls nest under; close it with
    /// [`Self::end`]. Returns 0 (and records nothing) when off.
    pub fn begin(&mut self) -> (u64, u64) {
        if !self.on {
            return (0, 0);
        }
        let id = self.next;
        self.next += 1;
        self.stack.push(id);
        (id, self.now())
    }

    /// Closes a span opened with [`Self::begin`].
    pub fn end(&mut self, name: &'static str, opened: (u64, u64)) {
        if !self.on {
            return;
        }
        let (id, start_ns) = opened;
        self.stack.pop();
        let parent = self.stack.last().copied().unwrap_or(0);
        let end_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Hands the recorded spans over.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Per-name summary of a span set.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations (ns).
    pub total_ns: u64,
    /// Sum of self times (ns): duration minus the time direct children
    /// cover.
    pub self_ns: u64,
    /// Duration distribution (ns).
    pub hist: Histogram,
}

/// Summarises spans by name.
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_insert(0) += s.dur();
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let d = s.dur();
        e.count += 1;
        e.total_ns += d;
        e.self_ns += d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        e.hist.record(d);
    }
    out
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "root",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "child",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 1,
                name: "child",
                start_ns: 50,
                end_ns: 70,
            },
            Span {
                id: 4,
                parent: 2,
                name: "leaf",
                start_ns: 15,
                end_ns: 20,
            },
        ];
        let s = summarise(&spans);
        assert_eq!(s["root"].self_ns, 50);
        assert_eq!(s["child"].count, 2);
        assert_eq!(s["child"].total_ns, 50);
        assert_eq!(s["child"].self_ns, 45);
        assert_eq!(s["leaf"].self_ns, 5);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let outer = t.begin();
        let v = t.span("inner", || 7);
        t.end("outer", outer);
        assert_eq!(v, 7);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);

        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("x", || 3), 3);
        let o = off.begin();
        off.end("y", o);
        assert!(off.take().is_empty());
    }
}
