//! Span recorder for traced runs.
//!
//! The benchmark wraps every call it makes into a layer in a [`span`].
//! Each thread keeps its open spans on a stack, so a span knows its
//! parent and how much of its interval its children covered; its self
//! time is its duration minus that. Finished spans are aggregated per
//! name in the thread, and the first [`RAW_CAP`] of a run are also kept
//! raw; [`flush`] hands both to a global sink, and [`take`] drains it.
//!
//! Tracing is off unless [`set_enabled`] turned it on; a disabled
//! [`span`] is one relaxed load and returns an inert guard.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Raw span records kept per run (aggregates cover every span). A traced
/// client records tens of millions of request spans in a run.
pub const RAW_CAP: usize = 100_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ROOT: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Option<Collected>> = Mutex::new(None);

/// Per-name totals over every finished span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans finished.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus child coverage).
    pub self_ns: u64,
    /// For root spans: the lowest share of a span covered by its direct
    /// children (1.0 when no root of this name finished).
    pub min_cover: f64,
}

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Raw {
    /// Span name (the layer call it wraps).
    pub name: &'static str,
    /// Name of the enclosing span, if any.
    pub parent: Option<&'static str>,
    /// Identifier shared by every span under one root span.
    pub root: u64,
    /// Start, nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Duration not covered by child spans.
    pub self_ns: u64,
}

/// Everything recorded, merged over threads.
#[derive(Default)]
pub struct Collected {
    /// Per-name aggregates.
    pub aggs: BTreeMap<&'static str, Agg>,
    /// Raw spans, per thread in finish order.
    pub raw: Vec<Raw>,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Local {
    stack: Vec<Open>,
    root: u64,
    data: Collected,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Guard of one open span; the span ends when it drops.
#[must_use = "a span ends when its guard drops"]
pub struct Span(bool);

/// Open a span named `name` on this thread.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(false);
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.stack.is_empty() {
            l.root = NEXT_ROOT.fetch_add(1, Ordering::Relaxed);
        }
        l.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    Span(true)
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        let end = Instant::now();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(open) = l.stack.pop() else {
                return;
            };
            let dur_ns = end.duration_since(open.start).as_nanos() as u64;
            let self_ns = dur_ns.saturating_sub(open.child_ns);
            let parent = l.stack.last_mut().map(|p| {
                p.child_ns += dur_ns;
                p.name
            });
            let root = l.root;
            let agg = l.data.aggs.entry(open.name).or_insert(Agg {
                min_cover: 1.0,
                ..Agg::default()
            });
            agg.count += 1;
            agg.total_ns += dur_ns;
            agg.self_ns += self_ns;
            if parent.is_none() && dur_ns > 0 {
                agg.min_cover = agg.min_cover.min(open.child_ns as f64 / dur_ns as f64);
            }
            if l.data.raw.len() < RAW_CAP {
                let start_ns = open.start.duration_since(epoch()).as_nanos() as u64;
                l.data.raw.push(Raw {
                    name: open.name,
                    parent,
                    root,
                    start_ns,
                    dur_ns,
                    self_ns,
                });
            }
        });
    }
}

/// Move this thread's records to the global sink. Every thread that
/// recorded spans calls this before it ends.
pub fn flush() {
    let data = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().data));
    let mut sink = SINK
        .lock()
        .expect("trace sink poisoned by a panicking thread");
    let all = sink.get_or_insert_with(Collected::default);
    for (name, a) in data.aggs {
        let e = all.aggs.entry(name).or_insert(Agg {
            min_cover: 1.0,
            ..Agg::default()
        });
        e.count += a.count;
        e.total_ns += a.total_ns;
        e.self_ns += a.self_ns;
        e.min_cover = e.min_cover.min(a.min_cover);
    }
    let room = RAW_CAP.saturating_sub(all.raw.len());
    all.raw.extend(data.raw.into_iter().take(room));
}

/// Drain everything flushed so far.
pub fn take() -> Collected {
    flush();
    SINK.lock()
        .expect("trace sink poisoned by a panicking thread")
        .take()
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_cover_is_measured() {
        set_enabled(true);
        {
            let _root = span("t.root");
            let _child = span("t.child");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_enabled(false);
        let c = take();
        let root = c.aggs["t.root"];
        let child = c.aggs["t.child"];
        assert_eq!((root.count, child.count), (1, 1));
        assert!(child.self_ns >= 2_000_000);
        assert!(root.self_ns < child.self_ns);
        assert!(root.min_cover > 0.5 && root.min_cover <= 1.0);
        let raw_child = c.raw.iter().find(|r| r.name == "t.child").unwrap();
        assert_eq!(raw_child.parent, Some("t.root"));
    }
}
