//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a crate's public API in a
//! [`span`]: name, layer (the crate's short name), start, end and the
//! enclosing span on the same thread. Spans stay in memory while the
//! workload runs and are written out once, as NDJSON, at exit. A layer's
//! self time is its spans' durations minus the parts their child spans
//! cover. Recording is off unless [`set_enabled`] turned it on, and a
//! disabled [`span`] costs one atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Request or operation identifier shared by the spans of one
    /// operation (0 when the span belongs to no request).
    pub request: u64,
    /// Crate short name: `series`, `fft`, `mp`, `core`, `stream`, `serve`
    /// or `calib`.
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            (self.end_ns - self.start_ns) as f64 * 1e-9
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    /// The span being measured; its `end_ns` is filled in on drop.
    open: Option<Span>,
}

/// Opens a span for a call into `layer` (see [`Span::layer`]).
pub fn span(layer: &'static str, name: &'static str) -> SpanGuard {
    request_span(layer, name, 0)
}

/// Opens a span that belongs to request `request`.
pub fn request_span(layer: &'static str, name: &'static str, request: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    SpanGuard {
        open: Some(Span { id, parent, request, layer, name, start_ns: now_ns(), end_ns: 0 }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == span.id) {
                s.truncate(pos);
            }
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Removes and returns every recorded span, in the order they ended.
///
/// # Panics
///
/// If a thread panicked while recording a span.
#[must_use]
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Self time per layer, in seconds: each span's duration minus the
/// durations of its direct children.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_secs: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_secs.entry(p).or_default() += s.secs();
        }
    }
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s.secs() - child_secs.get(&s.id).copied().unwrap_or(0.0);
        *by_layer.entry(s.layer).or_default() += own.max(0.0);
    }
    by_layer
}

/// Writes `spans` as NDJSON, one object per line.
///
/// # Errors
///
/// File creation or write errors.
pub fn write_ndjson(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mk = |id, parent, layer, start_ns, end_ns| Span {
            id,
            parent,
            request: 0,
            layer,
            name: "x",
            start_ns,
            end_ns,
        };
        let spans = vec![
            mk(2, Some(1), "mp", 100, 400),
            mk(3, Some(2), "fft", 150, 250),
            mk(1, None, "core", 0, 1_000),
        ];
        let t = self_time_by_layer(&spans);
        assert!((t["core"] - 700e-9).abs() < 1e-15);
        assert!((t["mp"] - 200e-9).abs() < 1e-15);
        assert!((t["fft"] - 100e-9).abs() < 1e-15);
    }
}
