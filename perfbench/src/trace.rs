//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer: name, start, end, parent span and op id. Nothing is
//! written until the run ends, when [`Tracer::to_chrome_json`] renders
//! a Perfetto-loadable Chrome trace. A disabled tracer records nothing
//! and costs one branch per call.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::clock::Stamp;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub thread: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    enabled: bool,
    t0: Stamp,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Small stable id for the calling thread (Chrome `tid`).
fn thread_tag() -> u64 {
    thread_local!(static TAG: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    });
    TAG.with(|t| *t)
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Stamp::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span. `f` receives the new span's id so nested
    /// calls can name it as their parent (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.t0.elapsed_us();
        let out = f(id);
        let end = self.t0.elapsed_us();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking op")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_us: start,
                end_us: end,
                thread: thread_tag(),
            });
        out
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking op")
            .clone()
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span.
    pub fn to_chrome_json(&self) -> String {
        let mut spans = self.spans();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}{sep}",
                s.name,
                s.start_us,
                s.dur_us(),
                s.thread,
                s.id,
                parent,
                s.op
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_keep_parents_and_self_time() {
        let t = Tracer::new(true);
        t.span("outer", None, 7, |id| {
            t.span("inner", Some(id), 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.dur_us() <= outer.dur_us());
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"op\":7"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 1, |id| id), 0);
        assert!(t.spans().is_empty());
    }
}
