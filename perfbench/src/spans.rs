//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around every call it makes into a layer of the
//! program. A span has a name, a start, an end and a parent; the spans of one
//! request (one profile, job or grid run) share a trace id. Spans stay in
//! memory and are written once, when the run ends. A disabled recorder costs
//! one branch per call, so the same code path runs traced and untraced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based; 0 is "no span".
    pub id: u32,
    /// The enclosing span's id, 0 for a root.
    pub parent: u32,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    trace: u64,
}

/// Self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub total_ns: u64,
    pub calls: u64,
}

impl SelfTime {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`; give recorders that
    /// will be merged the same origin.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            trace: 0,
        }
    }

    /// Spans opened from now on belong to request `trace`.
    pub fn begin_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(0);
        }
        let id = u32::try_from(self.spans.len() + 1).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            trace: self.trace,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if open.0 == 0 {
            return;
        }
        let now = self.now_ns();
        self.spans[open.0 as usize - 1].end_ns = now;
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close in reverse order");
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Append another recorder's spans (same origin), renumbering their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let shift = |id: u32| if id == 0 { 0 } else { id + offset };
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: shift(s.id),
            parent: shift(s.parent),
            ..s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: a span's duration minus the part of it its
    /// direct children cover. Children of one span run one after another on
    /// the recording thread, so their durations add up without overlap.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.total_ns += (s.end_ns - s.start_ns).saturating_sub(children);
            e.calls += 1;
        }
        out
    }

    /// The spans as a Chrome trace-event document (complete events in µs),
    /// loadable in Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"trace\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.trace
            );
        }
        out.push_str("]}");
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            span(1, 0, "job", 0, 100),
            span(2, 1, "submit", 10, 30),
            span(3, 1, "status", 40, 90),
            span(4, 3, "inner", 50, 60),
        ];
        let st = t.self_times();
        assert_eq!(st["job"].total_ns, 30);
        assert_eq!(st["submit"].total_ns, 20);
        assert_eq!(st["status"].total_ns, 40);
        assert_eq!(st["inner"].total_ns, 10);
        assert_eq!(st["job"].calls, 1);
    }

    #[test]
    fn nesting_records_parents_and_one_trace_per_request() {
        let mut t = Tracer::new(true, Instant::now());
        t.begin_trace(7);
        let root = t.enter("root");
        t.time("leaf", || ());
        t.exit(root);
        t.begin_trace(8);
        t.time("other", || ());
        assert_eq!(t.spans[1].parent, t.spans[0].id);
        assert_eq!(t.spans[0].trace, 7);
        assert_eq!(t.spans[1].trace, 7);
        assert_eq!(t.spans[2].trace, 8);
        assert_eq!(t.spans[2].parent, 0);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_recorder_keeps_nothing_and_absorb_renumbers() {
        let origin = Instant::now();
        let mut off = Tracer::new(false, origin);
        off.time("x", || ());
        assert_eq!(off.len(), 0);
        let mut a = Tracer::new(true, origin);
        a.time("a", || ());
        let mut b = Tracer::new(true, origin);
        let root = b.enter("b");
        b.time("c", || ());
        b.exit(root);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, a.spans[1].id);
        assert!(a.to_chrome_json().starts_with("{\"traceEvents\":["));
    }
}
