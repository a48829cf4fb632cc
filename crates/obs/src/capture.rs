//! Per-thread span capture: the spans of one unit of work, kept whole for
//! its owner instead of the process-wide ring.
//!
//! A serve worker starts a [`Capture`] around each job, and the CLI around
//! a traced profile. While it is active, every span that closes on that
//! thread goes to the capture instead of the tracer's collector, up to
//! [`CAPTURE_CAPACITY`] spans; later ones are counted as dropped. Ring
//! eviction and other traces' traffic cannot touch a captured span.

use crate::span::SpanRecord;
use std::cell::RefCell;
use std::marker::PhantomData;

/// The most spans one capture keeps. A job closes a root span and at most
/// five stage spans per attempt, so this bounds a job's trace without
/// cutting a normal one.
pub const CAPTURE_CAPACITY: usize = 256;

/// What a finished capture caught.
#[derive(Debug, Default)]
pub struct Captured {
    /// The first [`CAPTURE_CAPACITY`] spans, in the order they closed.
    pub spans: Vec<SpanRecord>,
    /// Spans that closed after the buffer was full.
    pub dropped: u64,
}

thread_local! {
    static ACTIVE: RefCell<Option<Captured>> = const { RefCell::new(None) };
}

/// An active capture on the current thread. Captures do not nest; ending
/// one (by [`Capture::finish`] or drop) sends later spans back to the
/// collector.
pub struct Capture {
    /// The capture lives in a thread-local: keep the guard on its thread.
    _thread: PhantomData<*const ()>,
}

impl Capture {
    pub fn start() -> Capture {
        ACTIVE.with(|a| {
            let outer = a.borrow_mut().replace(Captured::default());
            debug_assert!(outer.is_none(), "span captures do not nest");
        });
        Capture {
            _thread: PhantomData,
        }
    }

    /// End the capture and hand back what it caught.
    pub fn finish(self) -> Captured {
        ACTIVE.with(|a| a.borrow_mut().take()).unwrap_or_default()
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.borrow_mut().take());
    }
}

/// Give a closing span to this thread's capture. False when none is
/// active, and the span goes to the collector instead.
pub(crate) fn keep(span: &SpanRecord) -> bool {
    ACTIVE.with(|a| match a.borrow_mut().as_mut() {
        None => false,
        Some(c) if c.spans.len() < CAPTURE_CAPACITY => {
            c.spans.push(span.clone());
            true
        }
        Some(c) => {
            c.dropped += 1;
            true
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TraceClock;
    use crate::collector::{Collector, RingCollector};
    use crate::tracer::{new_trace_id, Tracer};
    use std::sync::Arc;

    fn ring_tracer() -> (Arc<Tracer>, Arc<RingCollector>) {
        let ring = Arc::new(RingCollector::new(8));
        let tracer = Arc::new(Tracer::new(
            Arc::clone(&ring) as Arc<dyn Collector>,
            TraceClock::logical(),
        ));
        (tracer, ring)
    }

    #[test]
    fn captured_spans_skip_the_collector_until_the_capture_ends() {
        let (tracer, ring) = ring_tracer();
        let trace = new_trace_id();
        let capture = Capture::start();
        let root = tracer.span_in(trace, "job");
        tracer.span("stage").finish();
        root.finish();
        let caught = capture.finish();
        let names: Vec<&str> = caught.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["stage", "job"]);
        assert_eq!(caught.dropped, 0);
        assert!(ring.spans().is_empty());
        // a dropped guard ends its capture too
        drop(Capture::start());
        tracer.span_in(trace, "after").finish();
        assert_eq!(ring.spans().len(), 1);
    }

    #[test]
    fn a_full_capture_keeps_the_first_spans_and_counts_the_rest() {
        let (tracer, ring) = ring_tracer();
        let trace = new_trace_id();
        let capture = Capture::start();
        let first = tracer.span_in(trace, "first").id();
        for _ in 1..CAPTURE_CAPACITY + 5 {
            tracer.span_in(trace, "more").finish();
        }
        let caught = capture.finish();
        assert_eq!(caught.spans.len(), CAPTURE_CAPACITY);
        assert_eq!(caught.dropped, 5);
        assert_eq!(caught.spans[0].id, first);
        assert!(caught.spans.windows(2).all(|w| w[0].id < w[1].id));
        // the overflow is counted here, not handed to the ring
        assert!(ring.spans().is_empty());
        assert_eq!(ring.dropped(), 0);
    }
}
