//! Per-thread span capture: the spans of one unit of work, kept whole for
//! its owner. A capture is the only place a finished span can land.
//!
//! A serve worker starts a [`Capture`] around each job, and the CLI around
//! a traced profile. While it is active, every span that closes on that
//! thread goes to the capture, up to [`CAPTURE_CAPACITY`] spans; later ones
//! are counted as dropped. Spans that close with no capture active are
//! discarded, so other traces' traffic cannot touch a captured span.

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

/// An active capture on the current thread. Captures do not nest; after
/// one ends (by [`Capture::finish`] or drop) the thread's spans are
/// discarded again.
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

/// Give a closing span to this thread's capture, if one is active.
pub(crate) fn keep(span: &SpanRecord) {
    ACTIVE.with(|a| match a.borrow_mut().as_mut() {
        None => {}
        Some(c) if c.spans.len() < CAPTURE_CAPACITY => c.spans.push(span.clone()),
        Some(c) => c.dropped += 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{new_trace_id, span, span_in};

    #[test]
    fn captured_spans_skip_the_collector_until_the_capture_ends() {
        let trace = new_trace_id();
        span_in(trace, "before").finish();
        let capture = Capture::start();
        let root = span_in(trace, "job");
        span("stage").finish();
        root.finish();
        let caught = capture.finish();
        let names: Vec<&str> = caught.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["stage", "job"]);
        assert_eq!(caught.dropped, 0);
        // a dropped guard ends its capture too, so the next one starts
        // empty (and does not trip the no-nesting check)
        drop(Capture::start());
        span_in(trace, "after").finish();
        assert!(Capture::start().finish().spans.is_empty());
    }

    #[test]
    fn a_full_capture_keeps_the_first_spans_and_counts_the_rest() {
        let trace = new_trace_id();
        let capture = Capture::start();
        let first = span_in(trace, "first").id();
        for _ in 1..CAPTURE_CAPACITY + 5 {
            span_in(trace, "more").finish();
        }
        let caught = capture.finish();
        assert_eq!(caught.spans.len(), CAPTURE_CAPACITY);
        assert_eq!(caught.dropped, 5);
        assert_eq!(caught.spans[0].id, first);
        assert!(caught.spans.windows(2).all(|w| w[0].id < w[1].id));
    }
}
