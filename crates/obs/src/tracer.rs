//! Spans and events: opens spans, threads parent/trace context through a
//! thread-local stack, stamps records with the trace clock, and hands each
//! finished record to this thread's [`crate::Capture`], if one is active.

use crate::span::{FieldValue, Level, SpanRecord};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh process-unique trace id (never 0).
pub fn new_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// (trace, span id) of the enclosing open spans on this thread,
    /// innermost last.
    static CONTEXT: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Open a span inheriting trace and parent from the innermost open span on
/// this thread (trace 0, no parent, if there is none).
pub fn span(name: &'static str) -> SpanGuard {
    let (trace, parent) = CONTEXT.with(|c| c.borrow().last().copied().unwrap_or((0, 0)));
    open(trace, parent, name)
}

/// Open a root-or-child span under an explicit trace id: the parent is the
/// innermost open span of the *same* trace, if any.
pub fn span_in(trace: u64, name: &'static str) -> SpanGuard {
    let parent = CONTEXT.with(|c| {
        c.borrow()
            .iter()
            .rev()
            .find(|(t, _)| *t == trace)
            .map(|(_, id)| *id)
            .unwrap_or(0)
    });
    open(trace, parent, name)
}

fn open(trace: u64, parent: u64, name: &'static str) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    CONTEXT.with(|c| c.borrow_mut().push((trace, id)));
    SpanGuard {
        wall: Instant::now(),
        record: Some(SpanRecord {
            id,
            trace,
            parent,
            name,
            start_us: crate::clock::now_us(trace),
            end_us: 0.0,
            wall_us: 0.0,
            fields: Vec::new(),
        }),
    }
}

/// Emit a leveled event: a line on stderr when `PROOF_LOG` admits the
/// level, otherwise nothing. Events never read the trace clock, so logging
/// cannot move a trace's timestamps.
pub fn event(
    level: Level,
    target: &'static str,
    message: impl Into<String>,
    fields: Vec<(&'static str, FieldValue)>,
) {
    if !event_enabled(level) {
        return;
    }
    let mut line = format!("[proof {level} {target}] {}", message.into());
    for (key, value) in &fields {
        line.push_str(&format!(" {key}={value:?}"));
    }
    eprintln!("{line}");
}

/// Would an event at `level` reach stderr? Use to skip building event
/// messages when nobody listens.
pub fn event_enabled(level: Level) -> bool {
    stderr_level().is_some_and(|max| level <= max)
}

/// The stderr threshold from `PROOF_LOG`, re-read on every call so tests
/// and long-lived daemons pick up changes. Level names are matched
/// case-insensitively; an unrecognized name is rejected (stderr logging
/// stays off) with a one-time warning rather than silently defaulting.
pub fn stderr_level() -> Option<Level> {
    let raw = std::env::var("PROOF_LOG").ok()?;
    let (level, unknown) = classify_proof_log(&raw);
    if unknown {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "[proof warn obs] unknown PROOF_LOG level {raw:?}; expected \
                 error|warn|info|debug (case-insensitive) — stderr logging stays off"
            );
        });
    }
    level
}

/// Classify a raw `PROOF_LOG` value: the parsed level (if any) and whether
/// the value is a non-empty string that failed to parse (i.e. worth a
/// warning — an empty/whitespace value just means "unset").
fn classify_proof_log(raw: &str) -> (Option<Level>, bool) {
    match Level::parse(raw) {
        Some(level) => (Some(level), false),
        None => (None, !raw.trim().is_empty()),
    }
}

/// An open span. Dropping (or calling [`SpanGuard::finish`]) closes it:
/// the end timestamp and real wall duration are stamped and the record goes
/// to this thread's [`crate::Capture`] if one is active, else nowhere.
/// `finish()` always returns the record, so callers can time with spans
/// whether or not anything captures them.
pub struct SpanGuard {
    wall: Instant,
    record: Option<SpanRecord>,
}

impl SpanGuard {
    pub fn id(&self) -> u64 {
        self.record.as_ref().map(|r| r.id).unwrap_or(0)
    }

    pub fn trace(&self) -> u64 {
        self.record.as_ref().map(|r| r.trace).unwrap_or(0)
    }

    /// Attach a typed field to the span.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(record) = &mut self.record {
            record.fields.push((key, value.into()));
        }
    }

    /// Close the span now and return its finished record.
    pub fn finish(mut self) -> SpanRecord {
        self.close().expect("span closed exactly once")
    }

    fn close(&mut self) -> Option<SpanRecord> {
        let mut record = self.record.take()?;
        record.end_us = crate::clock::now_us(record.trace);
        record.wall_us = self.wall.elapsed().as_secs_f64() * 1e6;
        CONTEXT.with(|c| {
            let mut stack = c.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(_, id)| id == record.id) {
                stack.remove(pos);
            }
        });
        crate::capture::keep(&record);
        Some(record)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Capture;

    #[test]
    fn spans_nest_and_record_parent_links() {
        let trace = new_trace_id();
        let capture = Capture::start();
        let root = span_in(trace, "root");
        let root_id = root.id();
        // `span` inherits trace and parent from the innermost open span
        let inherited = span("inherited");
        assert_eq!(inherited.trace(), trace);
        let inherited_rec = inherited.finish();
        assert_eq!(inherited_rec.parent, root_id);
        // `span_in` under the same trace also parents on the open root
        let inner = span_in(trace, "child");
        let inner_rec = inner.finish();
        assert_eq!(inner_rec.parent, root_id);
        let root_rec = root.finish();
        assert_eq!(root_rec.parent, 0);
        // logical clock: start strictly before end, per trace
        assert!(root_rec.start_us < root_rec.end_us);
        assert_eq!(capture.finish().spans.len(), 3);
    }

    #[test]
    fn span_fields_and_finish_on_disabled_tracer() {
        // no capture active: the record goes nowhere, but finish() still
        // hands back its fields and real wall timing
        let mut span = span("work");
        span.field("answer", 42u64);
        let rec = span.finish();
        assert_eq!(rec.fields, vec![("answer", FieldValue::U64(42))]);
        assert!(rec.wall_us >= 0.0);
    }

    #[test]
    fn proof_log_values_classify_case_insensitively_and_flag_unknowns() {
        assert_eq!(classify_proof_log("DEBUG"), (Some(Level::Debug), false));
        assert_eq!(classify_proof_log("  Warn "), (Some(Level::Warn), false));
        // unknown non-empty values are rejected and flagged for the warning
        assert_eq!(classify_proof_log("verbose"), (None, true));
        assert_eq!(classify_proof_log("2"), (None, true));
        // empty/whitespace means "unset": no level, no warning
        assert_eq!(classify_proof_log(""), (None, false));
        assert_eq!(classify_proof_log("   "), (None, false));
    }
}
