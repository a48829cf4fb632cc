//! Collectors — where finished spans and events go.

use crate::span::{EventRecord, SpanRecord};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Pluggable sink for finished spans and events. Implementations must be
/// cheap to call from worker threads (the default ring buffer takes one
/// short mutex).
pub trait Collector: Send + Sync {
    /// False means callers may skip record construction entirely (the
    /// disabled fast path).
    fn enabled(&self) -> bool {
        true
    }
    fn record_span(&self, span: SpanRecord);
    fn record_event(&self, event: EventRecord);
}

/// The disabled collector: records nothing, reports `enabled() == false`.
pub struct NoopCollector;

impl Collector for NoopCollector {
    fn enabled(&self) -> bool {
        false
    }
    fn record_span(&self, _span: SpanRecord) {}
    fn record_event(&self, _event: EventRecord) {}
}

struct RingInner {
    spans: VecDeque<SpanRecord>,
    events: VecDeque<EventRecord>,
}

/// Lock-protected in-memory ring buffer: the default enabled collector.
/// Spans and events each keep the most recent `capacity` records; overflow
/// drops the oldest. Evicted spans count into `dropped`; events are a log
/// tail and leave no count.
pub struct RingCollector {
    capacity: usize,
    inner: Mutex<RingInner>,
    dropped: AtomicU64,
}

impl RingCollector {
    pub fn new(capacity: usize) -> RingCollector {
        RingCollector {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                spans: VecDeque::new(),
                events: VecDeque::new(),
            }),
            dropped: AtomicU64::new(0),
        }
    }

    /// All buffered spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().unwrap().spans.iter().cloned().collect()
    }

    /// All buffered events, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        self.inner.lock().unwrap().events.iter().cloned().collect()
    }

    /// Spans evicted by the capacity bound since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.spans.clear();
        inner.events.clear();
    }
}

impl Collector for RingCollector {
    fn record_span(&self, span: SpanRecord) {
        let mut inner = self.inner.lock().unwrap();
        if inner.spans.len() >= self.capacity {
            inner.spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.spans.push_back(span);
    }

    fn record_event(&self, event: EventRecord) {
        let mut inner = self.inner.lock().unwrap();
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, trace: u64) -> SpanRecord {
        SpanRecord {
            id,
            trace,
            parent: 0,
            name: "s",
            start_us: 0.0,
            end_us: 1.0,
            wall_us: 1.0,
            fields: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = RingCollector::new(2);
        for id in 1..=3 {
            ring.record_span(span(id, 7));
        }
        let spans = ring.spans();
        assert_eq!(spans.iter().map(|s| s.id).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(ring.dropped(), 1);
        ring.clear();
        assert!(ring.spans().is_empty());
    }

    #[test]
    fn evicted_events_are_not_counted_as_dropped_spans() {
        let ring = RingCollector::new(2);
        for n in 0..3 {
            ring.record_event(EventRecord {
                trace: 7,
                span: 0,
                level: crate::Level::Info,
                target: "test",
                ts_us: 0.0,
                message: format!("event {n}"),
                fields: Vec::new(),
            });
        }
        let kept: Vec<String> = ring.events().into_iter().map(|e| e.message).collect();
        assert_eq!(kept, ["event 1", "event 2"]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn noop_collector_is_disabled() {
        assert!(!NoopCollector.enabled());
        let ring = RingCollector::new(4);
        assert!(ring.enabled());
    }
}
