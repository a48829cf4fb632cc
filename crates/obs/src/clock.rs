//! The trace clock: a logical per-trace counter, so exported traces are
//! byte-for-bit reproducible.
//!
//! Every read returns the trace's next tick (0, 1, 2, …): two runs that open
//! and close the same spans in the same order for a trace get identical
//! timestamps, whatever else the process does meanwhile. Real durations are
//! carried separately in [`crate::SpanRecord::wall_us`].

use std::collections::HashMap;
use std::sync::{LazyLock, Mutex};

static COUNTERS: LazyLock<Mutex<HashMap<u64, u64>>> = LazyLock::new(Mutex::default);

/// Read the clock for `trace`: post-increments the trace's counter, so
/// consecutive reads are strictly increasing.
pub(crate) fn now_us(trace: u64) -> f64 {
    let mut map = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let tick = map.entry(trace).or_insert(0);
    let now = *tick;
    *tick += 1;
    now as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::new_trace_id;

    #[test]
    fn logical_clock_counts_per_trace() {
        let (a, b) = (new_trace_id(), new_trace_id());
        assert_eq!(now_us(a), 0.0);
        assert_eq!(now_us(a), 1.0);
        // a different trace has its own counter
        assert_eq!(now_us(b), 0.0);
        assert_eq!(now_us(a), 2.0);
    }
}
