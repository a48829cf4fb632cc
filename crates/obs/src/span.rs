//! Span and field records, and event levels.

/// A typed key/value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Event severity, most severe first so `level <= threshold` means "emit".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error,
    Warn,
    Info,
    Debug,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse a `PROOF_LOG` value; unknown strings disable stderr logging.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finished span. `start_us`/`end_us` are ticks of the logical
/// per-capture clock (0 for a span closed outside any capture); `wall_us`
/// is the real elapsed wall-clock, so latency accounting stays meaningful
/// beside the deterministic ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Trace this span belongs to (0 = unassigned).
    pub trace: u64,
    /// Enclosing span id, 0 for roots.
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Real elapsed wall-clock, µs (independent of the capture clock).
    pub wall_us: f64,
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// Logical-clock duration, clamped non-negative.
    pub fn dur_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_orders_most_severe_first() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        // PROOF_LOG=info shows info and more severe, hides debug
        let max = Level::parse("info").unwrap();
        assert!(Level::Warn <= max && Level::Error <= max);
        assert!(Level::Debug > max);
    }

    #[test]
    fn level_parse_accepts_known_names_only() {
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse(" warn "), Some(Level::Warn));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn span_duration_clamps_negative() {
        let s = SpanRecord {
            id: 1,
            trace: 0,
            parent: 0,
            name: "x",
            start_us: 5.0,
            end_us: 3.0,
            wall_us: 0.0,
            fields: Vec::new(),
        };
        assert_eq!(s.dur_us(), 0.0);
    }
}
