//! Session configuration (the `trtexec`/session-options equivalent).

use proof_ir::DType;

/// The simulation seed a run uses when none is given: a session's, a
/// serve job's and a fleet grid's default.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// How a backend session is built and run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Execution precision (fp32/fp16/int8). Weights and activations are
    /// converted at build time, as real runtimes do.
    pub precision: DType,
    /// RNG seed for latency noise — fixed seed ⇒ bit-reproducible profiles.
    pub seed: u64,
    /// Profiling iterations to average over.
    pub iterations: u32,
}

impl SessionConfig {
    pub fn new(precision: DType) -> Self {
        SessionConfig {
            precision,
            seed: DEFAULT_SEED,
            iterations: 20,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations.max(1);
        self
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig::new(DType::F16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_fp16_and_deterministic() {
        let c = SessionConfig::default();
        assert_eq!(c.precision, DType::F16);
        assert_eq!(c.seed, SessionConfig::new(DType::F16).seed);
    }

    #[test]
    fn iterations_floor_at_one() {
        assert_eq!(SessionConfig::default().with_iterations(0).iterations, 1);
    }
}
