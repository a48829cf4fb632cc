//! Host-speed calibration.
//!
//! The machines this benchmark runs on share their cores with other guests,
//! and their speed moves by up to 2× over tens of seconds with no steal
//! time to show for it: the same pass over the zoo takes 62 ms in one
//! stretch and 137 ms a minute later, and CPU time moves with it. So the
//! harness times a fixed calibration kernel — standard-library code only,
//! none of the program's — right before each unit of work, and scales the
//! unit's time by how much slower or faster the kernel ran around it than
//! on the reference machine. A change to the program moves the scaled
//! times; a change in the host's speed moves the kernel as much as the
//! program and cancels out.

use crate::ms_since;
use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference machine (a 2-vCPU virtual machine),
/// in ms: the median over its runs.
pub const REFERENCE_KERNEL_MS: f64 = 1.0;

/// Fixed work with the program's mix: allocation, formatting, sorting,
/// hashing and map inserts over a few hundred kilobytes.
fn kernel() -> u64 {
    let mut words: Vec<String> = (0..4_000u64)
        .map(|i| format!("{:x}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    words.sort_unstable();
    let mut index: HashMap<&str, usize> = HashMap::with_capacity(words.len());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, w) in words.iter().enumerate() {
        for b in w.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        index.insert(w, i);
    }
    h ^ index.len() as u64
}

/// The kernel times of one run, in the order they were taken.
#[derive(Default)]
pub struct Calibration {
    kernel_ms: Vec<f64>,
}

impl Calibration {
    /// Time the kernel once; the mark names this calibration to the
    /// samples taken after it.
    pub fn sample(&mut self) -> usize {
        let t = Instant::now();
        black_box(kernel());
        self.kernel_ms.push(ms_since(t));
        self.kernel_ms.len() - 1
    }

    /// What turns a time measured after calibration `mark` into
    /// reference-machine time: the reference kernel time over the median of
    /// the kernel times just before, at and after the mark — the last of
    /// them taken when the unit has ended, so the factor brackets the unit.
    /// 1 before any calibration.
    pub fn factor(&self, mark: usize) -> f64 {
        let end = (mark + 2).min(self.kernel_ms.len());
        let around = &self.kernel_ms[mark.saturating_sub(1).min(end)..end];
        median(around).map_or(1.0, |ms| REFERENCE_KERNEL_MS / ms)
    }

    /// The median factor over the run.
    pub fn run_factor(&self) -> f64 {
        median(&self.kernel_ms).map_or(1.0, |ms| REFERENCE_KERNEL_MS / ms)
    }
}

/// Times as measured, each with the calibration taken right before it and
/// the part of it spent sleeping, which the host's speed does not change.
#[derive(Default)]
pub struct Samples(Vec<(f64, f64, usize)>);

impl Samples {
    pub fn push(&mut self, value: f64, mark: usize) {
        self.push_slept(value, 0.0, mark);
    }

    pub fn push_slept(&mut self, value: f64, slept: f64, mark: usize) {
        self.0.push((value, slept, mark));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn raw(&self) -> Vec<f64> {
        self.0.iter().map(|s| s.0).collect()
    }

    /// The values in reference-machine time: the part that was not asleep
    /// scaled by its calibration's factor.
    pub fn scaled(&self, calib: &Calibration) -> Vec<f64> {
        self.0
            .iter()
            .map(|&(value, slept, mark)| (value - slept) * calib.factor(mark) + slept)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_brackets_the_unit_and_sleep_is_not_scaled() {
        let mut c = Calibration::default();
        assert_eq!(c.factor(0), 1.0);
        c.kernel_ms = vec![1.0, 2.0, 4.0, 2.0];
        // median of 1, 2, 4 around mark 1; of 1, 2 at the start
        assert_eq!(c.factor(1), 0.5);
        assert_eq!(c.factor(0), 1.0 / 1.5);
        // the last mark has no later calibration: median of 4, 2
        assert_eq!(c.factor(3), 1.0 / 3.0);
        let mut s = Samples::default();
        s.push(10.0, 1);
        s.push_slept(15.0, 5.0, 1);
        assert_eq!(s.scaled(&c), vec![5.0, 10.0]);
        assert_eq!(s.raw(), vec![10.0, 15.0]);
        assert_eq!(c.run_factor(), 0.5);
    }
}
