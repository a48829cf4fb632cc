//! Service metrics on the `proof-obs` registry: job/pipeline-stage latency
//! histograms and worker utilization.
//!
//! The log2 [`Histogram`] itself now lives in `proof_obs::metrics` (it is
//! re-exported here unchanged); this module keeps the serve-specific
//! instruments — per-stage histograms registered under `stage_<name>_us`,
//! worker busy accounting — and the JSON rendering used by `GET /metrics`.

use proof_core::{PipelineStage, StageTiming};
use proof_obs::MetricsRegistry;
pub use proof_obs::{Histogram, HistogramSnapshot};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A histogram snapshot in the `/metrics` JSON shape: totals, quantile
/// estimates from the log2 buckets (exact to within one power of two;
/// the Prometheus exposition leaves quantiles to scrapers), and the
/// buckets as `[le, count]` pairs.
#[derive(Serialize)]
pub(crate) struct HistJson {
    count: u64,
    sum_us: u64,
    max_us: u64,
    mean_us: f64,
    p50_us: u64,
    p99_us: u64,
    buckets: Vec<(u64, u64)>,
}

impl From<HistogramSnapshot> for HistJson {
    fn from(snap: HistogramSnapshot) -> HistJson {
        HistJson {
            count: snap.count,
            sum_us: snap.sum_us,
            max_us: snap.max_us,
            mean_us: snap.mean_us,
            p50_us: snap.quantile_us(0.5),
            p99_us: snap.quantile_us(0.99),
            buckets: snap.buckets,
        }
    }
}

/// One latency histogram per pipeline stage, fed from the [`StageTiming`]s
/// of traces the workers actually execute (cached prefix stages are
/// recorded once, when built — not again on every reuse). The histograms
/// are registered as `stage_<name>_us`, so the Prometheus exposition picks
/// them up from the registry snapshot.
pub struct StageHistograms {
    hists: [Arc<Histogram>; PipelineStage::ALL.len()],
}

impl Default for StageHistograms {
    fn default() -> Self {
        StageHistograms::register(&MetricsRegistry::new())
    }
}

impl StageHistograms {
    /// Register the five stage histograms in `registry`.
    pub fn register(registry: &MetricsRegistry) -> StageHistograms {
        StageHistograms {
            hists: PipelineStage::ALL
                .map(|s| registry.histogram(&format!("stage_{}_us", s.name()))),
        }
    }

    fn index(stage: PipelineStage) -> usize {
        PipelineStage::ALL
            .iter()
            .position(|&s| s == stage)
            .expect("stage in ALL")
    }

    /// Record a batch of executed stage timings.
    pub fn record<'a>(&self, timings: impl IntoIterator<Item = &'a StageTiming>) {
        for t in timings {
            self.hists[Self::index(t.stage)].record_us(t.duration_us.round().max(0.0) as u64);
        }
    }

    /// Per-stage snapshots as `(name, snapshot)`, in pipeline order.
    pub fn snapshot(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        PipelineStage::ALL
            .iter()
            .map(|&s| (s.name(), self.hists[Self::index(s)].snapshot()))
            .collect()
    }
}

/// Wall-clock-busy accounting for the worker pool.
pub struct WorkerMetrics {
    started: Instant,
    workers: usize,
    busy_us: AtomicU64,
    busy_now: AtomicU64,
    jobs_executed: AtomicU64,
}

#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkerSnapshot {
    pub count: usize,
    /// Workers currently executing a job.
    pub busy: u64,
    pub jobs_executed: u64,
    /// Busy-time fraction of total worker-uptime, in `[0, 1]`.
    pub utilization: f64,
}

impl WorkerMetrics {
    pub fn new(workers: usize) -> WorkerMetrics {
        WorkerMetrics {
            started: Instant::now(),
            workers,
            busy_us: AtomicU64::new(0),
            busy_now: AtomicU64::new(0),
            jobs_executed: AtomicU64::new(0),
        }
    }

    /// RAII span covering one job execution.
    pub fn busy_span(&self) -> BusySpan<'_> {
        self.busy_now.fetch_add(1, Ordering::Relaxed);
        BusySpan {
            metrics: self,
            started: Instant::now(),
        }
    }

    pub fn snapshot(&self) -> WorkerSnapshot {
        let uptime_us = self.started.elapsed().as_micros().max(1) as f64;
        let busy_us = self.busy_us.load(Ordering::Relaxed) as f64;
        WorkerSnapshot {
            count: self.workers,
            busy: self.busy_now.load(Ordering::Relaxed),
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
            utilization: (busy_us / (uptime_us * self.workers.max(1) as f64)).min(1.0),
        }
    }
}

pub struct BusySpan<'a> {
    metrics: &'a WorkerMetrics,
    started: Instant,
}

impl Drop for BusySpan<'_> {
    fn drop(&mut self) {
        let us = self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.metrics.busy_us.fetch_add(us, Ordering::Relaxed);
        self.metrics.busy_now.fetch_sub(1, Ordering::Relaxed);
        self.metrics.jobs_executed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        h.record_us(0); // clamped into bucket 0
        h.record_us(1);
        h.record_us(3);
        h.record_us(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.max_us, 1000);
        // 0 and 1 land in [1,2), 3 in [2,4), 1000 in [512,1024)
        assert_eq!(s.buckets, vec![(2, 2), (4, 1), (1024, 1)]);
    }

    #[test]
    fn hist_json_keeps_the_metrics_json_shape() {
        let h = Histogram::default();
        h.record_us(3);
        h.record_us(5);
        let v = serde_json::to_value(&HistJson::from(h.snapshot()));
        assert_eq!(v["count"].as_u64(), Some(2));
        assert_eq!(v["sum_us"].as_u64(), Some(8));
        assert_eq!(v["mean_us"].as_f64(), Some(4.0));
        assert_eq!(v["p50_us"].as_u64(), Some(4)); // 3 lands in [2,4)
        assert_eq!(v["p99_us"].as_u64(), Some(5)); // clamped to max_us
        let buckets = v["buckets"].as_array().unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].as_array().unwrap()[0].as_u64(), Some(4));
    }

    #[test]
    fn stage_histograms_key_by_stage_name() {
        let h = StageHistograms::default();
        h.record(&[
            StageTiming {
                stage: PipelineStage::Compile,
                duration_us: 100.0,
            },
            StageTiming {
                stage: PipelineStage::Metrics,
                duration_us: 7.0,
            },
            StageTiming {
                stage: PipelineStage::Metrics,
                duration_us: 9.0,
            },
        ]);
        let snap = h.snapshot();
        assert_eq!(snap.len(), 5);
        let by_name = |n: &str| snap.iter().find(|(k, _)| *k == n).unwrap().1.clone();
        assert_eq!(by_name("compile").count, 1);
        assert_eq!(by_name("metrics").count, 2);
        assert_eq!(by_name("metrics").sum_us, 16);
        assert_eq!(by_name("assemble").count, 0);
    }

    #[test]
    fn stage_histograms_share_the_registry_instruments() {
        let registry = MetricsRegistry::new();
        let stages = StageHistograms::register(&registry);
        stages.record(&[StageTiming {
            stage: PipelineStage::Map,
            duration_us: 42.0,
        }]);
        let snap = registry.snapshot();
        let map_hist = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "stage_map_us")
            .expect("registered under stage_map_us");
        assert_eq!(map_hist.1.count, 1);
        assert_eq!(snap.histograms.len(), 5);
    }

    #[test]
    fn worker_utilization_tracks_busy_spans() {
        let m = WorkerMetrics::new(2);
        {
            let _span = m.busy_span();
            assert_eq!(m.snapshot().busy, 1);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let s = m.snapshot();
        assert_eq!(s.busy, 0);
        assert_eq!(s.jobs_executed, 1);
        assert!(s.utilization > 0.0 && s.utilization <= 1.0);
    }
}
