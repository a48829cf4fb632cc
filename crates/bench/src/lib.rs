//! # proof-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§4):
//!
//! | binary | regenerates |
//! |---|---|
//! | `exp_table3` | Table 3 — model inventory (nodes/params/GFLOP) |
//! | `exp_table4` | Table 4 — analytical vs measured FLOP/memory + prof. time |
//! | `exp_fig4` | Figure 4 — end-to-end rooflines, all models × 7 platforms |
//! | `exp_fig5` | Figure 5 — layer-wise rooflines on A100 |
//! | `exp_table5` | Table 5 + Figures 6/7 — the ShuffleNetV2 case study |
//! | `exp_table6` | Table 6 — achieved roofline peaks & power vs clocks |
//! | `exp_table7` | Table 7 + Figure 8 — power profiles & the 15 W search |
//! | `exp_ablation` | design-choice ablations (fusion-aware memory, strided-conv rule) |
//! | `exp_int8` | extension: int8 vs fp16 sweep (incl. the SD conversion failure) |
//! | `exp_energy` | extension: energy/inference across the Table 7 power profiles |
//! | `exp_batch_sweep` | extension: throughput-saturation sweeps behind Table 5's bs=2048 |
//!
//! Each binary prints a paper-style table to stdout and writes CSV/SVG
//! artifacts under `results/`.

use std::path::{Path, PathBuf};

/// Output directory for CSV/SVG artifacts (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Save an artifact and report where it went.
pub fn save_artifact(name: &str, content: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write artifact");
    println!("  wrote {}", path.display());
}

/// Signed percentage difference of `ours` relative to `reference`.
pub fn pct_diff(ours: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    100.0 * (ours - reference) / reference
}

/// Format a signed percentage like the paper ("-19.82%", "+1.35%").
pub fn fmt_pct(p: f64) -> String {
    format!("{}{:.2}%", if p >= 0.0 { "+" } else { "" }, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_diff_signs() {
        assert!((pct_diff(80.0, 100.0) + 20.0).abs() < 1e-12);
        assert!((pct_diff(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert_eq!(pct_diff(5.0, 0.0), 0.0);
    }

    #[test]
    fn fmt_pct_matches_paper_style() {
        assert_eq!(fmt_pct(-19.824), "-19.82%");
        assert_eq!(fmt_pct(1.347), "+1.35%");
    }

    #[test]
    fn results_dir_is_creatable() {
        assert!(results_dir().is_dir());
    }

    /// Guardrail: capturing spans must not change what the pipeline
    /// computes, and the tracing path
    /// must stay far below report granularity (reports quote milliseconds;
    /// a run opens ~6 spans).
    #[test]
    fn tracing_overhead_is_unmeasurable_at_report_granularity() {
        use proof_core::{profile_model, MetricMode};
        use proof_hw::PlatformId;
        use proof_ir::DType;
        use proof_models::ModelId;
        use proof_runtime::{BackendFlavor, SessionConfig};
        use std::time::Instant;

        let profile_once = || {
            let g = ModelId::MobileNetV2x05.build(1);
            let platform = PlatformId::A100.spec();
            let cfg = SessionConfig::new(DType::F16);
            profile_model(
                &g,
                &platform,
                BackendFlavor::TrtLike,
                &cfg,
                MetricMode::Predicted,
            )
            .unwrap()
            .to_json()
        };
        let time_once = |captured: bool| {
            let t = Instant::now();
            let capture = captured.then(proof_obs::Capture::start);
            let json = profile_once();
            if let Some(capture) = capture {
                assert!(!capture.finish().spans.is_empty());
            }
            (t.elapsed(), json)
        };

        // no capture active: every span goes nowhere
        let (_, plain_json) = time_once(false);
        let plain_best = (0..5).map(|_| time_once(false).0).min().unwrap();

        // same pipeline with every span kept by a capture
        let (_, captured_json) = time_once(true);
        let captured_best = (0..5).map(|_| time_once(true).0).min().unwrap();

        // identical output bytes: observation never perturbs the result
        assert_eq!(plain_json, captured_json);
        // generous margin — this catches pathological regressions (a lock
        // or allocation on every kernel), not scheduler noise
        assert!(
            captured_best <= plain_best * 10 + std::time::Duration::from_millis(5),
            "captured run {captured_best:?} vastly slower than uncaptured {plain_best:?}"
        );
    }
}
