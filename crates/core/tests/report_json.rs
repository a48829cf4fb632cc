//! A report's JSON streams straight out of the writer, and the bytes are
//! those of the tree printer the writer replaced: `try_to_json`,
//! `to_string` and `to_string_pretty` of random reports equal the oracle's
//! print of `to_value()`. A non-finite float still fails `try_to_json` with
//! the path of the first one in key order.

#[path = "../../../vendor/serde_json/tests/oracle/mod.rs"]
mod oracle;

use proof_core::{
    profile_model, LayerCategory, LayerReport, MetricMode, PipelineTrace, ProfileReport,
    ProofError, RooflineCeiling,
};
use proof_hw::PlatformId;
use proof_ir::DType;
use proof_models::ModelId;
use proof_runtime::{BackendFlavor, SessionConfig};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn pick<'p>(rng: &mut TestRng, options: &[&'p str]) -> &'p str {
    options[rng.below(options.len() as u64) as usize]
}

/// Names with quotes, control characters and non-ASCII text.
fn name(rng: &mut TestRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.below(5) {
        s.push_str(pick(
            rng,
            &[
                "conv", "/", "_1", " ", "\"", "\\", "\n", "\t", "\u{1}", "\u{1f}", "\u{7f}", "é",
                "層", "😀",
            ],
        ));
    }
    s
}

/// Finite edge cases, and one in `1 / non_finite_odds` non-finite.
fn float(rng: &mut TestRng, non_finite_odds: u64) -> f64 {
    if rng.below(non_finite_odds) == 0 {
        return [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize];
    }
    match rng.below(8) {
        0 => -0.0,
        1 => 5e-324,
        2 => 1e300,
        3 => (rng.below(1 << 20) as f64) - 1000.0,
        4 => 0.1,
        _ => rng.unit_f64() * 10f64.powi(rng.below(20) as i32 - 10),
    }
}

fn int(rng: &mut TestRng) -> u64 {
    match rng.below(4) {
        0 => u64::MAX,
        1 => 0,
        2 => rng.below(1 << 20),
        _ => rng.next_u64(),
    }
}

fn report(rng: &mut TestRng, non_finite_odds: u64) -> ProfileReport {
    let layers = (0..rng.below(6))
        .map(|_| LayerReport {
            name: name(rng),
            category: LayerCategory::ALL[rng.below(8) as usize],
            latency_us: float(rng, non_finite_odds),
            flops: int(rng),
            memory_bytes: int(rng),
            is_reorder: rng.below(2) == 0,
            original_nodes: (0..rng.below(3)).map(|_| name(rng)).collect(),
        })
        .collect();
    ProfileReport {
        model: name(rng),
        platform: name(rng),
        backend: name(rng),
        precision: name(rng),
        batch: int(rng),
        mode: if rng.below(2) == 0 {
            MetricMode::Predicted
        } else {
            MetricMode::Measured
        },
        layers,
        ceiling: RooflineCeiling {
            peak_gflops: float(rng, non_finite_odds),
            mem_bw_gbs: float(rng, non_finite_odds),
            extra_bw_lines: (0..rng.below(3))
                .map(|_| (name(rng), float(rng, non_finite_odds)))
                .collect(),
        },
        total_latency_ms: float(rng, non_finite_odds),
        total_flops: int(rng),
        total_memory_bytes: int(rng),
        metric_collection_s: float(rng, non_finite_odds),
        util_gpu: float(rng, non_finite_odds),
        util_mem: float(rng, non_finite_odds),
        unresolved_layers: int(rng) as usize,
        trace: PipelineTrace::default(),
    }
}

fn non_finite_message(path: &str) -> String {
    format!("non-finite number at {path} would not survive a JSON round-trip")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn report_json_matches_the_tree_printer(seed in any::<u64>()) {
        let mut rng = TestRng::for_case(seed);
        let r = report(&mut rng, 40);
        let tree = serde_json::to_value(&r);
        let pretty = oracle::pretty(&tree);
        prop_assert_eq!(serde_json::to_string(&r).unwrap(), oracle::compact(&tree));
        prop_assert_eq!(serde_json::to_string_pretty(&r).unwrap(), pretty.clone());
        match r.try_to_json() {
            Ok(json) => {
                prop_assert_eq!(&json, &pretty);
                prop_assert!(!pretty.contains("null"), "a finite report printed null");
            }
            Err(ProofError::Serialize(msg)) => {
                prop_assert!(msg.starts_with("non-finite number at report."), "{}", msg);
                prop_assert!(pretty.contains("null"), "refused a finite report: {}", msg);
            }
            Err(other) => prop_assert!(false, "unexpected error {}", other),
        }
    }
}

fn real_report() -> ProfileReport {
    profile_model(
        &ModelId::MobileNetV2x05.build(2),
        &PlatformId::A100.spec(),
        BackendFlavor::TrtLike,
        &SessionConfig::new(DType::F16),
        MetricMode::Predicted,
    )
    .unwrap()
}

fn serialize_error(r: &ProfileReport) -> String {
    match r.try_to_json() {
        Err(ProofError::Serialize(msg)) => msg,
        other => panic!("expected a serialize error, got {other:?}"),
    }
}

#[test]
fn real_report_matches_the_tree_printer() {
    let r = real_report();
    let tree = serde_json::to_value(&r);
    assert_eq!(r.try_to_json().unwrap(), oracle::pretty(&tree));
    assert_eq!(serde_json::to_string(&r).unwrap(), oracle::compact(&tree));
}

#[test]
fn nan_layer_latency_names_its_layer() {
    let mut r = real_report();
    r.layers[3].latency_us = f64::NAN;
    assert_eq!(
        serialize_error(&r),
        non_finite_message("report.layers[3].latency_us")
    );
}

#[test]
fn infinite_extra_bandwidth_line_names_its_tuple_slot() {
    let mut r = real_report();
    r.ceiling = r.ceiling.with_extra_bw("l2", f64::INFINITY);
    assert_eq!(
        serialize_error(&r),
        non_finite_message("report.ceiling.extra_bw_lines[0][1]")
    );
}

#[test]
fn top_level_total_latency_is_named() {
    let mut r = real_report();
    r.total_latency_ms = f64::NAN;
    assert_eq!(
        serialize_error(&r),
        non_finite_message("report.total_latency_ms")
    );
}

#[test]
fn the_first_non_finite_in_key_order_is_named() {
    let mut r = real_report();
    r.util_mem = f64::NAN;
    r.layers[2].latency_us = f64::NEG_INFINITY;
    r.layers[5].latency_us = f64::NAN;
    // "layers" sorts before "util_mem", and layer 2 before layer 5
    assert_eq!(
        serialize_error(&r),
        non_finite_message("report.layers[2].latency_us")
    );
}

#[test]
fn plain_serialization_still_writes_null_for_non_finite_values() {
    let mut r = real_report();
    r.total_latency_ms = f64::INFINITY;
    let compact = serde_json::to_string(&r).unwrap();
    assert!(compact.contains(r#""total_latency_ms":null"#), "{compact}");
    let pretty = serde_json::to_string_pretty(&r).unwrap();
    assert!(pretty.contains(r#""total_latency_ms": null"#));
    assert_eq!(pretty, oracle::pretty(&serde_json::to_value(&r)));
}
