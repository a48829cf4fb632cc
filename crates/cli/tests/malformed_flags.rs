//! A malformed numeric flag is a usage error, not a crash: the CLI names
//! the flag and the value it got, prints the usage text and exits 2.

use std::process::Command;

/// Run `proof <args>` and return its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_proof"))
        .args(args)
        .output()
        .expect("spawn proof");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], flag: &str, value: &str) {
    let (code, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("--{flag} expects a number, got '{value}'")),
        "{args:?}: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

#[test]
fn malformed_batches_and_batch_exit_2() {
    assert_usage_error(
        &[
            "fleet",
            "sweep",
            "--in-process",
            "--models",
            "resnet-50",
            "--platforms",
            "a100",
            "--batches",
            "a",
        ],
        "batches",
        "a",
    );
    assert_usage_error(
        &[
            "profile",
            "--model",
            "resnet-50",
            "--platform",
            "a100",
            "--batch",
            "x",
        ],
        "batch",
        "x",
    );
}

#[test]
fn every_numeric_flag_family_reports_its_name() {
    let fleet = [
        "fleet",
        "sweep",
        "--in-process",
        "--models",
        "resnet-50",
        "--platforms",
        "a100",
    ];
    let with = |base: &[&'static str], extra: [&'static str; 2]| {
        let mut v = base.to_vec();
        v.extend(extra);
        v
    };
    assert_usage_error(&with(&fleet, ["--batches", "1,two"]), "batches", "two");
    assert_usage_error(&with(&fleet, ["--seed", "-1"]), "seed", "-1");
    let profile = ["profile", "--model", "resnet-50", "--platform", "a100"];
    assert_usage_error(&with(&profile, ["--seed", "s"]), "seed", "s");
    assert_usage_error(
        &with(&profile, ["--timeout-ms", "soon"]),
        "timeout-ms",
        "soon",
    );
    assert_usage_error(&["serve", "--workers", "many"], "workers", "many");
    assert_usage_error(&["serve", "--queue-cap", "1.5"], "queue-cap", "1.5");
    assert_usage_error(&["fleet", "serve", "--local", "two"], "local", "two");
    assert_usage_error(
        &["inspect", "--model", "resnet-50", "--batch", ""],
        "batch",
        "",
    );
}
