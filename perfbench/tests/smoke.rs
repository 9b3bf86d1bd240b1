//! A smoke-sized run of each workload, untraced and traced, emits every
//! named metric and a correct result.

use std::path::PathBuf;
use std::process::Command;
use textmr_perfbench::metrics::{END_TO_END, PER_LAYER, SPAN_LAYERS};
use textmr_perfbench::workloads::NAMES;

/// Run the benchmark binary in its own scratch directory.
fn run(workload: &str, trace: u8) -> (i32, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .current_dir(&dir)
        .output()
        .expect("run the benchmark");
    assert!(
        !dir.join(".perfbench_tmp").exists(),
        "temp root left behind"
    );
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The numeric value of `name` in a result line.
fn value(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at + name.len() + 14..];
    rest[..rest.find(',')?].parse().ok()
}

fn check(workload: &str, trace: u8, names: &[(&str, &str)]) -> String {
    let (code, stdout) = run(workload, trace);
    assert_eq!(code, 0, "{workload} trace={trace}:\n{stdout}");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload} trace={trace}: {last}\n{stdout}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    for (name, unit) in names {
        let v = value(&last, name).unwrap_or_else(|| panic!("{workload}: no {name} in {last}"));
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
    }
    last
}

#[test]
fn untraced_smoke_runs_emit_every_end_to_end_metric() {
    for w in NAMES {
        let last = check(w, 0, END_TO_END);
        for (name, _) in END_TO_END {
            assert!(value(&last, name).unwrap() > 0.0, "{w}: {name} reads 0");
        }
    }
}

#[test]
fn traced_smoke_runs_emit_every_per_layer_metric_and_account_for_the_pass() {
    for w in NAMES {
        let last = check(w, 1, PER_LAYER);
        let accounted: f64 = SPAN_LAYERS
            .iter()
            .map(|l| value(&last, &format!("{l}.self_pct")).unwrap())
            .sum::<f64>()
            + value(&last, "bench.unattributed_pct").unwrap();
        assert!(
            (accounted - 100.0).abs() < 1e-6,
            "{w}: layers cover {accounted} %"
        );
        assert!(value(&last, "task.map_call_s").unwrap() > 0.0, "{w}");
    }
}

#[test]
fn bad_command_lines_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "text-zipf",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &["--workload", "text-zipf", "--seconds", "1", "--trace", "0"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .unwrap();
        assert_ne!(out.status.code(), Some(0), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
