//! `textmr-lint --trace` end to end: a shipped trace audits clean, and the
//! same trace with its recorded edges stripped fails with the named
//! `edges` structural finding and a non-zero exit.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use textmr_engine::trace::JobTrace;

fn lint_trace(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_textmr-lint"))
        .arg("--trace")
        .arg(path)
        .output()
        .expect("run textmr-lint")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("textmr-lint-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn edgeless_trace_fails_the_cli_audit() {
    let shipped = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/trace_baseline.json");
    let text = std::fs::read_to_string(&shipped).expect("read shipped trace");
    let mut trace = JobTrace::from_chrome_json(&text).expect("import shipped trace");
    assert!(!trace.edges.is_empty(), "shipped traces record their edges");

    let dir = temp_dir("edgeless");
    let clean = dir.join("clean.json");
    std::fs::write(&clean, trace.to_chrome_json()).unwrap();
    let out = lint_trace(&clean);
    assert!(
        out.status.success(),
        "the shipped trace must audit clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    trace.edges.clear();
    let edgeless = dir.join("edgeless.json");
    std::fs::write(&edgeless, trace.to_chrome_json()).unwrap();
    let out = lint_trace(&edgeless);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("STRUCTURE edges:"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
