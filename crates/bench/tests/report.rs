//! The `report` binary's exit status on artifacts that carry an `slo`
//! array: it re-checks every row and exits nonzero when any row fails.

use std::process::Command;

#[test]
fn report_exits_nonzero_on_a_failing_slo_row() {
    let dir = std::env::temp_dir().join(format!("raizn_report_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let run = |name: &str, rows: &str| {
        let path = dir.join(name);
        std::fs::write(&path, format!("{{\"kind\": \"x\", \"slo\": [{rows}]}}\n"))
            .expect("write artifact");
        Command::new(env!("CARGO_BIN_EXE_report"))
            .arg(&path)
            .output()
            .expect("run report")
    };
    let ok = r#"{"name": "ratio", "value": 1.0, "op": "<=", "bound": 1.25}"#;
    let bad = r#"{"name": "waf", "value": 1.6, "op": "<=", "bound": 1.5}"#;

    let out = run("pass.json", ok);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("value=1.000 threshold=1.25 PASS"),
        "{stdout}"
    );

    let out = run("fail.json", &format!("{ok}, {bad}"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "a failing row exited zero: {stdout}");
    assert!(stdout.contains("SLO ratio file="), "{stdout}");
    assert!(
        stdout.contains("SLO waf file=") && stdout.contains("value=1.600 threshold=1.5 FAIL"),
        "{stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
