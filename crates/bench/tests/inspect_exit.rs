//! `mmm-inspect` exits 2 on a malformed export instead of comparing it
//! or aborting.

use std::fs;
use std::process::Command;

/// The exit code of `mmm-inspect` diffing an export holding `text`
/// against itself.
fn self_diff(name: &str, text: &str) -> Option<i32> {
    let dir = std::env::temp_dir().join(format!("mmm-inspect-exit-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    fs::write(&path, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mmm-inspect"))
        .arg(&path)
        .arg(&path)
        .output()
        .unwrap();
    out.status.code()
}

#[test]
fn malformed_exports_exit_2() {
    let valid = "{\"config\":\"a\",\"benchmark\":\"b\",\"cycles\":1,\"vcpus\":[{\"vcpu\":0,\
                 \"vm\":0,\"user_commits\":0}],\"metrics\":{\"counters\":{\"run.cycles\":1},\
                 \"gauges\":{},\"histograms\":{},\"stats\":{}}}\n";
    assert_eq!(self_diff("valid.jsonl", valid), Some(0));
    let stub = "{\"config\":\"a\",\"metrics\":{}}\n";
    assert_eq!(self_diff("stub.jsonl", stub), Some(2));
    assert_eq!(self_diff("deep.jsonl", &"[".repeat(200_000)), Some(2));
}
