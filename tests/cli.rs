//! End-to-end tests of the `tracevm` command-line interface.

use std::process::Command;

fn tracevm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracevm"))
}

#[test]
fn list_names_all_six_workloads() {
    let out = tracevm().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "compress",
        "javac",
        "raytrace",
        "mpegaudio",
        "soot",
        "scimark",
    ] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn run_reports_matching_checksum_on_every_engine() {
    for engine in ["interp", "trace", "exec"] {
        let out = tracevm()
            .args([
                "run", "compress", "--scale", "test", "--engine", engine, "--delay", "16",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "engine {engine} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("matches reference"),
            "engine {engine} checksum mismatch:\n{stdout}"
        );
    }
}

#[test]
fn disasm_lists_blocks() {
    let out = tracevm()
        .args(["disasm", "javac", "--scale", "test"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("`main`"));
    assert!(stdout.contains("b0"));
    assert!(stdout.contains("tableswitch"));
}

#[test]
fn compare_prints_all_three_selectors() {
    let out = tracevm()
        .args(["compare", "raytrace", "--scale", "test"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for sel in ["bcg", "net", "replay"] {
        assert!(stdout.contains(sel), "missing {sel}:\n{stdout}");
    }
}

#[test]
fn unknown_workload_fails_cleanly() {
    let out = tracevm()
        .args(["run", "quake", "--scale", "test"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown workload"));
}

#[test]
fn bad_option_shows_usage() {
    let out = tracevm()
        .args(["run", "compress", "--bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"));
}

#[test]
fn out_of_range_threshold_is_an_error_not_a_panic() {
    for bad in ["2", "0", "-1", "nan"] {
        for cmd in [
            &["run", "compress", "--engine", "exec"][..],
            &["run", "compress", "--engine", "trace"],
            &["compare", "compress"],
            &["dot", "compress"],
        ] {
            let out = tracevm()
                .args(cmd)
                .args(["--scale", "test", "--threshold", bad])
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd:?} {bad}:\n{stderr}");
            assert!(!stderr.contains("panicked"), "{cmd:?} {bad}:\n{stderr}");
            assert!(stderr.contains("bad threshold"), "{cmd:?} {bad}:\n{stderr}");
            assert!(stderr.contains("usage:"), "{cmd:?} {bad}:\n{stderr}");
        }
    }
}

/// A node created with no start delay left would wait for its first
/// decay, so `--delay 0` would silently act as one decay interval.
#[test]
fn zero_delay_is_an_error_not_a_decay_interval() {
    for engine in ["exec", "trace"] {
        let out = tracevm()
            .args(["run", "compress", "--scale", "test", "--engine", engine])
            .args(["--delay", "0"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{engine}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{engine}:\n{stderr}");
        assert!(stderr.contains("bad delay"), "{engine}:\n{stderr}");
    }
}

#[test]
fn dot_writes_both_files() {
    let dir = std::env::temp_dir().join("tracevm_dot_test");
    let _ = std::fs::create_dir_all(&dir);
    let out = tracevm()
        .args([
            "dot",
            "soot",
            "--scale",
            "test",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let bcg = std::fs::read_to_string(dir.join("bcg.dot")).expect("bcg.dot written");
    assert!(bcg.starts_with("digraph bcg {"));
    let traces = std::fs::read_to_string(dir.join("traces.dot")).expect("traces.dot written");
    assert!(traces.starts_with("digraph traces {"));
}
