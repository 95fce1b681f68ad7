//! Where a result came from: commit, toolchain, host. Gathered outside
//! every timed region; a tool that is missing reads "unknown".

use std::process::Command;

use crate::json::{obj, Json};

/// Runs a tool to completion and returns its trimmed first line.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn host() -> Json {
    obj([
        (
            "git_commit",
            first_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("rustc", first_line("rustc", &["-V"]).into()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .into(),
        ),
        ("cpu_model", cpu_model().into()),
    ])
}
