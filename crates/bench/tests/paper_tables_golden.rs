//! Golden test: the csv output of every deterministic `paper_tables`
//! table at test scale is pinned byte for byte. Tables VI–VII (and
//! `summary`, which reads them) are wall-clock timings and stay out.
//!
//! A change that moves a printed number shows up here as a reviewed
//! diff of `paper_tables_test_scale.csv`, which is the concatenation of
//! `paper_tables --scale test --format csv --table T` over [`TABLES`].

use std::process::Command;

/// The deterministic tables, in the order the golden file holds them.
const TABLES: [&str; 10] = [
    "1",
    "2",
    "3",
    "4",
    "5",
    "fig",
    "unroll",
    "decay",
    "inline",
    "baselines",
];

#[test]
fn deterministic_tables_match_golden() {
    let mut got = String::new();
    for table in TABLES {
        let out = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
            .args(["--scale", "test", "--format", "csv", "--table", table])
            .output()
            .expect("paper_tables starts");
        assert!(out.status.success(), "paper_tables --table {table} failed");
        got.push_str(&String::from_utf8(out.stdout).expect("utf-8 output"));
    }
    let want = include_str!("paper_tables_test_scale.csv");
    if got != want {
        let (line, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((got.lines().count().min(want.lines().count()), ("", "")));
        panic!(
            "paper_tables output differs from the golden file at line {}:\n  got:  {g}\n  want: {w}",
            line + 1
        );
    }
}
