//! `compare A.json B.json` and `merge OUT.json IN.json...`.
//!
//! A result file holds one run, or — after `merge` — `{"runs": [...]}`.
//! `compare` pairs the untraced runs of the two files by workload and
//! prints one row per end-to-end metric, with the change against the
//! metric's same-seed bound. It compares like with like or not at all:
//! runs whose seed or round count differ are refused, and a workload or
//! metric that only one file has is a failure, not a skipped row.

use crate::json::{obj, Json};
use crate::report::{Better, MetricDef, END_TO_END};

/// Above this `p50 / p10` of the engine leg's rounds, a run sat in a
/// disturbed phase of the host for most of its length, and a timing
/// difference against it decides nothing.
const NOISY: f64 = 1.25;

fn runs(doc: &Json) -> Vec<&Json> {
    match doc.get("runs").and_then(Json::as_arr) {
        Some(rs) => rs.iter().collect(),
        None => vec![doc],
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Writes every run of the input files into one `{"runs": [...]}` file.
pub fn merge(out: &str, inputs: &[String]) -> Result<(), String> {
    let mut all = Vec::new();
    for path in inputs {
        all.extend(runs(&load(path)?).into_iter().cloned());
    }
    let doc = obj([("schema", 1u32.into()), ("runs", Json::Arr(all))]);
    std::fs::write(out, doc.to_pretty()).map_err(|e| format!("{out}: {e}"))
}

fn untraced<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    runs(doc).into_iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("traced") == Some(&Json::Bool(false))
    })
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn host_noise(run: &Json) -> Option<f64> {
    run.get("metrics")?
        .get("engine_ns_per_instr")?
        .get("rounds")?
        .get("host_noise")?
        .as_f64()
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// `delta` is the share by which B is worse than A (negative = better).
fn judge(def: &MetricDef, a: f64, b: f64, noisy: bool) -> (f64, Verdict) {
    let worse_by = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    let delta = if a == 0.0 {
        if worse_by > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        worse_by / a.abs()
    };
    let bound = def.bounds.map_or(0.0, |b| b.same_seed);
    let timed = matches!(def.unit, "ns" | "s");
    let verdict = if delta <= bound {
        Verdict::Ok
    } else if timed && noisy {
        Verdict::Unresolved
    } else {
        Verdict::Regression
    };
    (delta, verdict)
}

/// The seed and round count of a run, as its provenance records them.
fn work_done(run: &Json) -> (Option<&str>, Option<f64>) {
    let p = run.get("provenance");
    (
        p.and_then(|p| p.get("seed")).and_then(Json::as_str),
        p.and_then(|p| p.get("rounds")).and_then(Json::as_f64),
    )
}

/// Prints the comparison; `Ok(true)` when no metric regressed and
/// nothing one file has is missing from the other.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut clean = true;
    let mut rows = 0;
    for spec in &crate::workloads::SPECS {
        let (ra, rb) = match (untraced(&a, spec.name), untraced(&b, spec.name)) {
            (Some(ra), Some(rb)) => (ra, rb),
            (None, None) => continue,
            (in_a, _) => {
                let only = if in_a.is_some() { path_a } else { path_b };
                println!("{:<16} only in {only}  MISSING", spec.name);
                clean = false;
                continue;
            }
        };
        if work_done(ra) != work_done(rb) {
            return Err(format!(
                "{}: seed and rounds differ ({:?} against {:?}): not the same work",
                spec.name,
                work_done(ra),
                work_done(rb)
            ));
        }
        let noisy = [ra, rb]
            .iter()
            .any(|r| host_noise(r).is_some_and(|n| n > NOISY));
        for def in &END_TO_END {
            let (va, vb) = match (metric(ra, def.name), metric(rb, def.name)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => {
                    println!(
                        "{:<16} {:<24} on one side only  MISSING",
                        spec.name, def.name
                    );
                    clean = false;
                    continue;
                }
            };
            let (delta, verdict) = judge(def, va, vb, noisy);
            clean &= verdict != Verdict::Regression;
            rows += 1;
            println!(
                "{:<16} {:<24} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}",
                spec.name,
                def.name,
                va,
                vb,
                100.0 * delta,
                100.0 * def.bounds.map_or(0.0, |b| b.same_seed),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved (host_noise > 1.25)",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no untraced workload run".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FAILED_SHARE;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn a_change_is_judged_against_the_metrics_bound() {
        let d = def("interp_ns_per_instr"); // same-seed bound 7%
        assert_eq!(judge(d, 10.0, 10.6, false).1, Verdict::Ok);
        assert_eq!(judge(d, 10.0, 10.8, false).1, Verdict::Regression);
        assert_eq!(judge(d, 10.0, 10.8, true).1, Verdict::Unresolved);
        assert_eq!(judge(d, 10.0, 5.0, false).1, Verdict::Ok);
        assert!((judge(d, 10.0, 11.0, false).0 - 0.10).abs() < 1e-12);
        // The driver's cross-seed bound (20%) excuses nothing here.
        assert_eq!(judge(d, 10.0, 11.9, false).1, Verdict::Regression);
    }

    #[test]
    fn counts_are_never_excused_by_noise_and_failures_never_at_all() {
        let d = def("dispatches_per_kinstr");
        assert_eq!(judge(d, 80.0, 81.0, true).1, Verdict::Regression);
        let j = def("jit_state_kib");
        assert_eq!(judge(j, 100.0, 124.0, true).1, Verdict::Regression);
        let f = def(FAILED_SHARE);
        assert_eq!(judge(f, 0.0, 0.0, false).1, Verdict::Ok);
        assert_eq!(judge(f, 0.0, 0.001, true).1, Verdict::Regression);
    }

    fn run_file(dir: &std::path::Path, name: &str, seed: &str, rounds: u32, drop: &str) -> String {
        let metrics: Vec<(String, Json)> = END_TO_END
            .iter()
            .filter(|d| d.name != drop)
            .map(|d| (d.name.to_string(), obj([("value", 1.0.into())])))
            .collect();
        let run = |workload: &str| {
            obj([
                ("workload", workload.into()),
                ("traced", false.into()),
                (
                    "provenance",
                    obj([("seed", seed.into()), ("rounds", rounds.into())]),
                ),
                ("metrics", Json::Obj(metrics.clone())),
            ])
        };
        let mut all = vec![run("cold_fleet")];
        if drop != "phase_flip" {
            all.push(run("phase_flip"));
        }
        let path = dir.join(name);
        std::fs::write(&path, obj([("runs", Json::Arr(all))]).to_pretty()).unwrap();
        path.to_str().unwrap().to_string()
    }

    /// Like with like or not at all: a lost workload or metric fails the
    /// comparison, and different work is refused outright.
    #[test]
    fn a_missing_side_fails_and_different_work_is_refused() {
        let dir = std::env::temp_dir().join(format!("benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let whole = run_file(&dir, "whole.json", "1", 60, "");
        assert_eq!(compare(&whole, &whole), Ok(true));
        let no_workload = run_file(&dir, "no_workload.json", "1", 60, "phase_flip");
        assert_eq!(compare(&whole, &no_workload), Ok(false));
        assert_eq!(compare(&no_workload, &whole), Ok(false));
        let no_metric = run_file(&dir, "no_metric.json", "1", 60, "jit_state_kib");
        assert_eq!(compare(&whole, &no_metric), Ok(false));
        let other_seed = run_file(&dir, "other_seed.json", "2", 60, "");
        assert!(compare(&whole, &other_seed).is_err());
        let other_rounds = run_file(&dir, "other_rounds.json", "1", 2, "");
        assert!(compare(&whole, &other_rounds).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_and_single_files_both_yield_their_runs() {
        let one = obj([("workload", "cold_fleet".into()), ("traced", false.into())]);
        let merged = obj([("runs", Json::Arr(vec![one.clone(), one.clone()]))]);
        assert_eq!(runs(&one).len(), 1);
        assert_eq!(runs(&merged).len(), 2);
        assert!(untraced(&merged, "cold_fleet").is_some());
        assert!(untraced(&merged, "phase_flip").is_none());
    }
}
