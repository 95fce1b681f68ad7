//! Workload registry: uniform access to the six benchmarks at three
//! problem scales.

use jvm_bytecode::Program;
use jvm_vm::Value;

/// Problem size for a workload.
///
/// * `Test` — sub-second, for unit/integration tests (≈10⁵ instructions);
/// * `Small` — seconds for all six, for quick table regeneration
///   (≈10⁶–10⁷ instructions);
/// * `Paper` — the full benchmark runs used by the Criterion benches
///   (≈10⁷–10⁸ instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Unit-test size.
    Test,
    /// Quick experiment size.
    Small,
    /// Full benchmark size.
    Paper,
}

impl Scale {
    /// Parses a scale name: `test`, `small` or `paper`.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "test" => Some(Scale::Test),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// A ready-to-run benchmark: program, entry arguments, and the checksum
/// its reference implementation predicts.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name matching the paper's benchmark column ("compress", …).
    pub name: &'static str,
    /// One-line description of what the program does.
    pub description: &'static str,
    /// The verified program.
    pub program: Program,
    /// Entry arguments.
    pub args: Vec<Value>,
    /// Checksum the run must produce (reference-implementation replay).
    pub expected_checksum: u64,
}

/// Builds the `compress` analogue.
pub fn compress(scale: Scale) -> Workload {
    crate::compress::build(scale)
}

/// Builds the `javac` analogue.
pub fn javac(scale: Scale) -> Workload {
    crate::javac::build(scale)
}

/// Builds the `raytrace` analogue.
pub fn raytrace(scale: Scale) -> Workload {
    crate::raytrace::build(scale)
}

/// Builds the `mpegaudio` analogue.
pub fn mpegaudio(scale: Scale) -> Workload {
    crate::mpegaudio::build(scale)
}

/// Builds the `soot` analogue.
pub fn soot(scale: Scale) -> Workload {
    crate::soot::build(scale)
}

/// Builds the `scimark` analogue.
pub fn scimark(scale: Scale) -> Workload {
    crate::scimark::build(scale)
}

/// Builds the phase-shift robustness workload (branch bias flips at
/// n/2). Not part of [`all`] — it models pathological behavior, not a
/// paper benchmark; the chaos campaigns, staleness regressions and the
/// `phase_shift` bench leg request it explicitly.
pub fn phase_shift(scale: Scale) -> Workload {
    crate::phase_shift::build(scale)
}

/// Phase-shift variant flipping at n/4 (demotion latency dominates).
pub fn phase_shift_early(scale: Scale) -> Workload {
    crate::phase_shift::build_early(scale)
}

/// Phase-shift variant flipping at 3n/4 (long healthy history first).
pub fn phase_shift_late(scale: Scale) -> Workload {
    crate::phase_shift::build_late(scale)
}

/// All six workloads in the paper's column order.
pub fn all(scale: Scale) -> Vec<Workload> {
    vec![
        compress(scale),
        javac(scale),
        raytrace(scale),
        mpegaudio(scale),
        soot(scale),
        scimark(scale),
    ]
}

/// Looks a workload up by its paper name.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    match name {
        "compress" => Some(compress(scale)),
        "javac" => Some(javac(scale)),
        "raytrace" => Some(raytrace(scale)),
        "mpegaudio" => Some(mpegaudio(scale)),
        "soot" => Some(soot(scale)),
        "scimark" => Some(scimark(scale)),
        "phase_shift" => Some(phase_shift(scale)),
        "phase_shift_early" => Some(phase_shift_early(scale)),
        "phase_shift_late" => Some(phase_shift_late(scale)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_parse() {
        assert_eq!(Scale::parse("test"), Some(Scale::Test));
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn all_returns_six_in_paper_order() {
        let ws = all(Scale::Test);
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "compress",
                "javac",
                "raytrace",
                "mpegaudio",
                "soot",
                "scimark"
            ]
        );
    }

    #[test]
    fn by_name_resolves_and_rejects() {
        assert!(by_name("soot", Scale::Test).is_some());
        assert!(by_name("quake", Scale::Test).is_none());
    }
}
