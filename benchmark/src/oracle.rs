//! The oracle and the failure count.
//!
//! `ReferenceVm` is the frozen pre-overhaul interpreter: it shares no
//! execution code with either timed leg. In set-up it runs each distinct
//! `(program, args)` once; every timed run of either leg is then compared
//! with what it recorded. Nothing here panics on a wrong answer — a
//! mismatch is a failed operation, counted against those attempted.

use jvm_bytecode::Program;
use jvm_vm::{NullObserver, ReferenceVm, Value, VmError};

use crate::lanes::engine_config;

/// What a correct run of one `(program, args)` produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    pub result: Option<Value>,
    pub checksum: u64,
    pub instructions: u64,
}

/// What a timed run produced, in the oracle's terms.
pub type Observed = Expected;

/// Runs the reference interpreter once.
///
/// # Errors
///
/// The program trapped or hit a resource limit; the caller drops such an
/// input from the workload (no timed operation may fail by design).
pub fn reference_run(program: &Program, args: &[Value]) -> Result<Expected, VmError> {
    let mut vm = ReferenceVm::with_config(program, engine_config().jit.vm);
    let result = vm.run(args, &mut NullObserver)?;
    Ok(Expected {
        result,
        checksum: vm.checksum(),
        instructions: vm.stats().instructions,
    })
}

/// Floats compare by bit pattern, so a NaN result equals itself.
fn same_value(a: Option<Value>, b: Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::Float(x)), Some(Value::Float(y))) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Operations attempted and failed, both legs, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Reasons kept for the report; the counts are never capped.
const MAX_NOTES: usize = 8;

impl Tally {
    /// Counts one operation that could not be carried out.
    pub fn fail(&mut self, what: &str, why: String) {
        self.attempted += 1;
        self.note_failure(what, why);
    }

    /// Counts one operation that succeeded on its own terms (a snapshot
    /// load that returned `Ok`).
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Counts one run and compares it with the oracle.
    pub fn check(&mut self, what: &str, expected: &Expected, observed: Result<Observed, String>) {
        self.attempted += 1;
        match observed {
            Err(e) => self.note_failure(what, e),
            Ok(o) => {
                if !same_value(o.result, expected.result) {
                    self.note_failure(
                        what,
                        format!("result {:?}, expected {:?}", o.result, expected.result),
                    );
                } else if o.checksum != expected.checksum {
                    self.note_failure(
                        what,
                        format!(
                            "checksum {:#x}, expected {:#x}",
                            o.checksum, expected.checksum
                        ),
                    );
                } else if o.instructions != expected.instructions {
                    self.note_failure(
                        what,
                        format!(
                            "{} instructions, expected {}",
                            o.instructions, expected.instructions
                        ),
                    );
                }
            }
        }
    }

    fn note_failure(&mut self, what: &str, why: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(format!("{what}: {why}"));
        }
    }

    pub fn failed_share(&self) -> f64 {
        crate::counters::ratio(self.failed, self.attempted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> Expected {
        Expected {
            result: Some(Value::Int(3)),
            checksum: 0xabc,
            instructions: 100,
        }
    }

    #[test]
    fn each_component_of_the_triple_is_compared() {
        let mut t = Tally::default();
        t.check("ok", &exp(), Ok(exp()));
        assert_eq!((t.attempted, t.failed), (1, 0));
        for wrong in [
            Expected {
                result: None,
                ..exp()
            },
            Expected {
                checksum: 0xabd,
                ..exp()
            },
            Expected {
                instructions: 101,
                ..exp()
            },
        ] {
            t.check("wrong", &exp(), Ok(wrong));
        }
        t.check("trap", &exp(), Err("DivisionByZero".into()));
        t.fail("load", "Truncated".into());
        assert_eq!((t.attempted, t.failed), (6, 5));
        assert!((t.failed_share() - 5.0 / 6.0).abs() < 1e-12);
        assert!(t.notes[0].starts_with("wrong: result"));
    }

    #[test]
    fn nan_results_equal_themselves() {
        let nan = Some(Value::Float(f64::NAN));
        assert!(same_value(nan, nan));
        assert!(!same_value(nan, Some(Value::Float(0.0))));
    }
}
