//! Dispatch-count accounting across the three interpreter models.
//!
//! The paper's Figures 1 and 2 contrast a plain interpreter (one dispatch
//! per *instruction*) with a direct-threaded-inlining interpreter (one
//! dispatch per *basic block*); the trace cache then reduces this further
//! to roughly one dispatch per *trace* plus one per out-of-trace block.
//! [`DispatchCounts`] collects all three counts for one program run so the
//! figure can be regenerated as a table of dispatch totals and reduction
//! factors.

/// Dispatch totals for one run under the three execution models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchCounts {
    /// Plain interpreter: one dispatch per instruction (Figure 1).
    pub per_instruction: u64,
    /// Direct-threaded-inlining: one dispatch per basic block (Figure 2).
    pub per_block: u64,
    /// Trace cache: one dispatch per trace entry plus one per block
    /// executed outside any trace.
    pub per_trace: u64,
}

impl DispatchCounts {
    /// Dispatch-reduction factor of block dispatch over instruction
    /// dispatch (≥ 1 for non-empty runs).
    pub fn block_over_instruction(&self) -> f64 {
        ratio(self.per_instruction, self.per_block)
    }

    /// Dispatch-reduction factor of trace dispatch over block dispatch.
    pub fn trace_over_block(&self) -> f64 {
        ratio(self.per_block, self.per_trace)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_factors() {
        let d = DispatchCounts {
            per_instruction: 1000,
            per_block: 250,
            per_trace: 50,
        };
        assert_eq!(d.block_over_instruction(), 4.0);
        assert_eq!(d.trace_over_block(), 5.0);
    }

    #[test]
    fn zero_denominators_give_zero() {
        assert_eq!(DispatchCounts::default().block_over_instruction(), 0.0);
    }
}
