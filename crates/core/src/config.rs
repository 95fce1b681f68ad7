//! Integrated-system configuration.

use jvm_vm::VmConfig;
use trace_bcg::BcgConfig;
use trace_cache::ConstructorConfig;

/// Configuration of the whole trace-dispatching VM.
///
/// The paper's two experiment parameters (§5.2) — the completion
/// *threshold* and the *start state delay* — are stored once here and
/// propagated consistently to the profiler and the trace constructor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceJitConfig {
    /// Minimum expected trace completion rate, also the strong-correlation
    /// bound (paper default: 0.97).
    pub threshold: f64,
    /// Executions before a branch leaves `NewlyCreated` (paper default:
    /// 64).
    pub start_delay: u32,
    /// Node executions between counter decays (paper: 256).
    pub decay_interval: u32,
    /// Extra loop-body copies appended when a trace ends in a loop
    /// (paper: 1, "unrolled once"; ablation knob).
    pub loop_unroll: usize,
    /// Interpreter resource limits and options.
    pub vm: VmConfig,
}

impl TraceJitConfig {
    /// The configuration the paper settles on: threshold 97%, delay 64.
    pub fn paper_default() -> Self {
        TraceJitConfig {
            threshold: 0.97,
            start_delay: 64,
            decay_interval: 256,
            loop_unroll: 1,
            vm: VmConfig::default(),
        }
    }

    /// Returns this configuration with a different completion threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < threshold <= 1.0`.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 0.0 && threshold <= 1.0);
        self.threshold = threshold;
        self
    }

    /// Returns this configuration with a different start-state delay.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is 0 (see [`BcgConfig::with_start_delay`]).
    pub fn with_start_delay(mut self, delay: u32) -> Self {
        assert!(delay >= 1, "start delay must be at least 1, got 0");
        self.start_delay = delay;
        self
    }

    /// The profiler configuration this implies.
    pub fn bcg_config(&self) -> BcgConfig {
        BcgConfig {
            start_delay: self.start_delay,
            threshold: self.threshold,
            decay_interval: self.decay_interval,
        }
    }

    /// Returns this configuration with a different loop-unroll factor.
    pub fn with_loop_unroll(mut self, copies: usize) -> Self {
        self.loop_unroll = copies;
        self
    }

    /// The trace-constructor configuration this implies.
    pub fn constructor_config(&self) -> ConstructorConfig {
        ConstructorConfig {
            threshold: self.threshold,
            loop_unroll: self.loop_unroll,
        }
    }
}

impl Default for TraceJitConfig {
    /// Same as [`TraceJitConfig::paper_default`].
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_choices() {
        let c = TraceJitConfig::default();
        assert_eq!(c.threshold, 0.97);
        assert_eq!(c.start_delay, 64);
        assert_eq!(c.decay_interval, 256);
    }

    #[test]
    fn derived_configs_are_consistent() {
        let c = TraceJitConfig::paper_default()
            .with_threshold(0.99)
            .with_start_delay(4096);
        assert_eq!(c.bcg_config().threshold, 0.99);
        assert_eq!(c.bcg_config().start_delay, 4096);
        assert_eq!(c.constructor_config().threshold, 0.99);
    }

    #[test]
    #[should_panic]
    fn invalid_threshold_panics() {
        let _ = TraceJitConfig::default().with_threshold(1.5);
    }

    #[test]
    #[should_panic(expected = "start delay")]
    fn zero_start_delay_panics() {
        let _ = TraceJitConfig::default().with_start_delay(0);
    }
}
