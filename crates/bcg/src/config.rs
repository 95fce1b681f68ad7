//! Profiler configuration.

/// Bits edge counters are shifted right at each decay (paper: 1 — the
/// counts halve every [`BcgConfig::decay_interval`] executions).
pub const DECAY_SHIFT: u32 = 1;

/// Saturation bound of the edge counters: the paper's counters are 16
/// bits wide, and a counter at the bound stops counting rather than wrap.
pub const MAX_COUNTER: u16 = u16::MAX;

/// Tunable parameters of the branch correlation graph.
///
/// The two *algorithm* parameters from the paper's evaluation (§5.2) are
/// [`start_delay`](BcgConfig::start_delay) and
/// [`threshold`](BcgConfig::threshold); the rest are the fixed
/// implementation constants the paper describes, exposed so ablations can
/// vary them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BcgConfig {
    /// *Start state delay*: how many times a branch must execute before it
    /// leaves the `NewlyCreated` state and may be included in a trace.
    /// The paper evaluates 1, 64, 4096 (Table V) and settles on 64.
    pub start_delay: u32,
    /// Minimum expected trace completion rate in `(0, 1]` — also the
    /// strong-correlation bound: a node whose maximal successor
    /// correlation is at or above the threshold is `Strong`. The paper
    /// evaluates 1.00, 0.99, 0.98, 0.97, 0.95 and settles on 0.97.
    pub threshold: f64,
    /// Executions of a node between decays of its edge counters
    /// (paper: 256).
    pub decay_interval: u32,
}

impl BcgConfig {
    /// The configuration the paper recommends: delay 64, threshold 97%,
    /// decay every 256 executions by one bit.
    pub fn paper_default() -> Self {
        BcgConfig {
            start_delay: 64,
            threshold: 0.97,
            decay_interval: 256,
        }
    }

    /// Returns this configuration with a different completion threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < threshold <= 1.0`.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1], got {threshold}"
        );
        self.threshold = threshold;
        self
    }

    /// Returns this configuration with a different start-state delay.
    ///
    /// # Panics
    ///
    /// Panics if `start_delay` is 0: a node created with no delay left
    /// never takes the delay-expiry transition, so it would wait for its
    /// first decay instead.
    pub fn with_start_delay(mut self, start_delay: u32) -> Self {
        assert!(start_delay >= 1, "start delay must be at least 1, got 0");
        self.start_delay = start_delay;
        self
    }
}

impl Default for BcgConfig {
    /// Same as [`BcgConfig::paper_default`].
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = BcgConfig::default();
        assert_eq!(c.start_delay, 64);
        assert_eq!(c.threshold, 0.97);
        assert_eq!(c.decay_interval, 256);
    }

    #[test]
    fn builder_style_overrides() {
        let c = BcgConfig::default()
            .with_threshold(0.99)
            .with_start_delay(4096);
        assert_eq!(c.threshold, 0.99);
        assert_eq!(c.start_delay, 4096);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_rejected() {
        let _ = BcgConfig::default().with_threshold(0.0);
    }

    #[test]
    #[should_panic(expected = "start delay")]
    fn zero_start_delay_rejected() {
        let _ = BcgConfig::default().with_start_delay(0);
    }
}
