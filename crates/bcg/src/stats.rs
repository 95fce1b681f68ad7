//! Profiler statistics.

/// Counters describing the profiler's own behaviour over a run.
///
/// These feed the paper's efficiency arguments (§5.4): `dispatches` is the
/// denominator of Table IV (dispatches per state-change signal), and the
/// inline-cache hit ratio substantiates the claim that "most of the
/// branches are immediately predicted by the branch context's inline
/// cache" (§4.1.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfilerStats {
    /// Block dispatches observed (profiler hook executions).
    pub dispatches: u64,
    /// Fast-path hits: the dispatched block matched the context node's
    /// cached prediction.
    pub cache_hits: u64,
    /// Slow-path entries: prediction missed (or the inline cache is
    /// disabled), requiring a successor-list search.
    pub cache_misses: u64,
    /// New successor edges constructed (the "distinct correlations
    /// discovered" of §4.1.2).
    pub edges_created: u64,
    /// Nodes (branch contexts) constructed.
    pub nodes_created: u64,
    /// Periodic decays performed.
    pub decays: u64,
    /// State-change signals emitted.
    pub state_signals: u64,
    /// Prediction-change signals emitted.
    pub prediction_signals: u64,
}

impl ProfilerStats {
    /// Total signals of either kind.
    pub fn total_signals(&self) -> u64 {
        self.state_signals + self.prediction_signals
    }

    /// Fraction of dispatches predicted by the inline cache, in `[0, 1]`.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Dispatches per state-change signal (the Table IV quantity);
    /// `f64::INFINITY` when no signal was emitted.
    pub fn dispatches_per_state_signal(&self) -> f64 {
        if self.state_signals == 0 {
            f64::INFINITY
        } else {
            self.dispatches as f64 / self.state_signals as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = ProfilerStats {
            dispatches: 1000,
            cache_hits: 900,
            cache_misses: 100,
            state_signals: 4,
            prediction_signals: 1,
            ..ProfilerStats::default()
        };
        assert_eq!(s.cache_hit_ratio(), 0.9);
        assert_eq!(s.dispatches_per_state_signal(), 250.0);
        assert_eq!(s.total_signals(), 5);
    }

    #[test]
    fn empty_stats_degenerate_gracefully() {
        let s = ProfilerStats::default();
        assert_eq!(s.cache_hit_ratio(), 0.0);
        assert!(s.dispatches_per_state_signal().is_infinite());
    }
}
