//! Order statistics, geometric mean and span self-time.
//!
//! Every timing record the benchmark prints is a [`Summary`]: the gated
//! value is `p10` (see the README for why), the median and the tail sit
//! beside it so a reader can see how disturbed the run was.

/// One traced interval: a call into a layer's public function, or a
/// grouping span (`round`, `program`, a leg) around such calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// `layer.function`, or the grouping name.
    pub name: &'static str,
    /// Timed round the span belongs to (`u32::MAX` during set-up).
    pub round: u32,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Children are strictly nested (the tracer is a
/// stack), so they never overlap each other.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.duration());
        }
    }
    own
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest whole percentile that still has at least ten samples
/// beyond it: `n · (1 − p/100) ≥ 10`. Zero when `n ≤ 10` — with so few
/// samples no tail can be claimed and the "tail" is the minimum.
pub fn tail_pct(n: usize) -> u32 {
    (100 * n.saturating_sub(10) / n.max(1)) as u32
}

/// The record every timing metric carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p10: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// See [`tail_pct`].
    pub tail_pct: u32,
}

impl Summary {
    /// Summarises `samples` (any order; NaNs are not expected and sort last).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let tp = tail_pct(s.len());
        Summary {
            n: s.len(),
            min: s[0],
            p10: quantile(&s, 0.10),
            p25: quantile(&s, 0.25),
            p50: quantile(&s, 0.50),
            p75: quantile(&s, 0.75),
            tail: quantile(&s, f64::from(tp) / 100.0),
            tail_pct: tp,
        }
    }

    /// `p50 / p10`: how far the typical round sat above the quiet ones.
    pub fn host_noise(&self) -> f64 {
        self.p50 / self.p10
    }
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no samples");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_linearly() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.10), 1.4);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_pct(3), 0);
        assert_eq!(tail_pct(10), 0);
        assert_eq!(tail_pct(19), 47);
        assert_eq!(tail_pct(20), 50);
        assert_eq!(tail_pct(50), 80);
        assert_eq!(tail_pct(100), 90);
        assert_eq!(tail_pct(1000), 99);
        assert_eq!(tail_pct(100_000), 99);
        // The rule itself, for every n: ten or more samples lie beyond
        // the reported percentile, and fewer beyond the next one.
        // (In hundredths of a sample, to stay in whole numbers.)
        for n in 11..400usize {
            let p = tail_pct(n) as usize;
            assert!(n * (100 - p) >= 1000, "n={n}");
            assert!(n * (100 - (p + 1)) < 1000, "n={n}");
        }
    }

    #[test]
    fn summary_orders_its_fields() {
        let samples: Vec<f64> = (0..50).rev().map(|i| 100.0 + f64::from(i)).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 50);
        assert_eq!(s.min, 100.0);
        assert_eq!(s.p50, 124.5);
        assert_eq!(s.tail_pct, 80);
        assert!(s.min <= s.p10 && s.p10 <= s.p25 && s.p25 <= s.p50);
        assert!(s.p50 <= s.p75 && s.p75 <= s.tail);
        assert!((s.host_noise() - 124.5 / 104.9).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_scale_free() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        let a = geomean(&[3.0, 5.0, 7.0]);
        let b = geomean(&[30.0, 50.0, 70.0]);
        assert!((b / a - 10.0).abs() < 1e-9);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let sp = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "x",
            round: 0,
            start_ns,
            end_ns,
        };
        // round[0..100] > program[10..90] > {run[20..50], load[50..60]}
        let spans = vec![
            sp(0, None, 0, 100),
            sp(1, Some(0), 10, 90),
            sp(2, Some(1), 20, 50),
            sp(3, Some(1), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 30, 10]);
        // Self times add back up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }
}
