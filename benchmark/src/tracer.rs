//! The stopwatch every timed region goes through, and — in a traced run —
//! the recorder of spans around the calls into each layer.
//!
//! Spans are taken from outside: around the benchmark's own calls into a
//! crate's public functions. Nothing inside the program is instrumented.

use std::time::Instant;

use crate::stats::Span;

/// `round` value of spans recorded during set-up.
pub const SETUP_ROUND: u32 = u32::MAX;

/// An interval being timed. `idx` is the span slot when recording.
#[must_use = "an open interval must be ended"]
pub struct Open {
    idx: Option<u32>,
    start: Instant,
}

pub struct Tracer {
    /// Whether intervals are recorded as spans. Off in an untraced run,
    /// and switched off around the bare engine leg of a traced one.
    pub recording: bool,
    pub round: u32,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            round: SETUP_ROUND,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts timing; always reads the clock, records only when on.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.recording.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                name,
                round: self.round,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
            });
            self.open.push(id);
            id
        });
        Open { idx, start }
    }

    /// Stops timing and returns the elapsed ns.
    pub fn end(&mut self, open: Open) -> u64 {
        let now = Instant::now();
        if let Some(id) = open.idx {
            self.spans[id as usize].end_ns = (now - self.epoch).as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in stack order");
        }
        (now - open.start).as_nanos() as u64
    }

    /// A span around one call, when recording; the bare call otherwise —
    /// an untraced run pays no clock reads for sub-intervals.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.recording {
            return f();
        }
        let o = self.begin(name);
        let r = f();
        self.end(o);
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Set-up's stopwatch. Set-up is a few seconds of work in one stretch,
/// longer than the host's quiet moments (README, "Set-up repeats"), so it
/// is split at fixed points of the work into *laps* — one per oracle run,
/// per snapshot, per program of a warm-up round — and performed several
/// times. The work is deterministic: every performance has the same laps,
/// and the undisturbed time of set-up is the sum over laps of each lap's
/// quietest performance.
pub struct Laps {
    last: Instant,
    laps: Vec<f64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            laps: Vec::new(),
        }
    }

    /// Ends the current lap.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.laps.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    /// Ends the last lap and returns them all, in seconds.
    pub fn finish(mut self) -> Vec<f64> {
        self.lap();
        self.laps
    }
}

/// Sum over laps of the lap's least value over the performances. Laps
/// beyond the shortest performance are not expected (same work, same
/// laps) and would be left out.
pub fn quietest_sum(performances: &[Vec<f64>]) -> f64 {
    let laps = performances.iter().map(Vec::len).min().unwrap_or(0);
    (0..laps)
        .map(|i| {
            performances
                .iter()
                .map(|p| p[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_is_valued_lap_by_lap() {
        // Three performances of the same three laps; each was disturbed
        // somewhere else, none was quiet throughout.
        let performances = vec![
            vec![1.0, 2.0, 9.0],
            vec![1.5, 6.0, 3.0],
            vec![4.5, 2.5, 3.5],
        ];
        assert_eq!(quietest_sum(&performances), 6.0);
        let totals: Vec<f64> = performances.iter().map(|p| p.iter().sum()).collect();
        assert!(totals.iter().all(|&t| t > 10.0));
        assert_eq!(quietest_sum(&performances[..1]), 12.0);
        assert_eq!(quietest_sum(&[]), 0.0);
        let mut l = Laps::start();
        l.lap();
        assert_eq!(l.finish().len(), 2);
    }

    #[test]
    fn spans_nest_by_the_open_stack() {
        let mut t = Tracer::new(true);
        t.round = 3;
        let a = t.begin("round");
        let b = t.begin("program");
        t.leaf("exec.run", || ());
        t.end(b);
        t.leaf("vm.decode", || ());
        t.end(a);
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("round", None),
                ("program", Some(0)),
                ("exec.run", Some(1)),
                ("vm.decode", Some(0)),
            ]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.round == 3 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn an_untraced_run_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("round");
        assert_eq!(t.leaf("exec.run", || 7), 7);
        let _ns = t.end(o);
        assert!(t.spans().is_empty());
    }
}
