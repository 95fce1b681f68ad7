//! Deterministic chaos campaigns.
//!
//! A campaign replays generated fuzz programs through the lockstep
//! harness while injecting perturbations the normal dispatch stream
//! would produce only rarely, at positions drawn from a per-case seeded
//! PRNG:
//!
//! * **forced decay ticks** — a node is decayed *now*, off its
//!   256-execution schedule, on both systems;
//! * **signal reordering** — one batch is rotated (identically on both
//!   sides) before the constructors see it;
//! * **cache-capacity pressure** — when the link table exceeds a small
//!   cap, deterministic victims are unlinked from both caches;
//! * **mid-trace invalidation** — a live entry link is removed from both
//!   caches while the program is still running;
//! * **phase shift** — the trace at one entry "rots" again and again:
//!   it is quarantined as the retention rule would, and a decay storm
//!   drives both constructors back to the entry, so repeat quarantines
//!   at one entry must escalate their cooldowns identically on both
//!   sides.
//!
//! Campaigns can additionally run the whole case in the lockstep
//! harness's deferred-construction mode ([`ChaosConfig::defer_window`]),
//! where construction lags the profile.
//!
//! Every case is identified by `seed_stream(base, k)`, so a failure
//! message names one `u64` that reproduces program, arguments, and the
//! entire perturbation schedule. A failing case is then minimised by
//! shrinking its statement AST (see [`shrink`]).

use trace_bcg::BcgConfig;
use trace_cache::{trace_cost, ConstructorConfig, COOLDOWN};
use trace_workloads::prng::{seed_stream, Xoshiro256StarStar};

use crate::genprog::{args_from, build_program, gen_block, Stmt};
use crate::lockstep::{Divergence, Lockstep};
use crate::model::Quirk;

/// One perturbation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// Decay a random known node immediately, off schedule.
    ForcedDecay,
    /// Rotate the next signal batch before the constructors see it.
    SignalReorder,
    /// Unlink deterministic victims once the link table exceeds the cap.
    CachePressure,
    /// Unlink one live entry mid-run.
    MidTraceInvalidation,
    /// Set (or shrink) a payload byte budget on both caches, forcing the
    /// second-chance eviction sweep to pick identical victims.
    BudgetPressure,
    /// Quarantine the trace linked at one live entry on both caches
    /// (a faulting trace), exercising tombstone + blacklist parity.
    QuarantineTrace,
    /// Feed the next signal batch to both constructors twice (duplicated
    /// delivery); hash-consing must make the replay idempotent.
    DuplicateBatch,
    /// Rot the trace at one entry again and again: quarantine it at the
    /// base cooldown, then decay every node so both constructors retry
    /// the entry — repeat quarantines there must escalate in lockstep.
    PhaseShift,
}

impl Perturbation {
    /// Every class, for full-coverage campaigns.
    pub const ALL: [Perturbation; 8] = [
        Perturbation::ForcedDecay,
        Perturbation::SignalReorder,
        Perturbation::CachePressure,
        Perturbation::MidTraceInvalidation,
        Perturbation::BudgetPressure,
        Perturbation::QuarantineTrace,
        Perturbation::DuplicateBatch,
        Perturbation::PhaseShift,
    ];

    /// Stable name, used by the corpus format.
    pub fn name(self) -> &'static str {
        match self {
            Perturbation::ForcedDecay => "forced-decay",
            Perturbation::SignalReorder => "signal-reorder",
            Perturbation::CachePressure => "cache-pressure",
            Perturbation::MidTraceInvalidation => "mid-trace-invalidation",
            Perturbation::BudgetPressure => "budget-pressure",
            Perturbation::QuarantineTrace => "quarantine-trace",
            Perturbation::DuplicateBatch => "duplicate-batch",
            Perturbation::PhaseShift => "phase-shift",
        }
    }

    /// Parses a stable name back.
    pub fn from_name(s: &str) -> Option<Self> {
        Perturbation::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Chaos knobs for one case.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Enabled perturbation classes (empty = plain lockstep).
    pub kinds: Vec<Perturbation>,
    /// Per-dispatch probability of injecting a perturbation.
    pub rate: f64,
    /// Link-count cap for [`Perturbation::CachePressure`].
    pub cache_cap: usize,
    /// Deferred-construction window for the whole case (0 = construct
    /// immediately; see [`Lockstep::with_deferred_construction`]).
    pub defer_window: u64,
}

impl ChaosConfig {
    /// No perturbations: plain lockstep conformance.
    pub fn none() -> Self {
        ChaosConfig {
            kinds: Vec::new(),
            rate: 0.0,
            cache_cap: usize::MAX,
            defer_window: 0,
        }
    }

    /// All perturbation classes at a lively rate, with construction
    /// deferred by a small window on top.
    pub fn full() -> Self {
        ChaosConfig {
            kinds: Perturbation::ALL.to_vec(),
            rate: 0.02,
            cache_cap: 4,
            defer_window: 24,
        }
    }

    /// One specific class only.
    pub fn only(kind: Perturbation) -> Self {
        ChaosConfig {
            kinds: vec![kind],
            rate: 0.05,
            cache_cap: 4,
            defer_window: 0,
        }
    }

    /// Sets the deferred-construction window.
    pub fn with_defer_window(mut self, window: u64) -> Self {
        self.defer_window = window;
        self
    }
}

/// Aggressive profiler/constructor tunables for campaigns: short delay,
/// loose threshold, quick decay — maximum machinery per dispatched block.
pub fn campaign_configs() -> (BcgConfig, ConstructorConfig) {
    let bcg = BcgConfig {
        decay_interval: 64,
        ..BcgConfig::default()
            .with_start_delay(2)
            .with_threshold(0.90)
    };
    let ctor = ConstructorConfig::default().with_threshold(0.90);
    (bcg, ctor)
}

/// Runs one case: generates the program from `seed`, replays it through
/// the lockstep harness under the chaos schedule, and reports any
/// divergence. Fully deterministic in `(seed, chaos, quirk)`.
pub fn run_case(seed: u64, chaos: &ChaosConfig, quirk: Option<Quirk>) -> Result<(), Divergence> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let stmts = gen_block(&mut rng, 3, 1, 8);
    run_case_on(&stmts, &mut rng, chaos, quirk)
}

/// Replays a specific statement list (used by the shrinker, which must
/// re-run a case on mutated ASTs). `rng` must already be past the
/// generation draws so the argument and schedule streams line up with
/// the original failure as closely as the mutated program allows.
pub fn run_case_on(
    stmts: &[Stmt],
    rng: &mut Xoshiro256StarStar,
    chaos: &ChaosConfig,
    quirk: Option<Quirk>,
) -> Result<(), Divergence> {
    let program = build_program(stmts);
    let args = args_from(rng.next_i64());
    let (bcg_cfg, ctor_cfg) = campaign_configs();
    let mut ls = Lockstep::new(bcg_cfg, ctor_cfg);
    if chaos.defer_window > 0 {
        ls = ls.with_deferred_construction(chaos.defer_window);
    }
    if let Some(q) = quirk {
        ls = ls.with_model_quirk(q);
    }

    let mut vm = jvm_vm::interp::Vm::new(&program);
    let mut outcome: Result<(), Divergence> = Ok(());
    {
        let mut observer = |b: jvm_bytecode::BlockId| {
            if outcome.is_err() {
                return;
            }
            if let Err(d) = ls.on_block(b) {
                outcome = Err(d);
                return;
            }
            if !chaos.kinds.is_empty() && rng.chance(chaos.rate) {
                let kind = *rng.pick(&chaos.kinds);
                if let Err(d) = inject(&mut ls, kind, rng, chaos) {
                    outcome = Err(d);
                }
            }
        };
        vm.run(&args, &mut observer)
            .expect("generated program runs");
    }
    outcome?;
    ls.finish()
}

/// Applies one perturbation to both systems.
fn inject(
    ls: &mut Lockstep,
    kind: Perturbation,
    rng: &mut Xoshiro256StarStar,
    chaos: &ChaosConfig,
) -> Result<(), Divergence> {
    match kind {
        Perturbation::ForcedDecay => {
            let branches = ls.known_branches();
            if !branches.is_empty() {
                let b = branches[rng.range_usize(0, branches.len())];
                ls.force_decay(b)?;
            }
        }
        Perturbation::SignalReorder => {
            ls.rotate_next_batch(rng.range_usize(1, 8));
        }
        Perturbation::CachePressure => {
            let entries = ls.linked_entries();
            if entries.len() > chaos.cache_cap {
                let excess = entries.len() - chaos.cache_cap;
                let start = rng.range_usize(0, entries.len());
                for k in 0..excess {
                    ls.unlink(entries[(start + k) % entries.len()])?;
                }
            }
        }
        Perturbation::MidTraceInvalidation => {
            let entries = ls.linked_entries();
            if !entries.is_empty() {
                ls.unlink(entries[rng.range_usize(0, entries.len())])?;
            }
        }
        Perturbation::BudgetPressure => {
            // A budget of a few two-block traces, drawn small enough to
            // force evictions as the constructors keep building.
            let traces = rng.range_usize(2, chaos.cache_cap.clamp(3, 16) + 2);
            ls.set_cache_budget(trace_cost(2) * traces)?;
        }
        Perturbation::QuarantineTrace => {
            let entries = ls.linked_entries();
            if !entries.is_empty() {
                let e = entries[rng.range_usize(0, entries.len())];
                ls.quarantine(e, rng.range_u32(1, 4))?;
            }
        }
        Perturbation::DuplicateBatch => {
            ls.duplicate_next_batch();
        }
        Perturbation::PhaseShift => {
            // The trace at the first linked entry "rots" — its guard
            // bias has flipped — and the retention rule quarantines it.
            // Picking the first entry makes a later injection likely to
            // hit the same one again once it is re-admitted, and the
            // decay storm that follows sends both constructors back to
            // it (each refused retry ticks the cooldown), so repeat
            // quarantines at one entry — and their escalation — happen
            // within one case.
            if let Some(&e) = ls.linked_entries().first() {
                ls.quarantine(e, COOLDOWN)?;
                for _ in 0..rng.range_u32(1, 4) {
                    for b in ls.known_branches() {
                        ls.force_decay(b)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// A campaign's outcome.
#[derive(Debug)]
pub struct CampaignReport {
    /// Cases executed.
    pub cases: u64,
    /// First failure: the per-case seed and the divergence.
    pub failure: Option<(u64, Divergence)>,
}

/// Runs `cases` chaos cases rooted at `base_seed`; stops at the first
/// divergence (deterministic, so one failure is enough to reproduce).
pub fn run_campaign(
    base_seed: u64,
    cases: u64,
    chaos: &ChaosConfig,
    quirk: Option<Quirk>,
) -> CampaignReport {
    for k in 0..cases {
        let seed = seed_stream(base_seed, k);
        if let Err(d) = run_case(seed, chaos, quirk) {
            return CampaignReport {
                cases: k + 1,
                failure: Some((seed, d)),
            };
        }
    }
    CampaignReport {
        cases,
        failure: None,
    }
}

/// Greedy AST minimisation of a failing case: repeatedly try deleting a
/// statement or hoisting a compound statement's body into its place,
/// keeping any mutation under which the case still fails. Deterministic;
/// terminates because every accepted mutation strictly shrinks the AST's
/// node count.
pub fn shrink<F: FnMut(&[Stmt]) -> bool>(stmts: &[Stmt], still_fails: &mut F) -> Vec<Stmt> {
    fn weight(stmts: &[Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::If { then, other, .. } => 1 + weight(then) + weight(other),
                Stmt::Loop { body, .. } => 1 + weight(body),
                _ => 1,
            })
            .sum()
    }

    let mut cur = stmts.to_vec();
    loop {
        let mut progressed = false;
        // Pass 1: drop one statement at a time.
        let mut i = 0;
        while i < cur.len() {
            let mut candidate = cur.clone();
            candidate.remove(i);
            if still_fails(&candidate) {
                cur = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }
        // Pass 2: hoist compound bodies in place of their parent.
        let mut i = 0;
        while i < cur.len() {
            let replacement: Option<Vec<Stmt>> = match &cur[i] {
                Stmt::If { then, other, .. } => {
                    let mut r = then.clone();
                    r.extend(other.iter().cloned());
                    Some(r)
                }
                Stmt::Loop { body, .. } => Some(body.clone()),
                _ => None,
            };
            if let Some(r) = replacement {
                let mut candidate = cur.clone();
                candidate.splice(i..=i, r);
                if weight(&candidate) < weight(&cur) && still_fails(&candidate) {
                    cur = candidate;
                    progressed = true;
                    continue;
                }
            }
            i += 1;
        }
        if !progressed {
            return cur;
        }
    }
}

/// A corpus entry: one saved chaos case, replayed by CI.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusCase {
    /// The exact case seed (program + arguments + schedule).
    pub seed: u64,
    /// Enabled perturbation classes.
    pub chaos: ChaosConfig,
}

/// Parses the `key=value`-per-line corpus format:
///
/// ```text
/// # comment
/// seed=0x1234abcd
/// chaos=forced-decay,mid-trace-invalidation
/// rate=0.05
/// cache_cap=4
/// defer_window=24
/// ```
pub fn parse_corpus_case(text: &str) -> Result<CorpusCase, String> {
    let mut seed = None;
    let mut chaos = ChaosConfig::none();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("malformed corpus line: {line}"))?;
        match key.trim() {
            "seed" => {
                // Underscore group separators are allowed, as in Rust literals.
                let v = value.trim().replace('_', "");
                let parsed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    v.parse()
                };
                seed = Some(parsed.map_err(|e| format!("bad seed {v}: {e}"))?);
            }
            "chaos" => {
                chaos.kinds = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty() && *s != "none")
                    .map(|s| {
                        Perturbation::from_name(s)
                            .ok_or_else(|| format!("unknown perturbation {s}"))
                    })
                    .collect::<Result<_, _>>()?;
                if !chaos.kinds.is_empty() && chaos.rate == 0.0 {
                    chaos.rate = 0.05;
                    chaos.cache_cap = 4;
                }
            }
            "rate" => {
                chaos.rate = value.trim().parse().map_err(|e| format!("bad rate: {e}"))?;
            }
            "cache_cap" => {
                chaos.cache_cap = value
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad cache_cap: {e}"))?;
            }
            "defer_window" => {
                chaos.defer_window = value
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad defer_window: {e}"))?;
            }
            other => return Err(format!("unknown corpus key {other}")),
        }
    }
    let seed = seed.ok_or("corpus case missing seed=")?;
    Ok(CorpusCase { seed, chaos })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_format_round_trips() {
        let c = parse_corpus_case(
            "# demo\nseed=0xABCD\nchaos=forced-decay, signal-reorder\nrate=0.1\ncache_cap=3\ndefer_window=16\n",
        )
        .expect("parses");
        assert_eq!(c.seed, 0xABCD);
        assert_eq!(
            c.chaos.kinds,
            vec![Perturbation::ForcedDecay, Perturbation::SignalReorder]
        );
        assert!((c.chaos.rate - 0.1).abs() < 1e-12);
        assert_eq!(c.chaos.cache_cap, 3);
        assert_eq!(c.chaos.defer_window, 16);
        assert!(parse_corpus_case("chaos=forced-decay\n").is_err());
        assert!(parse_corpus_case("seed=1\nchaos=warp-core-breach\n").is_err());
        assert!(parse_corpus_case(
            "seed=1\nchaos=budget-pressure,quarantine-trace,duplicate-batch,phase-shift\n"
        )
        .is_ok());
        assert!(parse_corpus_case("seed=7\nwarp=9\n").is_err());
    }

    #[test]
    fn shrinker_reaches_a_small_reproducer() {
        // Failure predicate: "contains an Emit of local 2 anywhere".
        fn has_emit2(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::Emit { a } => *a == 2,
                Stmt::If { then, other, .. } => has_emit2(then) || has_emit2(other),
                Stmt::Loop { body, .. } => has_emit2(body),
                _ => false,
            })
        }
        let noisy = vec![
            Stmt::Const { d: 0, c: 7 },
            Stmt::Loop {
                n: 3,
                body: vec![
                    Stmt::Arith {
                        d: 1,
                        a: 0,
                        b: 0,
                        op: 0,
                    },
                    Stmt::If {
                        a: 0,
                        b: 1,
                        cmp: 0,
                        then: vec![Stmt::Emit { a: 2 }],
                        other: vec![Stmt::Const { d: 3, c: 1 }],
                    },
                ],
            },
            Stmt::Emit { a: 0 },
        ];
        let minimal = shrink(&noisy, &mut |s| has_emit2(s));
        assert_eq!(minimal, vec![Stmt::Emit { a: 2 }]);
    }
}
