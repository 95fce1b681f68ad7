#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, tests, and a bench smoke
# run. No network access required — the workspace has no external
# dependencies.
set -euo pipefail
cd "$(dirname "$0")"

# Every smoke output goes to one private scratch directory, removed on
# exit: nothing is written to fixed paths outside the checkout.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --workspace --release

echo "== cargo doc -D warnings (every intra-doc link resolves and names a public item)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --keep-going

echo "== non-test lines (crates/*/src + src/, each file cut at its first #[cfg(test)])"
# The product's size by one fixed method, printed so a change can state
# what it adds or removes; not a gate.
find crates/*/src src -name '*.rs' -print0 | sort -z \
    | xargs -0 -n1 sed '/#\[cfg(test)\]/,$d' | wc -l

echo "== engine.rs size guard (the engine drives jvm-vm's loop; it has no interpreter of its own)"
# 2,942 lines when it carried a private DOp executor and a second trace
# tier, 1,333 with the optimizer knob, AOT replay and three artifact
# structures. A second executor or boot path creeping back in shows up
# here first.
engine_lines=$(wc -l < crates/exec/src/engine.rs)
if [ "$engine_lines" -ge 1400 ]; then
    echo "crates/exec/src/engine.rs has $engine_lines lines (limit 1400)" >&2
    exit 1
fi

echo "== cache policy written once (tracecache/src/cache.rs; no capacity bound, like the paper's cache)"
# A private and a shared cache used to carry a transcription each of the
# hash-cons / quarantine policy, with three copies of the counters and a
# shard striping no writer could contend on. A second copy of the
# tombstoning shows up here first.
n=$(grep -rnE "fn tombstone\b" crates/tracecache/src/ | wc -l)
if [ "$n" -ne 1 ]; then
    echo "fn tombstone is defined $n times under crates/tracecache/src/ (want exactly 1)" >&2
    exit 1
fi
if grep -rnE 'SharedCacheStats|StatsAtomic|with_shards' crates/; then
    echo "a removed second copy of the cache counters / shard striping is back (matches above)" >&2
    exit 1
fi
# The cache also used to carry an optional payload-byte budget with a
# second-chance eviction sweep, its counters, a budget field in every
# snapshot and a chaos class for it, although no VM ever set a budget and
# no benchmark workload bounds the cache. Any of its names creeping back
# in shows up here first.
if grep -rnE 'set_budget|enforce_budget|budget_overruns|links_evicted|BudgetPressure|EvictionLeavesStaleLink|budget-pressure' \
    crates/ src/ tests/ examples/; then
    echo "a piece of the cache's byte budget is back (matches above)" >&2
    exit 1
fi

echo "== one link store (the TraceCache one VM owns; trace-cache forbids unsafe)"
# The shared cache used to keep its entry links in a second, lock-free
# open-addressed table (AtomicPtr growth, tombstones, a retired-table
# list, five unsafe sites) behind a Shell trait with two impls. The
# compiler guards the unsafe (#![forbid(unsafe_code)]); this guards the
# second store.
if grep -rnE 'trait Shell|PrivateShell|SharedShell|LinkTable|AtomicPtr' crates/; then
    echo "a second link store is back under crates/ (matches above)" >&2
    exit 1
fi

echo "== one profile restore path (trace_bcg::image::merge_into)"
if grep -n 'fn import' crates/bcg/src/image.rs; then
    echo "image::import is back: the product restores through merge_into" >&2
    exit 1
fi

echo "== no SipHash on the boot and planning paths (std HashMap / HashSet outside tests)"
# A warm boot's profile validation used a std HashSet of packed branch
# keys, and the trace planner a HashSet and a HashMap per signal: SipHash,
# RandomState setup and an allocation each, on paths a fleet VM pays for
# once per life. The validator's seen-set is a BranchSet (std's set under
# trace_bcg::BranchHasher) and the planner uses epoch-stamped marks now.
for f in crates/bcg/src/image.rs crates/tracecache/src/constructor.rs crates/persist/src/hash.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'Hash(Map|Set)'; then
        echo "$f uses std::collections::Hash{Map,Set} outside its tests (matches above)" >&2
        exit 1
    fi
done
# The cache's hash-cons index hashed a whole block sequence with SipHash
# on every install, reuse or not. Every std map or set the cache declares
# outside its tests names BranchHasher.
if sed '/#\[cfg(test)\]/,$d' crates/tracecache/src/cache.rs \
    | grep -nE 'Hash(Map|Set)\b' | grep -vE '^[0-9]+:use |BranchHasher'; then
    echo "crates/tracecache/src/cache.rs has a std map or set without BranchHasher (matches above)" >&2
    exit 1
fi

echo "== one branch map (std's HashMap / HashSet under trace_bcg::BranchHasher)"
# The profiler's node index, the boot validator's seen-set and the
# cache's entry links used to live in a hand-rolled open-addressed table
# (linear probing, an in-key empty sentinel, backward-shift deletion,
# rehash, reserve) while the cache's quarantine and flap maps hashed
# with SipHash. Every branch-keyed table is a BranchMap / BranchSet now.
# The hand-rolled table creeping back in shows up here first.
if grep -rnE 'BranchTable|fn rehash' crates/ src/ tests/ examples/; then
    echo "a hand-rolled branch table is back (matches above)" >&2
    exit 1
fi

echo "== one profiler oracle (the conformance model; no frozen copy of an earlier profiler)"
# trace_bcg used to ship ReferenceBcg, a frozen copy of the pre-overhaul
# profiler, beside the from-the-paper ModelBcg, and a unit test held the
# two oracles equal. The lockstep harness also modelled construction
# lagging the profile, a path no VM has taken since the off-thread
# constructor went. Either creeping back in shows up here first.
if [ -e crates/bcg/src/reference.rs ] \
    || grep -rnE 'ReferenceBcg|RefNode|RefSuccessor|bcg/src/reference\.rs|with_deferred_construction|defer_window' \
        crates/ src/ tests/ examples/; then
    echo "a second profiler oracle or the deferred-construction mode is back (crates/bcg/src/reference.rs or the matches above)" >&2
    exit 1
fi

echo "== exact profiler nodes (one prediction per node; no deferred bookkeeping; 16-bit counters)"
# Each BCG node used to carry a fast-path budget that deferred its decay
# window and delay countdown to the next slow visit, a second copy of its
# prediction to go with it, and a configurable counter bound; the image
# export settled the deferred counts arithmetically and the lockstep
# oracle could not compare those two fields per event. Any of it creeping
# back in shows up here first.
if grep -rnE 'fp_budget|fp_armed|sync_deferred|settle_and_disarm|max_counter' \
    crates/bcg crates/conformance; then
    echo "the profiler's deferred bookkeeping or a configurable counter bound is back (matches above)" >&2
    exit 1
fi

echo "== one stack-discipline analysis (the verifier's; Function carries max_stack / depth_at)"
# bytecode/depth.rs used to re-run a second transfer table over Instr to
# recover the depths the verifier's fixpoint already held, once per VM
# and once per lowered trace. A second stack-effect table or per-pc depth
# map creeping back in shows up here first.
if [ -e crates/bytecode/src/depth.rs ] \
    || grep -rnE 'stack_depths|fn stack_effect|mod depth' crates/ src/ tests/ examples/; then
    echo "a second operand-stack analysis is back (crates/bytecode/src/depth.rs or the matches above)" >&2
    exit 1
fi

echo "== one retention rule (a per-trace early-exit streak counted at the exit; the cache's quarantine escalates)"
# The trace-health ledger used to feed a per-trace HashMap through an
# epoch-flushed, run-length-encoded outcome buffer, judge it with an EWMA /
# probation ladder at every profiler decay epoch (the decay-epoch clock
# existed only for it), and sit beside a single-slot entry-exit trigger
# and an EngineConfig knob that turned it off. A second retention
# mechanism creeping back in shows up here first.
if grep -rnE 'HealthLedger|OutcomeRecord|TraceOutcome|run_health_epoch|EWMA_ALPHA|PROBATION_RATE|with_health|no-health|next_decay_epoch_at' crates/ src/ tests/ examples/; then
    echo "a removed retention mechanism is back (matches above)" >&2
    exit 1
fi
if grep -rn 'HealthPolicy' crates/; then
    echo "HealthPolicy is back (matches above): seven settable values with one value in use" >&2
    exit 1
fi

echo "== one deployment (the trace cache lives inside one VM's dispatch loop; no shared-cache serving stack)"
# A second deployment used to run beside the private one: a cache behind a
# lock shared by several VMs, an off-thread constructor fed bounded BCG
# snapshots through a supervised queue, a fault-injection plan, a second
# planner and applier interface for each, a profiler hook that parked
# dropped signal batches, and a multi-VM bench binary. No benchmark
# workload ran it and its one bench leg showed no throughput gain. Any of
# its names creeping back in shows up here first.
if grep -rnE 'new_shared|SharedTraceCache|SharedSession|offthread|FaultPlan|BcgSnapshot|CorrelationView|PlanSink|defer_signals|--bin concurrent' \
    crates/ src/ tests/ examples/; then
    echo "a piece of the shared-cache serving stack is back (matches above)" >&2
    exit 1
fi

echo "== one bench harness (crates/bench keeps only the legs nothing else measures; one flag parser, one JSON writer)"
# crates/bench used to carry a hot-path binary whose legs BENCH_interp.json
# and BENCHMARK.json already measure, a future-work bench repeating
# interp_speed's legs, a trace-monitor seam only that binary called, a
# _filtered twin of every entry point and a scale parser per binary. A
# retired leg or a second copy creeping back in shows up here first.
if [ -e crates/bench/src/hot_path.rs ] || [ -e crates/bench/src/bin/hot_path.rs ] \
    || grep -rn 'future_work_speedup\|on_block_with' crates/ src/ tests/ examples/ \
    || grep -rnE 'fn \w+_filtered' crates/bench/; then
    echo "a retired bench leg, seam or _filtered twin is back (the files above or the matches above)" >&2
    exit 1
fi
# It also carried eight cargo-bench targets on an in-tree copy of the
# Criterion API, each reprinting a paper_tables table or an ablation that
# paper_tables now prints, and the profiler carried an inline_cache switch
# only one of them turned off. One evaluation driver is paper_tables.
if [ -e crates/bench/benches ] || [ -e crates/bench/src/harness.rs ] \
    || grep -n '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml \
    || grep -rnE 'criterion_(group|main)|TRACE_BENCH_SAMPLES|inline_cache' crates/ src/ tests/ examples/; then
    echo "a bench target, the Criterion-style harness or the inline_cache knob is back (the files above or the matches above)" >&2
    exit 1
fi
if grep -rnE 'fn parse_scale' crates/ src/ tests/ examples/; then
    echo "a second scale parser is back (matches above): scale names are parsed by trace_workloads::Scale::parse only" >&2
    exit 1
fi

echo "== one selection harness (core::TraceVm runs the BCG, NET and rePLay under one monitor; paper_tables runs each configuration once)"
# The baselines used to run under a second harness in a crate of their
# own (run_with_selector, with its own report type), the monitor had a
# second lookup path through the BCG node's slot that a differential test
# held equal to the first, and paper_tables ran the same configuration up
# to six times per workload through a sweep module and one row builder
# per table. Any of it creeping back in shows up here first. (The \b
# spares tests/trace_quality.rs's threshold_sweep_produces_... test.)
if [ -e crates/baselines ] || grep -n 'trace-baselines' Cargo.toml crates/*/Cargo.toml \
    || grep -rnE 'run_with_selector|SelectorReport|on_block_at_node|trace_baselines|fn (run_point|threshold_sweep|delay_sweep)\b|inline_hit_rows' \
        crates/ src/ tests/ examples/; then
    echo "a second selection harness or a per-table run is back (crates/baselines or the matches above)" >&2
    exit 1
fi

echo "== one operation semantics (the decoded loop, its fused arms and the register executor evaluate every operation through jvm_vm::semantics)"
# The loop's standalone arms, its fused arms (ibin! / fbin! / aload_elem!)
# and regexec.rs (bin_i! / bin_f!, CmpOp::eval_*) each used to restate the
# wrapping arithmetic, the division traps, the shift mask, the intrinsics
# and the heap accesses with their trap order. A second copy creeping back
# in shows up here first. ReferenceVm stays the independent oracle: it
# must not evaluate through the module it checks.
if sed '/#\[cfg(test)\]/,$d' crates/exec/src/regexec.rs \
    | grep -nE 'VmError::(DivisionByZero|IndexOutOfBounds|BadField)|\.eval_[if]64\('; then
    echo "crates/exec/src/regexec.rs evaluates an operation itself (matches above)" >&2
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/vm/src/interp.rs | grep -nE 'macro_rules! (ibin|fbin|aload_elem)\b'; then
    echo "crates/vm/src/interp.rs carries its own copy of an operation (matches above)" >&2
    exit 1
fi
if grep -n 'semantics' crates/vm/src/reference.rs; then
    echo "crates/vm/src/reference.rs names jvm_vm::semantics: the oracle must stay independent (matches above)" >&2
    exit 1
fi

echo "== one profile (the engine runs the streams it decoded; the BCG is its only profile)"
# TracingVm used to count a second, block-visit profile on every dispatch
# and loop closing, rewrite its out-of-trace streams with DOp
# superinstructions when run 2 began, and keep an EngineConfig knob and a
# --no-fuse flag to turn that off. Turned off it cost nothing the host
# noise could show, and the engine dispatched the same blocks either way.
# A second profile or the rewrite creeping back in shows up here first.
if grep -rnE 'jvm_vm::fuse|fuse::|dop_fusion|count_visit|--no-fuse' crates/exec/src src/bin; then
    echo "the engine profiles or rewrites its decoded streams again (matches above)" >&2
    exit 1
fi

echo "== cargo test (release)"
cargo test --workspace -q --release

echo "== cargo test (debug build: debug_assert! guards on unchecked stack ops)"
cargo test --workspace -q

echo "== conformance (lockstep + chaos campaigns + corpus replay, in-situ asserts on)"
# debug: full invariant density; release: the same suite at speed, so the
# 256-case fuzz lockstep and chaos campaigns run in both configurations.
cargo test -p trace-conformance --features debug-invariants -q
cargo test -p trace-conformance --features debug-invariants -q --release

echo "== trace-retention conformance (quarantine escalation lockstep + phase-shift campaigns)"
# The retention rule against its transcribed model: phase-shift workload
# lockstep, the chaos campaign that catches the planted forgotten-
# escalation quirk, the model's escalation tests, the caches' escalation
# tests, and the engine-level streak / warm-boot staleness suites — in
# debug (invariants on) and release.
cargo test -p trace-conformance --features debug-invariants -q phase_shift
cargo test -p trace-conformance --features debug-invariants -q quarantine_escalation
cargo test -p trace-cache --features debug-invariants -q repeat_quarantine
cargo test --features debug-invariants -q --test health --test health_staleness
cargo test -q --release --test health --test health_staleness

echo "== differential matrix (every VM configuration x every source vs one oracle; debug: invariants on, release: at speed)"
# Plain, fused, monitor, engine (three runs on one VM), never-entering,
# warm-booted and the two baseline selectors, each on
# the six workloads, the three phase-shift variants and a 64-case
# generated corpus, against one ReferenceVm run per source; and the
# suites it replaced, whose tests are now one-row slices of it.
cargo test --features debug-invariants -q --test matrix --test interp_differential --test fuzz_differential --test engine_differential
cargo test -q --release --test matrix --test interp_differential --test fuzz_differential --test engine_differential

echo "== cache and engine unit tests (debug-invariants: the cache's structural asserts after every mutation)"
cargo test -p trace-cache -p trace-exec --features trace-cache/debug-invariants -q

echo "== trace-engine differential (debug: register/slab-bounds + invariant asserts; release: at speed)"
# The trace engine against the plain interpreter beyond the matrix's
# rows: a second seeded corpus through the Engine row, the guard-flip
# chaos programs that force a side-exit resume from
# every guard kind, and the loop<->trace hand-off suite (fuel cut at
# every instruction, in-trace overflow, traps and GC).
cargo test --features debug-invariants -q --test reg_differential --test reg_golden
cargo test -q --release --test reg_differential

echo "== a trace is one dispatch to the profiler (early exits re-anchor, never observe)"
# An early exit used to observe the block it resumed in, crediting the
# failed guard's node with the exit while every pass ran unprofiled in
# the trace: the node decayed toward the exit, turned Weak, and loop
# traces were re-planned shorter. An early exit now only re-anchors the
# profiler at the leaving block, and the loop's dispatch of the
# off-trace successor observes the branch taken. These two tests pin
# the traces' length; the grep keeps the executor from profiling an
# in-trace outcome again.
cargo test -p trace-exec --features debug-invariants -q a_guard_that_exits_below_the_streak_keeps_its_trace
cargo test -p trace-exec -q --release a_guard_that_exits_below_the_streak_keeps_its_trace
cargo test --features debug-invariants -q --test trace_quality a_running_loop_keeps_its_unrolled_trace
cargo test -q --release --test trace_quality a_running_loop_keeps_its_unrolled_trace
if grep -nE 'bcg\.observe|pre_entry' crates/exec/src/regexec.rs; then
    echo "crates/exec/src/regexec.rs profiles an in-trace outcome again (matches above)" >&2
    exit 1
fi

echo "== loop closing (a trace linked at its own loop branch jumps to its top instead of dispatching)"
# A completed loop trace used to hand its final branch back to the loop,
# which re-fired the head's dispatch, observed the back edge, looked up
# the link and re-entered the very same trace — every iteration. The
# final branch now runs in-trace and the executor closes the loop while
# that branch still links the trace, or goes on into the other trace it
# links (a loop split over several traces). Debug runs assert the skipped
# dispatch's premise (no signal pending, cache unchanged) at every
# closing; the smoke must report closings on mpegaudio.
for profile in "--features debug-invariants" "--release"; do
    # shellcheck disable=SC2086
    cargo test -p trace-exec $profile -q a_self_linked_loop_closes_without_dispatching
    # shellcheck disable=SC2086
    cargo test $profile -q --test health a_loop_closes_only_through_its_own_link
    # shellcheck disable=SC2086
    cargo test $profile -q --test health a_loop_split_over_two_traces_closes_through_both
    # shellcheck disable=SC2086
    cargo test $profile -q --test reg_differential fuel_cut_at_every_instruction_matches_the_interpreter
    # shellcheck disable=SC2086
    cargo test $profile -q --test reg_golden
done
closings=$(cargo run --release -q --bin tracevm -- run mpegaudio --scale test --engine exec \
    | sed -n 's/^loop closings *: \([0-9]*\).*/\1/p')
if [ -z "$closings" ] || [ "$closings" -eq 0 ]; then
    echo "tracevm run mpegaudio reported no loop closings ('${closings}')" >&2
    exit 1
fi

echo "== every final terminator runs in-trace (only the outermost return is handed back)"
# A completed trace runs its last terminator itself — branch, goto,
# fall-through, switch, call or return — and goes on into the trace its
# successor links; it hands back only a return from the outermost frame.
# The hand-back of every other final terminator (`RInstr::Finish`)
# creeping back in shows up here first.
if grep -rnE 'RInstr::Finish\b|Finish \{' crates/exec/src/ crates/conformance/src/; then
    echo "a final terminator is handed back to the loop again (matches above)" >&2
    exit 1
fi

echo "== one way out of a trace (a failed guard leaves on its off-trace successor's entry marker, as a completion does)"
# A failed guard used to hand its instruction back to the loop through a
# second exit protocol: four Guard* instructions beside their final
# forms, frame images taken before the guard popped its operands, and a
# resume point mid-block whose skipped dispatch reg_exit! counted by
# hand. Every control instruction now runs its terminator in-trace and
# leaves one way; the unit tests pin each guard kind's resume point
# (the successor's marker, one loop dispatch, the profiler re-anchored
# at the guard's block). The old protocol creeping back in shows up
# here first.
if grep -rnE 'GuardCond|GuardSwitch|GuardVirtual|GuardReturn|macro_rules! reg_exit' \
    crates/exec/src/ crates/conformance/src/; then
    echo "a second exit protocol is back (matches above)" >&2
    exit 1
fi
for profile in "--features debug-invariants" "--release"; do
    # shellcheck disable=SC2086
    cargo test -p trace-exec $profile -q resumes_on_the
done

echo "== a lowered trace at its exact size (24-byte RInstr, switch tables in one pool, no Vec in RegTrace)"
# RInstr was 48 bytes while two switch variants carried their tables
# inline, and every RegTrace array was a Vec whose spare capacity stayed
# allocated for the trace's life; together they doubled
# exec.lowered_bytes. The compiler asserts the 24 bytes; this keeps the
# arrays exact and the tables out of line, and the counting-allocator
# test keeps memory_estimate equal to the bytes a trace holds.
if sed -n '/^pub struct RegTrace {/,/^}/p' crates/exec/src/reg.rs | grep -nE 'Vec<'; then
    echo "pub struct RegTrace holds a Vec again (matches above): store arrays as Box<[T]>" >&2
    exit 1
fi
if sed -n '/^pub enum RInstr {/,/^}/p' crates/exec/src/reg.rs | grep -nE 'Box<\[u32\]>'; then
    echo "enum RInstr carries a table inline again (matches above): tables live in the SwitchPool" >&2
    exit 1
fi
cargo test -q --release --test lowered_footprint

echo "== superinstruction fusion differential (debug: stack/shadow asserts; release: at speed)"
# The matrix's Fused row on the workloads and a second seeded corpus,
# and what that row cannot show: fuel-straddle cuts inside
# fused groups, profile-driven selection, the pinned golden listing, and
# the planted mis-fused-boundary quirk the harness must catch.
cargo test --features debug-invariants -q --test fusion_differential --test fusion_golden
cargo test -q --release --test fusion_differential

echo "== interp-speed bench smoke (test scale; fused and lowered-reg legs, fusion and register-lowering"
echo "   stats must be present; gate: never-entering engine <= 1.5x the decoded loop + bcg.observe,"
echo "   median of 5 paired rounds)"
cargo run --release -p trace-bench --bin interp_speed -- --smoke --out "$smoke_dir/BENCH_interp.smoke.json"
grep -q '"fused"' "$smoke_dir/BENCH_interp.smoke.json"
grep -q '"lowered-reg"' "$smoke_dir/BENCH_interp.smoke.json"
grep -q '"reg_lowering"' "$smoke_dir/BENCH_interp.smoke.json"
grep -q '"never-enter"' "$smoke_dir/BENCH_interp.smoke.json"
grep -q '"fusion"' "$smoke_dir/BENCH_interp.smoke.json"
grep -q '"dispatches_eliminated"' "$smoke_dir/BENCH_interp.smoke.json"
grep -q '"hot_opcode_triples"' "$smoke_dir/BENCH_interp.smoke.json"

echo "== snapshot round-trip differential (debug: decoder/merge asserts in situ)"
# Persistence is lossless and canonical: six workloads + seeded fuzz
# programs round-trip bit-identically and the byte-level container
# format stays pinned. (Warm boot against the oracle is the matrix's
# WarmBoot row.)
cargo test --features debug-invariants -q --test snapshot_differential --test snapshot_golden

echo "== persist unit tests, cache invariants armed (a forged zero-completion trace must be refused, not planted)"
cargo test -p trace-persist --features debug-invariants -q

echo "== snapshot hostile-input campaign (release: >=256 mutants per source)"
# Bit flips, truncations, section swaps, hostile length fields: every
# mutant must be cleanly rejected — no panics, no silent acceptance —
# and the planted stale-hash quirk must be caught.
cargo test -q --release --test snapshot_hostile

echo "== paper_tables smoke (test scale, csv: the ablation and baseline tables; every deterministic table pinned)"
for t in unroll decay inline baselines; do
    cargo run --release -q -p trace-bench --bin paper_tables -- \
        --scale test --table "$t" --format csv >"$smoke_dir/table_$t.csv" 2>/dev/null
    if [ "$(grep -cv '^#' "$smoke_dir/table_$t.csv")" -lt 3 ]; then
        echo "paper_tables --table $t printed no rows" >&2
        exit 1
    fi
done
# Tables I-V, fig, unroll, decay, inline and baselines, byte for byte
# against crates/bench/tests/paper_tables_test_scale.csv.
cargo test -q --release -p trace-bench --test paper_tables_golden

echo "== the repo's benchmark (its own workspace: build, unit tests, 2-round smoke of every leg, oracle-checked)"
# benchmark/ is not a workspace member, so nothing above compiles it: a
# public item it calls could be deleted and only the pipeline would
# notice. The smoke is not a measurement (see benchmark/run.sh --quick).
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml -q
benchmark/run.sh --quick --out "$smoke_dir/bench_quick.json"

echo "CI OK"
