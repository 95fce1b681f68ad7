//! Externally checkable invariants over the live structures.
//!
//! These checks use only public APIs, so they run in every build — the
//! `debug-invariants` feature additionally turns on the *in-situ*
//! asserts inside `trace-bcg` and `trace-cache` (checked on every hot
//! event, with access to private state). Each function panics with a
//! description of the violated paper rule; DESIGN.md ("Conformance
//! invariants") maps every invariant to the rule it encodes.

use jvm_bytecode::{FuncId, Program};
use jvm_vm::decode::{op, DecodedProgram};
use trace_bcg::BranchCorrelationGraph;
use trace_cache::TraceCache;
use trace_exec::{RExit, RInstr, RegTrace};

/// Graph-wide counter and state-machine invariants (§3.3, §4.1.1):
/// `total_weight` equal to the successor-count sum (the counters' 16-bit
/// bound is their type's), and hot states only on nodes with usable
/// statistics past the start delay.
pub fn check_graph(bcg: &BranchCorrelationGraph) {
    let cfg = bcg.config();
    for (idx, node) in bcg.iter() {
        let sum: u32 = node.successors().iter().map(|s| u32::from(s.count)).sum();
        assert_eq!(
            node.total_weight(),
            sum,
            "{idx}: total_weight out of sync with successor counters"
        );
        if node.state().is_hot() {
            assert!(
                node.executions() >= u64::from(cfg.start_delay),
                "{idx}: hot before the start-state delay ({} < {})",
                node.executions(),
                cfg.start_delay
            );
            assert!(
                node.total_weight() > 0,
                "{idx}: hot with no successor statistics"
            );
        }
        for &p in node.predecessors() {
            // Predecessor entries may be stale, but must stay in range.
            let _ = bcg.node(p);
        }
    }
}

/// Cache-side structural invariants (§4.2): every linked trace is
/// non-empty, entered at its first block, and carries a completion
/// estimate in `(0, 1]`.
pub fn check_cache_links(cache: &TraceCache) {
    for (entry, trace) in cache.iter_links() {
        assert!(!trace.blocks().is_empty(), "{entry:?}: empty linked trace");
        assert_eq!(
            entry.1,
            trace.blocks()[0],
            "{entry:?}: link does not land on the trace's first block"
        );
        let c = trace.expected_completion();
        assert!(
            c > 0.0 && c <= 1.0,
            "{entry:?}: completion estimate {c} outside (0, 1]"
        );
    }
}

/// Version-stamped trace-link coherence: any node whose inline
/// trace-link slot carries the cache's *current* version stamp must
/// agree — positively or negatively — with the authoritative entry
/// table. (Stale stamps are fine; they revalidate on first use.)
pub fn check_link_coherence(cache: &TraceCache, bcg: &BranchCorrelationGraph) {
    let version = cache.version();
    for (idx, node) in bcg.iter() {
        let (stamp, raw) = node.trace_link();
        if stamp != version {
            continue;
        }
        let table = cache.lookup_entry(node.branch());
        let slot = (raw != trace_bcg::node::NO_TRACE_LINK).then_some(raw as usize);
        assert_eq!(
            slot,
            table.map(|t| t.index()),
            "{idx}: current-version trace-link slot disagrees with the entry table"
        );
    }
}

/// Side-exit target validity: every exit record of a register-lowered
/// trace must resume at an in-range decoded pc of its function, inside
/// the block the record names — a guard's or an outermost return's on
/// the block's terminator, a final branch's or switch's on an entry
/// marker, so the loop never resumes mid-block; every decoded switch
/// target must be a block entry marker; every frame image must fit the
/// region the arena allocates for its frame; and an exit's image must
/// rebuild exactly the operand-stack depth the verifier proved at its
/// resume pc. A final branch's or switch's successor records sit on
/// their successor's entry marker and share one image, whose depth is
/// the one proved at each successor's first instruction. A violation would make a failing
/// guard or a completed trace resume the interpreter at
/// a garbage pc, on a stack it does not expect, or write outside its
/// frame — the exact class of bug trace execution must never exhibit.
pub fn check_side_exits(program: &Program, decoded: &DecodedProgram, rt: &RegTrace) {
    let check_image = |what: &str, cur: FuncId, image: u32| {
        let df = &decoded.funcs[cur.0 as usize];
        let img = &rt.images[image as usize];
        assert!(
            u64::from(img.base) + img.stack.len() as u64 <= u64::from(df.max_stack),
            "{what}: frame image overflows the operand-stack region"
        );
        for &(slot, _) in img.dirty.iter() {
            assert!(
                slot < df.num_locals,
                "{what}: dirty slot {slot} not a local"
            );
        }
    };
    // Where a record resumes: in range, inside the block it names, in
    // the frame the stream is executing, with an image that fits it.
    let check_record = |what: &str, cur: FuncId, idx: u32| {
        let e = &rt.exits[idx as usize];
        assert!(
            (e.func.0 as usize) < decoded.funcs.len(),
            "{what}: exit names unknown function {:?}",
            e.func
        );
        let df = &decoded.funcs[e.func.0 as usize];
        assert!(
            (e.dpc as usize) < df.code.len(),
            "{what}: exit dpc {} out of range",
            e.dpc
        );
        assert_eq!(
            df.block_of[e.dpc as usize], e.block,
            "{what}: exit block does not contain the resume pc"
        );
        let nblocks = program.function(e.func).blocks().len() as u32;
        assert!(
            e.block < nblocks,
            "{what}: exit block {} out of range",
            e.block
        );
        assert_eq!(
            e.func, cur,
            "{what}: exit anchors in {:?} but the stream is executing {cur:?}",
            e.func
        );
        check_image(what, cur, e.image);
        e
    };
    // The image must rebuild exactly the depth the verifier proved at
    // the source pc the loop resumes on.
    let check_depth = |what: &str, e: &RExit, pc: u32| {
        let img = &rt.images[e.image as usize];
        assert_eq!(
            Some(u64::from(img.base) + img.stack.len() as u64),
            program.function(e.func).depth_at(pc).map(u64::from),
            "{what}: frame image depth is not the verified depth at pc {pc}"
        );
    };
    let check_exit = |what: &str, cur: FuncId, idx: u32| {
        // The interpreter resumes *at* the exit's instruction. One
        // marker precedes each block, so the source pc is
        // `dpc - block - 1` (DESIGN.md, decoded layout).
        let e = check_record(what, cur, idx);
        let pc = e.dpc - e.block - 1;
        assert_eq!(
            pc + 1,
            program.function(e.func).block(e.block).end,
            "{what}: exit at pc {pc} is not its block's terminator"
        );
        check_depth(what, e, pc);
    };
    // A final branch's or switch's successor record resumes *on* the
    // successor's entry marker, so the loop makes its dispatch; the
    // image rebuilds the depth at the block's first instruction.
    let check_successor = |cur: FuncId, idx: u32| {
        let what = "final-branch";
        let e = check_record(what, cur, idx);
        assert_eq!(
            decoded.funcs[e.func.0 as usize].code[e.dpc as usize].op,
            op::ENTER_BLOCK,
            "{what}: successor record does not resume on an entry marker"
        );
        check_depth(what, e, program.function(e.func).block(e.block).start);
    };
    let check_local = |what: &str, cur: FuncId, slot: u16| {
        assert!(
            slot < decoded.funcs[cur.0 as usize].num_locals,
            "{what}: slot {slot} not a local of {cur:?}"
        );
    };
    // Return continuations (`ret` on call guards) resume *mid-block* at
    // the decoded pc right after the call — in range, but not required
    // to be a block entry.
    let check_resume = |what: &str, func: FuncId, t: u32| {
        let df = &decoded.funcs[func.0 as usize];
        assert!(
            (t as usize) < df.code.len(),
            "{what}: resume pc {t} out of range"
        );
    };
    let check_marker = |what: &str, func: FuncId, t: u32| {
        let df = &decoded.funcs[func.0 as usize];
        assert!(
            (t as usize) < df.code.len(),
            "{what}: decoded target {t} out of range"
        );
        assert!(
            t == 0 || df.block_of[t as usize - 1] != df.block_of[t as usize],
            "{what}: decoded target {t} is not a block entry marker"
        );
    };

    // Exits anchor into the function owning each instruction. The
    // lowered stream switches functions at Enter/GuardVirtual (into the
    // callee), RetStatic (back to the in-trace caller) and GuardReturn
    // (into the recorded continuation's function — which may leave the
    // trace's entry function); track the current function alongside
    // and require every guard's exit to anchor inside it.
    let mut cur = rt.src_blocks[0].func;
    let mut callers: Vec<FuncId> = Vec::new();
    for r in rt.code.iter() {
        match r {
            RInstr::LoadLocal { slot, .. } | RInstr::IncLocal { slot, .. } => {
                check_local("local", cur, *slot)
            }
            RInstr::NewObj { image, .. } | RInstr::NewArray { image, .. } => {
                check_image("alloc", cur, *image)
            }
            RInstr::GuardCond { exit, .. } => check_exit("guard-cond", cur, *exit),
            RInstr::GuardSwitch {
                table,
                expected,
                exit,
                ..
            } => {
                check_exit("guard-switch", cur, *exit);
                let t = rt.switches.table(*table);
                for &target in t.targets {
                    check_marker("guard-switch", cur, target);
                }
                check_marker("guard-switch-default", cur, t.default);
                check_marker("guard-switch-expected", cur, *expected);
            }
            RInstr::EnterStatic {
                callee, ret, image, ..
            } => {
                check_image("enter-static", cur, *image);
                check_resume("enter-static-ret", cur, *ret);
                callers.push(cur);
                cur = *callee;
            }
            RInstr::GuardVirtual {
                expected,
                ret,
                exit,
                ..
            } => {
                check_exit("guard-virtual", cur, *exit);
                check_resume("guard-virtual-ret", cur, *ret);
                callers.push(cur);
                cur = *expected;
            }
            RInstr::RetStatic { .. } => {
                cur = callers
                    .pop()
                    .expect("static return pairs with an in-trace call");
            }
            RInstr::GuardReturn { expected, exit, .. } => {
                check_exit("guard-return", cur, *exit);
                assert!(callers.is_empty(), "guarded return below the entry depth");
                cur = expected.func;
            }
            RInstr::FinalBranch { exits, .. } => {
                for &idx in exits {
                    check_successor(cur, idx);
                }
                let [fall, taken] = exits.map(|i| rt.exits[i as usize].image);
                assert_eq!(fall, taken, "final branch: successors share one image");
            }
            RInstr::FinalSwitch { table, .. } => {
                let t = rt.switches.table(*table);
                let image = rt.exits[t.default as usize].image;
                for &idx in t.targets.iter().chain(std::iter::once(&t.default)) {
                    check_successor(cur, idx);
                    assert_eq!(
                        rt.exits[idx as usize].image, image,
                        "final switch: successors share one image"
                    );
                }
            }
            RInstr::FinalCall { image, ret, .. } => {
                check_image("final-call", cur, *image);
                check_resume("final-call-ret", cur, *ret);
            }
            RInstr::FinalReturn { exit, .. } => check_exit("final-return", cur, *exit),
            _ => {}
        }
    }
    assert!(
        matches!(
            rt.code.last(),
            Some(
                RInstr::FinalBranch { .. }
                    | RInstr::FinalSwitch { .. }
                    | RInstr::FinalCall { .. }
                    | RInstr::FinalReturn { .. }
            )
        ),
        "a register trace hands back to the loop through its final terminator"
    );
}
