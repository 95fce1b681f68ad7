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
use trace_exec::{RExit, RInstr, RegTrace, ON_TRACE};

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

/// Resume-record validity (invariant R2): a register-lowered trace
/// leaves one way. Every resume record sits on the entry marker of the
/// block it names, in range, in the frame the stream is executing, and
/// its frame image rebuilds exactly the operand-stack depth the verifier
/// proved at that block's first instruction, so the loop resumes by
/// dispatching the block. The one exception is the hand-back of a return
/// from the outermost frame, which sits on the return itself with the
/// depth proved there. The records of one branch or switch share one
/// image and one block count, every call's continuation is an entry
/// marker, every frame image fits the region the arena allocates for its
/// frame, and the last instruction leaves on every successor. A violation
/// would make a trace resume the interpreter at a garbage pc, on a stack
/// it does not expect, or write outside its frame — the exact class of
/// bug trace execution must never exhibit.
pub fn check_side_exits(program: &Program, decoded: &DecodedProgram, rt: &RegTrace) {
    let len = rt.src_blocks.len() as u32;
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
    // the frame the stream is executing, with an image that fits it and
    // rebuilds exactly the depth the verifier proved at source pc `pc`.
    let check_record = |what: &str, cur: FuncId, idx: u32, pc: &dyn Fn(&RExit) -> u32| {
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
        assert!(
            (1..=len).contains(&e.blocks_done),
            "{what}: {} blocks done in a trace of {len}",
            e.blocks_done
        );
        check_image(what, cur, e.image);
        let pc = pc(e);
        let img = &rt.images[e.image as usize];
        assert_eq!(
            Some(u64::from(img.base) + img.stack.len() as u64),
            program.function(e.func).depth_at(pc).map(u64::from),
            "{what}: frame image depth is not the verified depth at pc {pc}"
        );
        e
    };
    // A successor's record resumes *on* the successor's entry marker, so
    // the loop makes its dispatch; the image rebuilds the depth at the
    // block's first instruction.
    let check_successor = |what: &str, cur: FuncId, idx: u32| {
        let e = check_record(what, cur, idx, &|e| {
            program.function(e.func).block(e.block).start
        });
        assert_eq!(
            decoded.funcs[e.func.0 as usize].code[e.dpc as usize].op,
            op::ENTER_BLOCK,
            "{what}: resume record does not sit on an entry marker"
        );
        (e.image, e.blocks_done)
    };
    // The slots of one branch or switch: records share one image and one
    // block count; the last instruction has no slot on the trace.
    let check_slots = |what: &str, cur: FuncId, slots: &mut dyn Iterator<Item = u32>| {
        let mut shared = None;
        let mut on_trace = false;
        for idx in slots {
            if idx == ON_TRACE {
                on_trace = true;
                continue;
            }
            let got = check_successor(what, cur, idx);
            assert_eq!(
                *shared.get_or_insert(got),
                got,
                "{what}: successors share one image and one block count"
            );
        }
        (on_trace, shared.map(|(_, done)| done))
    };
    let check_local = |what: &str, cur: FuncId, slot: u16| {
        assert!(
            slot < decoded.funcs[cur.0 as usize].num_locals,
            "{what}: slot {slot} not a local of {cur:?}"
        );
    };
    let check_marker = |what: &str, func: FuncId, t: u32| {
        let df = &decoded.funcs[func.0 as usize];
        assert!(
            (t as usize) < df.code.len(),
            "{what}: decoded target {t} out of range"
        );
        assert_eq!(
            df.code[t as usize].op,
            op::ENTER_BLOCK,
            "{what}: decoded target {t} is not a block entry marker"
        );
    };

    // Records anchor into the function owning each instruction. The
    // lowered stream switches functions at a call that stays on the
    // trace (into the callee), RetStatic (back to the in-trace caller)
    // and a return that stays on the trace (into the caller's
    // continuation — which may leave the trace's entry function); track
    // the current function alongside and require every record to anchor
    // inside it.
    let mut cur = rt.src_blocks[0].func;
    let mut callers: Vec<FuncId> = Vec::new();
    // Whether the instruction just checked leaves on every successor.
    let mut leaves = false;
    for r in rt.code.iter() {
        leaves = false;
        match r {
            RInstr::LoadLocal { slot, .. } | RInstr::IncLocal { slot, .. } => {
                check_local("local", cur, *slot)
            }
            RInstr::NewObj { image, .. } | RInstr::NewArray { image, .. } => {
                check_image("alloc", cur, *image)
            }
            RInstr::Branch { exits, .. } => {
                let (on, done) = check_slots("branch", cur, &mut exits.iter().copied());
                assert!(done.is_some(), "branch: no successor leaves the trace");
                leaves = !on && done == Some(len);
            }
            RInstr::Switch { table, .. } => {
                let t = rt.switches.table(*table);
                let mut slots = t.targets.iter().copied().chain(std::iter::once(t.default));
                let (on, done) = check_slots("switch", cur, &mut slots);
                assert!(done.is_some(), "switch: no successor leaves the trace");
                leaves = !on && done == Some(len);
            }
            RInstr::Call {
                ret, image, done, ..
            } => {
                check_image("call", cur, *image);
                check_marker("call-ret", cur, *ret);
                match rt.src_blocks.get(usize::from(*done)) {
                    Some(next) => {
                        callers.push(cur);
                        cur = next.func;
                    }
                    None => leaves = u32::from(*done) == len,
                }
            }
            RInstr::RetStatic { .. } => {
                cur = callers
                    .pop()
                    .expect("static return pairs with an in-trace call");
            }
            RInstr::Return { exit, .. } => {
                // The outermost hand-back sits on the return itself.
                let e = check_record("return", cur, *exit, &|e| e.dpc - e.block - 1);
                let pc = e.dpc - e.block - 1;
                assert_eq!(
                    pc + 1,
                    program.function(e.func).block(e.block).end,
                    "return: hand-back at pc {pc} is not its block's terminator"
                );
                match rt.src_blocks.get(e.blocks_done as usize) {
                    Some(next) => {
                        assert!(callers.is_empty(), "checked return below the entry depth");
                        cur = next.func;
                    }
                    None => leaves = true,
                }
            }
            _ => {}
        }
    }
    assert!(
        leaves,
        "a register trace hands back to the loop through its last instruction"
    );
}
