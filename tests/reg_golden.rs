//! Golden test: the register-lowered form of a fixed trace is stable
//! and readable. The companion of `decoded_golden.rs` one layer up:
//! same program shape, but listing the three-address virtual-register
//! code a hot trace actually executes — stack traffic folded away,
//! compares fused into branches, constants hoisted into the per-trace
//! table, and every resume record's frame-reconstruction image spelled
//! out.

use tracecache_repro::bytecode::{BlockId, CmpOp, Intrinsic, ProgramBuilder};
use tracecache_repro::exec::{compile_blocks, disassemble, lower_reg};
use tracecache_repro::tracecache::TraceId;
use tracecache_repro::vm::DecodedProgram;

#[test]
fn register_listing_matches_golden() {
    // The decoded_golden program: a counted loop calling a leaf, so the
    // lowering exhibits a conditional branch, a static call, a static
    // return and an intrinsic in one short trace.
    let mut pb = ProgramBuilder::new();
    let leaf = pb.declare_function("leaf", 1, true);
    pb.function_mut(leaf).load(0).iconst(1).iadd().ret();
    let main_f = pb.declare_function("main", 1, false);
    {
        let b = pb.function_mut(main_f);
        let head = b.bind_new_label();
        let exit = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit);
        b.load(0).invoke_static(leaf).intrinsic(Intrinsic::Checksum);
        b.iinc(0, -1).goto(head);
        b.bind(exit);
        b.ret_void();
    }
    let program = pb.build(main_f).unwrap();
    let decoded = DecodedProgram::decode(&program);

    // The loop trace, entered at the body: call the leaf, return, close
    // the back edge, and re-test the loop condition. That test is the
    // trace's final branch, run in-trace: its fall-through successor is
    // the trace's own first block (exit 1, where a loop closing jumps
    // back to the top), its taken one the loop exit (exit 0). Both
    // resume on their block's entry marker, share one image, and count
    // all four blocks done.
    let chain = vec![
        BlockId::new(main_f, 1),
        BlockId::new(leaf, 0),
        BlockId::new(main_f, 2),
        BlockId::new(main_f, 0),
    ];
    let ct = compile_blocks(&program, TraceId::from_raw(7), &chain).unwrap();
    let rt = lower_reg(&program, &decoded, &ct).expect("trace lowers to register form");

    // The full listing is pinned: any change to virtual-register
    // assignment, weight accounting, guard fusion, or exit images must
    // show up here as a reviewed diff.
    let expected = "\
reg trace: 7 rinstrs, 4 regs, 1 consts, 2 exits
  const r1 = int 1
   0: r0 = local 0 [w=1]
   1: call fn#0 ret=6 img=0 done=1 [w=1]
   2: r2 = iadd r0, r1 [w=3]
   3: ret.static [w=1]
   4: checksum r2 [w=1]
   5: r3 = r0 + -1 [w=1]
   6: branch izero.le r3 ? exit 0 : exit 1 [w=3]
exit 0: fn#1 dpc=10 block=3 done=4 base=0 stack=[] dirty=[0<-r3]
exit 1: fn#1 dpc=3 block=1 done=4 base=0 stack=[] dirty=[0<-r3]
";
    assert_eq!(disassemble(&rt), expected);

    // The lowering's own accounting agrees with the listing: 11
    // compiled trace instructions became 7, the pure stack traffic
    // vanished, and the trailing compare fused into the final branch.
    assert_eq!((rt.stats.before, rt.stats.after), (11, 7));
    assert_eq!(rt.stats.eliminated, 4);
    assert_eq!(rt.stats.regs, 4);

    // The same loop entered at its head: the loop test is now a guard in
    // the trace's first block. Its fall-through runs on (`on`); its taken
    // outcome leaves on the loop exit's marker after one block, exactly
    // as the final `goto` leaves on the head's after four.
    let chain = vec![
        BlockId::new(main_f, 0),
        BlockId::new(main_f, 1),
        BlockId::new(leaf, 0),
        BlockId::new(main_f, 2),
    ];
    let ct = compile_blocks(&program, TraceId::from_raw(8), &chain).unwrap();
    let rt = lower_reg(&program, &decoded, &ct).expect("trace lowers to register form");
    let expected = "\
reg trace: 8 rinstrs, 4 regs, 1 consts, 2 exits
  const r1 = int 1
   0: r0 = local 0 [w=1]
   1: branch izero.le r0 ? exit 0 : on [w=1]
   2: call fn#0 ret=6 img=1 done=2 [w=2]
   3: r2 = iadd r0, r1 [w=3]
   4: ret.static [w=1]
   5: checksum r2 [w=1]
   6: r3 = r0 + -1 [w=1]
   7: goto exit 1 [w=1]
exit 0: fn#1 dpc=10 block=3 done=1 base=0 stack=[] dirty=[]
exit 1: fn#1 dpc=0 block=0 done=4 base=0 stack=[] dirty=[0<-r3]
";
    assert_eq!(disassemble(&rt), expected);
}
