//! Small bytecode-emission helpers shared by the workload generators.

use jvm_bytecode::FunctionBuilder;

/// Emits `arr[k] += delta` for a constant index.
pub fn emit_arr_inc(b: &mut FunctionBuilder, arr: u16, k: i64, delta: i64) {
    b.load(arr)
        .iconst(k)
        .load(arr)
        .iconst(k)
        .aload()
        .iconst(delta)
        .iadd()
        .astore();
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::{Intrinsic, ProgramBuilder};
    use jvm_vm::{NullObserver, Vm};

    #[test]
    fn helpers_emit_correct_array_ops() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        {
            let b = pb.function_mut(f);
            let a = b.alloc_local();
            b.iconst(3).new_array().store(a);
            b.load(a).iconst(1).iconst(10).astore();
            emit_arr_inc(b, a, 1, 5);
            b.load(a).iconst(1).aload();
            b.intrinsic(Intrinsic::Checksum);
            b.ret_void();
        }
        let p = pb.build(f).unwrap();
        let mut vm = Vm::new(&p);
        vm.run(&[], &mut NullObserver).unwrap();
        assert_eq!(vm.checksum(), jvm_vm::fold_checksum(0, 15));
    }
}
