//! The frame arena: one contiguous `Value` slab for every activation's
//! locals **and** operand stack.
//!
//! The classic interpreter allocates two `Vec<Value>`s per call (locals +
//! stack). The arena replaces both with per-frame regions of a single
//! growing slab:
//!
//! ```text
//! slab: [ frame0 locals | frame0 stack | frame1 locals | frame1 stack | .. ]
//!         ^base0          ^stack_base0   ^base1 = limit0
//! ```
//!
//! Region sizes are static per function (`num_locals + max_stack`, with
//! `max_stack` the bound the verifier proved and the program's
//! `Function` carries), so a call is a pointer bump plus an argument
//! `copy_within`, and a return is a pop.
//! Locals are filled **args-first**: arguments are copied into the region
//! head and only the `argc..num_locals` tail is zeroed — zeroing the tail
//! is mandatory on every push because the slab reuses memory of returned
//! frames, but the argument prefix is never written twice.
//!
//! The live values of a frame always occupy the contiguous range
//! `base..sp`, which makes GC root scanning a flat slice walk with no
//! per-frame pointer chasing.

use jvm_bytecode::FuncId;

use crate::value::Value;

/// Reads slab slot `i` without a release-mode bounds check (debug builds
/// assert it).
///
/// # Safety
///
/// `i` must be less than `slab.len()`. Callers discharge this with a
/// static bound on the frame region they index — the verifier's for the
/// interpreter, the lowering-time check for register traces (DESIGN.md,
/// "Unchecked-access invariants").
#[inline(always)]
pub unsafe fn slot(slab: &[Value], i: u32) -> Value {
    debug_assert!((i as usize) < slab.len(), "frame-region bound");
    // SAFETY: the caller guarantees `i < slab.len()`.
    unsafe { *slab.get_unchecked(i as usize) }
}

/// Mutable counterpart of [`slot`].
///
/// # Safety
///
/// `i` must be less than `slab.len()` (see [`slot`]).
#[inline(always)]
pub unsafe fn slot_mut(slab: &mut [Value], i: u32) -> &mut Value {
    debug_assert!((i as usize) < slab.len(), "frame-region bound");
    // SAFETY: the caller guarantees `i < slab.len()`.
    unsafe { slab.get_unchecked_mut(i as usize) }
}

/// Bookkeeping for one arena frame. The interpreter caches the hot fields
/// (`pc`, `sp`) in locals and flushes them here at call/return/GC
/// boundaries.
#[derive(Debug, Clone, Copy)]
pub struct FrameInfo {
    /// The executing function.
    pub func: FuncId,
    /// Saved program counter (an index into the *decoded* stream).
    pub pc: u32,
    /// Slab index of the first local.
    pub base: u32,
    /// Slab index of the operand stack floor (`base + num_locals`).
    pub stack_base: u32,
    /// Slab index one past the top of the operand stack.
    pub sp: u32,
    /// Slab index one past the frame's region (`base + frame_size`); the
    /// next frame begins here.
    pub limit: u32,
}

/// The contiguous frame slab plus its frame stack.
#[derive(Debug, Default)]
pub struct FrameArena {
    /// Backing storage: locals and stacks of all live frames.
    pub slab: Vec<Value>,
    /// Active frames, caller-first.
    pub frames: Vec<FrameInfo>,
}

impl FrameArena {
    /// An empty arena.
    pub fn new() -> Self {
        FrameArena::default()
    }

    /// Drops all frames but keeps the slab capacity (runs reuse it).
    pub fn clear(&mut self) {
        self.frames.clear();
    }

    /// Current call depth.
    #[inline]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The top frame.
    ///
    /// # Panics
    ///
    /// Panics if no frame is active.
    #[inline]
    pub fn top(&self) -> &FrameInfo {
        self.frames.last().expect("frame exists")
    }

    /// The top frame, mutably.
    ///
    /// # Panics
    ///
    /// Panics if no frame is active.
    #[inline]
    pub fn top_mut(&mut self) -> &mut FrameInfo {
        self.frames.last_mut().expect("frame exists")
    }

    /// Grows the slab to cover `limit` slots.
    #[inline]
    fn ensure(&mut self, limit: u32) {
        if self.slab.len() < limit as usize {
            self.slab.resize(limit as usize, Value::default());
        }
    }

    /// Pushes the entry frame, copying `args` into the first locals and
    /// zeroing the rest.
    ///
    /// # Panics
    ///
    /// Panics if frames are already active or `args` exceed the locals.
    pub fn push_entry(&mut self, func: FuncId, num_locals: u32, frame_size: u32, args: &[Value]) {
        assert!(self.frames.is_empty(), "entry frame must be first");
        assert!(args.len() <= num_locals as usize, "more args than locals");
        self.ensure(frame_size);
        self.slab[..args.len()].copy_from_slice(args);
        for v in &mut self.slab[args.len()..num_locals as usize] {
            *v = Value::default();
        }
        self.frames.push(FrameInfo {
            func,
            pc: 0,
            base: 0,
            stack_base: num_locals,
            sp: num_locals,
            limit: frame_size,
        });
    }

    /// Pushes a callee frame: moves the top `argc` stack slots of the
    /// caller into the callee's first locals (args-first), zeroes only
    /// the locals tail, and leaves the callee stack empty. The caller's
    /// `sp` must already be flushed into its [`FrameInfo`].
    ///
    /// # Panics
    ///
    /// Panics if no caller frame is active; debug builds assert the
    /// caller has `argc` values on its stack.
    pub fn push_call(&mut self, func: FuncId, num_locals: u32, frame_size: u32, argc: u32) {
        let caller = self.frames.last_mut().expect("caller exists");
        debug_assert!(caller.sp - caller.stack_base >= argc, "verified arity");
        let src = caller.sp - argc;
        caller.sp = src;
        let base = caller.limit;
        let limit = base + frame_size;
        self.ensure(limit);
        self.slab
            .copy_within(src as usize..(src + argc) as usize, base as usize);
        for v in &mut self.slab[(base + argc) as usize..(base + num_locals) as usize] {
            *v = Value::default();
        }
        self.frames.push(FrameInfo {
            func,
            pc: 0,
            base,
            stack_base: base + num_locals,
            sp: base + num_locals,
            limit,
        });
    }

    /// Pops the top frame.
    ///
    /// # Panics
    ///
    /// Panics if no frame is active.
    #[inline]
    pub fn pop_frame(&mut self) -> FrameInfo {
        self.frames.pop().expect("frame exists")
    }

    /// Iterates every live heap reference across all frames (GC roots).
    /// Top-frame `sp` must be flushed first.
    pub fn roots(&self) -> impl Iterator<Item = crate::value::RefId> + '_ {
        self.frames.iter().flat_map(|f| {
            self.slab[f.base as usize..f.sp as usize]
                .iter()
                .filter_map(|v| match v {
                    Value::Ref(r) => Some(*r),
                    _ => None,
                })
        })
    }

    /// Real byte footprint of the arena (capacities).
    pub fn memory_estimate(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<Value>()
            + self.frames.capacity() * std::mem::size_of::<FrameInfo>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::RefId;

    #[test]
    fn entry_frame_fills_args_first_and_zeroes_tail() {
        let mut a = FrameArena::new();
        a.push_entry(FuncId(0), 4, 6, &[Value::Int(7), Value::Float(1.0)]);
        assert_eq!(a.slab[0], Value::Int(7));
        assert_eq!(a.slab[1], Value::Float(1.0));
        assert_eq!(a.slab[2], Value::Int(0));
        assert_eq!(a.slab[3], Value::Int(0));
        let f = a.top();
        assert_eq!((f.base, f.stack_base, f.sp, f.limit), (0, 4, 4, 6));
    }

    #[test]
    fn call_moves_args_and_zeroes_only_stale_tail() {
        let mut a = FrameArena::new();
        a.push_entry(FuncId(0), 1, 4, &[Value::Int(1)]);
        // Caller pushes two args.
        a.slab[1] = Value::Int(10);
        a.slab[2] = Value::Int(20);
        a.top_mut().sp = 3;
        a.push_call(FuncId(1), 3, 5, 2);
        let callee = *a.top();
        assert_eq!(callee.base, 4);
        assert_eq!(a.slab[4], Value::Int(10));
        assert_eq!(a.slab[5], Value::Int(20));
        assert_eq!(a.slab[6], Value::Int(0), "tail local zeroed");
        assert_eq!(callee.stack_base, 7);
        assert_eq!(callee.sp, 7);
        // Caller's args were consumed.
        assert_eq!(a.frames[0].sp, 1);
    }

    #[test]
    fn reused_slab_region_is_rezeroed() {
        let mut a = FrameArena::new();
        a.push_entry(FuncId(0), 1, 3, &[Value::Int(1)]);
        a.slab[1] = Value::Int(99);
        a.top_mut().sp = 2;
        a.push_call(FuncId(1), 2, 4, 1); // callee local 1 zeroed
        assert_eq!(a.slab[4], Value::Int(0));
        a.slab[4] = Value::Int(77); // dirty the region
        a.pop_frame();
        // Second call into the same region: stale 77 must not leak.
        a.slab[1] = Value::Int(42);
        a.top_mut().sp = 2;
        a.push_call(FuncId(1), 2, 4, 1);
        assert_eq!(a.slab[3], Value::Int(42));
        assert_eq!(a.slab[4], Value::Int(0), "stale data rezeroed");
    }

    #[test]
    fn roots_cover_exactly_live_regions() {
        let mut a = FrameArena::new();
        a.push_entry(FuncId(0), 1, 4, &[Value::Ref(RefId(1))]);
        a.slab[1] = Value::Ref(RefId(2)); // live stack slot
        a.slab[2] = Value::Ref(RefId(3)); // above sp: dead
        a.top_mut().sp = 2;
        let roots: Vec<u32> = a.roots().map(|r| r.index() as u32).collect();
        assert_eq!(roots, vec![1, 2]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut a = FrameArena::new();
        a.push_entry(FuncId(0), 8, 16, &[]);
        let cap = a.slab.capacity();
        a.clear();
        assert_eq!(a.depth(), 0);
        assert!(a.slab.capacity() >= cap);
        assert!(a.memory_estimate() > 0);
    }

    #[test]
    #[should_panic]
    fn too_many_entry_args_panics() {
        let mut a = FrameArena::new();
        a.push_entry(FuncId(0), 1, 2, &[Value::Int(1), Value::Int(2)]);
    }
}
