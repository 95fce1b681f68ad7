//! `RegTrace::memory_estimate` is the lowered tier's share of a VM's JIT
//! state, so a change to how a trace is stored shows in it only if the
//! estimate counts exactly the heap bytes a trace holds. A counting
//! allocator pins that: for every live trace of a warm VM on each
//! analogue and `phase_shift`, the bytes `lower_reg` leaves allocated
//! when it returns equal the trace's own estimate — no capacity the
//! estimate misses, and no byte it counts that was never allocated. The
//! same allocator counts the `realloc`s a lowering makes, each one a
//! copy of a growing or shrinking array.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tracecache_repro::exec::{compile, lower_reg, EngineConfig, RegTrace, TracingVm};
use tracecache_repro::workloads::{registry, Scale};

/// The system allocator, keeping per-thread counts of live heap bytes
/// and of `realloc` calls.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn add(bytes: isize) {
    // `try_with`: allocation may run while the thread's locals are torn
    // down, when there is nothing left to count for.
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn reallocs() -> usize {
    REALLOCS.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize);
            let _ = REALLOCS.try_with(|c| c.set(c.get() + 1));
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Lowers every live trace of a warm VM on each analogue and
/// `phase_shift` (Small) and hands `check` the workload name, the
/// lowered trace, and the bytes it left allocated and the `realloc`s it
/// made while lowering. Returns the number of traces lowered.
fn each_lowering(mut check: impl FnMut(&str, &RegTrace, isize, usize)) -> usize {
    let mut workloads = registry::all(Scale::Small);
    workloads.push(registry::phase_shift(Scale::Small));
    let mut lowered = 0usize;
    for w in &workloads {
        let mut vm = TracingVm::new(&w.program, EngineConfig::default());
        for _ in 0..2 {
            let report = vm.run(&w.args).unwrap();
            assert_eq!(report.checksum, w.expected_checksum, "{}", w.name);
        }
        for trace in vm.cache().iter_traces().filter(|t| !t.is_empty()) {
            let Ok(ct) = compile(&w.program, trace) else {
                continue;
            };
            let (before, reallocs_before) = (live(), reallocs());
            let Some(rt) = lower_reg(&w.program, vm.decoded(), &ct) else {
                continue;
            };
            check(w.name, &rt, live() - before, reallocs() - reallocs_before);
            lowered += 1;
        }
    }
    lowered
}

#[test]
fn the_estimate_is_every_byte_a_lowered_trace_holds() {
    let checked = each_lowering(|name, rt, held, _| {
        assert_eq!(
            held,
            rt.memory_estimate() as isize,
            "{name}: a trace of {} blocks holds {held} bytes",
            rt.blocks()
        );
    });
    assert!(checked >= 100, "only {checked} lowered traces checked");
}

/// Lowering builds in working arrays sized from the block chain, and
/// every array — the image array and each frame image's slices with it —
/// is copied out at its exact length, so a `realloc` is rare: 94 over
/// the 153 traces here, 0.6 per lowering.
#[test]
fn lowering_reallocates_at_most_once_per_trace() {
    let mut total = 0usize;
    let lowered = each_lowering(|_, _, _, reallocs| total += reallocs);
    assert!(lowered >= 100, "only {lowered} lowered traces");
    assert!(
        total <= lowered,
        "{total} reallocs over {lowered} lowered traces"
    );
}
