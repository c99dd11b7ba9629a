//! Heap allocation calls per warm run of each of the eight programs at its
//! default size, under the TensorSSA and eager pipelines, held under pinned
//! ceilings. Layout metadata (shapes, strides, the odometer's scratch) lives
//! inline, so a run allocates for buffers, storages and little else; a
//! change that puts per-view or per-kernel metadata back on the heap shows
//! here as a count several times its ceiling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use tensorssa::pipelines::{Eager, Pipeline, TensorSsa};
use tensorssa::workloads::all_workloads;

/// The system allocator, counting the calls that hand out memory.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Ceilings on allocation calls per warm run, `(program, TensorSSA, eager)`:
/// about 1.25x the counts measured when they were pinned.
const CEILINGS: [(&str, u64, u64); 8] = [
    ("yolov3", 26, 25),
    ("ssd", 106, 110),
    ("yolact", 26, 25),
    ("fcos", 40, 33),
    ("nasrnn", 431, 411),
    ("lstm", 494, 494),
    ("seq2seq", 571, 411),
    ("attention", 1479, 668),
];

// One test, so that nothing else allocates while it counts.
#[test]
fn allocation_calls_per_warm_run_stay_under_their_ceilings() {
    let mut table = String::from("program    pipeline   calls  ceiling\n");
    let mut over = false;
    for workload in all_workloads() {
        let graph = workload.graph().expect("built-in program");
        let inputs = workload.inputs(0, 0, 42);
        let &(_, tssa, eager) = (CEILINGS.iter())
            .find(|(name, ..)| *name == workload.name)
            .expect("every program has a ceiling");
        for (label, pipeline, ceiling) in [
            ("TensorSSA", &TensorSsa::default() as &dyn Pipeline, tssa),
            ("Eager", &Eager, eager),
        ] {
            let program = pipeline.compile(&graph);
            program.session().run(&inputs).expect("warm-up run");
            let before = CALLS.load(Relaxed);
            let outputs = program.session().run(&inputs).expect("counted run");
            let calls = CALLS.load(Relaxed) - before;
            drop(outputs);
            over |= calls > ceiling;
            let mark = if calls > ceiling { "  over" } else { "" };
            let name = workload.name;
            writeln!(table, "{name:10} {label:9} {calls:6} {ceiling:8}{mark}").unwrap();
        }
    }
    assert!(!over, "allocation calls per warm run:\n{table}");
}
