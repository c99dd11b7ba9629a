//! The functionalized loop is linear in its trip count on the host, which is
//! what the paper's sequence-length sweep (Figure 8) assumes: a loop body
//! fused into one group updates the carried tensor in place, because the
//! launch is handed the only reference to it. Copying the carried tensor in
//! and out of every launch instead makes the bytes allocated per run grow
//! with the square of the sequence length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use tensorssa::pipelines::{Eager, Pipeline, TensorSsa};
use tensorssa::workloads::Workload;

/// The system allocator, counting the bytes it is asked for.
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated by one warm run of `name` at sequence length `seq`.
fn bytes_per_run(pipeline: &dyn Pipeline, name: &str, seq: usize) -> f64 {
    let workload = Workload::by_name(name).expect("built-in workload");
    let program = pipeline.compile(&workload.graph().expect("built-in program"));
    let inputs = workload.inputs(0, seq, 42);
    program.session().run(&inputs).expect("warm-up run");
    let before = BYTES.load(Relaxed);
    let outputs = program.session().run(&inputs).expect("counted run");
    let allocated = BYTES.load(Relaxed) - before;
    drop(outputs);
    allocated as f64
}

// One test, so that nothing else allocates while it counts.
#[test]
fn loop_allocation_is_linear_in_sequence_length() {
    for name in ["nasrnn", "lstm", "seq2seq"] {
        for (label, pipeline) in [
            ("TensorSSA", &TensorSsa::default() as &dyn Pipeline),
            ("Eager", &Eager),
        ] {
            let (short, long) = (
                bytes_per_run(pipeline, name, 64),
                bytes_per_run(pipeline, name, 128),
            );
            let growth = long / short;
            assert!(
                growth < 2.3,
                "{name} under {label}: {short} bytes at seq 64, {long} at 128 ({growth:.2}x)"
            );
        }
    }
}
