//! Deterministic allocation gate for the zero-copy frame plane: a serial
//! HVDB run must stay under a fixed allocations-per-event ceiling, and
//! cloning a sealed frame must allocate nothing. Broadcast delivery that
//! copied the payload (or queued one event) per receiver would pay at
//! least one allocation per reception and blow through the ceiling. A
//! counting global allocator makes this a machine-independent check,
//! unlike a wall-clock ratio.

use hvdb_bench::{run_one_instrumented, Proto, Workload};
use hvdb_core::{FrameBytes, GroupId, HvdbMsg};
use hvdb_sim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) made on the current
/// thread, so tests running side by side do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per processed event a serial HVDB run may make. The
/// shared delivery path measures 0.144 on the workload below. Queueing
/// one event per receiver with an allocating neighbour query measured
/// 0.248, deep-copying the payload per receiver 1.880, and both 2.019.
const ALLOCS_PER_EVENT_CEILING: f64 = 0.20;

#[test]
fn serial_hvdb_stays_under_the_allocation_ceiling() {
    // The `perf` scenario's smoke point: 120 nodes, 40 + 10 + 10 s.
    let w = Workload {
        nodes: 120,
        side: (120.0f64 * 8533.0).sqrt(),
        vc_side: 8,
        dim: 4,
        range: 450.0,
        groups: 3,
        members_per_group: 10,
        packets_per_group: 8,
        warmup: SimDuration::from_secs(40),
        traffic_window: SimDuration::from_secs(10),
        cooldown: SimDuration::from_secs(10),
        seed: 1,
        ..Workload::default()
    };
    let scenario = w.build();
    let before = allocs();
    let (m, detail) = run_one_instrumented(Proto::Hvdb, &scenario);
    let made = allocs() - before;
    let events = detail.events_processed;
    assert!(events >= 500_000, "only {events} events: too thin a gate");
    assert!(
        m.delivery > 0.9,
        "delivery {} : the run is broken",
        m.delivery
    );
    let per_event = made as f64 / events as f64;
    assert!(
        per_event <= ALLOCS_PER_EVENT_CEILING,
        "{made} allocations over {events} events = {per_event:.3}/event \
         (ceiling {ALLOCS_PER_EVENT_CEILING})"
    );
}

#[test]
fn cloning_a_sealed_frame_allocates_nothing() {
    let frame = FrameBytes::seal(HvdbMsg::LocalDeliver {
        data_id: 7,
        group: GroupId(1),
        size: 512,
        hops: 0,
    });
    let before = allocs();
    let clones: [FrameBytes; 32] = std::array::from_fn(|_| frame.clone());
    let made = allocs() - before;
    assert_eq!(
        made, 0,
        "32 clones of a sealed frame allocated {made} times"
    );
    assert!(clones.iter().all(|c| std::ptr::eq(c.msg(), frame.msg())));
}
