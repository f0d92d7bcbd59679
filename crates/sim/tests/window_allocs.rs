//! Deterministic allocation gate for the parallel engine's window
//! hand-off: draining windows on several lanes must allocate no more
//! than draining them inline, apart from a small constant per `run` call
//! (spawning the lane workers). A counting global allocator makes this a
//! machine-independent check, unlike a wall-clock one.

use hvdb_geo::{Aabb, Point, Vec2};
use hvdb_sim::{
    NodeId, ParCtx, ParProtocol, ParSimulator, RadioConfig, SimConfig, SimDuration, SimTime,
    Stationary, World,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (and reallocation), on every thread.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Every node beacons on a jittered timer and counts what it hears: one
/// or two events per window, spread over a few shards.
struct Beacon;

impl ParProtocol for Beacon {
    type Msg = u32;
    type Node = u64;

    fn make_node(&self, _id: NodeId, _world: &World) -> u64 {
        0
    }

    fn on_start(&self, id: NodeId, _node: &mut u64, ctx: &mut ParCtx<'_, u32>) {
        ctx.set_timer_jittered(
            id,
            SimDuration::from_millis(300),
            SimDuration::from_millis(300),
            0,
        );
    }

    fn on_message(
        &self,
        _id: NodeId,
        node: &mut u64,
        _from: NodeId,
        _msg: u32,
        _ctx: &mut ParCtx<'_, u32>,
    ) {
        *node += 1;
    }

    fn on_timer(&self, id: NodeId, _node: &mut u64, _tag: u64, ctx: &mut ParCtx<'_, u32>) {
        ctx.broadcast(id, "beacon", 40, id.0);
        ctx.set_timer_jittered(
            id,
            SimDuration::from_millis(300),
            SimDuration::from_millis(300),
            0,
        );
    }
}

/// Runs the beacon grid (6×6 nodes, 16 shards) for 60 simulated seconds
/// on `threads` lanes; returns the allocations made inside `run`, the
/// window count and the `Debug` stats.
fn beacon_run(threads: usize) -> (u64, u64, String) {
    let side = 6u32;
    let spacing = 150.0;
    let cfg = SimConfig {
        area: Aabb::from_size(side as f64 * spacing, side as f64 * spacing),
        num_nodes: (side * side) as usize,
        radio: RadioConfig {
            range: 250.0,
            ..Default::default()
        },
        mobility_tick: SimDuration::ZERO,
        seed: 3,
        ..Default::default()
    };
    let mut sim: ParSimulator<u64, u32> = ParSimulator::new(cfg, Box::new(Stationary), 16, threads);
    for r in 0..side {
        for c in 0..side {
            let p = Point::new(c as f64 * spacing + 10.0, r as f64 * spacing + 10.0);
            sim.world_mut()
                .set_motion(NodeId(r * side + c), p, Vec2::ZERO);
        }
    }
    sim.world_mut().rebuild_index();
    let before = ALLOCS.load(Ordering::SeqCst);
    sim.run(&Beacon, SimTime::from_secs(60));
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    (allocs, sim.profile().windows, format!("{:?}", sim.stats()))
}

/// Allocations a multi-lane `run` call may add over the inline one:
/// spawning the lane workers and building the crew, never per window.
const PER_RUN_CALL: u64 = 64;

#[test]
fn lanes_allocate_nothing_per_window() {
    // Warm up once so lazily initialized process state (thread-locals,
    // the first spawn) is not charged to either measured run.
    beacon_run(2);
    let (inline, windows, stats1) = beacon_run(1);
    let (laned, windows2, stats2) = beacon_run(2);
    assert!(windows >= 5_000, "only {windows} windows: too thin a gate");
    assert_eq!(windows, windows2, "lane count changed the window count");
    assert_eq!(stats1, stats2, "lane count changed the results");
    assert!(
        laned <= inline + PER_RUN_CALL,
        "threads=2 made {laned} allocations against {inline} at threads=1 \
         over {windows} windows ({:.2} extra per window)",
        (laned as f64 - inline as f64) / windows as f64
    );
}
