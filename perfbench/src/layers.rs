//! Benchmark-side tracing: decorators over the public `Protocol`,
//! `ParProtocol` and `Mobility` traits that count every call and time a
//! sample of them. The program itself is not instrumented.
//!
//! A handler's busy time includes the radio calls (`send`, `broadcast`,
//! neighbour queries) it makes through its context. Timing every call
//! with an `Instant` pair made `mobile-data-1k` about 60% slower, so each
//! plane times one call in [`SAMPLE_EVERY`] (its first call included) and
//! scales the sampled time by its call count.

use hvdb_core::{FrameBytes, HvdbCore, HvdbNode, HvdbProtocol};
use hvdb_sim::{Ctx, Mobility, NodeId, ParCtx, ParProtocol, Protocol, SimRng, World};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One call in this many is timed, per plane.
pub const SAMPLE_EVERY: u64 = 64;

/// Handler planes, named after the protocol functions the message
/// classes of `hvdb-core` serve. `timer` is `on_timer`; `other` is node
/// lifecycle (`on_start`, `on_fail`, `on_recover`) plus any class this
/// table does not know.
pub const PLANES: [&str; 7] = [
    "cluster",
    "routes",
    "softstate",
    "membership",
    "data",
    "timer",
    "other",
];
const TIMER: usize = 5;
const OTHER: usize = 6;
/// Index of the soft-state plane in [`PLANES`].
pub const SOFTSTATE: usize = 2;

/// The plane a received frame's class belongs to.
pub fn plane_of(class: &str) -> usize {
    match class {
        "candidacy" | "ch-announce" | "ch-retire" | "handover" => 0,
        "beacon" => 1,
        "mnt-share" | "mnt-refresh" | "ht-bcast" | "ht-refresh" | "ch-refresh" | "stamp-hint" => {
            SOFTSTATE
        }
        "join-report" => 3,
        "data-to-ch" | "mesh-data" | "hc-data" | "local-deliver" => 4,
        _ => OTHER,
    }
}

/// Per-plane call counts and sampled busy time. Atomic so one instance
/// serves the parallel engine's lanes as well as the serial engine.
#[derive(Default)]
pub struct Planes {
    calls: [AtomicU64; 7],
    sampled: [AtomicU64; 7],
    sampled_ns: [AtomicU64; 7],
}

impl Planes {
    #[inline]
    fn time<R>(&self, plane: usize, f: impl FnOnce() -> R) -> R {
        if !self.calls[plane]
            .fetch_add(1, Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.sampled_ns[plane].fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.sampled[plane].fetch_add(1, Relaxed);
        r
    }

    /// Calls dispatched to `plane`.
    pub fn calls(&self, plane: usize) -> u64 {
        self.calls[plane].load(Relaxed)
    }

    /// Estimated busy seconds of `plane`: mean sampled call time, less
    /// the timer's own share of the interval, × calls.
    pub fn busy_s(&self, plane: usize) -> f64 {
        let sampled = self.sampled[plane].load(Relaxed);
        if sampled == 0 {
            return 0.0;
        }
        let mean_ns = self.sampled_ns[plane].load(Relaxed) as f64 / sampled as f64;
        (mean_ns - empty_interval_ns()).max(0.0) * self.calls(plane) as f64 / 1e9
    }

    /// Frames received (every plane but timers and lifecycle).
    pub fn receptions(&self) -> u64 {
        (0..TIMER).map(|p| self.calls(p)).sum()
    }
}

/// The median reading of an `Instant` pair around nothing: the part of
/// every sampled interval that is the timer's own cost.
pub fn empty_interval_ns() -> f64 {
    static NS: OnceLock<f64> = OnceLock::new();
    *NS.get_or_init(|| {
        let mut xs: Vec<u128> = (0..10_001)
            .map(|_| {
                let t0 = Instant::now();
                t0.elapsed().as_nanos()
            })
            .collect();
        xs.sort_unstable();
        xs[xs.len() / 2] as f64
    })
}

/// The serial protocol, traced.
pub struct TracedSerial<'a> {
    /// The protocol under test.
    pub inner: &'a mut HvdbProtocol,
    /// Where the counts go.
    pub planes: &'a Planes,
}

impl Protocol for TracedSerial<'_> {
    type Msg = FrameBytes;

    fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, FrameBytes>) {
        let inner = &mut *self.inner;
        self.planes.time(OTHER, || inner.on_start(node, ctx));
    }

    fn on_message(
        &mut self,
        node: NodeId,
        from: NodeId,
        msg: FrameBytes,
        ctx: &mut Ctx<'_, FrameBytes>,
    ) {
        let inner = &mut *self.inner;
        self.planes.time(plane_of(msg.class()), || {
            inner.on_message(node, from, msg, ctx)
        });
    }

    fn on_timer(&mut self, node: NodeId, tag: u64, ctx: &mut Ctx<'_, FrameBytes>) {
        let inner = &mut *self.inner;
        self.planes.time(TIMER, || inner.on_timer(node, tag, ctx));
    }

    fn on_fail(&mut self, node: NodeId, ctx: &mut Ctx<'_, FrameBytes>) {
        let inner = &mut *self.inner;
        self.planes.time(OTHER, || inner.on_fail(node, ctx));
    }

    fn on_recover(&mut self, node: NodeId, ctx: &mut Ctx<'_, FrameBytes>) {
        let inner = &mut *self.inner;
        self.planes.time(OTHER, || inner.on_recover(node, ctx));
    }
}

/// The parallel-engine protocol, traced.
pub struct TracedPar<'a> {
    /// The protocol under test.
    pub inner: &'a HvdbCore,
    /// Where the counts go.
    pub planes: &'a Planes,
}

impl ParProtocol for TracedPar<'_> {
    type Msg = FrameBytes;
    type Node = HvdbNode;

    fn make_node(&self, id: NodeId, world: &World) -> HvdbNode {
        self.inner.make_node(id, world)
    }

    fn on_start(&self, id: NodeId, node: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        self.planes
            .time(OTHER, || self.inner.on_start(id, node, ctx));
    }

    fn on_message(
        &self,
        id: NodeId,
        node: &mut HvdbNode,
        from: NodeId,
        msg: FrameBytes,
        ctx: &mut ParCtx<'_, FrameBytes>,
    ) {
        self.planes.time(plane_of(msg.class()), || {
            self.inner.on_message(id, node, from, msg, ctx)
        });
    }

    fn on_timer(
        &self,
        id: NodeId,
        node: &mut HvdbNode,
        tag: u64,
        ctx: &mut ParCtx<'_, FrameBytes>,
    ) {
        self.planes
            .time(TIMER, || self.inner.on_timer(id, node, tag, ctx));
    }

    fn on_fail(&self, id: NodeId, node: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        self.planes
            .time(OTHER, || self.inner.on_fail(id, node, ctx));
    }

    fn on_recover(&self, id: NodeId, node: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        self.planes
            .time(OTHER, || self.inner.on_recover(id, node, ctx));
    }
}

/// Mobility steps taken and their total time (every step is timed: one
/// per simulated second).
#[derive(Default)]
pub struct MobilityStats {
    steps: AtomicU64,
    ns: AtomicU64,
}

impl MobilityStats {
    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.steps.load(Relaxed)
    }

    /// Seconds spent stepping, including the spatial-index writes.
    pub fn busy_s(&self) -> f64 {
        self.ns.load(Relaxed) as f64 / 1e9
    }
}

/// A mobility model, traced.
pub struct TracedMobility {
    /// The model under test.
    pub inner: Box<dyn Mobility>,
    /// Where the counts go.
    pub stats: Arc<MobilityStats>,
}

impl Mobility for TracedMobility {
    fn init(&mut self, world: &mut World, rng: &mut SimRng) {
        self.inner.init(world, rng);
    }

    fn step(&mut self, dt: f64, world: &mut World, rng: &mut SimRng) {
        let t0 = Instant::now();
        self.inner.step(dt, world, rng);
        self.stats
            .ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.stats.steps.fetch_add(1, Relaxed);
    }
}
