//! HVDB on the sharded parallel engine.
//!
//! [`HvdbCore`] implements [`hvdb_sim::ParProtocol`], so the same
//! protocol recipe drives both the serial [`hvdb_sim::Simulator`] and the
//! conservative lookahead-window [`ParSimulator`]. These tests pin down
//! the two contracts that port rests on:
//!
//! * **Serial parity (aggregate).** The two engines draw from different
//!   RNG structures (one global stream vs. per-node streams), so event
//!   interleavings differ in detail; what must agree are the outcomes a
//!   paper figure would report — every packet delivered in a static dense
//!   scenario, the same cluster-head census, the same origin counts.
//! * **Thread invariance (exact).** For a fixed shard count, the stats
//!   block — every counter, every delivery record — must be *byte
//!   identical* across worker thread counts. Threads are an execution
//!   resource, never a semantic input.
//!
//! The edge-case tests aim at the two hardest windows for shard
//! isolation: a cluster-head handover racing a member failure inside one
//! lookahead window, and shared-payload (`DeliverMany`) frames crossing
//! shard boundaries while mobility migrates nodes between cells mid-run.

use hvdb_core::{FrameBytes, GroupId, HvdbConfig, HvdbCore, HvdbNode, HvdbProtocol, TrafficItem};
use hvdb_geo::{Aabb, Point, Vec2};
use hvdb_sim::{
    trace, ByzantineMode, FaultPlan, NodeId, ParSimulator, RadioConfig, RandomWaypoint, SimConfig,
    SimDuration, SimTime, Simulator, Stationary, TraceConfig,
};

const NODES: usize = 74; // 64 VC-centre nodes + 10 extras.

fn sim_cfg(area: Aabb, seed: u64, mobility_tick: SimDuration) -> SimConfig {
    SimConfig {
        area,
        num_nodes: NODES,
        radio: RadioConfig {
            range: 250.0,
            ..Default::default()
        },
        mobility_tick,
        enhanced_fraction: 1.0,
        seed,
        per_receiver_delivery: false,
        compact_delivery: false,
    }
}

/// Pins the first 64 nodes near their VC centres (deterministic election
/// winners) and scatters the extras inside cells, exactly like the serial
/// integration tests do.
fn place_fig2(cfg: &HvdbConfig, mut set: impl FnMut(NodeId, Point)) {
    let grid = &cfg.grid;
    let ids: Vec<_> = grid.iter_ids().collect();
    for (i, vc) in ids.iter().enumerate() {
        let c = grid.vcc(*vc);
        set(
            NodeId(i as u32),
            Point::new(c.x + (i % 7) as f64, c.y - (i % 5) as f64),
        );
    }
    for e in 0..(NODES - 64) {
        let vc = ids[(e * 13) % ids.len()];
        let c = grid.vcc(vc);
        set(
            NodeId((64 + e) as u32),
            Point::new(c.x + 20.0 + (e % 3) as f64 * 5.0, c.y + 15.0),
        );
    }
}

/// A scripted multicast scenario over the Fig. 2 layout: two groups with
/// members spread across regions, traffic after clustering has settled.
fn scripted() -> (HvdbConfig, Vec<(NodeId, GroupId)>, Vec<TrafficItem>) {
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = HvdbConfig::fig2(area);
    let g1 = GroupId(1);
    let g2 = GroupId(2);
    let members = vec![
        (NodeId(65), g1),
        (NodeId(70), g1),
        (NodeId(9), g1),
        (NodeId(54), g2),
        (NodeId(66), g2),
    ];
    let traffic = (0..6)
        .map(|i| TrafficItem {
            at: SimTime::from_secs(35) + SimDuration::from_millis(400 * i),
            src: NodeId(64 + (i % 3) as u32),
            group: if i % 2 == 0 { g1 } else { g2 },
            size: 256,
            ..Default::default()
        })
        .collect();
    (cfg, members, traffic)
}

fn run_serial(seed: u64) -> (Simulator<FrameBytes>, HvdbProtocol) {
    let (cfg, members, traffic) = scripted();
    let mut sim: Simulator<FrameBytes> = Simulator::new(
        sim_cfg(cfg.grid.area(), seed, SimDuration::ZERO),
        Box::new(Stationary),
    );
    place_fig2(&cfg, |id, p| sim.world_mut().set_motion(id, p, Vec2::ZERO));
    sim.world_mut().rebuild_index();
    let mut proto = HvdbProtocol::new(cfg, &members, traffic, vec![]);
    sim.run(&mut proto, SimTime::from_secs(50));
    (sim, proto)
}

fn run_par(seed: u64, shards: usize, threads: usize) -> ParSimulator<HvdbNode, FrameBytes> {
    let (cfg, members, traffic) = scripted();
    let mut sim: ParSimulator<HvdbNode, FrameBytes> = ParSimulator::new(
        sim_cfg(cfg.grid.area(), seed, SimDuration::ZERO),
        Box::new(Stationary),
        shards,
        threads,
    );
    place_fig2(&cfg, |id, p| sim.world_mut().set_motion(id, p, Vec2::ZERO));
    sim.world_mut().rebuild_index();
    sim.set_trace(TraceConfig::all());
    let core = HvdbCore::new(cfg, &members, traffic, vec![]);
    sim.run(&core, SimTime::from_secs(50));
    sim
}

fn par_heads(sim: &ParSimulator<HvdbNode, FrameBytes>) -> Vec<NodeId> {
    (0..NODES as u32)
        .map(NodeId)
        .filter(|id| sim.node_state(*id).is_some_and(|n| n.is_head()))
        .collect()
}

#[test]
fn matches_serial_hvdb() {
    let (serial, proto) = run_serial(11);
    let par = run_par(11, 8, 4);

    // Same figure-level outcome: everything delivered, on both engines.
    assert_eq!(serial.stats().delivery_ratio(), 1.0, "serial lost packets");
    assert_eq!(par.stats().delivery_ratio(), 1.0, "parallel lost packets");
    assert_eq!(
        serial.stats().origin_count(),
        par.stats().origin_count(),
        "the two engines scripted different traffic"
    );

    // Same cluster-head census: the VC-centre nodes win their elections
    // under either engine's RNG.
    let serial_heads = proto.cluster_heads();
    let heads = par_heads(&par);
    assert_eq!(serial_heads.len(), 64);
    assert_eq!(heads.len(), 64, "parallel clustering census diverged");
    for i in 0..64u32 {
        assert!(
            heads.contains(&NodeId(i)),
            "centre node {i} should head its VC on the parallel engine"
        );
    }

    // Both engines actually exercised the multicast machinery (trees
    // built at source CHs), not just the flood fallback.
    let par_counters = (0..NODES as u32)
        .filter_map(|i| par.node_state(NodeId(i)))
        .fold(hvdb_core::Counters::default(), |mut acc, n| {
            acc += n.counters();
            acc
        });
    assert!(proto.counters().trees_built > 0, "serial built no trees");
    assert!(par_counters.trees_built > 0, "parallel built no trees");
}

#[test]
fn shard_count_is_invisible_for_hvdb() {
    let run = |shards: usize| {
        let sim = run_par(23, shards, 1);
        (format!("{:?}", sim.stats()), sim.trace().render())
    };
    let one = run(1);
    assert_eq!(one, run(8), "shards=8 diverged from shards=1");
    assert_eq!(one, run(64), "shards=64 diverged from shards=1");
}

#[test]
fn thread_count_is_invisible_for_hvdb() {
    let run = |threads: usize| format!("{:?}", run_par(23, 8, threads).stats());
    let one = run(1);
    assert_eq!(one, run(2), "threads=2 diverged from threads=1");
    assert_eq!(one, run(4), "threads=4 diverged from threads=1");
}

/// A cluster-head handover and a group-member failure land in the *same*
/// lookahead window. Fail/Recover are serial barriers between windows, so
/// the surviving shards must re-elect and keep delivering without any
/// cross-shard state read — and the whole episode must stay thread
/// invariant.
#[test]
fn head_handover_with_member_fail_in_one_window() {
    let run = |threads: usize| {
        let (cfg, members, mut traffic) = scripted();
        // Post-failure traffic into the re-elected VC.
        traffic.push(TrafficItem {
            at: SimTime::from_secs(44),
            src: NodeId(66),
            group: GroupId(1),
            size: 128,
            ..Default::default()
        });
        let mut sim: ParSimulator<HvdbNode, FrameBytes> = ParSimulator::new(
            sim_cfg(cfg.grid.area(), 37, SimDuration::ZERO),
            Box::new(Stationary),
            8,
            threads,
        );
        place_fig2(&cfg, |id, p| sim.world_mut().set_motion(id, p, Vec2::ZERO));
        sim.world_mut().rebuild_index();
        // Node 9 heads VC (1,1) and is also a g1 member; node 70 is a g1
        // member in another shard. Both fail inside one lookahead window
        // (sub-millisecond apart; the window is the radio latency).
        sim.inject_plan(
            &FaultPlan::new()
                .fail(SimTime::from_secs(38), NodeId(9))
                .fail(
                    SimTime::from_secs(38) + SimDuration::from_micros(100),
                    NodeId(70),
                ),
        );
        let core = HvdbCore::new(cfg, &members, traffic, vec![]);
        sim.run(&core, SimTime::from_secs(55));
        assert!(
            sim.node_state(NodeId(9)).is_some_and(|n| !n.is_head()),
            "failed node must have been stripped of its headship"
        );
        // The VC re-elected some surviving head.
        let heads = par_heads(&sim);
        assert!(
            heads.len() >= 60,
            "re-election stalled: only {} heads survive",
            heads.len()
        );
        // Pre-failure traffic was fully deliverable; later packets lose
        // only the failed members.
        assert!(
            sim.stats().delivery_ratio() > 0.7,
            "delivery collapsed after the in-window handover: {}",
            sim.stats().delivery_ratio()
        );
        format!("{:?}", sim.stats())
    };
    assert_eq!(run(1), run(4), "failure window broke thread invariance");
}

/// One scripted injection of every fault kind, timed after clustering
/// settles so each lands on a live, structured network.
fn every_kind_plan() -> FaultPlan {
    let west: Vec<NodeId> = (0..NODES as u32 / 2).map(NodeId).collect();
    let east: Vec<NodeId> = (NODES as u32 / 2..NODES as u32).map(NodeId).collect();
    FaultPlan::new()
        .fail(SimTime::from_secs(38), NodeId(9))
        .partition(SimTime::from_secs(39), vec![west, east])
        .byzantine(
            SimTime::from_secs(40),
            NodeId(5),
            ByzantineMode::SelectiveForward { drop_prob: 0.5 },
        )
        .clock_skew(SimTime::from_secs(41), NodeId(7), 1_500)
        .position_error(
            SimTime::from_secs(41) + SimDuration::from_micros(100),
            NodeId(12),
            Vec2::new(30.0, -20.0),
        )
        .fail_region(SimTime::from_secs(42), Point::new(400.0, 400.0), 120.0)
        .heal(SimTime::from_secs(43))
        .recover(SimTime::from_secs(44), NodeId(9))
}

/// The `FAULT` trace category is recorded by the engines themselves from
/// the scripted plan — no RNG — so on the paper geometry the serial and
/// parallel engines must render **byte-identical** fault traces, at every
/// thread count. (Protocol-emitted categories use engine-specific RNG
/// stream layouts and are only thread-invariant, not cross-engine
/// comparable; see `hvdb_sim::trace`.)
#[test]
fn fault_trace_is_byte_identical_across_engines() {
    let plan = every_kind_plan();

    let serial = {
        let (cfg, members, traffic) = scripted();
        let mut sim: Simulator<FrameBytes> = Simulator::new(
            sim_cfg(cfg.grid.area(), 11, SimDuration::ZERO),
            Box::new(Stationary),
        );
        place_fig2(&cfg, |id, p| sim.world_mut().set_motion(id, p, Vec2::ZERO));
        sim.world_mut().rebuild_index();
        sim.set_trace(TraceConfig::with_mask(trace::FAULT));
        sim.inject_plan(&plan);
        let mut proto = HvdbProtocol::new(cfg, &members, traffic, vec![]);
        sim.run(&mut proto, SimTime::from_secs(50));
        assert_eq!(
            sim.trace().len(),
            plan.events().len(),
            "each scripted fault must record exactly one trace event"
        );
        sim.trace().render()
    };

    let par = |threads: usize| {
        let (cfg, members, traffic) = scripted();
        let mut sim: ParSimulator<HvdbNode, FrameBytes> = ParSimulator::new(
            sim_cfg(cfg.grid.area(), 11, SimDuration::ZERO),
            Box::new(Stationary),
            8,
            threads,
        );
        place_fig2(&cfg, |id, p| sim.world_mut().set_motion(id, p, Vec2::ZERO));
        sim.world_mut().rebuild_index();
        sim.set_trace(TraceConfig::with_mask(trace::FAULT));
        sim.inject_plan(&plan);
        let core = HvdbCore::new(cfg, &members, traffic, vec![]);
        sim.run(&core, SimTime::from_secs(50));
        sim.trace().render()
    };

    for needle in [
        "NodeFailed",
        "NodeRecovered",
        "PartitionApplied { islands: 2 }",
        "PartitionHealed",
        "ByzantineSet",
        "ClockSkewSet { skew_us: 1500 }",
        "PositionErrorSet",
        "RegionFailed",
    ] {
        assert!(
            serial.contains(needle),
            "serial fault trace is missing {needle}:\n{serial}"
        );
    }
    let par4 = par(4);
    assert_eq!(serial, par4, "serial and parallel fault traces diverged");
    assert_eq!(par4, par(1), "parallel fault trace depends on thread count");
    assert_eq!(par4, par(2), "parallel fault trace depends on thread count");
}

/// Full-category trace on the full HVDB protocol: the shard-buffer merge
/// keys on `(time, node)`, which the worker-thread count cannot colour —
/// the rendered trace must be byte-identical across threads 1/2/4.
#[test]
fn hvdb_trace_is_byte_identical_across_thread_counts() {
    let run = |threads: usize| run_par(23, 8, threads).trace().render();
    let one = run(1);
    // Every protocol plane actually emitted: elections, soft-state
    // refresh, and the data path end to end.
    for needle in ["ElectionWin", "RefreshSent", "FlowOrigin", "Delivered"] {
        assert!(one.contains(needle), "trace never recorded {needle}");
    }
    assert_eq!(one, run(2), "threads=2 changed the trace bytes");
    assert_eq!(one, run(4), "threads=4 changed the trace bytes");
}

/// Shared-payload (`DeliverMany`) frames cross shard boundaries while
/// random-waypoint mobility migrates nodes between spatial cells — the
/// path where a stale shard assignment or a missed re-index would corrupt
/// delivery. The run must stay thread invariant and keep delivering.
#[test]
fn cross_shard_delivery_under_cell_migration() {
    let run = |threads: usize| {
        let (cfg, members, traffic) = scripted();
        let mut sim: ParSimulator<HvdbNode, FrameBytes> = ParSimulator::new(
            sim_cfg(cfg.grid.area(), 51, SimDuration::from_secs(1)),
            Box::new(RandomWaypoint::new(1.0, 5.0, 1.0)),
            8,
            threads,
        );
        // RandomWaypoint::init scattered everyone; keep its placement so
        // nodes genuinely change cells (and shards) during the run.
        sim.world_mut().rebuild_index();
        let core = HvdbCore::new(cfg, &members, traffic, vec![]);
        sim.run(&core, SimTime::from_secs(55));
        assert!(
            sim.stats().origin_count() > 0,
            "scenario scripted no traffic at all"
        );
        let delivered: u64 = sim.stats().origin_rows().iter().map(|r| r.3 as u64).sum();
        assert!(delivered > 0, "no packet survived cell migration");
        format!("{:?}", sim.stats())
    };
    assert_eq!(run(1), run(4), "mobility migration broke thread invariance");
}
