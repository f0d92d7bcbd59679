//! Micro-benchmarks for the engine's delivery hot path (vendored
//! criterion harness — wall-clock mean/min, comparable run-to-run):
//!
//! * `neighbors_into` — the scratch-threaded spatial neighbour query;
//! * `broadcast_round` — one bounded gossip wave through the event loop
//!   (send → one shared `DeliverMany` per broadcast → per-receiver
//!   dispatch);
//! * `mobility_tick` — the incremental spatial-index update under a
//!   whole-population waypoint step;
//! * `class_counters` — per-transmission stats accounting into the
//!   interned class-id slots;
//! * `commit_pass` — the parallel engine's window commit: Tx ops
//!   pre-folded into per-shard digests, then shard outboxes merged by
//!   dispatch key onto the heap + bulk counter applies.
//!
//! Run with `cargo bench -p hvdb-sim`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hvdb_geo::Aabb;
use hvdb_sim::event::Scheduled;
use hvdb_sim::{
    Ctx, EventKind, EventQueue, Mobility, NodeId, Protocol, RandomWaypoint, SimConfig, SimDuration,
    SimRng, SimTime, Simulator, Stats, World,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const NODES: usize = 600;

/// A 600-node world at the `scale` scenario's density.
fn bench_world() -> World {
    let side = (NODES as f64 * 8533.0).sqrt();
    let mut world = World::new(Aabb::from_size(side, side), NODES, 450.0);
    let mut rng = SimRng::new(7);
    let mut mobility = RandomWaypoint::new(1.0, 5.0, 10.0);
    mobility.init(&mut world, &mut rng);
    world
}

fn bench_neighbors(c: &mut Criterion) {
    let world = bench_world();
    let mut group = c.benchmark_group("neighbors_into");
    let mut out = Vec::new();
    let mut raw = Vec::new();
    group.bench_function("scratch", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % NODES as u32;
            world.neighbors_into(NodeId(i), &mut out, &mut raw);
            black_box(out.len())
        })
    });
    group.finish();
}

/// A protocol that floods one bounded gossip wave: node 0 broadcasts at
/// start, every receiver re-broadcasts until the hop budget runs out —
/// one realistic broadcast round per `run` call.
struct Gossip;

impl Protocol for Gossip {
    type Msg = u32;

    fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, u32>) {
        if node == NodeId(0) {
            ctx.broadcast(node, "gossip", 64, 2);
        }
    }

    fn on_message(&mut self, node: NodeId, _from: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
        if msg > 0 {
            ctx.broadcast(node, "gossip", 64, msg - 1);
        }
    }

    fn on_timer(&mut self, _n: NodeId, _t: u64, _c: &mut Ctx<'_, u32>) {}
}

fn bench_broadcast_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("broadcast_round");
    group.sample_size(20);
    group.bench_function("shared", |b| {
        b.iter(|| {
            let side = (NODES as f64 * 8533.0).sqrt();
            let cfg = SimConfig {
                area: Aabb::from_size(side, side),
                num_nodes: NODES,
                mobility_tick: SimDuration::ZERO,
                ..SimConfig::default()
            };
            let mut sim: Simulator<u32> =
                Simulator::new(cfg, Box::new(RandomWaypoint::new(1.0, 5.0, 10.0)));
            let mut p = Gossip;
            sim.run(&mut p, SimTime::from_secs(5));
            black_box(sim.stats().events_processed)
        })
    });
    group.finish();
}

fn bench_mobility_tick(c: &mut Criterion) {
    let mut world = bench_world();
    let mut rng = SimRng::new(11);
    let mut mobility = RandomWaypoint::new(1.0, 5.0, 10.0);
    mobility.init(&mut world, &mut rng);
    c.bench_function("mobility_tick/incremental_index", |b| {
        b.iter(|| {
            mobility.step(1.0, &mut world, &mut rng);
            black_box(world.position(NodeId(0)))
        })
    });
}

/// The protocol's real class mix (labels and typical wire sizes), cycled
/// the way a busy run hits the counters.
const CLASS_MIX: [(&str, usize); 8] = [
    ("beacon", 76),
    ("candidacy", 36),
    ("ch-announce", 32),
    ("mnt-share", 180),
    ("ht-bcast", 220),
    ("mesh-data", 540),
    ("local-deliver", 532),
    ("mnt-refresh", 180),
];

fn bench_class_counters(c: &mut Criterion) {
    let mut group = c.benchmark_group("class_counters");
    // The production path: first use interns the label by (pointer,
    // length); every transmission after that is a two-word hash plus a
    // direct slot index.
    group.bench_function("interned_slots", |b| {
        let mut stats = Stats::new(NODES);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % CLASS_MIX.len();
            let (class, bytes) = CLASS_MIX[i];
            stats.count_tx(NodeId((i % NODES) as u32), class, bytes);
            black_box(stats.node_tx_msgs[i % NODES])
        })
    });
    group.finish();
}

/// One window's worth of drained shard state, shaped like the parallel
/// engine's commit input: per shard, timer events stamped inside the
/// lookahead window (timestamps arrive roughly — not exactly — in order,
/// as handlers emit at `now + jitter`) in ascending dispatch-key order
/// (keys interleave across shards), plus one Tx record per event from
/// the protocol class mix.
type ShardFixture = (Vec<(SimTime, u64)>, Vec<(u32, &'static str, u64)>);

fn commit_fixture(shards: usize, per_shard: usize) -> Vec<ShardFixture> {
    let mut rng = SimRng::new(23);
    (0..shards)
        .map(|s| {
            let events: Vec<(SimTime, u64)> = (0..per_shard)
                .map(|i| {
                    let t = SimTime(1_000_000 + rng.range_u64(0, 50_000));
                    (t, (i * shards + s) as u64)
                })
                .collect();
            let txs: Vec<(u32, &'static str, u64)> = (0..per_shard)
                .map(|i| {
                    let (class, bytes) = CLASS_MIX[(s + i) % CLASS_MIX.len()];
                    (((s * per_shard + i) % NODES) as u32, class, bytes as u64)
                })
                .collect();
            (events, txs)
        })
        .collect()
}

fn bench_commit_pass(c: &mut Criterion) {
    const SHARDS: usize = 64;
    const PER_SHARD: usize = 128;
    let fixture = commit_fixture(SHARDS, PER_SHARD);
    let mut group = c.benchmark_group("commit_pass");

    // The production pass: each shard's Tx ops are folded into a digest
    // (first-appearance class list + dense node deltas) on the worker
    // lanes; the serial commit then merges the shard outboxes by dispatch
    // key (the tag here) onto the heap and applies a handful of bulk
    // counter updates per shard.
    group.bench_function("prefold_merge", |b| {
        // Shard-retained scratch, reused across windows like the real
        // `Shard` fields.
        let mut outboxes: Vec<Vec<Scheduled<u64>>> = vec![Vec::new(); SHARDS];
        let mut heads: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut classes: Vec<(&'static str, u64, u64)> = Vec::new();
        let mut node_delta = vec![(0u64, 0u64); NODES];
        let mut touched: Vec<u32> = Vec::new();
        b.iter(|| {
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut stats = Stats::new(NODES);
            for ((events, txs), outbox) in fixture.iter().zip(outboxes.iter_mut()) {
                // Handlers buffer events (reversed for the merge), and
                // the pre-fold runs on a crew lane in the engine.
                outbox.extend(events.iter().rev().map(|&(time, tag)| Scheduled {
                    time,
                    seq: tag,
                    kind: EventKind::Timer {
                        node: NodeId((tag % NODES as u64) as u32),
                        tag,
                    },
                }));
                classes.clear();
                touched.clear();
                for &(node, class, bytes) in txs {
                    match classes
                        .iter_mut()
                        .find(|c| c.0.as_ptr() == class.as_ptr() && c.0.len() == class.len())
                    {
                        Some(c) => {
                            c.1 += 1;
                            c.2 += bytes;
                        }
                        None => classes.push((class, 1, bytes)),
                    }
                    let d = &mut node_delta[node as usize];
                    if d.0 == 0 {
                        touched.push(node);
                    }
                    d.0 += 1;
                    d.1 += bytes;
                }
                for &(class, msgs, bytes) in &classes {
                    stats.count_tx_class_bulk(class, msgs, bytes);
                }
                for &node in &touched {
                    let d = std::mem::take(&mut node_delta[node as usize]);
                    stats.count_tx_node_bulk(NodeId(node), d.0, d.1);
                }
            }
            // Serial merge by dispatch key onto the heap.
            for (i, outbox) in outboxes.iter().enumerate() {
                if let Some(last) = outbox.last() {
                    heads.push(Reverse((last.seq, i)));
                }
            }
            while let Some(Reverse((_, i))) = heads.pop() {
                let ev = outboxes[i].pop().expect("merge head vanished");
                queue.push(ev.time, ev.kind);
                if let Some(next) = outboxes[i].last() {
                    heads.push(Reverse((next.seq, i)));
                }
            }
            while let Some(ev) = queue.pop() {
                black_box(ev.time);
            }
            black_box(stats.events_processed)
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_neighbors,
    bench_broadcast_round,
    bench_mobility_tick,
    bench_class_counters,
    bench_commit_pass
);
criterion_main!(benches);
