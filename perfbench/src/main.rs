//! The repository benchmark: runs one fixed HVDB workload through the
//! simulator's public constructors and `run`, times it from outside, and
//! prints the end-to-end metrics (untraced) or the per-layer metrics
//! (traced), after the output checks that every correct change keeps.
//!
//! ```text
//! perfbench --workload <control-5k|mobile-data-1k|sharded-2k> --seed <n>
//!           --seconds <s> --trace <0|1> [--rustc <version>] [--commit <id>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `README.md` in this
//! directory describes the workloads and the metrics.

mod alloc;
mod layers;

use hvdb_bench::{is_data_class, MobilityKind, Scenario, Workload};
use hvdb_core::{Counters, FrameBytes, GroupId, HvdbCore, HvdbNode, HvdbProtocol};
use hvdb_sim::{
    EngineProfile, Mobility, NodeId, ParSimulator, SimDuration, SimTime, Simulator, Stats, World,
};
use hvdb_traffic::{LogHist, SourceModel, TrafficSpec};
use layers::{MobilityStats, Planes, TracedMobility, TracedPar, TracedSerial, PLANES, SOFTSTATE};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads.
const WORKLOADS: [&str; 3] = ["control-5k", "mobile-data-1k", "sharded-2k"];
/// Simulated phases of every workload, seconds: backbone and membership
/// convergence, multicast traffic, drain.
const WARMUP_S: u64 = 100;
const TRAFFIC_S: u64 = 30;
const COOLDOWN_S: u64 = 20;
/// Set-ups timed before the measured loop, on top of one per repetition.
const EXTRA_SETUPS: usize = 20;
/// A delivery counts as on time within this latency (the `traffic`
/// scenario's knee rule).
const ON_TIME_US: u64 = 500_000;
/// Shards of the parallel engine (the `scale` layout).
const SHARDS: usize = 64;
/// Worker threads of the parallel engine.
const THREADS: usize = 2;

/// The engine a workload runs on.
#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Serial,
    Sharded { threads: usize },
}

/// What distinguishes one workload from another.
struct Spec {
    nodes: usize,
    engine: Engine,
    /// Simulations per run, each on its own seed derived from `--seed`.
    /// Every model output is pooled over all of them, so one run's value
    /// does not hinge on one random topology.
    sub_seeds: u64,
}

fn spec(name: &str) -> Spec {
    match name {
        "control-5k" => Spec {
            nodes: 5000,
            engine: Engine::Serial,
            sub_seeds: 3,
        },
        "mobile-data-1k" => Spec {
            nodes: 1000,
            engine: Engine::Serial,
            sub_seeds: 8,
        },
        "sharded-2k" => Spec {
            nodes: 2000,
            engine: Engine::Sharded { threads: THREADS },
            sub_seeds: 4,
        },
        _ => unreachable!("workload names are checked at argument parsing"),
    }
}

/// The `k`-th simulation seed of run seed `seed`: runs 1, 2, … use the
/// disjoint ranges 1..=K, K+1..=2K, …, so seed 1 starts at simulation
/// seed 1.
fn sub_seed(seed: u64, k: u64, subs: u64) -> u64 {
    seed.wrapping_sub(1).wrapping_mul(subs).wrapping_add(k + 1)
}

/// The same VC grid the `scale` scenario derives per node count: cells
/// whose diagonal fits the 450 m radio range, rounded up to the multiple
/// of 4 that the 2×2-region hypercube map needs.
fn scaled_vc_side(nodes: usize) -> u16 {
    if nodes < 1000 {
        8
    } else if nodes <= 2000 {
        12
    } else {
        let side = (nodes as f64 * 8533.0).sqrt();
        ((side / 318.0).ceil() as u16).next_multiple_of(4)
    }
}

/// Builds `name`'s inputs for simulation seed `seed`. Every workload uses
/// the `scale` geometry: one node per 8533 m², 450 m range, dimension 4,
/// and a geo TTL widened to the VC grid's Manhattan diameter plus slack.
fn scenario(name: &str, seed: u64, threads: usize) -> Scenario {
    let nodes = spec(name).nodes;
    let base = Workload {
        nodes,
        side: (nodes as f64 * 8533.0).sqrt(),
        vc_side: scaled_vc_side(nodes),
        dim: 4,
        range: 450.0,
        groups: 3,
        members_per_group: 10,
        packets_per_group: 8,
        warmup: SimDuration::from_secs(WARMUP_S),
        traffic_window: SimDuration::from_secs(TRAFFIC_S),
        cooldown: SimDuration::from_secs(COOLDOWN_S),
        seed,
        threads,
        ..Workload::default()
    };
    let mobile = name == "mobile-data-1k";
    let w = if mobile {
        const GROUPS: usize = 12;
        const FLOWS_PER_GROUP: u32 = 2;
        const OFFERED_PPS: f64 = 480.0;
        Workload {
            mobility: MobilityKind::Waypoint(1.0, 5.0),
            groups: GROUPS,
            members_per_group: 6,
            packets_per_group: 0,
            traffic_spec: Some(TrafficSpec {
                flows_per_group: FLOWS_PER_GROUP,
                rate_pps: OFFERED_PPS / (GROUPS as f64 * FLOWS_PER_GROUP as f64),
                payload: 512,
                model: SourceModel::Poisson,
                group_stagger_us: 1_000_000,
            }),
            queue_cap: SimDuration::from_millis(250),
            compact_delivery: true,
            // Every node CH-capable, as in the `traffic` scenario.
            enhanced_fraction: 1.0,
            ..base
        }
    } else {
        base
    };
    let mut s = w.build();
    let diameter = 2 * w.vc_side as u32;
    s.hvdb.geo_ttl = s.hvdb.geo_ttl.max(diameter + 8);
    if mobile {
        // As in the `traffic` scenario's HVDB arm: one local-delivery
        // broadcast per packet on a loss-free channel.
        s.hvdb.deliver_repeats = 1;
    }
    s
}

/// Host seconds of each set-up step.
#[derive(Clone, Copy, Default)]
struct SetupTimes {
    build_s: f64,
    sim_new_s: f64,
    proto_new_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.build_s + self.sim_new_s + self.proto_new_s
    }
}

type ParHvdbSim = ParSimulator<HvdbNode, FrameBytes>;
type WrapMobility<'a> = &'a dyn Fn(Box<dyn Mobility>) -> Box<dyn Mobility>;

/// A simulation ready for its first event.
enum Prepared {
    Serial(Simulator<FrameBytes>, HvdbProtocol),
    Sharded(ParHvdbSim, HvdbCore),
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Workload inputs to first event: `Workload::build`, engine `new` +
/// `inject_plan`, protocol `new`. `wrap` may decorate the scenario's
/// mobility model.
fn set_up(
    name: &str,
    seed: u64,
    engine: Engine,
    wrap: WrapMobility,
) -> (SetupTimes, Prepared, Scenario) {
    let threads = match engine {
        Engine::Serial => 1,
        Engine::Sharded { threads } => threads,
    };
    let (sc, build_s) = timed(|| scenario(name, seed, threads));
    let (prepared, sim_new_s, proto_new_s) = match engine {
        Engine::Serial => {
            let (sim, sim_new_s) = timed(|| {
                let mut sim = Simulator::new(sc.sim.clone(), wrap(sc.hvdb_mobility()));
                sim.inject_plan(&sc.faults);
                sim
            });
            let (proto, proto_new_s) = timed(|| {
                HvdbProtocol::new(
                    sc.hvdb.clone(),
                    &sc.members,
                    sc.traffic.clone(),
                    sc.group_events.clone(),
                )
            });
            (Prepared::Serial(sim, proto), sim_new_s, proto_new_s)
        }
        Engine::Sharded { threads } => {
            let (sim, sim_new_s) = timed(|| {
                let mut sim: ParHvdbSim =
                    ParSimulator::new(sc.sim.clone(), wrap(sc.hvdb_mobility()), SHARDS, threads);
                sim.inject_plan(&sc.faults);
                sim
            });
            let (core, proto_new_s) = timed(|| {
                HvdbCore::new(
                    sc.hvdb.clone(),
                    &sc.members,
                    sc.traffic.clone(),
                    sc.group_events.clone(),
                )
            });
            (Prepared::Sharded(sim, core), sim_new_s, proto_new_s)
        }
    };
    let times = SetupTimes {
        build_s,
        sim_new_s,
        proto_new_s,
    };
    (times, prepared, sc)
}

/// The model's end-to-end outputs (simulated time, deterministic),
/// summable over simulations.
#[derive(Clone, Default)]
struct Model {
    /// Expected (packet, receiver) slots: each packet's group less its
    /// source.
    attempted: u64,
    /// Slots delivered.
    delivered: u64,
    /// Deliveries a source recorded to itself (see `account`).
    self_deliveries: u64,
    on_time: u64,
    latency: LogHist,
    control_bytes: u64,
    data_frames: u64,
    node_seconds: f64,
}

impl Model {
    fn add(&mut self, o: &Model) {
        self.attempted += o.attempted;
        self.delivered += o.delivered;
        self.self_deliveries += o.self_deliveries;
        self.on_time += o.on_time;
        self.latency.merge(&o.latency);
        self.control_bytes += o.control_bytes;
        self.data_frames += o.data_frames;
        self.node_seconds += o.node_seconds;
    }

    fn latency_ms(&self, q: f64) -> f64 {
        self.latency.quantile(q).map_or(0.0, |us| us as f64 / 1e3)
    }
}

/// Reads the model's outputs off a finished run and checks them against
/// the script; returns the outputs and the failed checks.
///
/// A source that belongs to its own group records a delivery to itself
/// when its head's local broadcast comes back, although its expected
/// receivers exclude it. That delivery is not a receiver slot: it is
/// counted in `self_deliveries`, never in `delivered`, and it is the only
/// excess a packet may show.
fn account(sc: &Scenario, stats: &Stats, sim_s: f64) -> (Model, Vec<String>) {
    let mut problems = Vec::new();
    let mut groups: BTreeMap<GroupId, Vec<NodeId>> = BTreeMap::new();
    for (n, g) in &sc.members {
        groups.entry(*g).or_default().push(*n);
    }
    let rows = stats.origin_rows();
    if rows.len() != sc.traffic.len() {
        problems.push(format!(
            "{} packets originated, {} scripted",
            rows.len(),
            sc.traffic.len()
        ));
    }
    let mut m = Model::default();
    for &(id, _, expected, count) in &rows {
        let Some(item) = id.checked_sub(1).and_then(|i| sc.traffic.get(i as usize)) else {
            problems.push(format!("packet {id} was never scripted"));
            continue;
        };
        let members = groups.get(&item.group).map_or(&[][..], |v| &v[..]);
        let src_member = members.contains(&item.src);
        let scripted = members.len() as u64 - src_member as u64;
        if expected != scripted {
            problems.push(format!(
                "packet {id} expects {expected} receivers, the script {scripted}"
            ));
        }
        m.attempted += expected;
        let count = count as u64;
        if sc.sim.compact_delivery {
            // Receiver lists are not kept: only the count can be checked.
            if count > expected + src_member as u64 {
                problems.push(format!(
                    "packet {id} delivered {count} times to {expected} receivers"
                ));
            }
            m.delivered += count.min(expected);
            m.self_deliveries += count.saturating_sub(expected);
        } else {
            for r in stats.receivers_of(id) {
                if r == item.src {
                    m.self_deliveries += 1;
                } else if members.contains(&r) {
                    m.delivered += 1;
                } else {
                    problems.push(format!("packet {id} delivered to non-member {}", r.0));
                }
            }
        }
    }
    if m.attempted == 0 {
        problems.push("no receiver slots attempted".into());
    }
    let on_time = stats
        .latencies()
        .iter()
        .filter(|d| d.0 <= ON_TIME_US)
        .count() as u64;
    m.on_time = on_time.min(m.delivered);
    m.latency = stats.latency_hist().clone();
    m.control_bytes = stats.bytes_where(|c| !is_data_class(c));
    m.data_frames = stats.msgs_where(is_data_class);
    m.node_seconds = sc.sim.num_nodes as f64 * sim_s;
    (m, problems)
}

/// The receiver slots `sc` scripts: each packet's group less its source.
fn scripted_slots(sc: &Scenario) -> u64 {
    sc.traffic
        .iter()
        .map(|t| {
            let receivers = sc
                .members
                .iter()
                .filter(|(n, g)| *g == t.group && *n != t.src);
            receivers.count() as u64
        })
        .sum()
}

/// Layer measurements of a traced run.
struct Traced {
    planes: Planes,
    mobility: Arc<MobilityStats>,
    phases_s: [f64; 3],
    counters: Counters,
    profile: Option<EngineProfile>,
    geo_query_ns: f64,
    geo_neighbors_per_query: f64,
}

/// One repetition: set-up, run, and what it measured.
struct Rep {
    setup: SetupTimes,
    /// Host seconds inside `run`.
    wall_s: f64,
    sim_s: f64,
    nodes: usize,
    /// Peak heap over set-up and run.
    peak_heap_bytes: usize,
    /// Allocations made by `run`.
    run_allocs: u64,
    run_alloc_bytes: u64,
    estimate_bytes: usize,
    stats: Stats,
    model: Model,
    problems: Vec<String>,
    traced: Option<Traced>,
}

/// Times `World::neighbors_into` for every node of `world`: (ns per
/// query, neighbours per query), the median of five passes.
fn geo_queries(world: &World) -> (f64, f64) {
    let mut out = Vec::new();
    let mut raw = Vec::new();
    let mut found = 0usize;
    let mut passes: Vec<f64> = (0..5)
        .map(|_| {
            found = 0;
            let t0 = Instant::now();
            for id in 0..world.len() as u32 {
                world.neighbors_into(NodeId(id), &mut out, &mut raw);
                found += std::hint::black_box(&out).len();
            }
            t0.elapsed().as_nanos() as f64 / world.len() as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    (passes[2], found as f64 / world.len() as f64)
}

/// Runs to each horizon in turn, returning the host seconds of each step.
fn stepped<const N: usize>(horizons: [SimTime; N], mut run: impl FnMut(SimTime)) -> [f64; N] {
    horizons.map(|h| timed(|| run(h)).1)
}

/// One repetition of `name` on simulation seed `seed`. The traced one
/// steps `run` at the phase boundaries and wraps the protocol and the
/// mobility model in the decorators of [`layers`]; the untraced one makes
/// a single `run` call.
fn rep(name: &str, seed: u64, engine: Engine, traced: bool) -> Rep {
    alloc::reset();
    let mob_stats = Arc::new(MobilityStats::default());
    let wrap = |inner: Box<dyn Mobility>| -> Box<dyn Mobility> {
        if traced {
            Box::new(TracedMobility {
                inner,
                stats: Arc::clone(&mob_stats),
            })
        } else {
            inner
        }
    };
    let (setup, prepared, sc) = set_up(name, seed, engine, &wrap);
    let until = sc.until;
    let horizons = [
        SimTime::from_secs(WARMUP_S),
        SimTime::from_secs(WARMUP_S + TRAFFIC_S),
        until,
    ];
    let planes = Planes::default();
    let before = alloc::usage();
    let mut phases_s = [0.0; 3];
    let (wall_s, after, nodes, estimate_bytes, counters, profile, geo, stats) = match prepared {
        Prepared::Serial(mut sim, mut proto) => {
            let wall_s = if traced {
                let mut tp = TracedSerial {
                    inner: &mut proto,
                    planes: &planes,
                };
                phases_s = stepped(horizons, |h| sim.run(&mut tp, h));
                phases_s.iter().sum()
            } else {
                timed(|| sim.run(&mut proto, until)).1
            };
            let after = alloc::usage();
            let geo = traced.then(|| geo_queries(sim.world()));
            let est = sim.world().memory_bytes() + proto.memory_bytes();
            let n = sim.world().len();
            let stats = sim.stats().clone();
            (wall_s, after, n, est, proto.counters(), None, geo, stats)
        }
        Prepared::Sharded(mut sim, core) => {
            let wall_s = if traced {
                let tp = TracedPar {
                    inner: &core,
                    planes: &planes,
                };
                phases_s = stepped(horizons, |h| sim.run(&tp, h));
                phases_s.iter().sum()
            } else {
                timed(|| sim.run(&core, until)).1
            };
            let after = alloc::usage();
            let mut counters = Counters::default();
            let mut est = sim.world().memory_bytes();
            for id in sim.world().ids() {
                if let Some(node) = sim.node_state(id) {
                    counters += node.counters();
                    est += node.memory_bytes();
                }
            }
            let geo = traced.then(|| geo_queries(sim.world()));
            let n = sim.world().len();
            let profile = Some(sim.profile().clone());
            let stats = sim.stats().clone();
            (wall_s, after, n, est, counters, profile, geo, stats)
        }
    };
    let sim_s = until.since(SimTime::ZERO).as_secs_f64();
    let (model, problems) = account(&sc, &stats, sim_s);
    let (geo_query_ns, geo_neighbors_per_query) = geo.unwrap_or_default();
    Rep {
        setup,
        wall_s,
        sim_s,
        nodes,
        peak_heap_bytes: after.peak_bytes,
        run_allocs: after.count - before.count,
        run_alloc_bytes: after.bytes - before.bytes,
        estimate_bytes,
        stats,
        model,
        problems,
        traced: traced.then_some(Traced {
            planes,
            mobility: mob_stats,
            phases_s,
            counters,
            profile,
            geo_query_ns,
            geo_neighbors_per_query,
        }),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything one invocation measured.
struct Outcome {
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    setups: Vec<SetupTimes>,
    /// The model's outputs summed over the first untraced run of every
    /// simulation seed.
    model: Model,
    problems: Vec<String>,
    /// Receiver slots of every repetition started, whether or not it
    /// finished.
    slots_attempted: u64,
}

/// Runs `rep` and turns a panic into a reported problem.
fn guarded(name: &str, seed: u64, engine: Engine, traced: bool) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| rep(name, seed, engine, traced))).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("run panicked: {msg}")
    })
}

/// Sets up [`EXTRA_SETUPS`] times, then repeats the workload over its
/// simulation seeds until `seconds` have passed and, untraced, every seed
/// has run once. Traced, each untraced repetition is followed by a traced
/// one on the same seed. Then runs the output checks.
fn measure(name: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let Spec {
        engine, sub_seeds, ..
    } = spec(name);
    let seeds: Vec<u64> = (0..sub_seeds)
        .map(|k| sub_seed(seed, k, sub_seeds))
        .collect();
    let mut out = Outcome {
        plain: Vec::new(),
        traced: Vec::new(),
        setups: Vec::new(),
        model: Model::default(),
        problems: Vec::new(),
        slots_attempted: 0,
    };
    for _ in 0..EXTRA_SETUPS {
        out.setups.push(set_up(name, seeds[0], engine, &|m| m).0);
    }
    // Index into `plain` of each simulation seed's first untraced run.
    let mut first: Vec<Option<usize>> = vec![None; seeds.len()];
    let start = Instant::now();
    'reps: for i in 0.. {
        let k = i % seeds.len();
        let enough = if trace {
            i > 0
        } else {
            first.iter().all(Option::is_some)
        };
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            let r = match guarded(name, seeds[k], engine, traced) {
                Ok(r) => r,
                Err(e) => {
                    out.problems.push(e);
                    out.slots_attempted += scripted_slots(&scenario(name, seeds[k], 1));
                    break 'reps;
                }
            };
            out.slots_attempted += r.model.attempted;
            out.setups.push(r.setup);
            out.problems.extend(r.problems.iter().cloned());
            match first[k] {
                None => first[k] = Some(out.plain.len()),
                Some(j) if out.plain[j].stats != r.stats => out.problems.push(format!(
                    "simulation seed {}: {} run's outputs differ from the first run's",
                    seeds[k],
                    if traced { "the traced" } else { "a repeated" }
                )),
                Some(_) => {}
            }
            if traced {
                out.traced.push(r);
            } else {
                out.plain.push(r);
            }
        }
    }
    for j in first.iter().flatten() {
        out.model.add(&out.plain[*j].model);
    }
    if let (Engine::Sharded { threads }, Some(j)) = (engine, first[0]) {
        // Thread count is a performance knob only: one lane must
        // reproduce the multi-lane outputs exactly.
        match guarded(name, seeds[0], Engine::Sharded { threads: 1 }, false) {
            Ok(one) if one.stats == out.plain[j].stats => {}
            Ok(_) => out.problems.push(format!(
                "outputs at 1 thread differ from those at {threads} threads"
            )),
            Err(e) => out.problems.push(e),
        }
    }
    out
}

/// A named metric value with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value, where it is a statistic of several.
    samples: Option<u64>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: None,
    }
}

fn sampled(name: &str, value: f64, unit: &'static str, n: u64) -> Metric {
    Metric {
        samples: Some(n),
        ..metric(name, value, unit)
    }
}

/// The end-to-end metrics: host metrics are medians over the untraced
/// repetitions; the model's outputs are pooled over the simulation seeds.
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let reps = &o.plain;
    let n = reps.len() as u64;
    let m = &o.model;
    let lat = m.latency.count();
    vec![
        sampled(
            "sim_s_per_wall_s",
            median(reps.iter().map(|r| r.sim_s / r.wall_s).collect()),
            "sim-s/s",
            n,
        ),
        sampled(
            "setup_s",
            median(o.setups.iter().map(SetupTimes::total).collect()),
            "s",
            o.setups.len() as u64,
        ),
        sampled(
            "peak_heap_mb",
            median(
                reps.iter()
                    .map(|r| r.peak_heap_bytes as f64 / (1u64 << 20) as f64)
                    .collect(),
            ),
            "MiB",
            n,
        ),
        sampled(
            "delivery",
            ratio(m.delivered as f64, m.attempted as f64),
            "ratio",
            m.attempted,
        ),
        sampled(
            "on_time_ratio",
            ratio(m.on_time as f64, m.attempted as f64),
            "ratio",
            m.attempted,
        ),
        sampled("latency_p50_ms", m.latency_ms(0.50), "ms", lat),
        metric(
            "control_bytes_per_node_s",
            ratio(m.control_bytes as f64, m.node_seconds),
            "B/node/s",
        ),
        sampled(
            "tx_per_delivery",
            ratio(m.data_frames as f64, m.delivered as f64),
            "frames",
            m.delivered,
        ),
    ]
}

fn tr(r: &Rep) -> &Traced {
    r.traced.as_ref().expect("traced repetition")
}

/// Seconds of the traced run spent in protocol handlers.
fn handler_s(r: &Rep) -> f64 {
    (0..PLANES.len()).map(|p| tr(r).planes.busy_s(p)).sum()
}

/// Seconds of the traced run spent in the engine itself: the run's wall
/// time less handler and mobility time.
fn engine_self_s(r: &Rep) -> f64 {
    r.wall_s - handler_s(r) - tr(r).mobility.busy_s()
}

/// The per-layer metrics: medians over the traced repetitions, except the
/// allocator's, which come from the untraced ones.
fn per_layer(o: &Outcome) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(o.traced.iter().map(f).collect());
    let med_plain = |f: &dyn Fn(&Rep) -> f64| median(o.plain.iter().map(f).collect());
    let events = |r: &Rep| r.stats.events_processed as f64;
    let count = |name: &str, f: &dyn Fn(&Rep) -> f64| metric(name, med(f), "count");
    let secs = |name: &str, f: &dyn Fn(&Rep) -> f64| metric(name, med(f), "s");
    let prof = |r: &Rep, f: &dyn Fn(&EngineProfile) -> f64| tr(r).profile.as_ref().map_or(0.0, f);
    let mut out = Vec::new();
    for (p, plane) in PLANES.iter().enumerate() {
        out.push(count(&format!("proto.{plane}.calls"), &|r| {
            tr(r).planes.calls(p) as f64
        }));
        out.push(secs(&format!("proto.{plane}.busy_s"), &|r| {
            tr(r).planes.busy_s(p)
        }));
    }
    out.extend([
        metric(
            "softstate.stale_ratio",
            med(&|r| {
                let t = tr(r);
                ratio(
                    t.counters.stale_suppressed as f64,
                    t.planes.calls(SOFTSTATE) as f64,
                )
            }),
            "ratio",
        ),
        metric(
            "proto.cube_cache_hit_ratio",
            med(&|r| {
                let c = &tr(r).counters;
                ratio(
                    c.cube_cache_hits as f64,
                    (c.cube_cache_hits + c.cube_rebuilds) as f64,
                )
            }),
            "ratio",
        ),
        count("engine.events", &events),
        metric(
            "engine.ns_per_event",
            med(&|r| engine_self_s(r) * 1e9 / events(r)),
            "ns",
        ),
        count("engine.events_per_delivery", &|r| {
            ratio(events(r), r.model.delivered as f64)
        }),
        secs("engine.self_s", &engine_self_s),
        metric(
            "alloc.per_event",
            med_plain(&|r| r.run_allocs as f64 / events(r)),
            "count",
        ),
        metric(
            "alloc.bytes_per_event",
            med_plain(&|r| r.run_alloc_bytes as f64 / events(r)),
            "B",
        ),
        count("engine.windows", &|r| prof(r, &|p| p.windows as f64)),
        count("engine.events_per_window", &|r| {
            ratio(events(r), prof(r, &|p| p.windows as f64))
        }),
        secs("engine.drain_s", &|r| prof(r, &|p| p.drain_secs)),
        secs("engine.commit_s", &|r| prof(r, &|p| p.commit_secs)),
        secs("engine.barrier_s", &|r| prof(r, &|p| p.barrier_secs)),
        // The window-collection loop the engine's profiler does not time.
        secs("engine.collect_s", &|r| {
            prof(r, &|p| {
                r.wall_s - p.drain_secs - p.commit_secs - p.barrier_secs
            })
        }),
        metric(
            "engine.lane_imbalance",
            med(&|r| prof(r, &|p| p.lane_imbalance())),
            "ratio",
        ),
        metric(
            "mem.heap_per_node_bytes",
            med_plain(&|r| r.peak_heap_bytes as f64 / r.nodes as f64),
            "B",
        ),
        metric(
            "mem.estimate_per_node_bytes",
            med(&|r| r.estimate_bytes as f64 / r.nodes as f64),
            "B",
        ),
        count("mobility.steps", &|r| tr(r).mobility.steps() as f64),
        secs("mobility.busy_s", &|r| tr(r).mobility.busy_s()),
        metric("geo.query_ns", med(&|r| tr(r).geo_query_ns), "ns"),
        count("geo.neighbors_per_query", &|r| {
            tr(r).geo_neighbors_per_query
        }),
        count("radio.frames_tx", &|r| r.stats.msgs_where(|_| true) as f64),
        count("radio.receptions", &|r| tr(r).planes.receptions() as f64),
        count("radio.drops_queue_full", &|r| {
            r.stats.drops_queue_full as f64
        }),
        count("radio.drops_out_of_range", &|r| {
            r.stats.drops_out_of_range as f64
        }),
        count("radio.drops_retry_exhausted", &|r| {
            r.stats.drops_retry_exhausted as f64
        }),
    ]);
    let setup = |f: &dyn Fn(&SetupTimes) -> f64| median(o.setups.iter().map(f).collect());
    out.extend([
        metric("setup.build_s", setup(&|s| s.build_s), "s"),
        metric("setup.sim_new_s", setup(&|s| s.sim_new_s), "s"),
        metric("setup.proto_new_s", setup(&|s| s.proto_new_s), "s"),
    ]);
    for (i, phase) in ["warmup", "traffic", "cooldown"].iter().enumerate() {
        out.push(secs(&format!("phase.{phase}_s"), &|r| tr(r).phases_s[i]));
    }
    out.push(metric(
        "trace.overhead_ratio",
        ratio(med(&|r| r.wall_s), med_plain(&|r| r.wall_s)),
        "ratio",
    ));
    out
}

/// A fixed amount of serial integer work that cannot be vectorised.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// How many of two equal spins run at once: 2 × (one spin alone) /
/// (two spins on two threads). About 1 where two logical CPUs share one
/// core's worth of time, about 2 on two free cores.
fn effective_parallelism() -> f64 {
    const ITERS: u64 = 30_000_000;
    let (_, one) = timed(|| spin(ITERS));
    let (_, two) = timed(|| {
        std::thread::scope(|s| {
            let other = s.spawn(|| spin(ITERS));
            spin(ITERS);
            other.join().expect("spin thread panicked");
        })
    });
    2.0 * one / two
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}: 0 or 1")),
                }
            }
            "--rustc" => args.rustc = value,
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// A JSON string literal (names and units here need no escapes beyond
/// quotes and backslashes).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON number, with every digit of Rust's shortest round-trip form.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let subs = spec(&args.workload).sub_seeds;
    println!(
        "# host: nproc={} effective_parallelism={:.2} cpu={} rustc={} commit={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        effective_parallelism(),
        json_str(&cpu_model()),
        json_str(&args.rustc),
        args.commit,
    );
    println!(
        "# workload={} seed={} (simulation seeds {}..={}) seconds={} trace={}",
        args.workload,
        args.seed,
        sub_seed(args.seed, 0, subs),
        sub_seed(args.seed, subs - 1, subs),
        args.seconds,
        args.trace as u8
    );
    let o = measure(&args.workload, args.seed, args.seconds, args.trace);
    let walls = |reps: &[Rep]| {
        reps.iter()
            .map(|r| format!("{:.3}", r.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("# untraced run walls (s): {}", walls(&o.plain));
    if args.trace {
        println!("# traced run walls (s): {}", walls(&o.traced));
    }
    let m = &o.model;
    println!(
        "# ops_attempted={} ops_undelivered={} source_self_deliveries={} (receiver slots, pooled over simulation seeds)",
        m.attempted,
        m.attempted - m.delivered.min(m.attempted),
        m.self_deliveries
    );
    // Tail percentiles vary too much between seeds to gate (see
    // README.md); they are reported with the samples beyond them.
    let n = m.latency.count();
    for q in [0.90, 0.99] {
        println!(
            "# latency_p{}_ms={:.3} (not gated; {} of {n} samples beyond)",
            (q * 100.0) as u32,
            m.latency_ms(q),
            ((1.0 - q) * n as f64).floor()
        );
    }
    if let Some(hwm) = alloc::vm_hwm_bytes() {
        println!(
            "# VmHWM={:.1} MiB (process peak RSS, unchecked cross-check of peak_heap_mb)",
            hwm as f64 / (1u64 << 20) as f64
        );
    }
    let metrics = if args.trace {
        per_layer(&o)
    } else {
        end_to_end(&o)
    };
    for m in &metrics {
        let samples = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        println!(
            "{:<30} {:>20} {}{samples}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    let correct = o.problems.is_empty() && !o.plain.is_empty();
    for p in &o.problems {
        println!("# CHECK FAILED: {p}");
    }
    // An operation is one receiver slot of one repetition. An undelivered
    // slot is a modelled outcome (see `delivery`); a slot fails when its
    // run panics or fails a check.
    let attempted = o.slots_attempted.max(1);
    let failed = if correct { 0 } else { attempted };
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}
