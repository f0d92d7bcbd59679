//! Strict validation of `BENCH_<scenario>.json` reports, plus the
//! regression gates CI enforces on them.
//!
//! The report writer is hand-rolled (offline workspace), so nothing may
//! trust it blindly: [`parse_strict`] is a strict recursive-descent JSON
//! parser (no trailing garbage, no bad escapes, no bare control chars),
//! and [`validate_report_str`] layers the exact report schema on top —
//! the six top-level fields with their types, every row fully typed,
//! finite metrics only, no unknown keys — plus the `partition` timeline
//! cross-check ([`check_partition_timeline`]). The CLI (`hvdb-bench
//! validate`, and `run`'s post-write check) and the test suite share
//! this code, so a malformed report can neither land in CI artifacts nor
//! be committed unnoticed.
//!
//! The scenario gates are data: [`GATES`] is one table of [`Gate`] rows
//! (scenario, sweep, point selector, arm, metric, [`Rule`]) and
//! [`Gate::check`] is its one interpreter. `hvdb-bench validate`,
//! `explain` and `list --json` all read that table. The comparison
//! against a committed baseline ([`check_trajectory`]) stays a named
//! function.

use crate::report::Json;
use std::fmt;

/// Bench-trajectory tolerance: a candidate row's `delivery` may fall at
/// most this fraction below the committed baseline's.
const TRAJECTORY_DELIVERY_TOLERANCE: f64 = 0.10;

/// Bench-trajectory tolerance: a candidate row's overhead metrics
/// ([`OVERHEAD_GATED_METRICS`]) may grow at most this fraction over the
/// committed baseline's.
const TRAJECTORY_OVERHEAD_TOLERANCE: f64 = 0.15;

/// The per-row metrics the trajectory comparison treats as overhead
/// (lower is better, growth is gated). `memory_per_node_bytes` is the
/// `scale` scenario's footprint column: deterministic content-byte
/// estimates, so a growth past the band is a real per-node state
/// regression, not allocator noise.
const OVERHEAD_GATED_METRICS: [&str; 4] = [
    "control_frames_per_s",
    "control_bytes_per_node",
    "refresh_frames_per_s",
    "memory_per_node_bytes",
];

/// A [`Rule::Speedup`] floor is enforced only when the measured point
/// runs at least this many worker threads on a machine reporting at
/// least this many `hardware_threads`: on smaller machines the threads
/// timeslice one core and the ratio measures scheduler noise.
const SPEEDUP_MIN_THREADS: f64 = 4.0;

/// Parses `input` as one strict JSON document (the whole string, no
/// trailing garbage) into a [`Json`] value.
pub fn parse_strict(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p
        .value()
        .map_err(|e| format!("invalid JSON at byte {}: {e}", p.pos))?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!(
            "trailing garbage after JSON document at byte {}",
            p.pos
        ));
    }
    Ok(v)
}

/// Validates `input` as a complete scenario report: strict JSON, the
/// exact report schema and, for `partition` reports, the timeline
/// cross-check. Returns the parsed document for further checks.
pub fn validate_report_str(input: &str) -> Result<Json, String> {
    let doc = parse_strict(input)?;
    validate_report(&doc)?;
    Ok(doc)
}

fn obj_fields(v: &Json) -> Result<&[(String, Json)], String> {
    match v {
        Json::Obj(fields) => Ok(fields),
        other => Err(format!("expected object, got {other:?}")),
    }
}

fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn as_str<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    match v {
        Json::Str(s) => Ok(s),
        other => Err(format!("{what}: expected string, got {other:?}")),
    }
}

/// Schema check of a parsed report document. Strict: every field typed,
/// no unknown top-level or row keys, rows non-empty, metrics finite. A
/// `partition` report's timeline must also pass
/// [`check_partition_timeline`], smoke and full alike.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let fields = obj_fields(doc)?;
    // "workload", "timeline" and "profile" are the optional keys:
    // scenarios with a scripted fault plan serialize the first, the
    // observability scenarios add the latter two; everything else omits
    // them, keeping historical reports byte-stable.
    const TOP: [&str; 9] = [
        "scenario", "figure", "summary", "smoke", "threads", "workload", "timeline", "profile",
        "rows",
    ];
    for (k, _) in fields {
        if !TOP.contains(&k.as_str()) {
            return Err(format!("unknown top-level field {k:?}"));
        }
    }
    if let Some((_, v)) = fields.iter().find(|(k, _)| k == "workload") {
        if !matches!(v, Json::Obj(_)) {
            return Err(format!("workload: expected object, got {v:?}"));
        }
    }
    if let Some((_, v)) = fields.iter().find(|(k, _)| k == "timeline") {
        validate_timeline(v).map_err(|e| format!("timeline: {e}"))?;
    }
    if let Some((_, v)) = fields.iter().find(|(k, _)| k == "profile") {
        validate_profile(v).map_err(|e| format!("profile: {e}"))?;
    }
    let scenario = as_str(field(fields, "scenario")?, "scenario")?;
    if scenario.is_empty() {
        return Err("empty scenario name".into());
    }
    as_str(field(fields, "figure")?, "figure")?;
    as_str(field(fields, "summary")?, "summary")?;
    match field(fields, "smoke")? {
        Json::Bool(_) => {}
        other => return Err(format!("smoke: expected bool, got {other:?}")),
    }
    match field(fields, "threads")? {
        Json::Num(n) if *n >= 1.0 && n.fract() == 0.0 => {}
        other => {
            return Err(format!(
                "threads: expected a positive integer, got {other:?}"
            ))
        }
    }
    let rows = match field(fields, "rows")? {
        Json::Arr(rows) => rows,
        other => return Err(format!("rows: expected array, got {other:?}")),
    };
    if rows.is_empty() {
        return Err(format!("scenario {scenario:?} has no rows"));
    }
    for (i, row) in rows.iter().enumerate() {
        validate_row(row).map_err(|e| format!("row {i}: {e}"))?;
    }
    if scenario == "partition" {
        check_partition_timeline(doc).map_err(|e| format!("timeline cross-check: {e}"))?;
    }
    Ok(())
}

fn validate_row(row: &Json) -> Result<(), String> {
    let fields = obj_fields(row)?;
    const KEYS: [&str; 4] = ["sweep", "label", "proto", "metrics"];
    for (k, _) in fields {
        if !KEYS.contains(&k.as_str()) {
            return Err(format!("unknown row field {k:?}"));
        }
    }
    for key in ["sweep", "label", "proto"] {
        let s = as_str(field(fields, key)?, key)?;
        if s.is_empty() {
            return Err(format!("empty {key}"));
        }
    }
    let metrics = match field(fields, "metrics")? {
        Json::Obj(m) => m,
        other => return Err(format!("metrics: expected object, got {other:?}")),
    };
    if metrics.is_empty() {
        return Err("row has no metrics".into());
    }
    for (name, v) in metrics {
        match v {
            Json::Num(n) if n.is_finite() => {}
            other => {
                return Err(format!(
                    "metric {name:?}: expected finite number, got {other:?}"
                ))
            }
        }
    }
    Ok(())
}

/// Structural check of a report's optional `timeline` block: a positive
/// sampling cadence and a non-empty sample series with strictly
/// increasing `t_secs`. Annotation keys between `interval_secs` and
/// `samples` are scenario-specific and pass through unchecked (their
/// values must still be valid JSON by construction).
fn validate_timeline(v: &Json) -> Result<(), String> {
    let fields = obj_fields(v)?;
    match field(fields, "interval_secs")? {
        Json::Num(n) if *n > 0.0 && n.is_finite() => {}
        other => {
            return Err(format!(
                "interval_secs: expected positive number, got {other:?}"
            ))
        }
    }
    let samples = match field(fields, "samples")? {
        Json::Arr(s) => s,
        other => return Err(format!("samples: expected array, got {other:?}")),
    };
    if samples.is_empty() {
        return Err("empty sample series".into());
    }
    let mut prev = f64::NEG_INFINITY;
    for (i, s) in samples.iter().enumerate() {
        let sf = obj_fields(s).map_err(|e| format!("sample {i}: {e}"))?;
        let t = match field(sf, "t_secs").map_err(|e| format!("sample {i}: {e}"))? {
            Json::Num(t) if t.is_finite() => *t,
            other => {
                return Err(format!(
                    "sample {i}: t_secs: expected number, got {other:?}"
                ))
            }
        };
        if t <= prev {
            return Err(format!(
                "sample {i}: t_secs {t} not increasing (prev {prev})"
            ));
        }
        prev = t;
        for key in [
            "heads",
            "delivery",
            "control_frames",
            "memory_per_node_bytes",
        ] {
            match field(sf, key).map_err(|e| format!("sample {i}: {e}"))? {
                Json::Num(n) if n.is_finite() => {}
                other => {
                    return Err(format!(
                        "sample {i}: {key}: expected finite number, got {other:?}"
                    ))
                }
            }
        }
    }
    Ok(())
}

/// Structural check of a report's optional `profile` block. Values are
/// wall-clock derived and machine-dependent, so only shape and
/// non-negativity are checked — never magnitudes. `collect_secs`,
/// `events` and `active_shards` are optional: reports written before the
/// engine recorded them lack them.
fn validate_profile(v: &Json) -> Result<(), String> {
    let fields = obj_fields(v)?;
    let optional = ["collect_secs", "events", "active_shards"]
        .into_iter()
        .filter(|key| fields.iter().any(|(k, _)| k == key));
    for key in ["windows", "drain_secs", "commit_secs", "barrier_secs"]
        .into_iter()
        .chain(optional)
    {
        match field(fields, key)? {
            Json::Num(n) if *n >= 0.0 && n.is_finite() => {}
            other => {
                return Err(format!(
                    "{key}: expected non-negative number, got {other:?}"
                ))
            }
        }
    }
    match field(fields, "lane_busy_secs")? {
        Json::Arr(lanes) => {
            for lane in lanes {
                match lane {
                    Json::Num(n) if *n >= 0.0 && n.is_finite() => {}
                    other => {
                        return Err(format!(
                            "lane_busy_secs: expected non-negative number, got {other:?}"
                        ))
                    }
                }
            }
        }
        other => return Err(format!("lane_busy_secs: expected array, got {other:?}")),
    }
    Ok(())
}

/// Cross-checks a `partition` report's `timeline` block against its
/// probe-loop measurement: the re-merge instant *derived from the sample
/// series* (first sample after `heal_at_secs` whose head census is at or
/// below `heads_target`) must equal the `remerge_secs_probe` annotation
/// the run measured directly. A report without a timeline passes — the
/// block is optional and legacy reports predate it.
///
/// This is the point of the timeline plane: a transient claim like
/// "re-merge in 5 s" stops being a number the harness asserts and starts
/// being a curve anyone can re-derive from the committed report.
pub fn check_partition_timeline(doc: &Json) -> Result<Option<f64>, String> {
    let Some(tl) = doc.get("timeline") else {
        return Ok(None);
    };
    let num = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::num)
            .ok_or_else(|| format!("timeline {key}: expected number"))
    };
    let heal_at = num(tl, "heal_at_secs")?;
    let target = num(tl, "heads_target")?;
    let measured = num(tl, "remerge_secs_probe")?;
    let Some(Json::Arr(samples)) = tl.get("samples") else {
        return Err("timeline samples: expected array".into());
    };
    let mut derived = None;
    for s in samples {
        let (t, heads) = (num(s, "t_secs")?, num(s, "heads")?);
        if t > heal_at && heads <= target {
            derived = Some(t - heal_at);
            break;
        }
    }
    let Some(derived) = derived else {
        return Err(format!(
            "timeline never returns to heads_target {target} after heal_at {heal_at}s \
             (probe measured {measured}s)"
        ));
    };
    // The probe loop and the sampler observe the same stepped run at the
    // same cadence, so the two numbers must agree exactly (both are
    // probe-multiples; compare with a float hair of slack).
    if (derived - measured).abs() > 1e-9 {
        return Err(format!(
            "re-merge derived from timeline ({derived}s) disagrees with probe measurement \
             ({measured}s)"
        ));
    }
    Ok(Some(derived))
}

/// One CI gate over a scenario report: the rows it reads, the metric and
/// the rule the metric must satisfy. Rows are listed in [`GATES`].
#[derive(Debug)]
pub struct Gate {
    /// Scenario whose reports the gate applies to.
    pub scenario: &'static str,
    /// Sweep axis of the rows read.
    pub sweep: &'static str,
    /// Which points (row labels) of the sweep are read.
    pub at: At,
    /// Protocol arm of the rows read.
    pub proto: &'static str,
    /// The gated metric.
    pub metric: &'static str,
    /// How the selected values are aggregated and bounded.
    pub rule: Rule,
    /// What the gate does with a smoke report.
    pub on_smoke: OnSmoke,
}

/// What a gate does with a smoke report, whose numbers come from a
/// shrunken workload.
#[derive(Debug)]
pub enum OnSmoke {
    /// Checks it like a full report.
    Check,
    /// Passes it unchecked: the row only means something on a full run.
    Skip,
    /// Fails it: the gate needs a full run's numbers.
    Fail,
}

/// A gate's point selector. A gate whose points are missing fails.
#[derive(Debug)]
pub enum At {
    /// Exactly these labels; each must be present.
    Labels(&'static [&'static str]),
    /// Every label `key=n` with `n >= min`; at least one must be present,
    /// and every label of the arm must parse as `key=<number>`.
    From(&'static str, f64),
}

/// How a gate aggregates its selected rows, and its bound.
#[derive(Debug)]
pub enum Rule {
    /// Every selected value is at least this.
    Min(f64),
    /// Every selected value is at most this.
    Max(f64),
    /// At every selected point, the value divided by the `over` arm's
    /// value of the same metric is at least `min`.
    RatioMin {
        /// The denominator arm.
        over: &'static str,
        /// The ratio floor.
        min: f64,
    },
    /// The value is identical at every selected point; there must be at
    /// least two, the selector's lowest point among them (the
    /// determinism contract: thread count may change wall-clock only).
    Equal,
    /// The value at the highest point over the value at the selector's
    /// lowest point is at least `smoke` (smoke reports) or `full`. The
    /// floor is waived below 4 threads or 4 hardware threads; every row
    /// must still carry both metrics.
    Speedup {
        /// Floor on smoke reports.
        smoke: f64,
        /// Floor on full reports.
        full: f64,
    },
    /// Prefix knee: the highest point up to which every point keeps the
    /// value at or above `min` and the `cap` metric at or below its
    /// bound (a recovery past saturation cannot move it). The gate's
    /// arm must knee strictly above every one of `arms`.
    KneeAbove {
        /// The arms to out-sustain.
        arms: &'static [&'static str],
        /// The sustained-point floor on the gated metric.
        min: f64,
        /// The second metric and its sustained-point ceiling.
        cap: (&'static str, f64),
    },
}

/// Every scenario gate CI enforces: `hvdb-bench validate` checks each
/// row applicable to a report, `explain` prints one PASS/FAIL line per
/// row, and `list --json` derives its `gated_metrics` from here.
///
/// * `loss`: worst-seed delivery under frame loss. PR 1 measured ~0.65
///   at 15% loss; the soft-state control plane lifts it above 0.90, and
///   PR 3 measured 0.969 and 0.953 at 25% and 30%.
/// * `overhead`: in the quiet phase the fixed-rate baseline sends at
///   least 2x the adaptive controller's refresh frames (committed
///   ~3.2x), and adaptive total control traffic stays under 900
///   frames/s (committed ~719; the PR 2 fixed rate burned ~1132).
/// * `perf` and `scale`: thread count never changes `events_processed`.
///   `perf`'s parallel flood must also speed up 2x (1.2x on the smaller
///   smoke workload) where the machine has the cores to show it. On full
///   reports every `scale` point from 20000 nodes up delivers at least
///   0.99.
/// * `traffic` (§5's load claim): HVDB sustains strictly more offered
///   load than flooding and the shared tree (sustained: delivery >= 0.90
///   and p99 <= 500 ms), and its pre-knee p99 at 160 pps stays inside
///   the committed 10–60 ms band (committed ~29 ms).
/// * `partition`: once each island has re-grown its half of the
///   backbone, worst-seed delivery to receivers the radio can still
///   reach stays >= 0.95; after the heal the head census re-merges
///   within 15 s (committed ~5 s).
/// * `byzantine`: mean delivery lost per misbehaving node relative to
///   the k=0 control (which must be present) stays <= 0.05 at every k.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    Gate { scenario: "loss", sweep: "frame-loss", at: At::Labels(&["loss=0.15"]), proto: "hvdb", metric: "delivery_worst", rule: Rule::Min(0.90), on_smoke: OnSmoke::Fail },
    Gate { scenario: "loss", sweep: "frame-loss", at: At::Labels(&["loss=0.25", "loss=0.3"]), proto: "hvdb", metric: "delivery_worst", rule: Rule::Min(0.93), on_smoke: OnSmoke::Fail },
    Gate { scenario: "overhead", sweep: "churn", at: At::Labels(&["churn=0"]), proto: "hvdb-fixed", metric: "refresh_frames_per_s", rule: Rule::RatioMin { over: "hvdb-adaptive", min: 2.0 }, on_smoke: OnSmoke::Fail },
    Gate { scenario: "overhead", sweep: "churn", at: At::Labels(&["churn=0"]), proto: "hvdb-adaptive", metric: "control_frames_per_s", rule: Rule::Max(900.0), on_smoke: OnSmoke::Fail },
    Gate { scenario: "perf", sweep: "engine-threads", at: At::From("threads", 1.0), proto: "par-flood", metric: "events_processed", rule: Rule::Equal, on_smoke: OnSmoke::Check },
    Gate { scenario: "perf", sweep: "engine-threads", at: At::From("threads", 1.0), proto: "par-flood", metric: "events_per_s", rule: Rule::Speedup { smoke: 1.2, full: 2.0 }, on_smoke: OnSmoke::Check },
    Gate { scenario: "scale", sweep: "engine-threads", at: At::From("threads", 1.0), proto: "hvdb-par", metric: "events_processed", rule: Rule::Equal, on_smoke: OnSmoke::Check },
    Gate { scenario: "scale", sweep: "network-size", at: At::From("nodes", 20000.0), proto: "hvdb-par", metric: "delivery", rule: Rule::Min(0.99), on_smoke: OnSmoke::Skip },
    Gate { scenario: "traffic", sweep: "offered-load", at: At::From("pps", 0.0), proto: "hvdb", metric: "delivery", rule: Rule::KneeAbove { arms: &["flooding", "shared-tree"], min: 0.90, cap: ("p99_ms", 500.0) }, on_smoke: OnSmoke::Fail },
    Gate { scenario: "traffic", sweep: "offered-load", at: At::Labels(&["pps=160"]), proto: "hvdb", metric: "p99_ms", rule: Rule::Min(10.0), on_smoke: OnSmoke::Fail },
    Gate { scenario: "traffic", sweep: "offered-load", at: At::Labels(&["pps=160"]), proto: "hvdb", metric: "p99_ms", rule: Rule::Max(60.0), on_smoke: OnSmoke::Fail },
    Gate { scenario: "partition", sweep: "partition", at: At::Labels(&["phase=partition"]), proto: "hvdb", metric: "delivery_reachable_steady_worst", rule: Rule::Min(0.95), on_smoke: OnSmoke::Fail },
    Gate { scenario: "partition", sweep: "partition", at: At::Labels(&["phase=healed"]), proto: "hvdb", metric: "remerge_secs_worst", rule: Rule::Max(15.0), on_smoke: OnSmoke::Fail },
    Gate { scenario: "byzantine", sweep: "byzantine", at: At::Labels(&["byz=0"]), proto: "hvdb", metric: "damage_per_node", rule: Rule::Max(0.05), on_smoke: OnSmoke::Fail },
    Gate { scenario: "byzantine", sweep: "byzantine", at: At::From("byz", 1.0), proto: "hvdb", metric: "damage_per_node", rule: Rule::Max(0.05), on_smoke: OnSmoke::Fail },
];

/// Evaluates every [`GATES`] row of a schema-valid report's scenario:
/// one PASS note or FAIL reason per row, each naming its row.
pub fn check_gates(doc: &Json) -> Vec<Result<String, String>> {
    let scenario = scenario_of(doc);
    GATES
        .iter()
        .filter(|g| g.scenario == scenario)
        .map(|g| g.check(doc))
        .collect()
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} ", self.scenario, self.sweep)?;
        match self.at {
            At::Labels(labels) => write!(f, "{}", labels.join("|"))?,
            At::From(key, min) => write!(f, "{key}>={min}")?,
        }
        write!(f, " {} {} ", self.proto, self.metric)?;
        match &self.rule {
            Rule::Min(b) => write!(f, ">= {b}")?,
            Rule::Max(b) => write!(f, "<= {b}")?,
            Rule::RatioMin { over, min } => write!(f, "/ {over} >= {min}")?,
            Rule::Equal => write!(f, "equal at every point")?,
            Rule::Speedup { smoke, full } => write!(
                f,
                "speedup >= {full} ({smoke} smoke; waived below {SPEEDUP_MIN_THREADS} threads or hardware threads)"
            )?,
            Rule::KneeAbove { arms, min, cap } => write!(
                f,
                "knee above {} (sustained: >= {min}, {} <= {})",
                arms.join(", "),
                cap.0,
                cap.1
            )?,
        }
        match self.on_smoke {
            OnSmoke::Check => Ok(()),
            OnSmoke::Skip => write!(f, " [full runs; smoke skipped]"),
            OnSmoke::Fail => write!(f, " [full runs]"),
        }
    }
}

/// One selected row of a gate: its numeric position (the label's number,
/// or the label's index for [`At::Labels`]), its label and its metrics.
struct Point<'a> {
    x: f64,
    label: &'a str,
    metrics: &'a [(String, f64)],
}

impl Point<'_> {
    fn get(&self, name: &str) -> Result<f64, String> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("row {} has no {name} metric", self.label))
    }
}

impl Gate {
    /// Evaluates the gate on a schema-valid report: `Ok` with a PASS
    /// note, or `Err` with the reason; both start with the gate's row.
    pub fn check(&self, doc: &Json) -> Result<String, String> {
        self.eval(doc)
            .map(|note| format!("{self}: {note}"))
            .map_err(|e| format!("{self}: {e}"))
    }

    /// Every metric the gate reads.
    pub fn reads(&self) -> impl Iterator<Item = &'static str> {
        let extra = match self.rule {
            Rule::Speedup { .. } => Some("hardware_threads"),
            Rule::KneeAbove { cap, .. } => Some(cap.0),
            _ => None,
        };
        std::iter::once(self.metric).chain(extra)
    }

    fn eval(&self, doc: &Json) -> Result<String, String> {
        let smoke = is_smoke(doc);
        match self.on_smoke {
            OnSmoke::Fail if smoke => {
                return Err("needs a full run, not --smoke (smoke numbers are meaningless)".into())
            }
            OnSmoke::Skip if smoke => return Ok("not checked on a smoke report".into()),
            _ => {}
        }
        let rows = report_rows(doc)?;
        let pts = self.points(&rows, self.proto)?;
        let metric = self.metric;
        match self.rule {
            Rule::Min(b) => self.within(&rows, &pts, None, (b, f64::INFINITY)),
            Rule::Max(b) => self.within(&rows, &pts, None, (f64::NEG_INFINITY, b)),
            Rule::RatioMin { over, min } => {
                self.within(&rows, &pts, Some(over), (min, f64::INFINITY))
            }
            Rule::Equal => {
                let base = self.baseline(&pts)?;
                let want = base.get(metric)?;
                let mut diverged = Vec::new();
                for p in &pts {
                    let v = p.get(metric)?;
                    if v != want {
                        diverged.push(format!("{} {v}", p.label));
                    }
                }
                if diverged.is_empty() {
                    Ok(format!("{want} at all {} points", pts.len()))
                } else {
                    Err(format!(
                        "diverged from {} ({want}): {} — determinism contract broken",
                        base.label,
                        diverged.join(", ")
                    ))
                }
            }
            Rule::Speedup { smoke: s, full } => {
                let base = self.baseline(&pts)?;
                for p in &pts {
                    p.get(metric)?;
                    p.get("hardware_threads")?;
                }
                let top = pts.last().expect("baseline checked two points");
                let (b, hw) = (base.get(metric)?, top.get("hardware_threads")?);
                if b <= 0.0 {
                    return Err(format!(
                        "{} {metric} is zero — measurement broken",
                        base.label
                    ));
                }
                let speedup = top.get(metric)? / b;
                let floor = if smoke { s } else { full };
                if top.x < SPEEDUP_MIN_THREADS || hw < SPEEDUP_MIN_THREADS {
                    Ok(format!(
                        "{speedup:.2}x at {} (floor {floor} waived: {hw:.0} hardware threads)",
                        top.label
                    ))
                } else if speedup < floor {
                    Err(format!(
                        "{speedup:.2}x at {} is below the floor {floor} ({hw:.0} hardware threads)",
                        top.label
                    ))
                } else {
                    Ok(format!("{speedup:.2}x at {} (floor {floor})", top.label))
                }
            }
            Rule::KneeAbove { arms, min, cap } => {
                let knee = |pts: &[Point]| -> Result<f64, String> {
                    let series = pts
                        .iter()
                        .map(|p| Ok((p.x, p.get(metric)?, p.get(cap.0)?)))
                        .collect::<Result<Vec<_>, String>>()?;
                    let sustained = series
                        .iter()
                        .take_while(|(_, v, c)| *v >= min && *c <= cap.1);
                    Ok(sustained.last().map_or(0.0, |s| s.0))
                };
                let own = knee(&pts)?;
                if own <= 0.0 {
                    return Err(format!(
                        "{} fails the knee rule at its lowest point {}",
                        self.proto, pts[0].label
                    ));
                }
                let mut seen = vec![format!("{} {own}", self.proto)];
                for arm in arms {
                    let theirs = knee(&self.points(&rows, arm)?)?;
                    if own <= theirs {
                        return Err(format!(
                            "{} sustains {own} but {arm} sustains {theirs} — the backbone must \
                             out-sustain its baselines strictly",
                            self.proto
                        ));
                    }
                    seen.push(format!("{arm} {theirs}"));
                }
                Ok(format!("knees {}", seen.join(", ")))
            }
        }
    }

    /// Every point's value, or its ratio to the `over` arm's value at
    /// the same label, must lie in `lo..=hi`.
    fn within(
        &self,
        rows: &[ReportRow],
        pts: &[Point],
        over: Option<&str>,
        (lo, hi): (f64, f64),
    ) -> Result<String, String> {
        let den = over.map(|arm| self.points(rows, arm)).transpose()?;
        let (mut seen, mut bad) = (Vec::new(), Vec::new());
        for p in pts {
            let mut v = p.get(self.metric)?;
            if let (Some(over), Some(den)) = (over, &den) {
                let missing = || format!("no {over} {} row at {}", self.sweep, p.label);
                let d = den
                    .iter()
                    .find(|d| d.label == p.label)
                    .ok_or_else(missing)?;
                let d = d.get(self.metric)?;
                if d <= 0.0 {
                    return Err(format!(
                        "{over} {} is zero — measurement broken",
                        self.metric
                    ));
                }
                v /= d;
            }
            let at = format!("{v:.3} at {}", p.label);
            if v < lo {
                bad.push(format!("{at} is below the floor {lo}"));
            } else if v > hi {
                bad.push(format!("{at} exceeds the ceiling {hi}"));
            } else {
                seen.push(at);
            }
        }
        if bad.is_empty() {
            Ok(seen.join(", "))
        } else {
            Err(bad.join("; "))
        }
    }

    /// The rows of arm `proto` the gate's selector picks, in point order.
    fn points<'a>(&self, rows: &'a [ReportRow], proto: &str) -> Result<Vec<Point<'a>>, String> {
        let sweep = self.sweep;
        let arm = rows.iter().filter(|(s, _, p, _)| s == sweep && p == proto);
        let mut pts = Vec::new();
        match self.at {
            At::Labels(labels) => {
                for (i, want) in labels.iter().enumerate() {
                    let (_, label, _, metrics) = arm
                        .clone()
                        .find(|(_, l, ..)| l == want)
                        .ok_or_else(|| format!("no {proto} {sweep} row at {want}"))?;
                    pts.push(Point {
                        x: i as f64,
                        label,
                        metrics,
                    });
                }
            }
            At::From(key, min) => {
                for (_, label, _, metrics) in arm {
                    let x = label
                        .strip_prefix(key)
                        .and_then(|rest| rest.strip_prefix('='))
                        .and_then(|n| n.parse::<f64>().ok())
                        .filter(|x| x.is_finite())
                        .ok_or_else(|| {
                            format!("{proto} {sweep} row has unparseable label {label:?}")
                        })?;
                    if x >= min {
                        pts.push(Point { x, label, metrics });
                    }
                }
                if pts.is_empty() {
                    return Err(format!("no {proto} {sweep} row at {key}>={min}"));
                }
                pts.sort_by(|a, b| a.x.total_cmp(&b.x));
            }
        }
        Ok(pts)
    }

    /// The reference point of [`Rule::Equal`] and [`Rule::Speedup`]: the
    /// selector's lowest point, which must be present along with at
    /// least one other.
    fn baseline<'p, 'a>(&self, pts: &'p [Point<'a>]) -> Result<&'p Point<'a>, String> {
        if pts.len() < 2 {
            return Err(format!("needs rows at >= 2 points, found {}", pts.len()));
        }
        match self.at {
            At::From(key, min) if pts[0].x != min => Err(format!("no {key}={min} baseline row")),
            _ => Ok(&pts[0]),
        }
    }
}

/// Reads a metric from the row matching `(sweep, label, proto)`.
pub fn metric_of(doc: &Json, sweep: &str, label: &str, proto: &str, metric: &str) -> Option<f64> {
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return None;
    };
    rows.iter().find_map(|row| {
        let is = |key: &str, want: &str| matches!(row.get(key), Some(Json::Str(s)) if s == want);
        if is("sweep", sweep) && is("label", label) && is("proto", proto) {
            row.get("metrics")?.get(metric)?.num()
        } else {
            None
        }
    })
}

/// The scenario name of a report document (empty if it has none).
pub fn scenario_of(doc: &Json) -> &str {
    match doc.get("scenario") {
        Some(Json::Str(s)) => s,
        _ => "",
    }
}

/// Whether a validated report document is a smoke run.
fn is_smoke(doc: &Json) -> bool {
    matches!(doc.get("smoke"), Some(Json::Bool(true)))
}

/// Row coordinates and metrics extracted from a validated report:
/// `(sweep, label, proto, metrics)`.
type ReportRow = (String, String, String, Vec<(String, f64)>);

fn report_rows(doc: &Json) -> Result<Vec<ReportRow>, String> {
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return Err("rows: expected array".into());
    };
    let row = |row: &Json| {
        let get = |key: &str| as_str(row.get(key).unwrap_or(&Json::Null), key).map(str::to_string);
        let Some(Json::Obj(metrics)) = row.get("metrics") else {
            return Err("metrics: expected object".to_string());
        };
        let metrics = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.num()?)));
        Ok((
            get("sweep")?,
            get("label")?,
            get("proto")?,
            metrics.collect(),
        ))
    };
    rows.iter().map(row).collect()
}

/// The bench-trajectory gate: compares a freshly produced `candidate`
/// report against the committed `baseline` within tolerance bands —
/// every baseline row must exist in the candidate, `delivery` may
/// regress at most 10%, and the overhead metrics
/// (`OVERHEAD_GATED_METRICS`) may grow at most 15%. Refuses smoke
/// candidates. Returns
/// one summary line per compared row; all violations are collected into
/// the error, not just the first.
pub fn check_trajectory(candidate: &Json, baseline: &Json) -> Result<Vec<String>, String> {
    let (delivery_tol, overhead_tol) =
        (TRAJECTORY_DELIVERY_TOLERANCE, TRAJECTORY_OVERHEAD_TOLERANCE);
    if is_smoke(candidate) {
        return Err("trajectory gate needs a full run, not --smoke".into());
    }
    let base_rows = report_rows(baseline)?;
    let cand_rows = report_rows(candidate)?;
    let mut summary = Vec::new();
    let mut violations = Vec::new();
    for (sweep, label, proto, metrics) in &base_rows {
        let coord = format!("{sweep}/{label}/{proto}");
        let Some((.., cand_metrics)) = cand_rows
            .iter()
            .find(|(s, l, p, _)| s == sweep && l == label && p == proto)
        else {
            violations.push(format!("row {coord} missing from candidate"));
            continue;
        };
        let cand = |name: &str| {
            cand_metrics
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
        };
        for (name, base_v) in metrics {
            if name == "delivery" {
                let floor = base_v * (1.0 - delivery_tol);
                match cand(name) {
                    Some(v) if v >= floor => {
                        summary.push(format!("{coord}: delivery {v:.3} vs baseline {base_v:.3}"))
                    }
                    Some(v) => violations.push(format!(
                        "{coord}: delivery {v:.3} regressed more than {:.0}% below baseline {base_v:.3}",
                        delivery_tol * 100.0
                    )),
                    None => violations.push(format!("{coord}: delivery metric missing")),
                }
            } else if OVERHEAD_GATED_METRICS.contains(&name.as_str()) {
                let ceiling = base_v * (1.0 + overhead_tol);
                match cand(name) {
                    Some(v) if v <= ceiling || *base_v == 0.0 && v == 0.0 => {
                        summary.push(format!("{coord}: {name} {v:.1} vs baseline {base_v:.1}"))
                    }
                    Some(v) => violations.push(format!(
                        "{coord}: {name} {v:.1} grew more than {:.0}% over baseline {base_v:.1}",
                        overhead_tol * 100.0
                    )),
                    None => violations.push(format!("{coord}: {name} metric missing")),
                }
            }
        }
    }
    if violations.is_empty() {
        Ok(summary)
    } else {
        Err(violations.join("; "))
    }
}

/// The strict JSON parser behind [`parse_strict`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected {:?}, got {:?}",
                b as char,
                got.map(|g| g as char)
            )),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?}")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        for &b in lit.as_bytes() {
            self.expect(b)?;
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                got => return Err(format!("in object: got {got:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                got => return Err(format!("in array: got {got:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            match self.bump() {
                                Some(h) if h.is_ascii_hexdigit() => {
                                    code = code * 16 + (h as char).to_digit(16).expect("hexdigit");
                                }
                                got => return Err(format!("bad \\u escape: {got:?}")),
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    got => return Err(format!("bad escape: {got:?}")),
                },
                Some(c) if c < 0x20 => return Err("raw control char in string".into()),
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Re-assemble UTF-8 (input came from &str, so it is
                    // valid by construction; walk the continuation bytes).
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err("number with no digits".into());
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err("fraction with no digits".into());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err("exponent with no digits".into());
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("unparseable number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Row, ScenarioReport};

    /// Evaluates the [`GATES`] rows whose printed form starts with
    /// `prefix`: their PASS notes, or the first FAIL reason.
    fn gates(doc: &Json, prefix: &str) -> Result<Vec<String>, String> {
        let picked: Vec<&Gate> = GATES
            .iter()
            .filter(|g| g.to_string().starts_with(prefix))
            .collect();
        assert!(!picked.is_empty(), "no gate row starts with {prefix:?}");
        picked.iter().map(|g| g.check(doc)).collect()
    }

    fn report(scenario: &str, rows: Vec<Row>) -> String {
        ScenarioReport {
            scenario: scenario.into(),
            figure: "Fig. X".into(),
            summary: "s".into(),
            smoke: false,
            threads: 1,
            workload: None,
            timeline: None,
            profile: None,
            rows,
        }
        .to_json()
        .to_string()
    }

    fn sample(t: f64, heads: f64) -> Json {
        Json::Obj(vec![
            ("t_secs".into(), Json::Num(t)),
            ("heads".into(), Json::Num(heads)),
            ("delivery".into(), Json::Num(1.0)),
            ("control_frames".into(), Json::Num(10.0)),
            ("memory_per_node_bytes".into(), Json::Num(100.0)),
        ])
    }

    fn timeline_block(annotations: &[(&str, f64)], samples: Vec<Json>) -> Json {
        let mut fields = vec![("interval_secs".to_string(), Json::Num(1.0))];
        for (k, v) in annotations {
            fields.push((k.to_string(), Json::Num(*v)));
        }
        fields.push(("samples".into(), Json::Arr(samples)));
        Json::Obj(fields)
    }

    fn report_with_blocks(
        scenario: &str,
        rows: Vec<Row>,
        timeline: Option<Json>,
        profile: Option<Json>,
    ) -> String {
        ScenarioReport {
            scenario: scenario.into(),
            figure: "Fig. X".into(),
            summary: "s".into(),
            smoke: false,
            threads: 1,
            workload: None,
            timeline,
            profile,
            rows,
        }
        .to_json()
        .to_string()
    }

    #[test]
    fn writer_output_round_trips_the_validator() {
        let s = report(
            "loss",
            vec![Row::new(
                "frame-loss",
                "loss=0.15",
                "hvdb",
                vec![("delivery_worst".into(), 0.93), ("delivery".into(), 0.97)],
            )],
        );
        let doc = validate_report_str(&s).expect("valid report");
        assert_eq!(
            metric_of(&doc, "frame-loss", "loss=0.15", "hvdb", "delivery_worst"),
            Some(0.93)
        );
    }

    fn any_rows() -> Vec<Row> {
        vec![Row::new(
            "axis",
            "n=1",
            "hvdb",
            vec![("delivery".into(), 1.0)],
        )]
    }

    #[test]
    fn timeline_block_is_schema_checked() {
        let good = timeline_block(&[], vec![sample(1.0, 5.0), sample(2.0, 4.0)]);
        let s = report_with_blocks("x", any_rows(), Some(good), None);
        validate_report_str(&s).expect("valid timeline accepted");

        // Non-increasing t_secs.
        let bad = timeline_block(&[], vec![sample(2.0, 5.0), sample(2.0, 4.0)]);
        let s = report_with_blocks("x", any_rows(), Some(bad), None);
        assert!(validate_report_str(&s).unwrap_err().contains("t_secs"));

        // Empty series.
        let bad = timeline_block(&[], vec![]);
        let s = report_with_blocks("x", any_rows(), Some(bad), None);
        assert!(validate_report_str(&s)
            .unwrap_err()
            .contains("empty sample"));

        // Sample missing a required field.
        let bad = timeline_block(
            &[],
            vec![Json::Obj(vec![("t_secs".into(), Json::Num(1.0))])],
        );
        let s = report_with_blocks("x", any_rows(), Some(bad), None);
        assert!(validate_report_str(&s).is_err());
    }

    #[test]
    fn profile_block_is_schema_checked() {
        let good = Json::Obj(vec![
            ("windows".into(), Json::Num(8.0)),
            ("drain_secs".into(), Json::Num(0.5)),
            ("commit_secs".into(), Json::Num(0.2)),
            ("barrier_secs".into(), Json::Num(0.0)),
            (
                "lane_busy_secs".into(),
                Json::Arr(vec![Json::Num(0.2), Json::Num(0.3)]),
            ),
        ]);
        let s = report_with_blocks("x", any_rows(), None, Some(good.clone()));
        validate_report_str(&s).expect("valid profile accepted");

        let bad = Json::Obj(vec![
            ("windows".into(), Json::Num(8.0)),
            ("drain_secs".into(), Json::Num(-1.0)),
            ("commit_secs".into(), Json::Num(0.2)),
            ("barrier_secs".into(), Json::Num(0.0)),
            ("lane_busy_secs".into(), Json::Arr(vec![])),
        ]);
        let s = report_with_blocks("x", any_rows(), None, Some(bad));
        assert!(validate_report_str(&s).unwrap_err().contains("drain_secs"));

        // The optional collect phase and window counts are checked when
        // present.
        let with_field = |key: &str, value: f64| {
            let Json::Obj(mut fields) = good.clone() else {
                unreachable!()
            };
            fields.push((key.into(), Json::Num(value)));
            report_with_blocks("x", any_rows(), None, Some(Json::Obj(fields)))
        };
        for key in ["collect_secs", "events", "active_shards"] {
            validate_report_str(&with_field(key, 0.1)).expect("optional field accepted");
            assert!(validate_report_str(&with_field(key, -0.1))
                .unwrap_err()
                .contains(key));
        }
    }

    #[test]
    fn partition_timeline_cross_check_derives_the_same_remerge() {
        // Heal at t=3; census returns to the target (5) at t=5 → derived
        // re-merge 2 s, matching the probe annotation.
        let tl = timeline_block(
            &[
                ("split_at_secs", 1.0),
                ("heal_at_secs", 3.0),
                ("heads_target", 5.0),
                ("remerge_secs_probe", 2.0),
            ],
            vec![
                sample(1.0, 5.0),
                sample(2.0, 9.0),
                sample(3.0, 9.0),
                sample(4.0, 8.0),
                sample(5.0, 5.0),
                sample(6.0, 5.0),
            ],
        );
        let s = report_with_blocks("partition", any_rows(), Some(tl), None);
        let doc = validate_report_str(&s).unwrap();
        assert_eq!(check_partition_timeline(&doc).unwrap(), Some(2.0));

        // A report without the block passes (legacy reports predate it).
        let s = report("partition", any_rows());
        let doc = validate_report_str(&s).unwrap();
        assert_eq!(check_partition_timeline(&doc).unwrap(), None);
    }

    #[test]
    fn partition_timeline_cross_check_rejects_disagreement() {
        // Derived re-merge is 2 s but the probe annotation claims 4 s.
        let tl = timeline_block(
            &[
                ("heal_at_secs", 3.0),
                ("heads_target", 5.0),
                ("remerge_secs_probe", 4.0),
            ],
            vec![sample(3.0, 9.0), sample(5.0, 5.0)],
        );
        let s = report_with_blocks("partition", any_rows(), Some(tl), None);
        assert!(validate_report_str(&s).unwrap_err().contains("disagrees"));

        // Census never returns to the target.
        let tl = timeline_block(
            &[
                ("heal_at_secs", 3.0),
                ("heads_target", 5.0),
                ("remerge_secs_probe", 2.0),
            ],
            vec![sample(3.0, 9.0), sample(5.0, 9.0)],
        );
        let s = report_with_blocks("partition", any_rows(), Some(tl), None);
        assert!(validate_report_str(&s)
            .unwrap_err()
            .contains("never returns"));
    }

    #[test]
    fn smoke_partition_timeline_is_cross_checked_by_the_schema() {
        // A smoke report gets no scenario gates, but its timeline is
        // still re-derived: the probe claims 4 s, the samples show 2 s.
        let tl = timeline_block(
            &[
                ("heal_at_secs", 3.0),
                ("heads_target", 5.0),
                ("remerge_secs_probe", 4.0),
            ],
            vec![sample(3.0, 9.0), sample(5.0, 5.0)],
        );
        let s = report_with_blocks("partition", any_rows(), Some(tl), None)
            .replace("\"smoke\": false", "\"smoke\": true");
        assert!(s.contains("\"smoke\": true"));
        let err = validate_report_str(&s).unwrap_err();
        assert!(
            err.contains("timeline cross-check") && err.contains("disagrees"),
            "{err}"
        );

        // Other scenarios' timelines carry no heal annotations and are
        // not cross-checked.
        let tl = timeline_block(&[], vec![sample(1.0, 5.0), sample(2.0, 4.0)]);
        let s = report_with_blocks("scale", any_rows(), Some(tl), None);
        validate_report_str(&s).expect("scale timeline needs no heal annotations");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_strict("{\"a\": 1,}").is_err());
        assert!(parse_strict("{\"a\": 1} extra").is_err());
        assert!(parse_strict("{\"a\": 01e}").is_err());
        assert!(parse_strict("\"unterminated").is_err());
        assert!(parse_strict("{\"a\": nul}").is_err());
        assert!(parse_strict("[1, 2,]").is_err());
    }

    #[test]
    fn schema_rejects_wrong_shapes() {
        // Not an object.
        assert!(validate_report_str("[1]").is_err());
        // Missing fields.
        assert!(validate_report_str("{\"scenario\": \"x\"}").is_err());
        // Unknown top-level key.
        let s = "{\"scenario\": \"x\", \"figure\": \"f\", \"summary\": \"s\", \"smoke\": false, \"threads\": 1, \"rows\": [], \"extra\": 1}";
        assert!(validate_report_str(s).is_err());
        // Missing threads field.
        let s = "{\"scenario\": \"x\", \"figure\": \"f\", \"summary\": \"s\", \"smoke\": false, \"rows\": [{\"sweep\": \"a\", \"label\": \"b\", \"proto\": \"c\", \"metrics\": {\"m\": 1}}]}";
        assert!(validate_report_str(s).unwrap_err().contains("threads"));
        // Zero and fractional thread counts are nonsense.
        for bad in ["0", "1.5", "-2", "true"] {
            let s = format!(
                "{{\"scenario\": \"x\", \"figure\": \"f\", \"summary\": \"s\", \"smoke\": false, \"threads\": {bad}, \"rows\": [{{\"sweep\": \"a\", \"label\": \"b\", \"proto\": \"c\", \"metrics\": {{\"m\": 1}}}}]}}"
            );
            assert!(validate_report_str(&s).unwrap_err().contains("threads"));
        }
        // Empty rows.
        let s = "{\"scenario\": \"x\", \"figure\": \"f\", \"summary\": \"s\", \"smoke\": false, \"threads\": 1, \"rows\": []}";
        assert!(validate_report_str(s).is_err());
        // Non-finite metric serializes as null and must be rejected.
        let s = report(
            "x",
            vec![Row::new("a", "b", "c", vec![("m".into(), f64::NAN)])],
        );
        assert!(validate_report_str(&s).is_err());
    }

    #[test]
    fn loss_gate_passes_and_fails_on_the_floor() {
        let ok = report(
            "loss",
            vec![Row::new(
                "frame-loss",
                "loss=0.15",
                "hvdb",
                vec![("delivery_worst".into(), 0.90 + 0.02)],
            )],
        );
        let doc = validate_report_str(&ok).unwrap();
        assert!(gates(&doc, "loss/frame-loss loss=0.15 ").is_ok());

        let bad = report(
            "loss",
            vec![Row::new(
                "frame-loss",
                "loss=0.15",
                "hvdb",
                vec![("delivery_worst".into(), 0.90 - 0.05)],
            )],
        );
        let doc = validate_report_str(&bad).unwrap();
        assert!(gates(&doc, "loss/frame-loss loss=0.15 ").is_err());

        // Missing gate row.
        let none = report(
            "loss",
            vec![Row::new(
                "frame-loss",
                "loss=0",
                "hvdb",
                vec![("delivery".into(), 1.0)],
            )],
        );
        let doc = validate_report_str(&none).unwrap();
        assert!(gates(&doc, "loss/frame-loss loss=0.15 ").is_err());
    }

    #[test]
    fn loss_gate_refuses_smoke_reports() {
        let mut rep = ScenarioReport {
            scenario: "loss".into(),
            figure: "f".into(),
            summary: "s".into(),
            smoke: true,
            threads: 1,
            workload: None,
            timeline: None,
            profile: None,
            rows: vec![Row::new(
                "frame-loss",
                "loss=0.15",
                "hvdb",
                vec![("delivery_worst".into(), 1.0)],
            )],
        };
        let doc = validate_report_str(&rep.to_json().to_string()).unwrap();
        assert!(gates(&doc, "loss/frame-loss loss=0.15 ").is_err());
        rep.smoke = false;
        let doc = validate_report_str(&rep.to_json().to_string()).unwrap();
        assert!(gates(&doc, "loss/frame-loss loss=0.15 ").is_ok());
    }

    fn overhead_report(fixed_refresh: f64, adaptive_refresh: f64, adaptive_total: f64) -> String {
        report(
            "overhead",
            vec![
                Row::new(
                    "churn",
                    "churn=0",
                    "hvdb-fixed",
                    vec![
                        ("refresh_frames_per_s".into(), fixed_refresh),
                        ("control_frames_per_s".into(), adaptive_total * 1.5),
                    ],
                ),
                Row::new(
                    "churn",
                    "churn=0",
                    "hvdb-adaptive",
                    vec![
                        ("refresh_frames_per_s".into(), adaptive_refresh),
                        ("control_frames_per_s".into(), adaptive_total),
                    ],
                ),
            ],
        )
    }

    #[test]
    fn overhead_gate_enforces_ratio_and_ceiling() {
        // 3x improvement, total under the ceiling: passes.
        let doc = validate_report_str(&overhead_report(600.0, 200.0, 700.0)).unwrap();
        let notes = gates(&doc, "overhead/").expect("gate passes");
        assert!(notes[0].ends_with("3.000 at churn=0"), "{notes:?}");
        assert!(notes[1].ends_with("700.000 at churn=0"), "{notes:?}");
        // Only 1.5x improvement: fails.
        let doc = validate_report_str(&overhead_report(300.0, 200.0, 700.0)).unwrap();
        assert!(gates(&doc, "overhead/").unwrap_err().contains("below"));
        // Ratio fine but total control traffic blew through the ceiling.
        let doc = validate_report_str(&overhead_report(9000.0, 200.0, 900.0 + 1.0)).unwrap();
        assert!(gates(&doc, "overhead/").unwrap_err().contains("ceiling"));
        // Missing quiet rows: fails loudly.
        let doc = validate_report_str(&report(
            "overhead",
            vec![Row::new(
                "churn",
                "churn=12",
                "hvdb-adaptive",
                vec![("refresh_frames_per_s".into(), 1.0)],
            )],
        ))
        .unwrap();
        assert!(gates(&doc, "overhead/").is_err());
    }

    #[test]
    fn overhead_gate_refuses_smoke() {
        let mut rep = overhead_report(600.0, 200.0, 700.0);
        rep = rep.replace("\"smoke\": false", "\"smoke\": true");
        let doc = validate_report_str(&rep).unwrap();
        assert!(gates(&doc, "overhead/").unwrap_err().contains("smoke"));
    }

    fn scale_row(delivery: f64, frames: f64) -> Row {
        Row::new(
            "network-size",
            "nodes=200",
            "hvdb",
            vec![
                ("delivery".into(), delivery),
                ("control_frames_per_s".into(), frames),
                ("latency_ms".into(), 17.0), // un-gated metric: free to move
            ],
        )
    }

    #[test]
    fn trajectory_gate_bands_delivery_and_overhead() {
        let baseline = validate_report_str(&report("scale", vec![scale_row(1.0, 500.0)])).unwrap();
        // Within both bands: passes with a summary line per checked row.
        let cand = validate_report_str(&report("scale", vec![scale_row(0.95, 540.0)])).unwrap();
        let summary = check_trajectory(&cand, &baseline).expect("within bands");
        assert_eq!(summary.len(), 2);
        // Delivery regressed past the band.
        let cand = validate_report_str(&report("scale", vec![scale_row(0.85, 500.0)])).unwrap();
        let err = check_trajectory(&cand, &baseline).unwrap_err();
        assert!(err.contains("delivery"), "{err}");
        // Overhead grew past the band.
        let cand = validate_report_str(&report("scale", vec![scale_row(1.0, 600.0)])).unwrap();
        let err = check_trajectory(&cand, &baseline).unwrap_err();
        assert!(err.contains("control_frames_per_s"), "{err}");
        // A baseline row vanishing from the candidate is a failure, not a
        // silent skip.
        let other = Row::new(
            "network-size",
            "nodes=400",
            "hvdb",
            vec![("delivery".into(), 1.0)],
        );
        let cand = validate_report_str(&report("scale", vec![other])).unwrap();
        let err = check_trajectory(&cand, &baseline).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn trajectory_gate_collects_every_violation() {
        let baseline = validate_report_str(&report("scale", vec![scale_row(1.0, 500.0)])).unwrap();
        let cand = validate_report_str(&report("scale", vec![scale_row(0.5, 900.0)])).unwrap();
        let err = check_trajectory(&cand, &baseline).unwrap_err();
        assert!(
            err.contains("delivery") && err.contains("control_frames_per_s"),
            "{err}"
        );
    }

    fn loss_row(point: &str, worst: f64) -> Row {
        Row::new(
            "frame-loss",
            point,
            "hvdb",
            vec![("delivery_worst".into(), worst)],
        )
    }

    #[test]
    fn loss_high_band_gates_both_points() {
        let ok = report(
            "loss",
            vec![loss_row("loss=0.25", 0.95), loss_row("loss=0.3", 0.94)],
        );
        let doc = validate_report_str(&ok).unwrap();
        let band = gates(&doc, "loss/frame-loss loss=0.25|loss=0.3 ").expect("band holds");
        assert!(
            band[0].ends_with("0.950 at loss=0.25, 0.940 at loss=0.3"),
            "{band:?}"
        );
        // One point under the band fails.
        let bad = report(
            "loss",
            vec![
                loss_row("loss=0.25", 0.95),
                loss_row("loss=0.3", 0.93 - 0.01),
            ],
        );
        let doc = validate_report_str(&bad).unwrap();
        assert!(gates(&doc, "loss/frame-loss loss=0.25|loss=0.3 ")
            .unwrap_err()
            .contains("0.920 at loss=0.3 is below"));
        // A missing point fails loudly instead of silently passing.
        let partial = report("loss", vec![loss_row("loss=0.25", 0.99)]);
        let doc = validate_report_str(&partial).unwrap();
        assert!(gates(&doc, "loss/frame-loss loss=0.25|loss=0.3 ")
            .unwrap_err()
            .contains("no hvdb frame-loss row"));
    }

    fn traffic_row(pps: f64, proto: &str, delivery: f64, p99_ms: f64) -> Row {
        Row::new(
            "offered-load",
            format!("pps={pps}"),
            proto,
            vec![("delivery".into(), delivery), ("p99_ms".into(), p99_ms)],
        )
    }

    /// A traffic report where hvdb knees at `hvdb_knee` pps and both
    /// baselines knee at `base_knee` pps, over the standard sweep.
    fn traffic_report(hvdb_knee: f64, base_knee: f64) -> String {
        let sweep = [20.0, 80.0, 160.0, 320.0, 640.0];
        let mut rows = Vec::new();
        for &pps in &sweep {
            for proto in ["hvdb", "flooding", "shared-tree"] {
                let k = if proto == "hvdb" {
                    hvdb_knee
                } else {
                    base_knee
                };
                let (d, p99) = if pps <= k {
                    (0.99, 40.0)
                } else {
                    (0.4, 2_000.0)
                };
                rows.push(traffic_row(pps, proto, d, p99));
            }
        }
        report("traffic", rows)
    }

    #[test]
    fn traffic_gate_enforces_knee_ordering() {
        // hvdb knees at 320, baselines at 80: passes, knee reported.
        let doc = validate_report_str(&traffic_report(320.0, 80.0)).unwrap();
        let notes = gates(&doc, "traffic/").expect("gate passes");
        assert!(
            notes[0].ends_with("knees hvdb 320, flooding 80, shared-tree 80"),
            "{notes:?}"
        );
        assert!(notes[2].ends_with("40.000 at pps=160"), "{notes:?}");
        // Baselines sustain as much as hvdb: fails (strict ordering).
        let doc = validate_report_str(&traffic_report(320.0, 320.0)).unwrap();
        assert!(gates(&doc, "traffic/").unwrap_err().contains("out-sustain"));
        // hvdb knees below a baseline: fails.
        let doc = validate_report_str(&traffic_report(80.0, 160.0)).unwrap();
        assert!(gates(&doc, "traffic/").is_err());
    }

    #[test]
    fn traffic_knee_uses_prefix_semantics() {
        // hvdb "recovers" at 640 after failing at 320: the knee must
        // still be 160, and with baselines at 160 the gate fails.
        let mut rows = Vec::new();
        for &(pps, d, p99) in &[
            (20.0, 0.99, 30.0),
            (160.0, 0.97, 50.0),
            (320.0, 0.50, 900.0),
            (640.0, 0.95, 60.0), // past-saturation fluke
        ] {
            rows.push(traffic_row(pps, "hvdb", d, p99));
            let (bd, bp) = if pps <= 160.0 {
                (0.95, 45.0)
            } else {
                (0.3, 3_000.0)
            };
            rows.push(traffic_row(pps, "flooding", bd, bp));
            rows.push(traffic_row(pps, "shared-tree", bd, bp));
        }
        let doc = validate_report_str(&report("traffic", rows)).unwrap();
        let err = gates(&doc, "traffic/").unwrap_err();
        assert!(err.contains("160"), "{err}");
    }

    #[test]
    fn traffic_gate_checks_p99_band_and_refuses_smoke() {
        // Reference-point p99 outside the band: fails even with the knee
        // ordering intact.
        let sweep = [20.0, 80.0, 160.0, 320.0, 640.0];
        let mut rows = Vec::new();
        for &pps in &sweep {
            let p99 = if pps == 160.0 { 60.0 + 1.0 } else { 40.0 };
            rows.push(traffic_row(pps, "hvdb", 0.99, p99));
            let (bd, bp) = if pps <= 80.0 {
                (0.95, 45.0)
            } else {
                (0.3, 3_000.0)
            };
            rows.push(traffic_row(pps, "flooding", bd, bp));
            rows.push(traffic_row(pps, "shared-tree", bd, bp));
        }
        let doc = validate_report_str(&report("traffic", rows)).unwrap();
        let err = gates(&doc, "traffic/").unwrap_err();
        assert!(
            err.contains("p99_ms <= 60") && err.contains("ceiling"),
            "{err}"
        );
        // Smoke reports are refused outright.
        let smoke = traffic_report(320.0, 80.0).replace("\"smoke\": false", "\"smoke\": true");
        let doc = validate_report_str(&smoke).unwrap();
        assert!(gates(&doc, "traffic/").unwrap_err().contains("smoke"));
        // Missing baseline rows fail loudly.
        let hvdb_only = report("traffic", vec![traffic_row(20.0, "hvdb", 0.99, 30.0)]);
        let doc = validate_report_str(&hvdb_only).unwrap();
        assert!(gates(&doc, "traffic/").unwrap_err().contains("flooding"));
    }

    fn threads_row(threads: u64, eps: f64, events: f64, hw: f64) -> Row {
        Row::new(
            "engine-threads",
            format!("threads={threads}"),
            "par-flood",
            vec![
                ("events_per_s".into(), eps),
                ("events_processed".into(), events),
                ("hardware_threads".into(), hw),
            ],
        )
    }

    #[test]
    fn threads_gate_enforces_speedup_on_capable_machines() {
        // 4 threads on a 4-core box at 2.5x: enforced and passing.
        let rep = report(
            "perf",
            vec![
                threads_row(1, 1e6, 5e6, 4.0),
                threads_row(4, 2.5e6, 5e6, 4.0),
            ],
        );
        let doc = validate_report_str(&rep).unwrap();
        let notes = gates(&doc, "perf/").expect("passes");
        assert!(
            notes[1].ends_with("2.50x at threads=4 (floor 2)"),
            "{notes:?}"
        );
        // Below the floor on a capable machine: fails.
        let rep = report(
            "perf",
            vec![
                threads_row(1, 1e6, 5e6, 4.0),
                threads_row(4, 1.5e6, 5e6, 4.0),
            ],
        );
        let doc = validate_report_str(&rep).unwrap();
        assert!(gates(&doc, "perf/").unwrap_err().contains("below"));
    }

    #[test]
    fn threads_gate_skips_speedup_without_hardware_parallelism() {
        // Same sub-floor ratio, but only 1 hardware thread: the speedup
        // half is waived (timesliced threads measure nothing)...
        let rep = report(
            "perf",
            vec![
                threads_row(1, 1e6, 5e6, 1.0),
                threads_row(4, 0.9e6, 5e6, 1.0),
            ],
        );
        let doc = validate_report_str(&rep).unwrap();
        let notes = gates(&doc, "perf/").expect("waived");
        assert!(notes[1].contains("waived"), "{notes:?}");
        // ...but the determinism half never is.
        let rep = report(
            "perf",
            vec![
                threads_row(1, 1e6, 5e6, 1.0),
                threads_row(4, 0.9e6, 5e6 + 1.0, 1.0),
            ],
        );
        let doc = validate_report_str(&rep).unwrap();
        assert!(gates(&doc, "perf/").unwrap_err().contains("diverged"));
    }

    #[test]
    fn threads_gate_requires_both_rows() {
        let rep = report("perf", vec![threads_row(4, 2.5e6, 5e6, 4.0)]);
        let doc = validate_report_str(&rep).unwrap();
        assert!(gates(&doc, "perf/").is_err());
        // Two rows but no threads=1 baseline.
        let rep = report(
            "perf",
            vec![threads_row(2, 1e6, 5e6, 4.0), threads_row(4, 2e6, 5e6, 4.0)],
        );
        let doc = validate_report_str(&rep).unwrap();
        assert!(gates(&doc, "perf/").unwrap_err().contains("baseline"));
    }

    #[test]
    fn scale_campaign_row_is_skipped_on_smoke_reports() {
        let rows = || {
            let par = |t: u64| {
                let events = vec![("events_processed".into(), 5e6)];
                Row::new("engine-threads", format!("threads={t}"), "hvdb-par", events)
            };
            let small = Row::new(
                "network-size",
                "nodes=30",
                "hvdb",
                vec![("delivery".into(), 1.0)],
            );
            vec![par(1), par(4), small]
        };
        // Smoke: thread invariance is checked, the campaign point is not.
        let smoke = report("scale", rows()).replace("\"smoke\": false", "\"smoke\": true");
        let doc = validate_report_str(&smoke).unwrap();
        assert_eq!(gates(&doc, "scale/").expect("smoke passes").len(), 2);
        // A full report must carry the campaign point.
        let doc = validate_report_str(&report("scale", rows())).unwrap();
        assert!(gates(&doc, "scale/")
            .unwrap_err()
            .contains("no hvdb-par network-size row at nodes>=20000"));
    }

    #[test]
    fn schema_accepts_optional_workload_block() {
        // A workload object between threads and rows validates...
        let s = "{\"scenario\": \"partition\", \"figure\": \"f\", \"summary\": \"s\", \
                  \"smoke\": false, \"threads\": 1, \
                  \"workload\": {\"fault_plan\": [{\"at_us\": 1, \"kind\": \"heal\"}]}, \
                  \"rows\": [{\"sweep\": \"a\", \"label\": \"b\", \"proto\": \"c\", \
                  \"metrics\": {\"m\": 1}}]}";
        validate_report_str(s).expect("workload block accepted");
        // ...but only as an object.
        let s = s.replace(
            "{\"fault_plan\": [{\"at_us\": 1, \"kind\": \"heal\"}]}",
            "\"oops\"",
        );
        assert!(validate_report_str(&s).unwrap_err().contains("workload"));
    }

    fn partition_rows(reachable_worst: f64, remerge_worst: f64) -> Vec<Row> {
        vec![
            Row::new(
                "partition",
                "phase=partition",
                "hvdb",
                vec![("delivery_reachable_steady_worst".into(), reachable_worst)],
            ),
            Row::new(
                "partition",
                "phase=healed",
                "hvdb",
                vec![("remerge_secs_worst".into(), remerge_worst)],
            ),
        ]
    }

    #[test]
    fn partition_gate_enforces_floor_and_remerge_budget() {
        let ok = report("partition", partition_rows(0.99, 10.0));
        let doc = validate_report_str(&ok).unwrap();
        // One note per gate row (the timeline cross-check is part of the
        // schema check, and this synthetic report has no timeline).
        assert_eq!(gates(&doc, "partition/").expect("passes").len(), 2);
        // Reachable delivery under the floor.
        let bad = report("partition", partition_rows(0.95 - 0.01, 10.0));
        let doc = validate_report_str(&bad).unwrap();
        assert!(gates(&doc, "partition/")
            .unwrap_err()
            .contains("0.940 at phase=partition is below"));
        // Re-merge over budget.
        let bad = report("partition", partition_rows(0.99, 15.0 + 1.0));
        let doc = validate_report_str(&bad).unwrap();
        let err = gates(&doc, "partition/").unwrap_err();
        assert!(
            err.contains("remerge_secs_worst <= 15") && err.contains("exceeds"),
            "{err}"
        );
        // Missing rows fail loudly; smoke is refused.
        let none = report("partition", partition_rows(0.99, 10.0)[..1].to_vec());
        let doc = validate_report_str(&none).unwrap();
        assert!(gates(&doc, "partition/")
            .unwrap_err()
            .contains("no hvdb partition row at phase=healed"));
        let smoke = report("partition", partition_rows(0.99, 10.0))
            .replace("\"smoke\": false", "\"smoke\": true");
        let doc = validate_report_str(&smoke).unwrap();
        assert!(gates(&doc, "partition/").unwrap_err().contains("smoke"));
    }

    fn byz_row(k: u64, damage: f64) -> Row {
        Row::new(
            "byzantine",
            format!("byz={k}"),
            "hvdb",
            vec![
                ("delivery".into(), 0.99 - damage * k as f64),
                ("damage_per_node".into(), damage),
            ],
        )
    }

    #[test]
    fn byzantine_gate_bounds_damage_per_node() {
        let ok = report("byzantine", vec![byz_row(0, 0.0), byz_row(2, 0.01)]);
        let doc = validate_report_str(&ok).unwrap();
        assert_eq!(gates(&doc, "byzantine/").expect("passes").len(), 2);
        // One row over the ceiling fails.
        let bad = report(
            "byzantine",
            vec![byz_row(0, 0.0), byz_row(1, 0.01), byz_row(4, 0.05 + 0.01)],
        );
        let doc = validate_report_str(&bad).unwrap();
        assert!(gates(&doc, "byzantine/")
            .unwrap_err()
            .contains("0.060 at byz=4 exceeds"));
        // Missing k=0 control fails loudly.
        let none = report("byzantine", vec![byz_row(2, 0.01)]);
        let doc = validate_report_str(&none).unwrap();
        assert!(gates(&doc, "byzantine/")
            .unwrap_err()
            .contains("no hvdb byzantine row at byz=0"));
        // No gated rows at all fails (k=0 alone proves nothing).
        let only_control = report("byzantine", vec![byz_row(0, 0.0)]);
        let doc = validate_report_str(&only_control).unwrap();
        assert!(gates(&doc, "byzantine/").is_err());
        // Smoke refused.
        let smoke = report("byzantine", vec![byz_row(0, 0.0), byz_row(2, 0.01)])
            .replace("\"smoke\": false", "\"smoke\": true");
        let doc = validate_report_str(&smoke).unwrap();
        assert!(gates(&doc, "byzantine/").unwrap_err().contains("smoke"));
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let s = report(
            "üñí-ödé \"x\"\n",
            vec![Row::new("a", "b", "c", vec![("m".into(), 1.5)])],
        );
        let doc = validate_report_str(&s).expect("valid");
        let Json::Obj(fields) = &doc else { panic!() };
        let (_, Json::Str(name)) = &fields[0] else {
            panic!()
        };
        assert_eq!(name, "üñí-ödé \"x\"\n");
    }

    /// The committed report of `scenario` at the repository root.
    fn committed(scenario: &str) -> Json {
        let path = format!("{}/../../BENCH_{scenario}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        validate_report_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// Applies `edit` to the metric map of every row at `(sweep, label,
    /// proto)`; `None` for `label` means every label.
    fn edit_rows(
        doc: &mut Json,
        sweep: &str,
        label: Option<&str>,
        proto: &str,
        edit: impl Fn(&mut Vec<(String, Json)>),
    ) {
        let Json::Obj(fields) = doc else { panic!() };
        let Some((_, Json::Arr(rows))) = fields.iter_mut().find(|(k, _)| k == "rows") else {
            panic!()
        };
        for row in rows {
            let Json::Obj(rf) = row else { panic!() };
            let is = |key: &str, want: &str| {
                rf.iter()
                    .any(|(k, v)| k == key && matches!(v, Json::Str(s) if s == want))
            };
            if is("sweep", sweep) && label.is_none_or(|l| is("label", l)) && is("proto", proto) {
                let Some((_, Json::Obj(metrics))) = rf.iter_mut().find(|(k, _)| k == "metrics")
                else {
                    panic!()
                };
                edit(metrics);
            }
        }
    }

    fn set_metric(doc: &mut Json, g: &Gate, label: &str, metric: &str, value: f64) {
        edit_rows(doc, g.sweep, Some(label), g.proto, |m| {
            m.iter_mut()
                .find(|(k, _)| k == metric)
                .expect("metric present")
                .1 = Json::Num(value)
        });
    }

    /// The printed rows of the gates failing on `doc`.
    fn failing(doc: &Json) -> Vec<String> {
        check_gates(doc)
            .into_iter()
            .filter_map(Result::err)
            .collect()
    }

    #[test]
    fn every_committed_report_passes_schema_and_gates() {
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        let mut scenarios = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let Some(scenario) = name
                .strip_prefix("BENCH_")
                .and_then(|n| n.strip_suffix(".json"))
            else {
                continue;
            };
            let doc = committed(scenario);
            let verdicts = check_gates(&doc);
            let rows = GATES.iter().filter(|g| g.scenario == scenario).count();
            assert_eq!(verdicts.len(), rows, "{name}");
            for v in verdicts {
                assert!(v.is_ok(), "{name}: {v:?}");
            }
            scenarios.push(scenario.to_string());
        }
        // Every gated scenario has a committed report to hold it.
        for g in GATES {
            assert!(scenarios.iter().any(|s| s == g.scenario), "{g}");
        }
    }

    /// Each gate row, on its committed report: its value moved onto the
    /// bound passes, moved just past the bound fails that row alone.
    #[test]
    fn nudging_a_gated_value_past_its_bound_fails_that_row() {
        for g in GATES {
            let doc = committed(g.scenario);
            let rows = report_rows(&doc).unwrap();
            let pts = g.points(&rows, g.proto).unwrap();
            let (first, last) = (&pts[0], pts.last().unwrap());
            let near = |b: f64, dir: f64| b + dir * 1e-9 * b.abs().max(1.0);
            let (mut ok, mut bad) = (doc.clone(), doc.clone());
            let (label, on, past) = match g.rule {
                Rule::Min(b) => (first.label, b, near(b, -1.0)),
                Rule::Max(b) => (first.label, b, near(b, 1.0)),
                Rule::RatioMin { over, min } => {
                    let den = g.points(&rows, over).unwrap()[0].get(g.metric).unwrap();
                    (first.label, near(den * min, 1.0), near(den * min, -1.0))
                }
                Rule::Equal => {
                    let v = first.get(g.metric).unwrap();
                    (last.label, v, v + 1.0)
                }
                Rule::Speedup { full, .. } => {
                    // Lift the waiver so the floor is enforced.
                    for doc in [&mut ok, &mut bad] {
                        edit_rows(doc, g.sweep, None, g.proto, |m| {
                            for (k, v) in m.iter_mut() {
                                if k == "hardware_threads" {
                                    *v = Json::Num(SPEEDUP_MIN_THREADS);
                                }
                            }
                        });
                    }
                    let base = first.get(g.metric).unwrap() * full;
                    (last.label, near(base, 1.0), near(base, -1.0))
                }
                // The arm's highest sustained point drops out of the knee.
                Rule::KneeAbove { min, .. } => (last.label, min, near(min, -1.0)),
            };
            set_metric(&mut ok, g, label, g.metric, on);
            set_metric(&mut bad, g, label, g.metric, past);
            assert!(g.check(&ok).is_ok(), "{g}: {:?}", g.check(&ok));
            assert!(failing(&ok).is_empty(), "{g}: {:?}", failing(&ok));
            let fails = failing(&bad);
            assert_eq!(fails.len(), 1, "{g}: {fails:?}");
            assert!(fails[0].starts_with(&format!("{g}: ")), "{g}: {fails:?}");
        }
    }

    /// `list --json` prints [`Gate::reads`] as the gated metrics; each one
    /// must really be read: deleting it from the committed report fails.
    #[test]
    fn every_metric_a_gate_reads_is_load_bearing() {
        for g in GATES {
            for metric in g.reads() {
                let mut doc = committed(g.scenario);
                edit_rows(&mut doc, g.sweep, None, g.proto, |m| {
                    m.retain(|(k, _)| k != metric)
                });
                assert!(
                    failing(&doc)
                        .iter()
                        .any(|f| f.starts_with(&format!("{g}: "))),
                    "{g}: deleting {metric} passes"
                );
            }
        }
    }
}
