//! Strict validation of `BENCH_<scenario>.json` reports, plus the
//! regression gates CI enforces on them.
//!
//! The report writer is hand-rolled (offline workspace), so nothing may
//! trust it blindly: [`parse_strict`] is a strict recursive-descent JSON
//! parser (no trailing garbage, no bad escapes, no bare control chars),
//! and [`validate_report_str`] layers the exact report schema on top —
//! the six top-level fields with their types, every row fully typed,
//! finite metrics only, no unknown keys. The CLI (`hvdb-bench validate`,
//! and `run`'s post-write check) and the test suite share this code, so
//! a malformed report can neither land in CI artifacts nor be committed
//! unnoticed.
//!
//! [`check_loss_floor`] is the robustness regression gate: the committed
//! delivery floor for the `loss` scenario's worst seed at the
//! [`LOSS_GATE_POINT`] operating point.

use crate::report::Json;

/// The committed robustness floor: worst-seed mean delivery of the `loss`
/// scenario at [`LOSS_GATE_POINT`] must not drop below this (PR 1's
/// baseline was ~0.65; the soft-state control plane lifts it above 0.90,
/// and CI fails any change that regresses it).
pub const LOSS_DELIVERY_FLOOR: f64 = 0.90;

/// The `loss` sweep point the floor applies to (15% frame loss).
pub const LOSS_GATE_POINT: &str = "loss=0.15";

/// The committed floor band for the *high*-loss regime: worst-seed
/// delivery at every [`LOSS_HIGH_POINTS`] point must stay at or above
/// this (PR 3 measured 0.969 at 25% and 0.953 at 30%; the band keeps
/// the whole ≥25% regime from silently eroding while the 15% point
/// stays green).
pub const LOSS_HIGH_FLOOR: f64 = 0.93;

/// The `loss` sweep points gated by [`LOSS_HIGH_FLOOR`].
pub const LOSS_HIGH_POINTS: [&str; 2] = ["loss=0.25", "loss=0.3"];

/// The `perf` scenario's committed speedup floor: shared-frame delivery
/// must process events at least this many times faster than the legacy
/// per-receiver-clone arm at the largest node count both arms ran (the
/// committed full run measures ~3x at 600+ nodes; the gate's margin
/// absorbs shared-runner wall-clock noise). CI's `perf-smoke` job passes
/// a lower floor for its shrunk workload via `--perf-floor`.
pub const PERF_SPEEDUP_FLOOR: f64 = 2.0;

/// The `perf` scenario's parallel-engine speedup floor: the
/// `engine-threads` arm's multi-thread row must process events at least
/// this many times faster than its single-thread row — *when the machine
/// can actually run the threads* (see [`check_perf_threads_gate`]; on a
/// box with fewer than 4 hardware threads only the determinism half of
/// the gate is enforced, because a timesliced "speedup" measures nothing).
pub const PERF_THREADS_SPEEDUP_FLOOR: f64 = 2.0;

/// The `overhead` scenario's gated operating point: the quiet phase (no
/// membership churn), where the adaptive refresh controller must earn
/// its keep.
pub const OVERHEAD_QUIET_POINT: &str = "churn=0";

/// Quiet-phase improvement floor: the fixed-rate baseline's
/// refresh-plane frames/s divided by the adaptive controller's must be
/// at least this (the committed run measures ~3.2x; the gate keeps the
/// headline ≥2x claim honest).
pub const OVERHEAD_QUIET_IMPROVEMENT: f64 = 2.0;

/// Absolute ceiling on the adaptive controller's quiet-phase *total*
/// control frames/s on the `overhead` workload (committed run: ~719;
/// the PR 2 fixed rate burned ~1132). Fails any change that quietly
/// re-inflates the control plane even if the relative gate still passes.
pub const OVERHEAD_CEILING_FRAMES_PER_S: f64 = 900.0;

/// The `traffic` scenario's knee rule, delivery half: an offered-load
/// point is *sustained* only while mean delivery stays at or above this.
pub const TRAFFIC_KNEE_DELIVERY_FLOOR: f64 = 0.90;

/// The `traffic` knee rule, latency half: an offered-load point whose
/// p99 latency exceeds half a second is past the knee even if delivery
/// has not collapsed yet (queues saturated; packets ride the cooldown
/// out).
pub const TRAFFIC_KNEE_P99_CEILING_MS: f64 = 500.0;

/// Baselines HVDB must out-sustain in the `traffic` sweep.
pub const TRAFFIC_BASELINE_PROTOS: [&str; 2] = ["flooding", "shared-tree"];

/// The pre-knee operating point whose HVDB p99 latency is band-gated.
pub const TRAFFIC_P99_REFERENCE_POINT: &str = "pps=160";

/// Committed HVDB p99 band (ms) at [`TRAFFIC_P99_REFERENCE_POINT`]: the
/// run is deterministic, so drift outside this band means the data path
/// or the radio model changed. The committed run measures ~29 ms; the
/// band gives 2x headroom either way for deliberate retuning.
pub const TRAFFIC_P99_BAND_MS: (f64, f64) = (10.0, 60.0);

/// Bench-trajectory tolerance: a candidate row's `delivery` may fall at
/// most this fraction below the committed baseline's.
pub const TRAJECTORY_DELIVERY_TOLERANCE: f64 = 0.10;

/// Bench-trajectory tolerance: a candidate row's overhead metrics
/// ([`OVERHEAD_GATED_METRICS`]) may grow at most this fraction over the
/// committed baseline's.
pub const TRAJECTORY_OVERHEAD_TOLERANCE: f64 = 0.15;

/// The per-row metrics the trajectory comparison treats as overhead
/// (lower is better, growth is gated). `memory_per_node_bytes` is the
/// `scale` scenario's footprint column: deterministic content-byte
/// estimates, so a growth past the band is a real per-node state
/// regression, not allocator noise.
pub const OVERHEAD_GATED_METRICS: [&str; 4] = [
    "control_frames_per_s",
    "control_bytes_per_node",
    "refresh_frames_per_s",
    "memory_per_node_bytes",
];

/// Minimum delivery ratio the `scale` scenario's largest parallel-engine
/// point must sustain ([`check_scale_gate`]).
pub const SCALE_DELIVERY_FLOOR: f64 = 0.99;

/// The `scale` delivery gate applies from this node count up: the 100k
/// scale campaign's first enforced milestone is "delivery holds at 20k".
pub const SCALE_GATE_MIN_NODES: u64 = 20_000;

/// The `partition` scenario's steady-state delivery floor *among
/// reachable nodes*: once each island has had the settle interval to
/// re-grow its half of the backbone, worst-seed delivery to receivers in
/// the sender's own island must stay at or above this. Cross-island
/// traffic is physically impossible during the split and is excluded —
/// the gate asserts the protocol keeps serving whatever the radio still
/// permits, per the paper's partition-tolerance claim. (The cut
/// transient itself is reported as `delivery_reachable` but not gated:
/// re-election takes tens of seconds by design.)
pub const PARTITION_REACHABLE_DELIVERY_FLOOR: f64 = 0.95;

/// The `partition` scenario's re-merge budget (seconds): after the heal,
/// the worst seed's cluster-head census must fall back to its
/// pre-partition level within this long (the committed full run measures
/// re-merge in ~5 s; the budget gives soft-state expiry headroom).
pub const PARTITION_REMERGE_BUDGET_SECS: f64 = 15.0;

/// The `byzantine` scenario's damage ceiling: mean delivery lost per
/// misbehaving node, `(delivery(k=0) - delivery(k)) / k`, must stay at
/// or below this at every injected count k > 0. Bounds the blast radius
/// of one adversarial node on the multicast plane.
pub const BYZANTINE_DAMAGE_PER_NODE: f64 = 0.05;

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

/// Validates `input` as a complete scenario report: strict JSON plus the
/// exact report schema. Returns the parsed document for further checks.
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
/// no unknown top-level or row keys, rows non-empty, metrics finite.
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
/// non-negativity are checked — never magnitudes. `collect_secs` is
/// optional: reports written before the collect phase was timed lack it.
fn validate_profile(v: &Json) -> Result<(), String> {
    let fields = obj_fields(v)?;
    let collect = fields
        .iter()
        .any(|(k, _)| k == "collect_secs")
        .then_some("collect_secs");
    for key in ["windows", "drain_secs", "commit_secs", "barrier_secs"]
        .into_iter()
        .chain(collect)
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
    let fields = obj_fields(doc)?;
    let Some((_, tl)) = fields.iter().find(|(k, _)| k == "timeline") else {
        return Ok(None);
    };
    let tf = obj_fields(tl)?;
    let num = |key: &str| -> Result<f64, String> {
        match field(tf, key)? {
            Json::Num(n) => Ok(*n),
            other => Err(format!("timeline {key}: expected number, got {other:?}")),
        }
    };
    let heal_at = num("heal_at_secs")?;
    let target = num("heads_target")?;
    let measured = num("remerge_secs_probe")?;
    let Json::Arr(samples) = field(tf, "samples")? else {
        return Err("timeline samples: expected array".into());
    };
    let mut derived = None;
    for s in samples {
        let sf = obj_fields(s)?;
        let (Ok(Json::Num(t)), Ok(Json::Num(heads))) = (field(sf, "t_secs"), field(sf, "heads"))
        else {
            return Err("timeline sample missing t_secs/heads".into());
        };
        if *t > heal_at && *heads <= target {
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

/// The metrics CI gates read for a given scenario, for tooling
/// (`hvdb-bench list --json`) and the job matrix. Scenarios not listed
/// here are schema-validated only.
pub fn gated_metrics(scenario: &str) -> &'static [&'static str] {
    match scenario {
        "loss" => &["delivery_worst"],
        "overhead" => &["refresh_frames_per_s", "control_frames_per_s"],
        "perf" => &["events_per_s", "events_processed"],
        "traffic" => &["delivery", "p99_ms"],
        "scale" => &["delivery", "events_processed"],
        "partition" => &[
            "delivery_reachable_steady_worst",
            "remerge_secs_worst",
            "drops_partitioned",
        ],
        "byzantine" => &["damage_per_node"],
        _ => &[],
    }
}

/// Reads a metric from the row matching `(sweep, label, proto)`.
pub fn metric_of(doc: &Json, sweep: &str, label: &str, proto: &str, metric: &str) -> Option<f64> {
    let fields = obj_fields(doc).ok()?;
    let Json::Arr(rows) = field(fields, "rows").ok()? else {
        return None;
    };
    for row in rows {
        let rf = obj_fields(row).ok()?;
        let matches =
            |key: &str, want: &str| matches!(field(rf, key), Ok(Json::Str(s)) if s == want);
        if matches("sweep", sweep) && matches("label", label) && matches("proto", proto) {
            if let Ok(Json::Obj(metrics)) = field(rf, "metrics") {
                if let Some((_, Json::Num(n))) = metrics.iter().find(|(k, _)| k == metric) {
                    return Some(*n);
                }
            }
        }
    }
    None
}

/// The CI regression gate over a validated `loss` report: worst-seed
/// delivery at [`LOSS_GATE_POINT`] must be at least `floor`. Refuses
/// smoke reports (their numbers are meaningless) and missing gate rows.
pub fn check_loss_floor(doc: &Json, floor: f64) -> Result<f64, String> {
    let fields = obj_fields(doc)?;
    if matches!(field(fields, "smoke")?, Json::Bool(true)) {
        return Err(
            "loss gate needs a full run, not --smoke (smoke numbers are meaningless)".into(),
        );
    }
    let worst = metric_of(doc, "frame-loss", LOSS_GATE_POINT, "hvdb", "delivery_worst")
        .ok_or_else(|| {
            format!("no hvdb frame-loss row at {LOSS_GATE_POINT} with a delivery_worst metric")
        })?;
    if worst < floor {
        return Err(format!(
            "worst-seed delivery {worst:.3} at {LOSS_GATE_POINT} is below the committed floor {floor:.2}"
        ));
    }
    Ok(worst)
}

/// The high-loss regression band over a validated `loss` report: every
/// [`LOSS_HIGH_POINTS`] row's worst-seed delivery must be at least
/// [`LOSS_HIGH_FLOOR`]. Missing rows fail loudly (a gate that cannot
/// find its point must not wave the report through). Refuses smoke
/// reports. Returns the checked `(point, worst)` pairs.
pub fn check_loss_high_band(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    let fields = obj_fields(doc)?;
    if matches!(field(fields, "smoke")?, Json::Bool(true)) {
        return Err(
            "loss gate needs a full run, not --smoke (smoke numbers are meaningless)".into(),
        );
    }
    let mut checked = Vec::new();
    for point in LOSS_HIGH_POINTS {
        let worst =
            metric_of(doc, "frame-loss", point, "hvdb", "delivery_worst").ok_or_else(|| {
                format!("no hvdb frame-loss row at {point} with a delivery_worst metric")
            })?;
        if worst < LOSS_HIGH_FLOOR {
            return Err(format!(
                "worst-seed delivery {worst:.3} at {point} is below the committed \
                 high-loss floor {LOSS_HIGH_FLOOR:.2}"
            ));
        }
        checked.push((point.to_string(), worst));
    }
    Ok(checked)
}

/// The `perf` scenario's throughput gate: at the largest node count both
/// delivery arms ran, shared-frame delivery must be at least `floor`
/// times faster (events/s) than the per-receiver-clone arm — and both
/// arms must have processed **exactly** the same number of events, which
/// is what makes the ratio a pure wall-clock speedup (a mismatch means
/// the legacy emulation diverged from the shared path and the whole
/// comparison is void). Smoke reports are allowed: `perf --smoke` runs a
/// shrunk-but-real workload (tens of simulated seconds), unlike the
/// millisecond pipelines other scenarios smoke with — callers pass a
/// lower `floor` for it. Returns `(gated label, measured speedup)`.
pub fn check_perf_gate(doc: &Json, floor: f64) -> Result<(String, f64), String> {
    let rows = report_rows(doc)?;
    let nodes_of =
        |label: &str| -> Option<u64> { label.strip_prefix("nodes=").and_then(|n| n.parse().ok()) };
    let find = |label: &str, proto: &str, metric: &str| -> Option<f64> {
        rows.iter()
            .find(|(s, l, p, _)| s == "delivery-mode" && l == label && p == proto)
            .and_then(|(.., m)| m.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
    };
    let gate_label = rows
        .iter()
        .filter(|(s, _, p, _)| s == "delivery-mode" && p == "hvdb-cloned")
        .filter_map(|(_, l, ..)| nodes_of(l).map(|n| (n, l.clone())))
        .filter(|(_, l)| find(l, "hvdb-shared", "events_per_s").is_some())
        .max_by_key(|(n, _)| *n)
        .map(|(_, l)| l)
        .ok_or("no delivery-mode row present for both hvdb-shared and hvdb-cloned")?;
    let read = |proto: &str, metric: &str| -> Result<f64, String> {
        find(&gate_label, proto, metric)
            .ok_or_else(|| format!("no {proto} row at {gate_label} with a {metric} metric"))
    };
    let shared_events = read("hvdb-shared", "events_processed")?;
    let cloned_events = read("hvdb-cloned", "events_processed")?;
    if shared_events != cloned_events {
        return Err(format!(
            "delivery arms diverged at {gate_label}: shared processed {shared_events:.0} \\
             events, cloned {cloned_events:.0} — not a byte-identical workload"
        ));
    }
    let shared = read("hvdb-shared", "events_per_s")?;
    let cloned = read("hvdb-cloned", "events_per_s")?;
    if cloned <= 0.0 {
        return Err("cloned-arm events_per_s is zero — measurement broken".into());
    }
    let speedup = shared / cloned;
    if speedup < floor {
        return Err(format!(
            "shared-frame delivery speedup {speedup:.2}x at {gate_label} is below the \
             {floor:.1}x floor (shared {shared:.0} vs cloned {cloned:.0} events/s)"
        ));
    }
    Ok((gate_label, speedup))
}

/// The `perf` scenario's parallel-engine gate, over the `engine-threads`
/// sweep (the `par-flood` protocol run at 1 and N worker threads on the
/// same workload).
///
/// Two halves:
///
/// * **Determinism** — always enforced: every `engine-threads` row must
///   report **exactly** the same `events_processed`. Threads are allowed
///   to change wall-clock only; a diverging event count means the
///   parallel engine's commit order leaked into results.
/// * **Speedup** — enforced only when it can mean something: the
///   multi-thread row must show `events_per_s` at least `floor` times the
///   single-thread row's, *if* that row ran with >= 4 threads on a
///   machine reporting >= 4 hardware threads (the row's
///   `hardware_threads` metric). On smaller machines the threads
///   timeslice one core and the ratio measures scheduler noise, so the
///   gate records the measurement without enforcing the floor.
///
/// Returns `(multi-thread label, speedup, enforced)`. Missing rows or
/// metrics fail loudly — a gate that cannot find its points must not wave
/// the report through.
pub fn check_perf_threads_gate(doc: &Json, floor: f64) -> Result<(String, f64, bool), String> {
    let rows = report_rows(doc)?;
    let mut points: Vec<(u64, f64, f64, f64)> = Vec::new(); // (threads, events/s, events, hw)
    for (sweep, label, proto, metrics) in &rows {
        if sweep != "engine-threads" || proto != "par-flood" {
            continue;
        }
        let threads: u64 = label
            .strip_prefix("threads=")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("engine-threads row has unparseable label {label:?}"))?;
        let get = |name: &str| -> Result<f64, String> {
            metrics
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("engine-threads row {label} has no {name} metric"))
        };
        points.push((
            threads,
            get("events_per_s")?,
            get("events_processed")?,
            get("hardware_threads")?,
        ));
    }
    if points.len() < 2 {
        return Err(format!(
            "need engine-threads par-flood rows at >= 2 thread counts, found {}",
            points.len()
        ));
    }
    points.sort_by_key(|p| p.0);
    let &(single_threads, single_eps, single_events, _) = points.first().expect("len checked");
    let &(threads, multi_eps, _, hw) = points.last().expect("len checked");
    let multi_label = format!("threads={threads}");
    if single_threads != 1 {
        return Err("engine-threads sweep has no threads=1 baseline row".into());
    }
    for &(t, _, events, _) in &points {
        if events != single_events {
            return Err(format!(
                "parallel engine diverged: threads={t} processed {events:.0} events, \
                 threads=1 processed {single_events:.0} — determinism contract broken"
            ));
        }
    }
    if single_eps <= 0.0 {
        return Err("single-thread events_per_s is zero — measurement broken".into());
    }
    let speedup = multi_eps / single_eps;
    let enforced = threads >= 4 && hw >= 4.0;
    if enforced && speedup < floor {
        return Err(format!(
            "parallel-engine speedup {speedup:.2}x at {multi_label} is below the {floor:.1}x \
             floor (multi {multi_eps:.0} vs single {single_eps:.0} events/s, \
             {hw:.0} hardware threads)"
        ));
    }
    Ok((multi_label, speedup, enforced))
}

/// The CI gate over a validated `scale` report, in two parts:
///
/// * **Determinism** (applies to smoke and full runs): the
///   `engine-threads` sweep's `hvdb-par` rows — HVDB itself on the
///   sharded parallel engine — must exist at a `threads=1` baseline plus
///   at least one other thread count, with *exactly* equal
///   `events_processed` everywhere. This is the thread-invariance
///   contract enforced on the real protocol, not just the flooding
///   benchmark.
/// * **Scale campaign** (full runs only): the largest `network-size`
///   point at or above [`SCALE_GATE_MIN_NODES`] nodes must deliver at
///   least [`SCALE_DELIVERY_FLOOR`]; a full report with no such point
///   fails — the campaign row cannot silently drop out of the sweep.
///
/// Returns one human-readable note per passed part.
pub fn check_scale_gate(doc: &Json) -> Result<Vec<String>, String> {
    let rows = report_rows(doc)?;
    let mut notes = Vec::new();

    let mut points: Vec<(u64, f64)> = Vec::new(); // (threads, events_processed)
    for (sweep, label, proto, metrics) in &rows {
        if sweep != "engine-threads" || proto != "hvdb-par" {
            continue;
        }
        let threads: u64 = label
            .strip_prefix("threads=")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("engine-threads row has unparseable label {label:?}"))?;
        let events = metrics
            .iter()
            .find(|(k, _)| k == "events_processed")
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("engine-threads row {label} has no events_processed"))?;
        points.push((threads, events));
    }
    if points.len() < 2 {
        return Err(format!(
            "need engine-threads hvdb-par rows at >= 2 thread counts, found {}",
            points.len()
        ));
    }
    points.sort_by_key(|p| p.0);
    let &(single_threads, single_events) = points.first().expect("len checked");
    if single_threads != 1 {
        return Err("engine-threads sweep has no threads=1 baseline row".into());
    }
    let diverged: Vec<String> = points
        .iter()
        .filter(|&&(_, events)| events != single_events)
        .map(|&(t, events)| {
            format!(
                "threads={t} processed {events:.0} events, threads=1 processed \
                 {single_events:.0}"
            )
        })
        .collect();
    if !diverged.is_empty() {
        return Err(format!(
            "HVDB on the parallel engine diverged — determinism contract broken: {}",
            diverged.join("; ")
        ));
    }
    notes.push(format!(
        "hvdb-par events_processed identical across {} thread counts",
        points.len()
    ));

    if !is_smoke(doc)? {
        // Every campaign point at or above the threshold must clear the
        // delivery floor; all violations are reported, not just the
        // first.
        let mut campaign: Vec<(u64, f64)> = Vec::new(); // (nodes, delivery)
        for (sweep, label, _, metrics) in &rows {
            if sweep != "network-size" {
                continue;
            }
            let Some(nodes) = label
                .strip_prefix("nodes=")
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            if nodes < SCALE_GATE_MIN_NODES {
                continue;
            }
            let delivery = metrics
                .iter()
                .find(|(k, _)| k == "delivery")
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("network-size row {label} has no delivery metric"))?;
            campaign.push((nodes, delivery));
        }
        if campaign.is_empty() {
            return Err(format!(
                "full scale report has no network-size point at >= {SCALE_GATE_MIN_NODES} nodes"
            ));
        }
        campaign.sort_by_key(|p| p.0);
        let low: Vec<String> = campaign
            .iter()
            .filter(|&&(_, delivery)| delivery < SCALE_DELIVERY_FLOOR)
            .map(|&(nodes, delivery)| {
                format!(
                    "delivery {delivery:.3} at nodes={nodes} is below the scale-campaign \
                     floor {SCALE_DELIVERY_FLOOR}"
                )
            })
            .collect();
        if !low.is_empty() {
            return Err(low.join("; "));
        }
        let &(max_nodes, max_delivery) = campaign.last().expect("non-empty checked");
        notes.push(format!(
            "delivery >= {SCALE_DELIVERY_FLOOR} at {} campaign point(s), \
             {max_delivery:.3} at nodes={max_nodes}",
            campaign.len()
        ));
    }
    Ok(notes)
}

/// The CI gate over a validated `partition` report:
///
/// * at `phase=partition`, worst-seed `delivery_reachable_steady_worst`
///   must be at least [`PARTITION_REACHABLE_DELIVERY_FLOOR`] — once past
///   the re-election transient, the split network keeps serving every
///   receiver the radio can still reach;
/// * at `phase=healed`, `remerge_secs_worst` must be at most
///   [`PARTITION_REMERGE_BUDGET_SECS`] — the split head hierarchies
///   re-merge promptly once connectivity returns.
///
/// Refuses smoke reports; missing rows or metrics fail loudly. Returns
/// one human-readable note per passed check.
pub fn check_partition_gate(doc: &Json) -> Result<Vec<String>, String> {
    if is_smoke(doc)? {
        return Err(
            "partition gate needs a full run, not --smoke (smoke numbers are meaningless)".into(),
        );
    }
    let read = |label: &str, metric: &str| -> Result<f64, String> {
        metric_of(doc, "partition", label, "hvdb", metric)
            .ok_or_else(|| format!("no hvdb partition row at {label} with a {metric} metric"))
    };
    let mut notes = Vec::new();
    let reachable = read("phase=partition", "delivery_reachable_steady_worst")?;
    if reachable < PARTITION_REACHABLE_DELIVERY_FLOOR {
        return Err(format!(
            "worst-seed steady reachable delivery {reachable:.3} during the partition is below \
             the committed floor {PARTITION_REACHABLE_DELIVERY_FLOOR:.2}"
        ));
    }
    notes.push(format!(
        "steady reachable delivery {reachable:.3} >= {PARTITION_REACHABLE_DELIVERY_FLOOR} \
         during the split"
    ));
    let remerge = read("phase=healed", "remerge_secs_worst")?;
    if remerge > PARTITION_REMERGE_BUDGET_SECS {
        return Err(format!(
            "worst-seed head-hierarchy re-merge took {remerge:.1} s after the heal, over the \
             committed budget {PARTITION_REMERGE_BUDGET_SECS:.0} s"
        ));
    }
    notes.push(format!(
        "re-merge {remerge:.1} s <= {PARTITION_REMERGE_BUDGET_SECS:.0} s budget"
    ));
    match check_partition_timeline(doc)? {
        Some(derived) => notes.push(format!(
            "timeline cross-check: re-merge {derived:.1} s re-derived from the sample series \
             matches the probe measurement"
        )),
        None => notes.push("no timeline block (legacy report): cross-check skipped".into()),
    }
    Ok(notes)
}

/// The CI gate over a validated `byzantine` report: every `byz=k` row
/// with k > 0 must keep `damage_per_node` — mean delivery lost per
/// misbehaving node relative to the k=0 control — at or below
/// [`BYZANTINE_DAMAGE_PER_NODE`]. The k=0 control row must exist (the
/// damage metric is meaningless without its reference). Refuses smoke
/// reports. Returns one note per checked row.
pub fn check_byzantine_gate(doc: &Json) -> Result<Vec<String>, String> {
    if is_smoke(doc)? {
        return Err(
            "byzantine gate needs a full run, not --smoke (smoke numbers are meaningless)".into(),
        );
    }
    let rows = report_rows(doc)?;
    if !rows
        .iter()
        .any(|(s, l, p, _)| s == "byzantine" && l == "byz=0" && p == "hvdb")
    {
        return Err("no hvdb byzantine row at byz=0 (the damage reference)".into());
    }
    let mut notes = Vec::new();
    for (sweep, label, proto, metrics) in &rows {
        if sweep != "byzantine" || proto != "hvdb" || label == "byz=0" {
            continue;
        }
        let k: u64 = label
            .strip_prefix("byz=")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("byzantine row has unparseable label {label:?}"))?;
        let damage = metrics
            .iter()
            .find(|(name, _)| name == "damage_per_node")
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("byzantine row {label} has no damage_per_node metric"))?;
        if damage > BYZANTINE_DAMAGE_PER_NODE {
            return Err(format!(
                "delivery damage {damage:.3} per Byzantine node at {label} exceeds the \
                 committed ceiling {BYZANTINE_DAMAGE_PER_NODE:.2}"
            ));
        }
        notes.push(format!(
            "damage {damage:.3}/node <= {BYZANTINE_DAMAGE_PER_NODE:.2} at k={k}"
        ));
    }
    if notes.is_empty() {
        return Err("no hvdb byzantine rows with k > 0 to gate".into());
    }
    Ok(notes)
}

/// Whether a validated report document is a smoke run.
fn is_smoke(doc: &Json) -> Result<bool, String> {
    let fields = obj_fields(doc)?;
    Ok(matches!(field(fields, "smoke")?, Json::Bool(true)))
}

/// The CI gate over a validated `overhead` report: at the quiet point
/// ([`OVERHEAD_QUIET_POINT`]) the fixed-rate baseline's refresh-plane
/// frames/s must be at least [`OVERHEAD_QUIET_IMPROVEMENT`]× the
/// adaptive controller's, and the adaptive controller's total control
/// frames/s must stay under [`OVERHEAD_CEILING_FRAMES_PER_S`]. Returns
/// `(improvement ratio, adaptive control frames/s)`. Refuses smoke
/// reports.
pub fn check_overhead_gate(doc: &Json) -> Result<(f64, f64), String> {
    if is_smoke(doc)? {
        return Err(
            "overhead gate needs a full run, not --smoke (smoke numbers are meaningless)".into(),
        );
    }
    let read = |proto: &str, metric: &str| -> Result<f64, String> {
        metric_of(doc, "churn", OVERHEAD_QUIET_POINT, proto, metric).ok_or_else(|| {
            format!("no {proto} churn row at {OVERHEAD_QUIET_POINT} with a {metric} metric")
        })
    };
    let fixed = read("hvdb-fixed", "refresh_frames_per_s")?;
    let adaptive = read("hvdb-adaptive", "refresh_frames_per_s")?;
    if adaptive <= 0.0 {
        return Err(
            "adaptive quiet-phase refresh_frames_per_s is zero — measurement broken".into(),
        );
    }
    let ratio = fixed / adaptive;
    if ratio < OVERHEAD_QUIET_IMPROVEMENT {
        return Err(format!(
            "quiet-phase refresh overhead improvement {ratio:.2}x is below the committed \
             {OVERHEAD_QUIET_IMPROVEMENT:.1}x floor (fixed {fixed:.1} vs adaptive {adaptive:.1} frames/s)"
        ));
    }
    let total = read("hvdb-adaptive", "control_frames_per_s")?;
    if total > OVERHEAD_CEILING_FRAMES_PER_S {
        return Err(format!(
            "quiet-phase adaptive control traffic {total:.1} frames/s exceeds the committed \
             ceiling {OVERHEAD_CEILING_FRAMES_PER_S:.0}"
        ));
    }
    Ok((ratio, total))
}

/// The `traffic` scenario's saturation-knee gate.
///
/// Per protocol, the **knee** is the largest offered load such that the
/// sweep passes continuously up to it (mean delivery ≥
/// [`TRAFFIC_KNEE_DELIVERY_FLOOR`] *and* p99 latency ≤
/// [`TRAFFIC_KNEE_P99_CEILING_MS`] at every point at or below it —
/// prefix semantics, so a fluke recovery beyond saturation cannot move
/// the knee). The gate enforces the §5 load claim: HVDB's knee must sit
/// **strictly above** every [`TRAFFIC_BASELINE_PROTOS`] knee (which also
/// forces the sweep to actually extend past the baselines' knees), and
/// HVDB's p99 at [`TRAFFIC_P99_REFERENCE_POINT`] must stay inside
/// [`TRAFFIC_P99_BAND_MS`]. Refuses smoke reports. Returns
/// `(hvdb knee pps, reference-point p99 ms)`.
pub fn check_traffic_gate(doc: &Json) -> Result<(f64, f64), String> {
    if is_smoke(doc)? {
        return Err(
            "traffic gate needs a full run, not --smoke (smoke numbers are meaningless)".into(),
        );
    }
    let rows = report_rows(doc)?;
    // (offered, delivery, p99) per proto, ascending by offered load.
    let series = |proto: &str| -> Vec<(f64, f64, f64)> {
        let mut pts: Vec<(f64, f64, f64)> = rows
            .iter()
            .filter(|(s, _, p, _)| s == "offered-load" && p == proto)
            .filter_map(|(_, label, _, m)| {
                // Non-finite labels (a corrupt "pps=nan" parses!) are
                // skipped rather than poisoning the sort below.
                let offered = label
                    .strip_prefix("pps=")?
                    .parse::<f64>()
                    .ok()
                    .filter(|o| o.is_finite())?;
                let get = |k: &str| m.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
                Some((offered, get("delivery")?, get("p99_ms")?))
            })
            .collect();
        pts.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("offered loads filtered finite")
        });
        pts
    };
    let knee = |pts: &[(f64, f64, f64)]| -> f64 {
        let mut knee = 0.0;
        for &(offered, delivery, p99) in pts {
            if delivery >= TRAFFIC_KNEE_DELIVERY_FLOOR && p99 <= TRAFFIC_KNEE_P99_CEILING_MS {
                knee = offered;
            } else {
                break;
            }
        }
        knee
    };
    let hvdb = series("hvdb");
    if hvdb.is_empty() {
        return Err("no hvdb offered-load rows with delivery and p99_ms metrics".into());
    }
    let hvdb_knee = knee(&hvdb);
    if hvdb_knee <= 0.0 {
        return Err(format!(
            "hvdb fails the knee rule at the lowest offered point ({:.3} delivery, {:.1} ms p99)",
            hvdb[0].1, hvdb[0].2
        ));
    }
    for baseline in TRAFFIC_BASELINE_PROTOS {
        let pts = series(baseline);
        if pts.is_empty() {
            return Err(format!(
                "no {baseline} offered-load rows in the traffic report"
            ));
        }
        let b_knee = knee(&pts);
        if hvdb_knee <= b_knee {
            return Err(format!(
                "hvdb sustains {hvdb_knee:.0} pps but {baseline} sustains {b_knee:.0} — \
                 the backbone must out-sustain its baselines strictly"
            ));
        }
    }
    let p99 = metric_of(
        doc,
        "offered-load",
        TRAFFIC_P99_REFERENCE_POINT,
        "hvdb",
        "p99_ms",
    )
    .ok_or_else(|| {
        format!("no hvdb offered-load row at {TRAFFIC_P99_REFERENCE_POINT} with a p99_ms metric")
    })?;
    let (lo, hi) = TRAFFIC_P99_BAND_MS;
    if !(lo..=hi).contains(&p99) {
        return Err(format!(
            "hvdb p99 {p99:.1} ms at {TRAFFIC_P99_REFERENCE_POINT} left the committed \
             [{lo:.0}, {hi:.0}] ms band"
        ));
    }
    Ok((hvdb_knee, p99))
}

/// Row coordinates and metrics extracted from a validated report:
/// `(sweep, label, proto, metrics)`.
type ReportRow = (String, String, String, Vec<(String, f64)>);

fn report_rows(doc: &Json) -> Result<Vec<ReportRow>, String> {
    let fields = obj_fields(doc)?;
    let Json::Arr(rows) = field(fields, "rows")? else {
        return Err("rows: expected array".into());
    };
    let mut out = Vec::new();
    for row in rows {
        let rf = obj_fields(row)?;
        let get = |key: &str| -> Result<String, String> {
            as_str(field(rf, key)?, key).map(str::to_string)
        };
        let Json::Obj(metrics) = field(rf, "metrics")? else {
            return Err("metrics: expected object".into());
        };
        let metrics: Vec<(String, f64)> = metrics
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Num(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect();
        out.push((get("sweep")?, get("label")?, get("proto")?, metrics));
    }
    Ok(out)
}

/// The bench-trajectory gate: compares a freshly produced `candidate`
/// report against the committed `baseline` within tolerance bands —
/// every baseline row must exist in the candidate, `delivery` may
/// regress at most `delivery_tol` (fraction), and the
/// [`OVERHEAD_GATED_METRICS`] may grow at most `overhead_tol`. Refuses
/// smoke candidates. Returns one summary line per compared row; all
/// violations are collected into the error, not just the first.
pub fn check_trajectory(
    candidate: &Json,
    baseline: &Json,
    delivery_tol: f64,
    overhead_tol: f64,
) -> Result<Vec<String>, String> {
    if is_smoke(candidate)? {
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

        // The optional collect phase is checked when present.
        let with_collect = |secs: f64| {
            let Json::Obj(mut fields) = good.clone() else {
                unreachable!()
            };
            fields.push(("collect_secs".into(), Json::Num(secs)));
            report_with_blocks("x", any_rows(), None, Some(Json::Obj(fields)))
        };
        validate_report_str(&with_collect(0.1)).expect("collect phase accepted");
        assert!(validate_report_str(&with_collect(-0.1))
            .unwrap_err()
            .contains("collect_secs"));
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
        let doc = validate_report_str(&s).unwrap();
        assert!(check_partition_timeline(&doc)
            .unwrap_err()
            .contains("disagrees"));

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
        let doc = validate_report_str(&s).unwrap();
        assert!(check_partition_timeline(&doc)
            .unwrap_err()
            .contains("never returns"));
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
                LOSS_GATE_POINT,
                "hvdb",
                vec![("delivery_worst".into(), LOSS_DELIVERY_FLOOR + 0.02)],
            )],
        );
        let doc = validate_report_str(&ok).unwrap();
        assert!(check_loss_floor(&doc, LOSS_DELIVERY_FLOOR).is_ok());

        let bad = report(
            "loss",
            vec![Row::new(
                "frame-loss",
                LOSS_GATE_POINT,
                "hvdb",
                vec![("delivery_worst".into(), LOSS_DELIVERY_FLOOR - 0.05)],
            )],
        );
        let doc = validate_report_str(&bad).unwrap();
        assert!(check_loss_floor(&doc, LOSS_DELIVERY_FLOOR).is_err());

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
        assert!(check_loss_floor(&doc, LOSS_DELIVERY_FLOOR).is_err());
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
                LOSS_GATE_POINT,
                "hvdb",
                vec![("delivery_worst".into(), 1.0)],
            )],
        };
        let doc = validate_report_str(&rep.to_json().to_string()).unwrap();
        assert!(check_loss_floor(&doc, LOSS_DELIVERY_FLOOR).is_err());
        rep.smoke = false;
        let doc = validate_report_str(&rep.to_json().to_string()).unwrap();
        assert!(check_loss_floor(&doc, LOSS_DELIVERY_FLOOR).is_ok());
    }

    fn overhead_report(fixed_refresh: f64, adaptive_refresh: f64, adaptive_total: f64) -> String {
        report(
            "overhead",
            vec![
                Row::new(
                    "churn",
                    OVERHEAD_QUIET_POINT,
                    "hvdb-fixed",
                    vec![
                        ("refresh_frames_per_s".into(), fixed_refresh),
                        ("control_frames_per_s".into(), adaptive_total * 1.5),
                    ],
                ),
                Row::new(
                    "churn",
                    OVERHEAD_QUIET_POINT,
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
        let (ratio, total) = check_overhead_gate(&doc).expect("gate passes");
        assert!((ratio - 3.0).abs() < 1e-9);
        assert!((total - 700.0).abs() < 1e-9);
        // Only 1.5x improvement: fails.
        let doc = validate_report_str(&overhead_report(300.0, 200.0, 700.0)).unwrap();
        assert!(check_overhead_gate(&doc).unwrap_err().contains("below"));
        // Ratio fine but total control traffic blew through the ceiling.
        let doc = validate_report_str(&overhead_report(
            9000.0,
            200.0,
            OVERHEAD_CEILING_FRAMES_PER_S + 1.0,
        ))
        .unwrap();
        assert!(check_overhead_gate(&doc).unwrap_err().contains("ceiling"));
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
        assert!(check_overhead_gate(&doc).is_err());
    }

    #[test]
    fn overhead_gate_refuses_smoke() {
        let mut rep = overhead_report(600.0, 200.0, 700.0);
        rep = rep.replace("\"smoke\": false", "\"smoke\": true");
        let doc = validate_report_str(&rep).unwrap();
        assert!(check_overhead_gate(&doc).unwrap_err().contains("smoke"));
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
        let summary = check_trajectory(&cand, &baseline, 0.10, 0.15).expect("within bands");
        assert_eq!(summary.len(), 2);
        // Delivery regressed past the band.
        let cand = validate_report_str(&report("scale", vec![scale_row(0.85, 500.0)])).unwrap();
        let err = check_trajectory(&cand, &baseline, 0.10, 0.15).unwrap_err();
        assert!(err.contains("delivery"), "{err}");
        // Overhead grew past the band.
        let cand = validate_report_str(&report("scale", vec![scale_row(1.0, 600.0)])).unwrap();
        let err = check_trajectory(&cand, &baseline, 0.10, 0.15).unwrap_err();
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
        let err = check_trajectory(&cand, &baseline, 0.10, 0.15).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn trajectory_gate_collects_every_violation() {
        let baseline = validate_report_str(&report("scale", vec![scale_row(1.0, 500.0)])).unwrap();
        let cand = validate_report_str(&report("scale", vec![scale_row(0.5, 900.0)])).unwrap();
        let err = check_trajectory(&cand, &baseline, 0.10, 0.15).unwrap_err();
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
        let band = check_loss_high_band(&doc).expect("band holds");
        assert_eq!(band.len(), 2);
        // One point under the band fails.
        let bad = report(
            "loss",
            vec![
                loss_row("loss=0.25", 0.95),
                loss_row("loss=0.3", LOSS_HIGH_FLOOR - 0.01),
            ],
        );
        let doc = validate_report_str(&bad).unwrap();
        assert!(check_loss_high_band(&doc).unwrap_err().contains("loss=0.3"));
        // A missing point fails loudly instead of silently passing.
        let partial = report("loss", vec![loss_row("loss=0.25", 0.99)]);
        let doc = validate_report_str(&partial).unwrap();
        assert!(check_loss_high_band(&doc)
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
        let (knee, p99) = check_traffic_gate(&doc).expect("gate passes");
        assert_eq!(knee, 320.0);
        assert!((p99 - 40.0).abs() < 1e-9);
        // Baselines sustain as much as hvdb: fails (strict ordering).
        let doc = validate_report_str(&traffic_report(320.0, 320.0)).unwrap();
        assert!(check_traffic_gate(&doc)
            .unwrap_err()
            .contains("out-sustain"));
        // hvdb knees below a baseline: fails.
        let doc = validate_report_str(&traffic_report(80.0, 160.0)).unwrap();
        assert!(check_traffic_gate(&doc).is_err());
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
        let err = check_traffic_gate(&doc).unwrap_err();
        assert!(err.contains("160"), "{err}");
    }

    #[test]
    fn traffic_gate_checks_p99_band_and_refuses_smoke() {
        // Reference-point p99 outside the band: fails even with the knee
        // ordering intact.
        let sweep = [20.0, 80.0, 160.0, 320.0, 640.0];
        let mut rows = Vec::new();
        for &pps in &sweep {
            let p99 = if pps == 160.0 {
                TRAFFIC_P99_BAND_MS.1 + 1.0
            } else {
                40.0
            };
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
        assert!(check_traffic_gate(&doc).unwrap_err().contains("band"));
        // Smoke reports are refused outright.
        let smoke = traffic_report(320.0, 80.0).replace("\"smoke\": false", "\"smoke\": true");
        let doc = validate_report_str(&smoke).unwrap();
        assert!(check_traffic_gate(&doc).unwrap_err().contains("smoke"));
        // Missing baseline rows fail loudly.
        let hvdb_only = report("traffic", vec![traffic_row(20.0, "hvdb", 0.99, 30.0)]);
        let doc = validate_report_str(&hvdb_only).unwrap();
        assert!(check_traffic_gate(&doc).unwrap_err().contains("flooding"));
    }

    fn perf_row(label: &str, proto: &str, eps: f64, events: f64) -> Row {
        Row::new(
            "delivery-mode",
            label,
            proto,
            vec![
                ("events_per_s".into(), eps),
                ("events_processed".into(), events),
            ],
        )
    }

    #[test]
    fn perf_gate_checks_speedup_at_largest_common_point() {
        // Gate applies at nodes=600 (largest label present in both arms),
        // not at the slower 200-point.
        let rep_ok = report(
            "perf",
            vec![
                perf_row("nodes=200", "hvdb-shared", 9e6, 5e6),
                perf_row("nodes=200", "hvdb-cloned", 6e6, 5e6),
                perf_row("nodes=600", "hvdb-shared", 9e6, 8e6),
                perf_row("nodes=600", "hvdb-cloned", 3e6, 8e6),
            ],
        );
        let doc = validate_report_str(&rep_ok).unwrap();
        let (label, speedup) = check_perf_gate(&doc, 2.0).expect("gate passes");
        assert_eq!(label, "nodes=600");
        assert!((speedup - 3.0).abs() < 1e-9);
        // Below the floor: fails.
        assert!(check_perf_gate(&doc, 3.5).unwrap_err().contains("below"));
    }

    #[test]
    fn perf_gate_requires_identical_event_counts() {
        let rep_bad = report(
            "perf",
            vec![
                perf_row("nodes=600", "hvdb-shared", 9e6, 8e6),
                perf_row("nodes=600", "hvdb-cloned", 3e6, 8e6 + 1.0),
            ],
        );
        let doc = validate_report_str(&rep_bad).unwrap();
        assert!(check_perf_gate(&doc, 2.0).unwrap_err().contains("diverged"));
        // No common label at all: loud failure.
        let rep_none = report("perf", vec![perf_row("nodes=600", "hvdb-shared", 9e6, 8e6)]);
        let doc = validate_report_str(&rep_none).unwrap();
        assert!(check_perf_gate(&doc, 2.0).is_err());
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
        let (label, speedup, enforced) = check_perf_threads_gate(&doc, 2.0).expect("passes");
        assert_eq!(label, "threads=4");
        assert!((speedup - 2.5).abs() < 1e-9);
        assert!(enforced);
        // Below the floor on a capable machine: fails.
        let rep = report(
            "perf",
            vec![
                threads_row(1, 1e6, 5e6, 4.0),
                threads_row(4, 1.5e6, 5e6, 4.0),
            ],
        );
        let doc = validate_report_str(&rep).unwrap();
        assert!(check_perf_threads_gate(&doc, 2.0)
            .unwrap_err()
            .contains("below"));
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
        let (_, _, enforced) = check_perf_threads_gate(&doc, 2.0).expect("waived");
        assert!(!enforced);
        // ...but the determinism half never is.
        let rep = report(
            "perf",
            vec![
                threads_row(1, 1e6, 5e6, 1.0),
                threads_row(4, 0.9e6, 5e6 + 1.0, 1.0),
            ],
        );
        let doc = validate_report_str(&rep).unwrap();
        assert!(check_perf_threads_gate(&doc, 2.0)
            .unwrap_err()
            .contains("diverged"));
    }

    #[test]
    fn threads_gate_requires_both_rows() {
        let rep = report("perf", vec![threads_row(4, 2.5e6, 5e6, 4.0)]);
        let doc = validate_report_str(&rep).unwrap();
        assert!(check_perf_threads_gate(&doc, 2.0).is_err());
        // Two rows but no threads=1 baseline.
        let rep = report(
            "perf",
            vec![threads_row(2, 1e6, 5e6, 4.0), threads_row(4, 2e6, 5e6, 4.0)],
        );
        let doc = validate_report_str(&rep).unwrap();
        assert!(check_perf_threads_gate(&doc, 2.0)
            .unwrap_err()
            .contains("baseline"));
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
        // Two numeric gates plus the timeline cross-check note (skipped
        // here: the synthetic report has no timeline block).
        assert_eq!(check_partition_gate(&doc).expect("passes").len(), 3);
        // Reachable delivery under the floor.
        let bad = report(
            "partition",
            partition_rows(PARTITION_REACHABLE_DELIVERY_FLOOR - 0.01, 10.0),
        );
        let doc = validate_report_str(&bad).unwrap();
        assert!(check_partition_gate(&doc)
            .unwrap_err()
            .contains("reachable"));
        // Re-merge over budget.
        let bad = report(
            "partition",
            partition_rows(0.99, PARTITION_REMERGE_BUDGET_SECS + 1.0),
        );
        let doc = validate_report_str(&bad).unwrap();
        assert!(check_partition_gate(&doc).unwrap_err().contains("re-merge"));
        // Missing rows fail loudly; smoke is refused.
        let none = report("partition", partition_rows(0.99, 10.0)[..1].to_vec());
        let doc = validate_report_str(&none).unwrap();
        assert!(check_partition_gate(&doc)
            .unwrap_err()
            .contains("remerge_secs_worst"));
        let smoke = report("partition", partition_rows(0.99, 10.0))
            .replace("\"smoke\": false", "\"smoke\": true");
        let doc = validate_report_str(&smoke).unwrap();
        assert!(check_partition_gate(&doc).unwrap_err().contains("smoke"));
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
        assert_eq!(check_byzantine_gate(&doc).expect("passes").len(), 1);
        // One row over the ceiling fails.
        let bad = report(
            "byzantine",
            vec![
                byz_row(0, 0.0),
                byz_row(1, 0.01),
                byz_row(4, BYZANTINE_DAMAGE_PER_NODE + 0.01),
            ],
        );
        let doc = validate_report_str(&bad).unwrap();
        assert!(check_byzantine_gate(&doc).unwrap_err().contains("byz=4"));
        // Missing k=0 control fails loudly.
        let none = report("byzantine", vec![byz_row(2, 0.01)]);
        let doc = validate_report_str(&none).unwrap();
        assert!(check_byzantine_gate(&doc).unwrap_err().contains("byz=0"));
        // No gated rows at all fails (k=0 alone proves nothing).
        let only_control = report("byzantine", vec![byz_row(0, 0.0)]);
        let doc = validate_report_str(&only_control).unwrap();
        assert!(check_byzantine_gate(&doc).is_err());
        // Smoke refused.
        let smoke = report("byzantine", vec![byz_row(0, 0.0), byz_row(2, 0.01)])
            .replace("\"smoke\": false", "\"smoke\": true");
        let doc = validate_report_str(&smoke).unwrap();
        assert!(check_byzantine_gate(&doc).unwrap_err().contains("smoke"));
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
}
