//! The `hvdb-bench` CLI: one entry point for every experiment.
//!
//! ```text
//! hvdb-bench list [--json]
//! hvdb-bench run <scenario>... [--smoke] [--seeds 1,2,3] [--out-dir DIR]
//! hvdb-bench run --all [--smoke] [--out-dir DIR]
//! hvdb-bench run ... [--trace-out PATH] [--trace-filter CATS]
//! hvdb-bench validate <file>... [--loss-floor F]
//! hvdb-bench explain <report.json>
//! ```
//!
//! Each run prints a human-readable table and writes
//! `BENCH_<scenario>.json` (uniform rows: sweep axis, point label,
//! protocol, named metrics) into the output directory (default: the
//! current directory), building the perf trajectory PR over PR. Every
//! written report is immediately re-validated against the strict schema;
//! `run` exits nonzero if any scenario's report fails (after finishing
//! the remaining scenarios). `validate` checks committed/artifact
//! reports and applies the `loss` scenario's delivery-floor regression
//! gate. `--trace-out` additionally records a structured-trace +
//! profiler run of the paper geometry on the parallel engine and writes
//! it as a Chrome trace-event (Perfetto-loadable) document. `explain`
//! prints a human post-mortem of one report: gates at default floors,
//! fault counters, timeline inflections and the profiler's phase split.

use hvdb_bench::scenario::{find, registry, run_scenario, RunOpts, ScenarioDef};
use hvdb_bench::{
    check_byzantine_gate, check_loss_floor, check_loss_high_band, check_overhead_gate,
    check_partition_gate, check_partition_timeline, check_perf_gate, check_perf_threads_gate,
    check_scale_gate, check_traffic_gate, check_trajectory, gated_metrics, run_par_hvdb_traced,
    validate_report_str, Json, ScenarioReport, Workload, LOSS_DELIVERY_FLOOR, PERF_SPEEDUP_FLOOR,
    PERF_THREADS_SPEEDUP_FLOOR, TRAFFIC_P99_REFERENCE_POINT, TRAJECTORY_DELIVERY_TOLERANCE,
    TRAJECTORY_OVERHEAD_TOLERANCE,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("--help") | Some("-h") | None => {
            usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command: {other}\n");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("hvdb-bench — experiment harness for the HVDB reproduction");
    eprintln!();
    eprintln!("USAGE:");
    eprintln!("  hvdb-bench list [--json]");
    eprintln!(
        "  hvdb-bench run <scenario>... [--smoke] [--seeds 1,2,3] [--threads N] [--out-dir DIR]"
    );
    eprintln!(
        "  hvdb-bench run --all        [--smoke] [--seeds 1,2,3] [--threads N] [--out-dir DIR]"
    );
    eprintln!("  hvdb-bench run ...          [--trace-out PATH] [--trace-filter CATS]");
    eprintln!("  hvdb-bench validate <file>... [--loss-floor F] [--perf-floor F]");
    eprintln!("                                [--threads-floor F] [--baseline-dir DIR]");
    eprintln!("                                [--delivery-tolerance F] [--overhead-tolerance F]");
    eprintln!("  hvdb-bench explain <report.json>");
    eprintln!();
    eprintln!("`list --json` emits the machine-readable registry (name, figure,");
    eprintln!("summary, gated metrics) for tooling and the CI job matrix.");
    eprintln!("`run --trace-out PATH` additionally runs the paper geometry on the");
    eprintln!("parallel engine with the structured trace and profiler enabled and");
    eprintln!("writes a Chrome trace-event document (open in Perfetto / about:tracing);");
    eprintln!("--trace-filter narrows categories (comma-separated");
    eprintln!("election,soft-state,fault,flow; default all).");
    eprintln!("`explain` prints a human post-mortem of one report: gates at default");
    eprintln!("floors, fault counters, timeline inflections, profiler phase split.");
    eprintln!();
    eprintln!("Writes BENCH_<scenario>.json per scenario; see `list` for names.");
    eprintln!("`validate` schema-checks report files. Scenario-specific gates:");
    eprintln!("\"loss\" must clear the worst-seed delivery floor (default");
    eprintln!("{LOSS_DELIVERY_FLOOR}) at 15% frame loss; \"overhead\" must show the quiet-phase");
    eprintln!("adaptive-refresh improvement and stay under the frames/s ceiling;");
    eprintln!("\"perf\" must show shared-frame delivery at least --perf-floor times");
    eprintln!("(default {PERF_SPEEDUP_FLOOR}) faster than the per-receiver-clone arm, and its");
    eprintln!("engine-threads arm must keep events_processed identical across thread");
    eprintln!("counts and — on machines with >= 4 hardware threads — clear the");
    eprintln!("--threads-floor speedup (default {PERF_THREADS_SPEEDUP_FLOOR}).");
    eprintln!("`run --threads N` sets the worker-thread count of parallel-engine");
    eprintln!("arms (default 1); it is recorded in every report and cannot change");
    eprintln!("deterministic metrics. \"scale\" must keep events_processed identical");
    eprintln!("across its engine-threads arm, and full (non-smoke) runs must hold");
    eprintln!("delivery at the largest network size (the 100k campaign gate).");
    eprintln!("\"partition\" must keep worst-seed reachable delivery above the");
    eprintln!("floor during the split and re-merge the head hierarchy within the");
    eprintln!("budget after the heal; \"byzantine\" must bound the worst per-node");
    eprintln!("delivery damage across its k sweep (full runs only for both).");
    eprintln!("With --baseline-dir, every report is additionally compared against");
    eprintln!("the committed BENCH_<scenario>.json in DIR: delivery may regress at");
    eprintln!("most --delivery-tolerance (default {TRAJECTORY_DELIVERY_TOLERANCE}) and overhead metrics may grow");
    eprintln!("at most --overhead-tolerance (default {TRAJECTORY_OVERHEAD_TOLERANCE}).");
}

fn validate(args: &[String]) -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut floor = LOSS_DELIVERY_FLOOR;
    let mut perf_floor = PERF_SPEEDUP_FLOOR;
    let mut threads_floor = PERF_THREADS_SPEEDUP_FLOOR;
    let mut baseline_dir: Option<String> = None;
    let mut delivery_tol = TRAJECTORY_DELIVERY_TOLERANCE;
    let mut overhead_tol = TRAJECTORY_OVERHEAD_TOLERANCE;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--loss-floor" => {
                i += 1;
                match args.get(i).and_then(|f| f.parse::<f64>().ok()) {
                    Some(f) if (0.0..=1.0).contains(&f) => floor = f,
                    _ => {
                        eprintln!("--loss-floor needs a number in [0, 1]");
                        return ExitCode::FAILURE;
                    }
                }
            }
            flag @ ("--perf-floor" | "--threads-floor") => {
                i += 1;
                match args.get(i).and_then(|f| f.parse::<f64>().ok()) {
                    Some(f) if f > 0.0 && f.is_finite() => {
                        if flag == "--perf-floor" {
                            perf_floor = f;
                        } else {
                            threads_floor = f;
                        }
                    }
                    _ => {
                        eprintln!("{flag} needs a positive number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--baseline-dir" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => baseline_dir = Some(dir.clone()),
                    None => {
                        eprintln!("--baseline-dir needs a path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            flag @ ("--delivery-tolerance" | "--overhead-tolerance") => {
                i += 1;
                match args.get(i).and_then(|f| f.parse::<f64>().ok()) {
                    Some(f) if (0.0..=1.0).contains(&f) => {
                        if flag == "--delivery-tolerance" {
                            delivery_tol = f;
                        } else {
                            overhead_tol = f;
                        }
                    }
                    _ => {
                        eprintln!("{flag} needs a number in [0, 1]");
                        return ExitCode::FAILURE;
                    }
                }
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    if files.is_empty() {
        eprintln!("validate needs at least one report file");
        return ExitCode::FAILURE;
    }
    let mut failures = 0u32;
    for file in &files {
        let doc = match std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| validate_report_str(&text))
        {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{file}: FAIL: {e}");
                failures += 1;
                continue;
            }
        };
        let mut notes: Vec<String> = Vec::new();
        let mut fails: Vec<String> = Vec::new();
        let floors = GateFloors {
            loss: floor,
            perf: perf_floor,
            threads: threads_floor,
        };
        scenario_gates(&doc, &floors, &mut notes, &mut fails);
        if let Some(dir) = &baseline_dir {
            let trajectory = (|| {
                let scenario =
                    scenario_name(&doc).ok_or_else(|| "report has no scenario name".to_string())?;
                let base_path = format!("{dir}/BENCH_{scenario}.json");
                // A gate that cannot find its baseline must fail, not
                // silently wave the candidate through.
                let base_text = std::fs::read_to_string(&base_path)
                    .map_err(|e| format!("cannot read baseline {base_path}: {e}"))?;
                let baseline = validate_report_str(&base_text)
                    .map_err(|e| format!("baseline {base_path} invalid: {e}"))?;
                let rows = check_trajectory(&doc, &baseline, delivery_tol, overhead_tol)?;
                Ok(vec![format!(
                    "trajectory ok vs {base_path} ({} checks)",
                    rows.len()
                )])
            })();
            run_gate(trajectory, &mut notes, &mut fails);
        }
        if !fails.is_empty() {
            eprintln!("{file}: FAIL ({} gate(s)):", fails.len());
            for f in &fails {
                eprintln!("  - {f}");
            }
            failures += 1;
        } else if notes.is_empty() {
            println!("{file}: ok");
        } else {
            println!("{file}: ok ({})", notes.join("; "));
        }
    }
    if failures > 0 {
        eprintln!("{failures} of {} report(s) failed validation", files.len());
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn scenario_name(doc: &hvdb_bench::Json) -> Option<String> {
    let hvdb_bench::Json::Obj(fields) = doc else {
        return None;
    };
    fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
        ("scenario", hvdb_bench::Json::Str(s)) => Some(s.clone()),
        _ => None,
    })
}

/// Floors the scenario gates run at (`validate` parses overrides;
/// `explain` uses the committed defaults).
struct GateFloors {
    loss: f64,
    perf: f64,
    threads: f64,
}

impl Default for GateFloors {
    fn default() -> Self {
        GateFloors {
            loss: LOSS_DELIVERY_FLOOR,
            perf: PERF_SPEEDUP_FLOOR,
            threads: PERF_THREADS_SPEEDUP_FLOOR,
        }
    }
}

/// Runs one gate, folding its passed-check notes or its failure message
/// into the per-file tallies: every applicable gate runs, so a failing
/// report lists *all* broken gates (with expected vs actual) instead of
/// stopping at the first.
fn run_gate(res: Result<Vec<String>, String>, notes: &mut Vec<String>, fails: &mut Vec<String>) {
    match res {
        Ok(mut n) => notes.append(&mut n),
        Err(e) => fails.push(e),
    }
}

/// Every CI gate applicable to `doc`'s scenario, at the given floors —
/// the one list `validate` enforces and `explain` narrates.
fn scenario_gates(
    doc: &Json,
    floors: &GateFloors,
    notes: &mut Vec<String>,
    fails: &mut Vec<String>,
) {
    let (floor, perf_floor, threads_floor) = (floors.loss, floors.perf, floors.threads);
    match scenario_name(doc).as_deref() {
        Some("loss") => {
            run_gate(
                check_loss_floor(doc, floor)
                    .map(|worst| vec![format!("worst-seed delivery {worst:.3} >= {floor}")]),
                notes,
                fails,
            );
            run_gate(
                check_loss_high_band(doc).map(|band| {
                    band.into_iter()
                        .map(|(point, w)| format!("{point} worst {w:.3}"))
                        .collect()
                }),
                notes,
                fails,
            );
        }
        Some("overhead") => {
            run_gate(
                check_overhead_gate(doc).map(|(ratio, total)| {
                    vec![format!(
                        "quiet-phase refresh improvement {ratio:.2}x, {total:.0} control frames/s"
                    )]
                }),
                notes,
                fails,
            );
        }
        Some("perf") => {
            run_gate(
                check_perf_gate(doc, perf_floor).map(|(label, speedup)| {
                    vec![format!(
                        "shared-frame delivery {speedup:.2}x faster at {label} (floor {perf_floor})"
                    )]
                }),
                notes,
                fails,
            );
            run_gate(
                check_perf_threads_gate(doc, threads_floor).map(|(tlabel, tspeedup, enforced)| {
                    vec![if enforced {
                        format!(
                            "parallel engine {tspeedup:.2}x at {tlabel} (floor {threads_floor}), identical event counts"
                        )
                    } else {
                        format!(
                            "parallel engine {tspeedup:.2}x at {tlabel} (speedup floor waived: < 4 hardware threads), identical event counts"
                        )
                    }]
                }),
                notes,
                fails,
            );
        }
        Some("traffic") => {
            run_gate(
                check_traffic_gate(doc).map(|(knee, p99)| {
                    vec![format!(
                        "hvdb sustains {knee:.0} pps past both baselines' knees, \
                         p99 {p99:.1} ms at {TRAFFIC_P99_REFERENCE_POINT}"
                    )]
                }),
                notes,
                fails,
            );
        }
        Some("scale") => run_gate(check_scale_gate(doc), notes, fails),
        Some("partition") => run_gate(check_partition_gate(doc), notes, fails),
        Some("byzantine") => run_gate(check_byzantine_gate(doc), notes, fails),
        _ => {}
    }
}

fn list(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("--json") => {
            let doc = Json::Arr(
                registry()
                    .iter()
                    .map(|def| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(def.name.into())),
                            ("figure".into(), Json::Str(def.figure.into())),
                            ("summary".into(), Json::Str(def.summary.into())),
                            (
                                "gated_metrics".into(),
                                Json::Arr(
                                    gated_metrics(def.name)
                                        .iter()
                                        .map(|m| Json::Str((*m).into()))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            );
            println!("{doc}");
            ExitCode::SUCCESS
        }
        None => {
            println!("{:<16} {:<16} summary", "scenario", "figure");
            for def in registry() {
                println!("{:<16} {:<16} {}", def.name, def.figure, def.summary);
            }
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown list flag: {other} (only --json)");
            ExitCode::FAILURE
        }
    }
}

/// `hvdb-bench explain <report.json>`: a human post-mortem of one
/// report. Narrates what `validate` would enforce (at default floors)
/// plus everything the observability plane recorded: fault counters,
/// timeline inflection points, and the profiler's phase split. Exits
/// nonzero only if the file is unreadable or fails the schema — gate
/// failures are findings to narrate, not errors.
fn explain(args: &[String]) -> ExitCode {
    let [file] = args else {
        eprintln!("explain needs exactly one report file");
        return ExitCode::FAILURE;
    };
    let doc = match std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| validate_report_str(&text))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Json::Obj(fields) = &doc else {
        unreachable!("validated report is an object");
    };
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let scenario = scenario_name(&doc).unwrap_or_default();
    let smoke = matches!(get("smoke"), Some(Json::Bool(true)));
    println!(
        "# {scenario}{} — {}",
        if smoke { " [smoke]" } else { "" },
        match get("summary") {
            Some(Json::Str(s)) => s.as_str(),
            _ => "",
        }
    );

    println!("## gates (default floors)");
    let mut notes = Vec::new();
    let mut fails = Vec::new();
    scenario_gates(&doc, &GateFloors::default(), &mut notes, &mut fails);
    for n in &notes {
        println!("  PASS {n}");
    }
    for f in &fails {
        println!("  FAIL {f}");
    }
    if notes.is_empty() && fails.is_empty() {
        println!("  (no scenario-specific gates; schema check only)");
    }

    // Fault counters, totalled across rows wherever a scenario recorded
    // them as metrics.
    let mut counters: Vec<(&str, f64)> = Vec::new();
    if let Some(Json::Arr(rows)) = get("rows") {
        for row in rows {
            let Json::Obj(rf) = row else { continue };
            let Some((_, Json::Obj(metrics))) = rf.iter().find(|(k, _)| k == "metrics") else {
                continue;
            };
            for (k, v) in metrics {
                let Some(name) = FAULT_COUNTER_METRICS.iter().find(|m| **m == k.as_str()) else {
                    continue;
                };
                let Json::Num(n) = v else { continue };
                match counters.iter_mut().find(|(c, _)| c == name) {
                    Some((_, total)) => *total += n,
                    None => counters.push((name, *n)),
                }
            }
        }
    }
    if !counters.is_empty() {
        println!("## fault counters (summed over rows)");
        for (k, v) in &counters {
            println!("  {k}={v:.0}");
        }
    }

    if let Some(Json::Obj(tf)) = get("timeline") {
        let tget = |key: &str| {
            tf.iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| match v {
                    Json::Num(n) => Some(*n),
                    _ => None,
                })
        };
        println!("## timeline");
        if let (Some(interval), Some(Json::Arr(samples))) = (
            tget("interval_secs"),
            tf.iter().find(|(k, _)| k == "samples").map(|(_, v)| v),
        ) {
            println!("  {} samples every {interval}s", samples.len());
            let series: Vec<(f64, f64)> = samples
                .iter()
                .filter_map(|s| {
                    let Json::Obj(sf) = s else { return None };
                    let num = |key: &str| {
                        sf.iter()
                            .find(|(k, _)| k == key)
                            .and_then(|(_, v)| match v {
                                Json::Num(n) => Some(*n),
                                _ => None,
                            })
                    };
                    Some((num("t_secs")?, num("heads")?))
                })
                .collect();
            // Inflection points: every sample where the head census moved
            // — the election/merge story of the run in a few lines.
            let mut prev: Option<f64> = None;
            let mut shown = 0;
            for &(t, heads) in &series {
                if prev != Some(heads) {
                    if shown < 12 {
                        println!("  t={t}s heads={heads:.0}");
                    }
                    shown += 1;
                }
                prev = Some(heads);
            }
            if shown > 12 {
                println!("  ... {} more head-census changes", shown - 12);
            }
        }
        for key in [
            "split_at_secs",
            "heal_at_secs",
            "heads_target",
            "remerge_secs_probe",
        ] {
            if let Some(v) = tget(key) {
                println!("  {key}={v}");
            }
        }
        match check_partition_timeline(&doc) {
            Ok(Some(derived)) => println!(
                "  re-merge re-derived from the series: {derived:.3}s (matches probe measurement)"
            ),
            Ok(None) => {}
            Err(e) => println!("  re-merge cross-check FAILED: {e}"),
        }
    }

    if let Some(Json::Obj(pf)) = get("profile") {
        let pget = |key: &str| {
            pf.iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| match v {
                    Json::Num(n) => Some(*n),
                    _ => None,
                })
        };
        println!("## engine profile (wall-clock, non-deterministic)");
        if let (Some(drain), Some(commit), Some(barrier)) = (
            pget("drain_secs"),
            pget("commit_secs"),
            pget("barrier_secs"),
        ) {
            // Reports written before the collect phase was timed lack it.
            let collect = pget("collect_secs").unwrap_or(0.0);
            let total = (collect + drain + commit + barrier).max(1e-12);
            println!(
                "  serial collect {:.0}% / parallel drain {:.0}% / serial commit {:.0}% / barrier {:.0}% of {total:.3}s",
                100.0 * collect / total,
                100.0 * drain / total,
                100.0 * commit / total,
                100.0 * barrier / total,
            );
        }
        for key in ["windows", "barriers", "lane_imbalance", "slices_dropped"] {
            if let Some(v) = pget(key) {
                println!("  {key}={v}");
            }
        }
        if let Some((_, Json::Arr(lanes))) = pf.iter().find(|(k, _)| k == "lane_busy_secs") {
            println!("  lanes={}", lanes.len());
        }
    }
    ExitCode::SUCCESS
}

/// The fault-plane counters surfaced on the console and in `explain` —
/// recorded as row metrics by the scenarios that exercise them.
const FAULT_COUNTER_METRICS: [&str; 4] = [
    "drops_partitioned",
    "byzantine_dropped",
    "byzantine_replayed",
    "drops_queue_full",
];

/// Parsed form of `hvdb-bench run`'s arguments, separated from the
/// side-effecting run loop so flag handling is unit-testable.
struct RunArgs {
    names: Vec<String>,
    all: bool,
    opts: RunOpts,
    out_dir: String,
    /// `--trace-out PATH`: write a Chrome trace-event document of a
    /// trace+profile-enabled paper-geometry run after the scenarios.
    trace_out: Option<String>,
    /// `--trace-filter` category mask (default: all categories).
    trace_mask: u32,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        names: Vec::new(),
        all: false,
        opts: RunOpts::default(),
        out_dir: String::from("."),
        trace_out: None,
        trace_mask: hvdb_sim::trace::ALL,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => parsed.all = true,
            "--smoke" => parsed.opts.smoke = true,
            "--trace-out" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return Err("--trace-out needs a path".to_string());
                };
                parsed.trace_out = Some(path.clone());
            }
            "--trace-filter" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    return Err(
                        "--trace-filter needs categories (election,soft-state,fault,flow|all)"
                            .to_string(),
                    );
                };
                parsed.trace_mask = hvdb_sim::trace::parse_mask(spec)?;
            }
            "--threads" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => parsed.opts.threads = n,
                    _ => return Err("--threads needs a positive integer".to_string()),
                }
            }
            "--seeds" => {
                i += 1;
                let Some(list) = args.get(i) else {
                    return Err("--seeds needs a comma-separated list".to_string());
                };
                match list
                    .split(',')
                    .map(str::parse::<u64>)
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(seeds) if !seeds.is_empty() => parsed.opts.seeds = Some(seeds),
                    _ => return Err("--seeds needs a comma-separated list of integers".to_string()),
                }
            }
            "--out-dir" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    return Err("--out-dir needs a path".to_string());
                };
                parsed.out_dir = dir.clone();
            }
            name => parsed.names.push(name.to_string()),
        }
        i += 1;
    }
    Ok(parsed)
}

fn run(args: &[String]) -> ExitCode {
    let RunArgs {
        names,
        all,
        opts,
        out_dir,
        trace_out,
        trace_mask,
    } = match parse_run_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let defs: Vec<ScenarioDef> = if all {
        registry()
    } else if names.is_empty() {
        eprintln!("no scenario named; use `run --all` or `list`");
        return ExitCode::FAILURE;
    } else {
        let mut defs = Vec::new();
        for name in &names {
            match find(name) {
                Some(def) => defs.push(def),
                None => {
                    eprintln!("unknown scenario: {name} (see `hvdb-bench list`)");
                    return ExitCode::FAILURE;
                }
            }
        }
        defs
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create --out-dir {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    // Run every requested scenario even if one fails — a panic inside one
    // scenario (bad assertion, index bug) must not starve the rest of the
    // registry of coverage — and never exit 0 with a missing or invalid
    // report on disk: CI and the committed trajectory both trust the
    // files this loop leaves behind.
    struct Outcome {
        name: &'static str,
        rows: usize,
        secs: f64,
        error: Option<String>,
    }
    let mut outcomes: Vec<Outcome> = Vec::new();
    for def in &defs {
        let started = std::time::Instant::now();
        let report =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_scenario(def, &opts)));
        let secs = started.elapsed().as_secs_f64();
        let mut outcome = Outcome {
            name: def.name,
            rows: 0,
            secs,
            error: None,
        };
        match report {
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic with non-string payload");
                eprintln!("scenario {}: PANICKED: {msg}", def.name);
                outcome.error = Some(format!("panicked: {msg}"));
            }
            Ok(report) => {
                print_report(&report);
                outcome.rows = report.rows.len();
                let path = format!("{out_dir}/BENCH_{}.json", def.name);
                let json = format!("{}\n", report.to_json());
                if let Err(e) = validate_report_str(&json) {
                    eprintln!("scenario {}: invalid report: {e}", def.name);
                    outcome.error = Some(format!("invalid report: {e}"));
                } else if let Err(e) = std::fs::write(&path, &json) {
                    eprintln!("cannot write {path}: {e}");
                    outcome.error = Some(format!("cannot write {path}: {e}"));
                } else {
                    println!("wrote {path} ({} rows, {secs:.1}s)\n", report.rows.len());
                }
            }
        }
        outcomes.push(outcome);
    }
    // End-of-run summary: one line per scenario, failures last-but-loud.
    if defs.len() > 1 {
        println!("{:<18} {:>6} {:>8}  status", "scenario", "rows", "secs");
        for o in &outcomes {
            println!(
                "{:<18} {:>6} {:>8.1}  {}",
                o.name,
                o.rows,
                o.secs,
                o.error.as_deref().unwrap_or("ok")
            );
        }
    }
    let mut trace_failed = false;
    if let Some(path) = &trace_out {
        match write_chrome_trace(path, &opts, trace_mask) {
            Ok(events) => println!("wrote {path} ({events} trace events)"),
            Err(e) => {
                eprintln!("--trace-out: {e}");
                trace_failed = true;
            }
        }
    }
    let failures: Vec<&Outcome> = outcomes.iter().filter(|o| o.error.is_some()).collect();
    if failures.is_empty() && !trace_failed {
        ExitCode::SUCCESS
    } else if failures.is_empty() {
        ExitCode::FAILURE
    } else {
        eprintln!(
            "{} of {} scenario(s) failed: {}",
            failures.len(),
            outcomes.len(),
            failures
                .iter()
                .map(|o| o.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        ExitCode::FAILURE
    }
}

/// Runs the paper geometry (200 nodes, 800x800, the `seed` scenario's
/// HVDB recipe) on the parallel engine with the structured trace at
/// `mask` and detailed profiling enabled, and writes the combined Chrome
/// trace-event document to `path`. Smoke mode shrinks the run the same
/// way the scenarios do. Returns the number of trace events written.
fn write_chrome_trace(path: &str, opts: &RunOpts, mask: u32) -> Result<usize, String> {
    let w = Workload {
        nodes: 200,
        side: 800.0,
        vc_side: 8,
        dim: 4,
        range: 250.0,
        groups: 2,
        members_per_group: 10,
        packets_per_group: 8,
        threads: opts.threads,
        ..Workload::default()
    };
    let w = if opts.smoke { w.smoke() } else { w };
    let scenario = w.build();
    let (_, _, doc) = run_par_hvdb_traced(&scenario, 16, mask);
    let events = match &doc {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| match v {
                Json::Arr(a) => a.len(),
                _ => 0,
            })
            .unwrap_or(0),
        _ => 0,
    };
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(events)
}

fn print_report(report: &ScenarioReport) {
    println!(
        "# {} ({}): {}{}",
        report.scenario,
        report.figure,
        report.summary,
        if report.smoke { " [smoke]" } else { "" }
    );
    let mut current_sweep = String::new();
    for row in &report.rows {
        if row.sweep != current_sweep {
            current_sweep = row.sweep.clone();
            println!("## {current_sweep}");
        }
        let metrics: Vec<String> = row
            .metrics
            .iter()
            .map(|(k, v)| {
                if v.fract() == 0.0 && v.abs() < 9e15 {
                    format!("{k}={v:.0}")
                } else {
                    format!("{k}={v:.3}")
                }
            })
            .collect();
        println!(
            "  {:<22} {:<12} {}",
            row.label,
            row.proto,
            metrics.join(" ")
        );
    }
    // Fault-plane counters, totalled across rows: visible on the console
    // at a glance instead of only inside the JSON metric maps.
    let mut totals: Vec<(&str, f64)> = Vec::new();
    for row in &report.rows {
        for (k, v) in &row.metrics {
            if let Some(name) = FAULT_COUNTER_METRICS.iter().find(|m| *m == k) {
                match totals.iter_mut().find(|(n, _)| n == name) {
                    Some((_, total)) => *total += v,
                    None => totals.push((name, *v)),
                }
            }
        }
    }
    if !totals.is_empty() {
        let joined: Vec<String> = totals.iter().map(|(k, v)| format!("{k}={v:.0}")).collect();
        println!("## fault counters: {}", joined.join(" "));
    }
}

#[cfg(test)]
mod tests {
    use super::parse_run_args;

    fn argv(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn all_with_threads_parses_both_flags() {
        let parsed = parse_run_args(&argv(&["--all", "--threads", "4"])).unwrap();
        assert!(parsed.all);
        assert_eq!(parsed.opts.threads, 4);
        assert!(parsed.names.is_empty());
        assert!(!parsed.opts.smoke);
        assert_eq!(parsed.out_dir, ".");
    }

    #[test]
    fn scenario_names_and_options_coexist() {
        let parsed = parse_run_args(&argv(&[
            "scale",
            "--smoke",
            "--threads",
            "2",
            "--seeds",
            "7,8",
            "--out-dir",
            "/tmp/x",
        ]))
        .unwrap();
        assert_eq!(parsed.names, vec!["scale"]);
        assert!(!parsed.all);
        assert!(parsed.opts.smoke);
        assert_eq!(parsed.opts.threads, 2);
        assert_eq!(parsed.opts.seeds.as_deref(), Some(&[7, 8][..]));
        assert_eq!(parsed.out_dir, "/tmp/x");
    }

    #[test]
    fn bad_flag_values_are_rejected() {
        assert!(parse_run_args(&argv(&["--threads", "0"])).is_err());
        assert!(parse_run_args(&argv(&["--threads"])).is_err());
        assert!(parse_run_args(&argv(&["--seeds", ""])).is_err());
        assert!(parse_run_args(&argv(&["--out-dir"])).is_err());
    }

    #[test]
    fn trace_flags_parse() {
        let parsed = parse_run_args(&argv(&["seed", "--trace-out", "/tmp/t.json"])).unwrap();
        assert_eq!(parsed.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(
            parsed.trace_mask,
            hvdb_sim::trace::ALL,
            "default: all categories"
        );
        let parsed = parse_run_args(&argv(&[
            "seed",
            "--trace-out",
            "t.json",
            "--trace-filter",
            "fault,election",
        ]))
        .unwrap();
        assert_eq!(
            parsed.trace_mask,
            hvdb_sim::trace::FAULT | hvdb_sim::trace::ELECTION
        );
        assert!(parse_run_args(&argv(&["--trace-out"])).is_err());
        assert!(parse_run_args(&argv(&["--trace-filter", "bogus"])).is_err());
        assert!(parse_run_args(&argv(&["--trace-filter"])).is_err());
    }
}
