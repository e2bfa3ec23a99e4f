//! Timeline report and SLO gate.
//!
//! Loads `BENCH_*_timeline.json` artifacts, renders each run's per-window
//! throughput as an aligned ASCII timeline, renders a cross-run
//! comparison when more than one file is given (the mdraid GC collapse
//! vs RAIZN's flat band of fig 10 is visible directly in the terminal),
//! and evaluates machine-readable SLOs suitable as a regression gate in
//! `scripts/check.sh`.
//!
//! ```text
//! report [OPTIONS] [FILE...]
//!   FILE                  timeline artifact to render, or any artifact
//!                         with a top-level "slo" array (the scenario
//!                         binaries' BENCH_qos/ziggurat/lsgc/hotpath.json),
//!                         whose rows are re-checked
//!   --expect-flat FILE    render + gate: the run holds a steady throughput
//!                         band (min/max over active windows >= --flat-min)
//!   --expect-decline FILE render + gate: throughput declines after an early
//!                         peak (post-peak trough / early peak <= --decline-max)
//!   --flat-min R          flat-band threshold (default 0.7)
//!   --decline-max R       decline threshold (default 0.6)
//!   --explain FILE        render a BENCH_*_spans.json artifact (causal
//!                         blame trees): per-tenant critical-path blame
//!                         table plus ASCII waterfalls of the captured
//!                         slowest ops
//!   --interference-max P  gate every --explain file: lifecycle, rebuild
//!                         and GC interference share of attributed time
//!                         must be <= P percent (0 = off)
//!   --queue-share-max P   gate every --explain file: queue-wait share of
//!                         attributed time must be <= P percent (0 = off)
//!   --diff A B            compare two artifacts: per-stage p99 deltas
//!                         from a breakdown `stages` or timeline
//!                         `whole_run.stages` map (plus the throughput
//!                         delta for timelines), or per-tenant blame-row
//!                         deltas (mean ns/op per category) when both
//!                         sides are spans artifacts
//!   --regress-max P       gate every --diff pair: worst per-stage p99
//!                         growth and throughput drop must be <= P
//!                         percent (0 = off)
//! ```
//!
//! Every SLO prints one machine-readable line
//! `SLO <check> file=<path> value=<v> threshold=<t> <PASS|FAIL>`; any FAIL
//! exits nonzero after all lines are printed.
//!
//! Analysis windows (`bench::lifecycle::active_windows`): leading and
//! trailing zero-throughput windows are trimmed (a capture may start
//! mid-run on the virtual clock) and the final active window is dropped
//! when possible — the run usually ends inside it, so its throughput over
//! a full window underestimates.

use bench::json::Json;
use bench::lifecycle::{active_windows, cliff_ratio, flat_ratio};
use bench::{BenchError, Slo, SloOp};
use obs::BLAME_CATEGORIES;

const BAR_WIDTH: usize = 40;
const MAX_ROWS: usize = 50;

struct Run {
    label: String,
    path: String,
    window_secs: f64,
    errors: u64,
    /// Throughput of every window, MiB/s, untrimmed.
    tputs: Vec<f64>,
    /// Start of the first window with any throughput, seconds.
    t0: f64,
    whole_run_p99_ns: u64,
    /// `(source.gauge, first mean, last mean, series count)`.
    gauges: Vec<(String, f64, f64, usize)>,
}

fn req<'a>(v: &'a Json, key: &str, path: &str) -> bench::BenchResult<&'a Json> {
    v.get(key)
        .ok_or_else(|| BenchError::Gate(format!("{path}: missing key {key:?}")))
}

fn parse_file(path: &str) -> bench::BenchResult<Json> {
    let text = std::fs::read_to_string(path)?;
    Json::parse(&text).map_err(|e| BenchError::Gate(format!("{path}: invalid JSON: {e}")))
}

/// The rows of an artifact's top-level `"slo"` array; `None` when the
/// document has none (a timeline).
fn slo_rows(doc: &Json, path: &str) -> Option<bench::BenchResult<Vec<Slo>>> {
    let rows = doc.get("slo")?;
    Some(
        rows.as_arr()
            .ok_or_else(|| BenchError::Gate(format!("{path}: slo is not an array")))
            .and_then(|rows| rows.iter().map(Slo::from_json).collect()),
    )
}

fn load(path: &str, doc: &Json) -> bench::BenchResult<Run> {
    let label = req(doc, "name", path)?.as_str().unwrap_or(path).to_string();
    let window_ns = req(doc, "window_ns", path)?
        .as_u64()
        .ok_or_else(|| BenchError::Gate(format!("{path}: window_ns is not an integer")))?;
    let whole_run_p99_ns = req(doc, "whole_run", path)?
        .get("stages")
        .and_then(|s| s.get("whole_op"))
        .and_then(|s| s.get("p99_ns"))
        .and_then(Json::as_u64)
        .unwrap_or(0);

    let mut tputs = Vec::new();
    let mut t0 = None;
    let mut errors = 0u64;
    for w in req(doc, "windows", path)?.as_arr().unwrap_or(&[]) {
        let start_s = req(w, "start_ns", path)?
            .as_u64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: window start_ns is not an integer")))?
            as f64
            / 1e9;
        let tput = req(w, "throughput_mib_s", path)?
            .as_f64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: throughput_mib_s is not a number")))?;
        if tput > 0.0 {
            t0.get_or_insert(start_s);
        }
        errors += w.get("errors").and_then(Json::as_u64).unwrap_or(0);
        tputs.push(tput);
    }

    let mut gauges: Vec<(String, f64, f64, usize)> = Vec::new();
    for g in doc
        .get("gauges")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
    {
        let name = format!(
            "{}.{}",
            g.get("source").and_then(Json::as_str).unwrap_or("?"),
            g.get("gauge").and_then(Json::as_str).unwrap_or("?"),
        );
        let points = g.get("points").and_then(Json::as_arr).unwrap_or(&[]);
        let value_of = |p: &Json| p.as_arr().and_then(|a| a.get(1)).and_then(Json::as_f64);
        let (Some(first), Some(last)) = (
            points.first().and_then(value_of),
            points.last().and_then(value_of),
        ) else {
            continue;
        };
        match gauges.iter_mut().find(|(n, ..)| *n == name) {
            Some((_, f, l, n)) => {
                *f += first;
                *l += last;
                *n += 1;
            }
            None => gauges.push((name, first, last, 1)),
        }
    }
    // Multiple series per gauge (one per device): report the mean.
    for (_, f, l, n) in &mut gauges {
        *f /= *n as f64;
        *l /= *n as f64;
    }

    Ok(Run {
        label,
        path: path.to_string(),
        window_secs: window_ns as f64 / 1e9,
        errors,
        tputs,
        t0: t0.unwrap_or(0.0),
        whole_run_p99_ns,
        gauges,
    })
}

const WATERFALL_WIDTH: usize = 44;
const WATERFALL_MAX_LINES: usize = 24;

/// One per-tenant row of a spans artifact's `blame` table.
struct BlameRow {
    tenant: String,
    count: u64,
    total_ns: u64,
    segments: [u64; BLAME_CATEGORIES.len()],
}

/// One event of a captured slow op's blame tree.
struct SpanEvent {
    stage: String,
    /// Interference attribution (empty when the op only waited on itself).
    blame: String,
    start_ns: u64,
    end_ns: u64,
}

/// One tail-sampled slow op with its exclusive segments and event tree.
struct SlowOp {
    latency_ns: u64,
    op: String,
    tenant: String,
    start_ns: u64,
    end_ns: u64,
    truncated: u64,
    events: Vec<SpanEvent>,
}

/// A parsed `BENCH_*_spans.json` artifact (causal span blame trees).
struct SpanRun {
    path: String,
    name: String,
    threshold_ns: u64,
    roots: u64,
    orphans: u64,
    truncated: u64,
    blame: Vec<BlameRow>,
    slow: Vec<SlowOp>,
}

impl SpanRun {
    /// Percent of all attributed op time spent in `cats`, summed across
    /// tenants; NaN when the artifact attributed no time at all (so a
    /// gate on it fails loudly rather than vacuously passing).
    fn share_pct(&self, cats: &[&str]) -> f64 {
        let mut total = 0u64;
        let mut part = 0u64;
        for row in &self.blame {
            total += row.total_ns;
            for (k, name) in BLAME_CATEGORIES.iter().enumerate() {
                if cats.contains(name) {
                    part += row.segments[k];
                }
            }
        }
        if total == 0 {
            f64::NAN
        } else {
            part as f64 / total as f64 * 100.0
        }
    }
}

fn segments_of(v: &Json, path: &str) -> bench::BenchResult<[u64; BLAME_CATEGORIES.len()]> {
    let seg = req(v, "segments", path)?;
    let mut out = [0u64; BLAME_CATEGORIES.len()];
    for (k, name) in BLAME_CATEGORIES.iter().enumerate() {
        out[k] = seg
            .get(&format!("{name}_ns"))
            .and_then(Json::as_u64)
            .ok_or_else(|| BenchError::Gate(format!("{path}: segments missing {name}_ns")))?;
    }
    Ok(out)
}

fn load_spans(path: &str) -> bench::BenchResult<SpanRun> {
    let doc = parse_file(path)?;
    if req(&doc, "kind", path)?.as_str() != Some("spans") {
        return Err(BenchError::Gate(format!("{path}: not a spans artifact")));
    }
    let u64_of = |v: &Json, key: &str| -> bench::BenchResult<u64> {
        req(v, key, path)?
            .as_u64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {key} is not an integer")))
    };
    let str_of = |v: &Json, key: &str| -> bench::BenchResult<String> {
        Ok(req(v, key, path)?
            .as_str()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {key} is not a string")))?
            .to_string())
    };
    let mut blame = Vec::new();
    for row in req(&doc, "blame", path)?.as_arr().unwrap_or(&[]) {
        blame.push(BlameRow {
            tenant: str_of(row, "tenant")?,
            count: u64_of(row, "count")?,
            total_ns: u64_of(row, "total_ns")?,
            segments: segments_of(row, path)?,
        });
    }
    let mut slow = Vec::new();
    for op in req(&doc, "slow_ops", path)?.as_arr().unwrap_or(&[]) {
        let mut events = Vec::new();
        for ev in req(op, "events", path)?.as_arr().unwrap_or(&[]) {
            events.push(SpanEvent {
                stage: str_of(ev, "stage")?,
                blame: ev
                    .get("blame")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                start_ns: u64_of(ev, "start_ns")?,
                end_ns: u64_of(ev, "end_ns")?,
            });
        }
        slow.push(SlowOp {
            latency_ns: u64_of(op, "latency_ns")?,
            op: str_of(op, "op")?,
            tenant: str_of(op, "tenant")?,
            start_ns: u64_of(op, "start_ns")?,
            end_ns: u64_of(op, "end_ns")?,
            truncated: u64_of(op, "truncated_events")?,
            events,
        });
    }
    Ok(SpanRun {
        path: path.to_string(),
        name: str_of(&doc, "name")?,
        threshold_ns: u64_of(&doc, "threshold_ns")?,
        roots: u64_of(&doc, "roots")?,
        orphans: u64_of(&doc, "orphan_events")?,
        truncated: u64_of(&doc, "truncated_events")?,
        blame,
        slow,
    })
}

fn render_spans(s: &SpanRun) {
    println!("\n## spans ({} from {})", s.name, s.path);
    println!(
        "   {} roots, {} orphan events, {} truncated events, slow-op threshold {}",
        s.roots,
        s.orphans,
        s.truncated,
        fmt_dur(s.threshold_ns),
    );
    let total: u64 = s.blame.iter().map(|r| r.total_ns).sum();
    println!(
        "   blame (exclusive critical-path attribution, {} total):",
        fmt_dur(total)
    );
    for row in &s.blame {
        println!(
            "   tenant {:<6} {:>7} ops  {:>12}",
            row.tenant,
            row.count,
            fmt_dur(row.total_ns)
        );
        for (k, name) in BLAME_CATEGORIES.iter().enumerate() {
            if row.segments[k] == 0 {
                continue;
            }
            println!(
                "     {:<24} {:>6.2}%  {:>12}",
                name,
                row.segments[k] as f64 / row.total_ns.max(1) as f64 * 100.0,
                fmt_dur(row.segments[k])
            );
        }
    }
    // Waterfalls, slowest first. Zero-width events (lock-acquisition
    // markers) render as a single `|` tick at their instant.
    let mut slow: Vec<&SlowOp> = s.slow.iter().collect();
    slow.sort_by_key(|op| std::cmp::Reverse(op.latency_ns));
    for op in slow {
        println!(
            "   slow {} {} (tenant {}, {} events{})",
            op.op,
            fmt_dur(op.latency_ns),
            op.tenant,
            op.events.len(),
            if op.truncated > 0 {
                format!(", {} truncated", op.truncated)
            } else {
                String::new()
            },
        );
        let dur = (op.end_ns.saturating_sub(op.start_ns)).max(1) as u128;
        let mut events: Vec<&SpanEvent> = op.events.iter().collect();
        events.sort_by_key(|e| (e.start_ns, e.end_ns));
        for (i, ev) in events.iter().enumerate() {
            if i == WATERFALL_MAX_LINES {
                println!("     ... (+{} more events)", events.len() - i);
                break;
            }
            let off = (ev.start_ns.saturating_sub(op.start_ns) as u128 * WATERFALL_WIDTH as u128
                / dur) as usize;
            let off = off.min(WATERFALL_WIDTH - 1);
            let ev_dur = ev.end_ns.saturating_sub(ev.start_ns);
            let (mark, len) = if ev_dur == 0 {
                ("|", 1)
            } else {
                let len = (ev_dur as u128 * WATERFALL_WIDTH as u128 / dur) as usize;
                ("#", len.clamp(1, WATERFALL_WIDTH - off))
            };
            let label = if ev.blame.is_empty() {
                ev.stage.clone()
            } else {
                format!("{} [{}]", ev.stage, ev.blame)
            };
            println!(
                "     {:<28} |{:<width$}| {:>10}",
                label,
                format!("{}{}", " ".repeat(off), mark.repeat(len)),
                fmt_dur(ev_dur),
                width = WATERFALL_WIDTH
            );
        }
    }
}

/// One side of a `--diff` comparison: any artifact carrying a per-stage
/// latency map (`stages` in a breakdown, `whole_run.stages` in a
/// timeline).
struct DiffSide {
    path: String,
    /// `(stage, p99_ns)` in the artifact's (sorted) key order — or, for
    /// a spans artifact, `(tenant:category, mean ns/op)` blame rows.
    stages: Vec<(String, u64)>,
    /// Mean active-window throughput when the artifact is a timeline.
    tput_mib_s: Option<f64>,
}

fn load_diff(path: &str) -> bench::BenchResult<DiffSide> {
    let doc = parse_file(path)?;
    if doc.get("kind").and_then(Json::as_str) == Some("spans") {
        return spans_diff_side(&doc, path);
    }
    let stage_map = doc
        .get("stages")
        .or_else(|| doc.get("whole_run").and_then(|w| w.get("stages")))
        .and_then(Json::as_obj)
        .ok_or_else(|| {
            BenchError::Gate(format!(
                "{path}: no per-stage map (expected a breakdown or timeline artifact)"
            ))
        })?;
    let mut stages = Vec::new();
    for (name, st) in stage_map {
        let p99 = req(st, "p99_ns", path)?
            .as_u64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {name}.p99_ns is not an integer")))?;
        stages.push((name.clone(), p99));
    }
    let mut tput_mib_s = None;
    if let Some(ws) = doc.get("windows").and_then(Json::as_arr) {
        let tputs: Vec<f64> = ws
            .iter()
            .filter_map(|w| w.get("throughput_mib_s").and_then(Json::as_f64))
            .collect();
        let active = active_windows(&tputs);
        if !active.is_empty() {
            tput_mib_s = Some(active.iter().sum::<f64>() / active.len() as f64);
        }
    }
    Ok(DiffSide {
        path: path.to_string(),
        stages,
        tput_mib_s,
    })
}

/// Diffs a spans artifact by its blame table: every (tenant, category)
/// pair with attributed time becomes a comparable entry valued at its
/// mean per-op nanoseconds (per-op so runs of different length compare),
/// which puts GC-interference regressions under the same worst-growth
/// gate as stage p99s.
fn spans_diff_side(doc: &Json, path: &str) -> bench::BenchResult<DiffSide> {
    let mut stages = Vec::new();
    for row in req(doc, "blame", path)?.as_arr().unwrap_or(&[]) {
        let tenant = req(row, "tenant", path)?
            .as_str()
            .ok_or_else(|| BenchError::Gate(format!("{path}: blame tenant is not a string")))?
            .to_string();
        let count = req(row, "count", path)?
            .as_u64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: blame count is not an integer")))?;
        if count == 0 {
            continue;
        }
        let segments = segments_of(row, path)?;
        for (k, name) in BLAME_CATEGORIES.iter().enumerate() {
            if segments[k] > 0 {
                stages.push((format!("{tenant}:{name}"), segments[k] / count));
            }
        }
    }
    Ok(DiffSide {
        path: path.to_string(),
        stages,
        tput_mib_s: None,
    })
}

/// Worst per-stage p99 growth from `a` to `b` in percent (negative =
/// improvement everywhere). Stages missing on either side or with a zero
/// baseline are skipped; `None` when nothing is comparable.
fn worst_p99_growth(a: &DiffSide, b: &DiffSide) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for (name, ap) in &a.stages {
        let Some((_, bp)) = b.stages.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if *ap == 0 {
            continue;
        }
        let growth = (*bp as f64 - *ap as f64) / *ap as f64 * 100.0;
        worst = Some(worst.map_or(growth, |w| w.max(growth)));
    }
    worst
}

fn render_diff(a: &DiffSide, b: &DiffSide) {
    println!("\n## diff ({} -> {})", a.path, b.path);
    println!(
        "   {:<24} {:>12} {:>12} {:>8}",
        "stage p99", "baseline", "candidate", "delta"
    );
    for (name, ap) in &a.stages {
        match b.stages.iter().find(|(n, _)| n == name) {
            Some((_, bp)) => {
                let delta = if *ap > 0 {
                    format!("{:+.1}%", (*bp as f64 - *ap as f64) / *ap as f64 * 100.0)
                } else {
                    "-".to_string()
                };
                println!(
                    "   {:<24} {:>12} {:>12} {:>8}",
                    name,
                    fmt_dur(*ap),
                    fmt_dur(*bp),
                    delta
                );
            }
            None => println!(
                "   {:<24} {:>12} {:>12} {:>8}",
                name,
                fmt_dur(*ap),
                "-",
                "-"
            ),
        }
    }
    for (name, bp) in &b.stages {
        if !a.stages.iter().any(|(n, _)| n == name) {
            println!(
                "   {:<24} {:>12} {:>12} {:>8}",
                name,
                "-",
                fmt_dur(*bp),
                "-"
            );
        }
    }
    if let (Some(ta), Some(tb)) = (a.tput_mib_s, b.tput_mib_s) {
        println!(
            "   throughput {:.0} -> {:.0} MiB/s ({:+.1}%)",
            ta,
            tb,
            (tb - ta) / ta * 100.0
        );
    }
}

/// Averages `values` down to at most `buckets` entries, preserving order.
fn resample(values: &[f64], buckets: usize) -> Vec<f64> {
    if values.len() <= buckets {
        return values.to_vec();
    }
    (0..buckets)
        .map(|b| {
            let lo = b * values.len() / buckets;
            let hi = ((b + 1) * values.len() / buckets).max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "#".repeat(n.min(width))
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.1} ms", ns as f64 / 1e6)
}

/// Duration with an auto-picked unit: span events range from sub-µs lock
/// marks to multi-ms whole ops, so a fixed ms scale would flatten most of
/// them to 0.0.
fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.1} us", ns as f64 / 1e3)
    }
}

fn render(run: &Run) {
    println!(
        "\n## {} ({})\n   window {:.0} ms, {} windows ({} active), errors {}, whole-run p99 {}",
        run.label,
        run.path,
        run.window_secs * 1e3,
        run.tputs.len(),
        active_windows(&run.tputs).len(),
        run.errors,
        fmt_ms(run.whole_run_p99_ns),
    );
    let tputs = active_windows(&run.tputs);
    if tputs.is_empty() {
        println!("   (no active windows)");
        return;
    }
    let rows = resample(tputs, MAX_ROWS);
    let max = rows.iter().cloned().fold(0.0f64, f64::max);
    let step = tputs.len() as f64 * run.window_secs / rows.len() as f64;
    println!("   t(s)    MiB/s");
    for (i, v) in rows.iter().enumerate() {
        println!(
            "   {:>6.2} {:>7.0} |{}",
            run.t0 + i as f64 * step,
            v,
            bar(*v, max, BAR_WIDTH)
        );
    }
    if !run.gauges.is_empty() {
        println!("   gauges (mean first -> mean last):");
        for (name, first, last, n) in &run.gauges {
            println!(
                "     {name}: {first:.2} -> {last:.2}{}",
                if *n > 1 {
                    format!(" ({n} series)")
                } else {
                    String::new()
                }
            );
        }
    }
    // Concurrency health: the sharded write pipeline's lock counters are
    // cumulative (the last sample is the run total, wall-clock nanos —
    // see obs::LockStats), and the engine's queue-depth gauge reports its
    // high-water mark. Summed back over series (the parse step averaged).
    let total_of = |suffix: &str| -> Option<f64> {
        let mut sum = None;
        for (name, _, last, n) in &run.gauges {
            if name.ends_with(suffix) {
                *sum.get_or_insert(0.0) += last * *n as f64;
            }
        }
        sum
    };
    if let (Some(acq), Some(contended), Some(wait)) = (
        total_of(".lock_acquisitions"),
        total_of(".lock_contended"),
        total_of(".lock_wait_ns"),
    ) {
        if acq > 0.0 {
            println!(
                "   lock contention: {acq:.0} acquisitions, {:.3}% contended, \
                 {:.1} ns blocked per acquisition (wall clock)",
                contended / acq * 100.0,
                wait / acq,
            );
        }
    }
    if let Some(peak) = total_of(".pipeline_queue_depth_peak") {
        println!("   pipeline queue depth peak: {peak:.0}");
    }
    // Redundancy health: the volume exports its failed-device count and
    // rebuild progress as gauges; surface them so a run that ended
    // degraded (or mid-rebuild) is impossible to miss in the report.
    if let Some(failed) = total_of(".failed_devices") {
        if failed > 0.0 {
            println!(
                "   DEGRADED: {failed:.0} device(s) still failed at end of run \
                 (reads served via parity decode)"
            );
        }
    }
    if let Some(total) = total_of(".rebuild_zones_total") {
        if total > 0.0 {
            let done = total_of(".rebuild_zones_done").unwrap_or(0.0);
            println!(
                "   rebuild in flight: {done:.0}/{total:.0} zones ({:.0}%)",
                done / total * 100.0
            );
        }
    }
}

/// Side-by-side timelines aligned at each run's first active window, on a
/// shared scale — a collapsing run visibly empties next to a flat one.
fn render_comparison(runs: &[&Run]) {
    let series: Vec<(&str, &[f64])> = runs
        .iter()
        .map(|r| (r.label.as_str(), active_windows(&r.tputs)))
        .collect();
    let rows = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    if rows == 0 || runs.len() < 2 {
        return;
    }
    let buckets = rows.min(MAX_ROWS);
    let resampled: Vec<Vec<f64>> = series.iter().map(|(_, v)| resample(v, buckets)).collect();
    let max = resampled.iter().flatten().cloned().fold(0.0f64, f64::max);
    let col = BAR_WIDTH / 2 + 9;
    println!("\n## comparison (aligned at first active window, shared scale)");
    print!("   rel(s) ");
    for (label, _) in &series {
        print!("| {label:<col$} ");
    }
    println!();
    let step = rows as f64 * runs[0].window_secs / buckets as f64;
    for i in 0..buckets {
        print!("   {:>6.2} ", i as f64 * step);
        for r in &resampled {
            match r.get(i) {
                Some(v) => {
                    let cell = format!("{:>6.0} {}", v, bar(*v, max, BAR_WIDTH / 2));
                    print!("| {cell:<col$} ");
                }
                None => print!("| {:<col$} ", ""),
            }
        }
        println!();
    }
}

/// A band check on a timeline artifact.
#[derive(Clone, Copy)]
enum Band {
    /// `--expect-flat`: min/max over active windows >= `--flat-min`.
    Flat,
    /// `--expect-decline`: post-peak trough over early peak <=
    /// `--decline-max`.
    Decline,
}

impl Band {
    /// The check as an SLO row over the run's full window series; too few
    /// active windows to evaluate reads NaN, which fails.
    fn slo(self, run: &Run, flat_min: f64, decline_max: f64) -> Slo {
        match self {
            Band::Flat => {
                let v = flat_ratio(&run.tputs).unwrap_or(f64::NAN);
                Slo::new("flat", v, SloOp::Ge, flat_min)
            }
            Band::Decline => {
                let v = cliff_ratio(&run.tputs).unwrap_or(f64::NAN);
                Slo::new("decline", v, SloOp::Le, decline_max)
            }
        }
    }
}

fn usage() -> BenchError {
    BenchError::Gate(
        "usage: report [--expect-flat FILE] [--expect-decline FILE] \
         [--flat-min R] [--decline-max R] [--explain FILE] \
         [--interference-max P] [--queue-share-max P] [--diff A B] \
         [--regress-max P] [FILE...]"
            .to_string(),
    )
}

fn main() -> bench::BenchResult {
    let mut files: Vec<(String, Option<Band>)> = Vec::new();
    let mut flat_min = 0.7f64;
    let mut decline_max = 0.6f64;
    let mut explain_files: Vec<String> = Vec::new();
    let mut interference_max = 0.0f64;
    let mut queue_share_max = 0.0f64;
    let mut diff_pairs: Vec<(String, String)> = Vec::new();
    let mut regress_max = 0.0f64;
    // An artifact reader has no workload to shard; accepted (and inert)
    // for CLI uniformity with the other binaries.
    let mut rest = bench::cli_args();
    bench::take_threads(&mut rest)?;
    let mut args = rest.into_iter();
    while let Some(a) = args.next() {
        let numeric = |args: &mut dyn Iterator<Item = String>| {
            args.next()
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(usage)
        };
        match a.as_str() {
            "--expect-flat" => files.push((args.next().ok_or_else(usage)?, Some(Band::Flat))),
            "--expect-decline" => files.push((args.next().ok_or_else(usage)?, Some(Band::Decline))),
            "--flat-min" => flat_min = numeric(&mut args)?,
            "--decline-max" => decline_max = numeric(&mut args)?,
            "--explain" => explain_files.push(args.next().ok_or_else(usage)?),
            "--interference-max" => interference_max = numeric(&mut args)?,
            "--queue-share-max" => queue_share_max = numeric(&mut args)?,
            "--diff" => {
                let a = args.next().ok_or_else(usage)?;
                let b = args.next().ok_or_else(usage)?;
                diff_pairs.push((a, b));
            }
            "--regress-max" => regress_max = numeric(&mut args)?,
            f if !f.starts_with("--") => files.push((f.to_string(), None)),
            _ => return Err(usage()),
        }
    }
    if files.is_empty() && explain_files.is_empty() && diff_pairs.is_empty() {
        return Err(usage());
    }

    // Dispatch on content: a document with an `slo` array is re-checked
    // row by row; anything else is a timeline.
    let mut runs: Vec<(Run, Option<Band>)> = Vec::new();
    let mut slo_files: Vec<(String, Vec<Slo>)> = Vec::new();
    for (path, band) in files {
        let doc = parse_file(&path)?;
        match slo_rows(&doc, &path) {
            Some(rows) if band.is_none() => slo_files.push((path, rows?)),
            _ => runs.push((load(&path, &doc)?, band)),
        }
    }
    let span_runs: Vec<SpanRun> = explain_files
        .iter()
        .map(|path| load_spans(path))
        .collect::<bench::BenchResult<_>>()?;
    let diffs: Vec<(DiffSide, DiffSide)> = diff_pairs
        .iter()
        .map(|(a, b)| Ok((load_diff(a)?, load_diff(b)?)))
        .collect::<bench::BenchResult<_>>()?;

    for (run, _) in &runs {
        render(run);
    }
    if runs.len() >= 2 {
        render_comparison(&runs.iter().map(|(r, _)| r).collect::<Vec<_>>());
    }
    for s in &span_runs {
        render_spans(s);
    }
    for (a, b) in &diffs {
        render_diff(a, b);
    }

    println!();
    let mut failures = Vec::new();
    for (run, band) in &runs {
        if let Some(band) = band {
            let row = band.slo(run, flat_min, decline_max);
            failures.extend(bench::print_slos(&run.path, &[row]));
        }
    }
    for (path, rows) in &slo_files {
        failures.extend(bench::print_slos(path, rows));
    }

    // Span-blame gates: shares are NaN when the artifact attributed no
    // time, which fails the row — a dead tracer cannot pass.
    for s in &span_runs {
        let mut rows = Vec::new();
        if interference_max > 0.0 {
            let v = s.share_pct(&[
                "interference_lifecycle",
                "interference_rebuild",
                "interference_gc",
            ]);
            rows.push(Slo::new(
                "spans_interference_share",
                v,
                SloOp::Le,
                interference_max,
            ));
        }
        if queue_share_max > 0.0 {
            let v = s.share_pct(&["queue"]);
            rows.push(Slo::new("spans_queue_share", v, SloOp::Le, queue_share_max));
        }
        failures.extend(bench::print_slos(&s.path, &rows));
    }

    for (a, b) in &diffs {
        if regress_max > 0.0 {
            let worst = worst_p99_growth(a, b).unwrap_or(f64::NAN);
            let mut rows = vec![Slo::new("diff_p99_regress", worst, SloOp::Le, regress_max)];
            if let (Some(ta), Some(tb)) = (a.tput_mib_s, b.tput_mib_s) {
                let drop_pct = (ta - tb) / ta * 100.0;
                rows.push(Slo::new(
                    "diff_tput_regress",
                    drop_pct,
                    SloOp::Le,
                    regress_max,
                ));
            }
            failures.extend(bench::print_slos(&b.path, &rows));
        }
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(BenchError::Gate(failures.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_run(rows: Vec<BlameRow>) -> SpanRun {
        SpanRun {
            path: "BENCH_x_spans.json".into(),
            name: "x".into(),
            threshold_ns: 0,
            roots: rows.iter().map(|r| r.count).sum(),
            orphans: 0,
            truncated: 0,
            blame: rows,
            slow: Vec::new(),
        }
    }

    fn row(tenant: &str, queue: u64, lifecycle: u64, other: u64) -> BlameRow {
        let mut segments = [0u64; BLAME_CATEGORIES.len()];
        segments[0] = queue; // "queue"
        segments[7] = lifecycle; // "interference_lifecycle"
        segments[10] = other; // "other"
        BlameRow {
            tenant: tenant.into(),
            count: 1,
            total_ns: segments.iter().sum(),
            segments,
        }
    }

    #[test]
    fn spans_share_splits_queue_from_interference() {
        // 2000ns queue + 500ns lifecycle + 1500ns other across two tenants.
        let s = span_run(vec![row("0", 1500, 500, 0), row("1", 500, 0, 1500)]);
        assert!((s.share_pct(&["queue"]) - 50.0).abs() < 1e-9);
        assert!(
            (s.share_pct(&["interference_lifecycle", "interference_rebuild"]) - 12.5).abs() < 1e-9
        );
    }

    #[test]
    fn spans_share_is_nan_when_nothing_was_attributed() {
        // A gate comparison against NaN is false: a dead tracer fails.
        let s = span_run(Vec::new());
        let v = s.share_pct(&["queue"]);
        assert!(v.is_nan());
        let passes_gate = v <= 60.0;
        assert!(!passes_gate);
    }

    fn side(stages: &[(&str, u64)], tput: Option<f64>) -> DiffSide {
        DiffSide {
            path: "x.json".into(),
            stages: stages.iter().map(|(n, p)| (n.to_string(), *p)).collect(),
            tput_mib_s: tput,
        }
    }

    #[test]
    fn spans_artifacts_diff_by_blame_rows() {
        let seg = |q: u64, gc: u64| {
            BLAME_CATEGORIES
                .iter()
                .map(|name| {
                    let v = match *name {
                        "queue" => q,
                        "interference_gc" => gc,
                        _ => 0,
                    };
                    format!("\"{name}_ns\": {v}")
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let doc = |q: u64, gc: u64| {
            Json::parse(&format!(
                "{{\"kind\": \"spans\", \"blame\": [{{\"tenant\": \"app\",                  \"count\": 2, \"total_ns\": {}, \"segments\": {{{}}}}}]}}",
                q + gc,
                seg(q, gc)
            ))
            .unwrap()
        };
        let a = spans_diff_side(&doc(200, 100), "a.json").unwrap();
        assert_eq!(
            a.stages,
            vec![
                ("app:queue".into(), 100),
                ("app:interference_gc".into(), 50)
            ]
        );
        // GC blame per op doubled while queue stayed put: the worst-growth
        // gate sees the +100% interference regression.
        let b = spans_diff_side(&doc(200, 200), "b.json").unwrap();
        let worst = worst_p99_growth(&a, &b).unwrap();
        assert!((worst - 100.0).abs() < 1e-9);
    }

    #[test]
    fn diff_growth_picks_the_worst_stage() {
        let a = side(&[("whole_op", 1000), ("device_io", 400), ("gone", 7)], None);
        let b = side(&[("whole_op", 1100), ("device_io", 600), ("new", 9)], None);
        // device_io +50% beats whole_op +10%; unmatched stages are skipped.
        let worst = worst_p99_growth(&a, &b).unwrap();
        assert!((worst - 50.0).abs() < 1e-9);
    }

    #[test]
    fn diff_growth_is_none_when_nothing_is_comparable() {
        let a = side(&[("whole_op", 0)], None);
        let b = side(&[("whole_op", 500)], None);
        assert!(worst_p99_growth(&a, &b).is_none());
    }
}
