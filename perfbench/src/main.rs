//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Spreads `--seconds` of host time over [`CHILDREN`] child processes
//! run one after another, each repeating instances of the workload for
//! its share, so no one process's address-space layout sets the result.
//! The parent then checks that every instance of every child produced
//! the same simulated results, runs the workload's store-mode replay in
//! one more child, prints each metric on its own line and ends with one
//! JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A child that panics or outlives its time limit is killed and counted
//! as a failed check; the run still prints its result line.
//!
//! With `--trace 0` the metrics are the end-to-end ones: `host_ops_s` is
//! the throughput of the fastest instance, `setup_s` the median set-up.
//! With `--trace 1` untraced and traced instances alternate (and, on
//! `tenant-mix`, instances without the obs recorder) and the metrics are
//! the per-layer ones. Exits 1 when a check fails, 2 on bad arguments.

use perfbench::{median, metric_name, replay, Instance, Opts, Workload, END_TO_END, MIB};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Heap accounting wrapper over the system allocator: live and peak
/// bytes, for the `peak_heap_mib` metric.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Child processes a run spreads its time over.
const CHILDREN: usize = 10;
/// Host seconds an instance child may run past its share before it is
/// killed.
const CHILD_GRACE_S: f64 = 30.0;
/// Host seconds the replay child may run before it is killed.
const REPLAY_LIMIT_S: f64 = 30.0;

/// What a child process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Repeats instances for its share of the time.
    Instances,
    /// Runs the workload's store-mode replay once.
    Replay,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Instances => "instances",
            Role::Replay => "replay",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run as a child: records on stdout.
    child: Option<Role>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut child = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bit = || match value.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, not {value}")),
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => trace = Some(bit()?),
            "--child" => {
                child = Some(
                    [Role::Instances, Role::Replay]
                        .into_iter()
                        .find(|r| r.name() == value)
                        .ok_or_else(|| format!("unknown child role {value}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        child,
    })
}

/// The instance variants a run alternates between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The workload as measured end to end.
    Plain,
    /// With per-layer host clocks on.
    Traced,
    /// Without the obs recorder (`tenant-mix` only).
    Bare,
}

impl Variant {
    const ALL: [Variant; 3] = [Variant::Plain, Variant::Traced, Variant::Bare];

    fn opts(self, w: Workload, seed: u64) -> Opts {
        let plain = Opts::timed(w, seed);
        match self {
            Variant::Plain => plain,
            Variant::Traced => Opts {
                timing: true,
                ..plain
            },
            Variant::Bare => Opts {
                recorder: false,
                ..plain
            },
        }
    }

    /// The variants a run of `w` alternates between.
    fn of(w: Workload, trace: bool) -> &'static [Variant] {
        match (trace, w.records_by_default()) {
            (false, _) => &Variant::ALL[..1],
            (true, false) => &Variant::ALL[..2],
            (true, true) => &Variant::ALL,
        }
    }
}

/// Writes one instance as tab-separated record lines.
fn write_record(out: &mut impl Write, v: Variant, inst: &Instance) -> std::io::Result<()> {
    writeln!(
        out,
        "inst\t{v:?}\t{}\t{}\t{}\t{}\t{}",
        inst.setup_s, inst.measured_s, inst.ops, inst.attempted, inst.digest
    )?;
    for (k, v) in &inst.sim {
        writeln!(out, "sim\t{k}\t{v}")?;
    }
    for (k, v) in &inst.host {
        writeln!(out, "host\t{k}\t{v}")?;
    }
    for e in &inst.errors {
        writeln!(out, "err\t{}", e.replace(['\t', '\n'], " "))?;
    }
    writeln!(out, "end")
}

/// What a child reported.
#[derive(Default)]
struct ChildReport {
    runs: Vec<(Variant, Instance)>,
    peak_heap: usize,
    errors: Vec<String>,
}

/// Parses a child's record lines.
fn read_records(lines: impl Iterator<Item = String>) -> Result<ChildReport, String> {
    fn num<T: std::str::FromStr>(s: Option<&str>) -> Result<T, String> {
        let s = s.ok_or("short record")?;
        s.parse().map_err(|_| format!("bad number {s}"))
    }
    let mut rep = ChildReport::default();
    let mut cur: Option<(Variant, Instance)> = None;
    for line in lines {
        let mut f = line.split('\t');
        match (f.next().unwrap_or(""), cur.as_mut()) {
            ("inst", None) => {
                let name = f.next().unwrap_or("");
                let v = Variant::ALL
                    .into_iter()
                    .find(|v| format!("{v:?}") == name)
                    .ok_or_else(|| format!("unknown variant {name}"))?;
                let inst = Instance {
                    setup_s: num(f.next())?,
                    measured_s: num(f.next())?,
                    ops: num(f.next())?,
                    attempted: num(f.next())?,
                    digest: num(f.next())?,
                    ..Instance::default()
                };
                cur = Some((v, inst));
            }
            (kind @ ("sim" | "host"), Some((_, inst))) => {
                let key = f.next().unwrap_or("");
                let key = metric_name(key).ok_or_else(|| format!("unknown metric {key}"))?;
                let value: f64 = num(f.next())?;
                let map = if kind == "sim" {
                    &mut inst.sim
                } else {
                    &mut inst.host
                };
                map.insert(key, value);
            }
            ("err", Some((_, inst))) => inst.errors.push(f.next().unwrap_or("").to_string()),
            ("end", Some(_)) => rep.runs.extend(cur.take()),
            ("fail", None) => rep.errors.push(f.next().unwrap_or("").to_string()),
            ("peak", None) => rep.peak_heap = num(f.next())?,
            _ => return Err(format!("unexpected record line: {line}")),
        }
    }
    if cur.is_some() {
        return Err("truncated record".to_string());
    }
    Ok(rep)
}

/// The message a panic carried.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a panic without a message".to_string())
}

/// Runs `f`, turning its error or its panic into a message.
fn guarded<T>(f: impl FnOnce() -> zns::Result<T>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("failed: {e}")),
        Err(p) => Err(format!("panicked: {}", panic_message(&*p))),
    }
}

/// Child: runs the workload's replay and prints each failed check as a
/// `fail` record.
fn run_replay(args: &Args) -> ExitCode {
    let failures = match guarded(|| replay::check(args.workload, args.seed)) {
        Ok(errs) => errs.into_iter().map(|e| format!("replay: {e}")).collect(),
        Err(e) => vec![format!("replay {e}")],
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let written = failures
        .iter()
        .try_for_each(|e| writeln!(out, "fail\t{}", e.replace(['\t', '\n'], " ")))
        .and_then(|()| out.flush());
    if written.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Child: runs rounds of instances while another round fits in
/// `--seconds` (at least one round) and prints them as records.
fn run_instances(args: &Args) -> ExitCode {
    let w = args.workload;
    let variants = Variant::of(w, args.trace);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let start = Instant::now();
    let mut round = 0;
    let fits = |round: usize| {
        let spent = start.elapsed().as_secs_f64();
        spent + spent / round as f64 <= args.seconds
    };
    while round == 0 || fits(round) {
        // Alternate the order so no variant always runs first.
        for i in 0..variants.len() {
            let v = variants[if round % 2 == 0 {
                i
            } else {
                variants.len() - 1 - i
            }];
            let written = match guarded(|| w.run(&v.opts(w, args.seed))) {
                Ok(inst) => write_record(&mut out, v, &inst),
                Err(e) => {
                    let e = e.replace(['\t', '\n'], " ");
                    let _ = writeln!(out, "fail\t{v:?} instance {e}");
                    return ExitCode::FAILURE;
                }
            };
            if written.is_err() {
                return ExitCode::FAILURE;
            }
        }
        round += 1;
    }
    match writeln!(out, "peak\t{}", PEAK.load(Relaxed)).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

/// Runs one child in `role` for `seconds`, kills it if it is still
/// running after `limit_s`, and collects its report.
fn spawn_child(args: &Args, role: Role, seconds: f64, limit_s: f64) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--child", role.name()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = child.stdout.take().ok_or("child has no stdout")?;
    let reader = std::thread::spawn(move || {
        BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .collect::<Vec<String>>()
    });
    let limit = Duration::from_secs_f64(limit_s);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() < limit => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => break None,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot wait for child: {e}"));
            }
        }
    };
    let Some(status) = status else {
        let _ = child.kill();
        let _ = child.wait();
        let _ = reader.join();
        return Err(format!(
            "{} child still running after {limit_s} s; killed",
            role.name()
        ));
    };
    let lines = reader.join().map_err(|_| "child reader panicked")?;
    let mut rep = read_records(lines.into_iter())?;
    // A child that failed says why in a `fail` record; one that did not
    // died some other way.
    if !status.success() && rep.errors.is_empty() {
        rep.errors
            .push(format!("{} child exited with {status}", role.name()));
    }
    Ok(rep)
}

/// The deterministic results of an instance, blame aside (blame exists
/// only with a recorder).
fn sim_key(inst: &Instance) -> (u64, Vec<(&'static str, u64)>) {
    let sim = inst
        .sim
        .iter()
        .filter(|(k, _)| !k.starts_with("obs.blame."))
        .map(|(k, v)| (*k, v.to_bits()))
        .collect();
    (inst.digest, sim)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(Role::Instances) => return run_instances(&args),
        Some(Role::Replay) => return run_replay(&args),
        None => {}
    }
    let w = args.workload;
    let start = Instant::now();
    let mut errors: Vec<String> = Vec::new();
    let mut runs: Vec<(Variant, Instance)> = Vec::new();
    let mut peak_heap = 0usize;
    for k in 0..CHILDREN {
        let share = args.seconds / CHILDREN as f64;
        match spawn_child(&args, Role::Instances, share, share + CHILD_GRACE_S) {
            Ok(rep) => {
                runs.extend(rep.runs);
                peak_heap = peak_heap.max(rep.peak_heap);
                errors.extend(rep.errors);
            }
            Err(e) => errors.push(format!("child {k}: {e}")),
        }
        if !errors.is_empty() {
            break;
        }
    }
    for (v, inst) in &runs {
        eprintln!(
            "{v:?} instance: set-up {:.4} s, measured {:.4} s, {} ops",
            inst.setup_s, inst.measured_s, inst.ops
        );
    }
    // The traced run of a workload whose timed instances carry no
    // recorder takes its blame table from one extra instance with it.
    let blame = if args.trace && !w.records_by_default() && errors.is_empty() {
        let o = Opts {
            recorder: true,
            ..Opts::timed(w, args.seed)
        };
        match guarded(|| w.run(&o)) {
            Ok(inst) => Some(inst),
            Err(e) => {
                errors.push(format!("recorder instance {e}"));
                None
            }
        }
    } else {
        None
    };
    match spawn_child(&args, Role::Replay, args.seconds, REPLAY_LIMIT_S) {
        Ok(rep) => errors.extend(rep.errors),
        Err(e) => errors.push(e),
    }

    // A failed child, instance or replay check counts as one failed op.
    let mut attempted = errors.len() as u64;
    let mut failed = attempted;
    for (_, inst) in &runs {
        attempted += inst.attempted;
        failed += inst.attempted.saturating_sub(inst.ops) + inst.errors.len() as u64;
        errors.extend(inst.errors.iter().map(|e| format!("check: {e}")));
    }
    failed = failed.min(attempted);
    if let Some((_, first)) = runs.first() {
        let key = sim_key(first);
        if let Some((v, _)) = runs.iter().find(|(_, i)| sim_key(i) != key) {
            errors.push(format!(
                "a {v:?} instance at the same seed produced different simulated results"
            ));
        }
        if blame.as_ref().is_some_and(|b| sim_key(b) != key) {
            errors.push("attaching the recorder changed simulated results".to_string());
        }
    }

    // Throughput of a variant's fastest instance. Every instance repeats
    // the same op stream, so the slower ones differ only by what else the
    // host ran meanwhile (see NOTES.md).
    let ops_s = |v: Variant| {
        runs.iter()
            .filter(|(rv, _)| *rv == v)
            .map(|(_, i)| i.ops as f64 / i.measured_s)
            .fold(f64::NAN, f64::max)
    };
    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    if let Some((_, first)) = runs.first() {
        if args.trace {
            for (name, unit) in w.per_layer() {
                let traced: Vec<f64> = runs
                    .iter()
                    .filter(|(v, _)| *v == Variant::Traced)
                    .filter_map(|(_, i)| i.host.get(name).copied())
                    .collect();
                let value = if !traced.is_empty() {
                    median(&traced)
                } else if name.starts_with("obs.blame.") {
                    let b = blame.as_ref().unwrap_or(first);
                    b.sim.get(name).copied().unwrap_or(0.0)
                } else {
                    first.sim.get(name).copied().unwrap_or(0.0)
                };
                metrics.insert(name, (value, unit));
            }
            let plain = ops_s(Variant::Plain);
            metrics.insert(
                "trace.overhead_pct",
                (100.0 * (1.0 - ops_s(Variant::Traced) / plain), "%"),
            );
            if w.records_by_default() {
                metrics.insert(
                    "obs.overhead_pct",
                    (100.0 * (1.0 - plain / ops_s(Variant::Bare)), "%"),
                );
            }
        } else {
            let setup = median(&runs.iter().map(|(_, i)| i.setup_s).collect::<Vec<_>>());
            for (name, unit) in END_TO_END {
                let value = match name {
                    "host_ops_s" => ops_s(Variant::Plain),
                    "setup_s" => setup,
                    "peak_heap_mib" => peak_heap as f64 / MIB,
                    "completed_op_frac" => (attempted - failed) as f64 / attempted as f64,
                    _ => first.sim.get(name).copied().unwrap_or(f64::NAN),
                };
                metrics.insert(name, (value, unit));
            }
        }
    }

    println!(
        "perfbench {} seed {} trace {}: {} instances over {CHILDREN} processes in {:.1} s",
        w.name(),
        args.seed,
        u8::from(args.trace),
        runs.len(),
        start.elapsed().as_secs_f64()
    );
    for (name, (value, unit)) in &metrics {
        println!("{name} {value} {unit}");
    }
    for e in &errors {
        println!("FAILED {e}");
    }
    let correct = errors.is_empty() && !runs.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
