//! Hot-path microbenchmark: XOR kernel speedup, steady-state write-path
//! throughput, per-write heap allocation counts, and observability
//! overhead.
//!
//! Emits `BENCH_hotpath.json` in the working directory with:
//!
//! - `xor_scalar_ns_per_op` / `xor_word_ns_per_op`: ns per 64 KiB XOR for
//!   the pinned byte-at-a-time baseline vs the word-vectorized kernel,
//!   and the resulting `xor_speedup` (gate: >= 4x).
//! - `gf_scalar_encode_ns_per_op` / `gf_fused_encode_ns_per_op`: ns per
//!   P+Q encode of four 64 KiB data units, unit by unit through the
//!   scalar references vs one fused Horner pass (`sim::gf_pq_into`), and
//!   the resulting `gf_encode_speedup` (gate: >= 4x).
//! - `write_path_mib_s`: host-CPU throughput of steady-state full-stripe
//!   RAIZN writes with tracing enabled (simulated device time costs
//!   nothing real).
//! - `allocs_per_full_stripe_write`: heap allocations per full-stripe
//!   write after warm-up, **with an unsampled windowed recorder and a
//!   gauge timeline attached** (gate: 0 — stripe-buffer pool, pooled
//!   metadata scratch, the fixed-size trace ring, preallocated window
//!   digests and preallocated gauge series make the steady state
//!   allocation-free).
//! - `allocs_per_partial_write`: heap allocations per 4 KiB partial-stripe
//!   write (partial-parity log path) after warm-up, tracing enabled.
//! - `allocs_per_full_stripe_write_p2` / `allocs_per_partial_write_p2`:
//!   the same two counts on a dual-parity (RAIZN-2) volume — the Q
//!   accumulator and second pp-log leg share the parity pools, so the
//!   full-stripe count gates at 0 as well (`raizn2_write_mib_s` reports
//!   its throughput). `raizn2_over_raizn1_host` is the ratio of the two
//!   traced full-stripe write throughputs (reported, not gated).
//! - `allocs_per_double_degraded_read_p2`: heap allocations per 64 KiB
//!   read of a unit held by one of two failed devices on a dual-parity
//!   volume, after warm-up (gate: 0 — the decode fetches into pooled
//!   scratch and writes the missing slot straight into the caller's
//!   buffer).
//! - `allocs_per_lsraid_write` / `lsraid_waf_gc_idle`: the
//!   log-structured engine's steady state — heap allocations per
//!   stripe-aligned append with full observability attached (gate: 0)
//!   and the WAF its stats report while the collector is idle (gate:
//!   exactly 1.0; `lsraid_write_mib_s` reports its throughput).
//! - `allocs_per_qos_op`: heap allocations per op submitted through and
//!   dispatched by the `qos` scheduler (coalescer on, recorder attached)
//!   after warm-up (gate: 0 — pooled payload buffers, preallocated
//!   queues and reused batch scratch make its steady state
//!   allocation-free too).
//! - `allocs_per_write_managed`: heap allocations per full-stripe write
//!   with a `ZoneLifecycleManager` attached and pumped once per write
//!   (gate: 0 — per-zone manager state is preallocated and the pump's
//!   zone scan touches only atomics).
//! - `trace_overhead_pct`: relative slowdown of the observed write path
//!   (unsampled tracing + tumbling windows + per-write timeline polling)
//!   vs an identical unobserved volume (gate: < 5%). Both paths are timed
//!   in interleaved rounds and the per-round minimum is compared, so a
//!   one-off scheduler hiccup cannot fail the gate. The value is signed:
//!   a negative reading is noise, reported as measured.
//! - `scaling`: wall-clock thread-scaling sweep of the sharded write
//!   pipeline — eight zone-disjoint sequential full-stripe jobs driven by
//!   1/2/4/8 engine workers against fresh volumes, per-count minimum of
//!   two rounds (gate: >= 2x throughput at 4 workers vs 1, checked only
//!   when the host has >= 4 cores). `--threads N` caps the sweep's
//!   largest worker count.
//!
//! - `slo`: one row per gate above (`{name, value, op, bound}`, named
//!   after the key it gates). The artifact is written before the gates
//!   are checked, so a failing run records its own verdict; `report
//!   BENCH_hotpath.json` re-checks it.
//!
//! Also emits `BENCH_hotpath_breakdown.json` (per-stage latency breakdown
//! of the traced rounds) and `BENCH_hotpath_timeline.json` (window
//! digests and gauge series captured while the gate ran).

use bench::lsgc::phase_waf;
use bench::{gate, Slo, SloOp};
use lsraid::{LsConfig, LsVolume};
use qos::{QosConfig, QosScheduler, TenantSpec};
use raizn::{LifecycleConfig, RaiznConfig, RaiznVolume, ZoneLifecycleManager};
use sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workloads::{
    Admission, Engine, JobSpec, OpKind, Pattern, SchedCompletion, SharedScheduler, ZonedTarget,
};
use zns::{WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume};

/// Allocation-counting wrapper around the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter update has no
// allocator-visible side effects.
unsafe impl GlobalAlloc for CountingAlloc {
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
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Times `iters` runs of `f` and returns ns per run.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Builds a fresh 5-device RAIZN volume; when `recorder` is given, every
/// device and the volume itself record into it (unsampled, so the traced
/// configuration is the worst case) and are registered on `timeline`.
fn fresh_volume(
    observe: Option<(&Arc<obs::Recorder>, &Arc<obs::Timeline>)>,
    parity: u32,
) -> bench::BenchResult<Arc<RaiznVolume>> {
    let devices: Vec<Arc<ZnsDevice>> = (0..5)
        .map(|i| {
            let dev = Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(32, 4096, 4096)
                    .open_limits(14, 28)
                    .store_data(false)
                    .build(),
            ));
            if let Some((rec, tl)) = observe {
                dev.set_recorder(rec.clone(), i as u32);
                tl.register(dev.clone());
            }
            dev
        })
        .collect();
    let vol = Arc::new(RaiznVolume::format(
        devices,
        RaiznConfig {
            parity,
            ..RaiznConfig::default()
        },
        SimTime::ZERO,
    )?);
    if let Some((rec, tl)) = observe {
        vol.set_recorder(rec.clone());
        tl.register(vol.clone());
    }
    Ok(vol)
}

/// Builds a fresh 5-device log-structured volume with the full
/// observability plane attached (unsampled, like `fresh_volume`).
fn fresh_ls_volume(
    rec: &Arc<obs::Recorder>,
    tl: &Arc<obs::Timeline>,
) -> bench::BenchResult<Arc<LsVolume>> {
    let devices: Vec<Arc<ZnsDevice>> = (0..5)
        .map(|i| {
            let dev = Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(32, 4096, 4096)
                    .open_limits(14, 28)
                    .store_data(false)
                    .build(),
            ));
            dev.set_recorder(rec.clone(), i as u32);
            tl.register(dev.clone());
            dev
        })
        .collect();
    let vol = Arc::new(LsVolume::format(
        devices,
        LsConfig::default(),
        SimTime::ZERO,
    )?);
    vol.set_recorder(rec.clone());
    tl.register(vol.clone());
    Ok(vol)
}

/// Issues `iters` contiguous writes of `data` starting at `*lba`,
/// returning (ns per write, heap allocations observed). When `timeline`
/// is given it is polled once per write, like the workload engine does.
fn write_round(
    vol: &dyn ZonedVolume,
    lba: &mut u64,
    data: &[u8],
    iters: u64,
    timeline: Option<&obs::Timeline>,
) -> bench::BenchResult<(f64, u64)> {
    let a0 = allocs();
    let t0 = Instant::now();
    for _ in 0..iters {
        vol.write(SimTime::ZERO, *lba, data, WriteFlags::default())?;
        if let Some(tl) = timeline {
            tl.maybe_sample(SimTime::ZERO);
        }
        *lba += data.len() as u64 / 4096;
    }
    let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    Ok((ns, allocs() - a0))
}

/// Drives `iters` sequential 64 KiB writes closed-loop (QD 8) through a
/// `qos` scheduler, returning heap allocations observed. `comps` is the
/// caller's reused completion scratch so the round itself owns no heap.
fn qos_round(
    sched: &QosScheduler,
    off: &mut u64,
    frontier: &mut SimTime,
    data: &[u8],
    iters: u64,
    comps: &mut Vec<SchedCompletion>,
) -> bench::BenchResult<u64> {
    let a0 = allocs();
    let sectors = data.len() as u64 / 4096;
    let (mut submitted, mut completed) = (0u64, 0u64);
    let mut inflight = 0usize;
    while completed < iters {
        while submitted < iters && inflight < 8 {
            match sched.submit_write(0, 0, *frontier, *off, data)? {
                Admission::Admitted(_) => {}
                Admission::Shed { .. } => {
                    return Err(bench::BenchError::Gate(
                        "qos hotpath round shed an op".to_string(),
                    ));
                }
            }
            *off += sectors;
            submitted += 1;
            inflight += 1;
        }
        comps.clear();
        if !sched.step(comps)? {
            return Err(bench::BenchError::Gate(
                "qos scheduler idle with ops outstanding".to_string(),
            ));
        }
        for c in comps.iter() {
            *frontier = (*frontier).max(c.done);
            completed += 1;
            inflight -= 1;
        }
    }
    Ok(allocs() - a0)
}

/// One thread-scaling trial: runs `jobs` on `threads` engine workers
/// against a fresh volume, returning (wall seconds, ops, bytes).
fn scaling_trial(threads: usize, jobs: &[JobSpec]) -> bench::BenchResult<(f64, u64, u64)> {
    let target = ZonedTarget::new(fresh_volume(None, 1)?);
    let engine = Engine::new(0x5CA1E);
    let t0 = Instant::now();
    let report = engine.run_threaded(&target, jobs, threads)?;
    let wall = t0.elapsed().as_secs_f64();
    Ok((wall, report.total_ops, report.total_bytes))
}

fn main() -> bench::BenchResult {
    // `--threads N` caps the largest worker count of the scaling sweep
    // (useful on small hosts); the sweep's default top is 8.
    let mut args = bench::cli_args();
    let capped = args.iter().any(|a| a == "--threads");
    let threads_flag = bench::take_threads(&mut args)?;
    if let Some(extra) = args.first() {
        return Err(bench::BenchError::Gate(format!(
            "unknown argument {extra:?} (usage: hotpath [--threads N])"
        )));
    }
    let sweep_max = if capped { threads_flag } else { 8 };

    // --- XOR kernel: 64 KiB buffers -------------------------------------
    let src = vec![0xA5u8; 64 * 1024];
    let mut dst = vec![0x5Au8; 64 * 1024];
    let scalar_ns = time_ns(400, || {
        sim::xor::xor_into_scalar_reference(&mut dst, black_box(&src));
    });
    let word_ns = time_ns(400, || {
        sim::xor_into(&mut dst, black_box(&src));
    });
    black_box(dst[0]);
    let speedup = scalar_ns / word_ns;

    // --- Write path: steady-state full-stripe writes --------------------
    // Two identical volumes, one unobserved and one with the full
    // observability plane attached: unsampled tracing (sample_every = 1),
    // tumbling windows, and a gauge timeline polled per write. Rounds
    // interleave so both see the same machine conditions; the minimum
    // round of each side is compared.
    let recorder = obs::Recorder::new(65_536, 1);
    recorder.enable_windows(bench::TIMELINE_WINDOW, 256);
    // Span tracing (blame trees + rolling-p99 tail sampling) runs during
    // the gated rounds: the 0-alloc and <5% overhead budgets hold with
    // the full causal-tracing plane on.
    recorder.enable_spans(obs::SpanConfig {
        slow: None,
        keep_slowest: None,
    });
    let timeline = obs::Timeline::new(bench::TIMELINE_WINDOW);
    let untraced = fresh_volume(None, 1)?;
    let traced = fresh_volume(Some((&recorder, &timeline)), 1)?;
    let stripe_sectors = 64u64; // 4 data units x 16 sectors
    let stripe_bytes = (stripe_sectors * 4096) as usize;
    let data = vec![0u8; stripe_bytes];
    let (mut lba_u, mut lba_t) = (0u64, 0u64);
    // Warm-up: fill a few stripes so the buffer pools and metadata
    // scratch on both volumes reach their steady-state capacities (the
    // timeline takes its one due sample here, outside the timed rounds).
    write_round(untraced.as_ref(), &mut lba_u, &data, 8, None)?;
    write_round(traced.as_ref(), &mut lba_t, &data, 8, Some(&timeline))?;

    const ROUNDS: usize = 3;
    let full_iters = 64u64;
    let mut untraced_ns = f64::INFINITY;
    let mut traced_ns = f64::INFINITY;
    let mut full_allocs = 0u64;
    for _ in 0..ROUNDS {
        let (nu, au) = write_round(untraced.as_ref(), &mut lba_u, &data, full_iters, None)?;
        let (nt, at) = write_round(
            traced.as_ref(),
            &mut lba_t,
            &data,
            full_iters,
            Some(&timeline),
        )?;
        gate!(au == 0, "untraced steady-state writes allocate: {au}");
        untraced_ns = untraced_ns.min(nu);
        traced_ns = traced_ns.min(nt);
        full_allocs += at;
    }
    let allocs_per_full = full_allocs as f64 / (ROUNDS as u64 * full_iters) as f64;
    let overhead_pct = (traced_ns / untraced_ns - 1.0) * 100.0;
    let mib_s = stripe_bytes as f64 / (1024.0 * 1024.0) / (traced_ns / 1e9);

    // --- Write path: 4 KiB partial-stripe writes (pp-log path) ----------
    // Warm up within the same open zone, then measure (tracing enabled).
    let four_k = &data[..4096];
    write_round(traced.as_ref(), &mut lba_t, four_k, 8, Some(&timeline))?;
    let (_, partial_allocs) =
        write_round(traced.as_ref(), &mut lba_t, four_k, 64, Some(&timeline))?;
    let allocs_per_partial = partial_allocs as f64 / 64.0;

    // --- Write path: dual parity (RAIZN-2) steady state ------------------
    // parity = 2 must hold the same budget: the Q accumulator and the
    // second partial-parity leg draw from the same pools as P, so a warm
    // dual-parity volume is allocation-free per write too (full observability
    // attached, like the parity = 1 rounds above).
    let raizn2 = fresh_volume(Some((&recorder, &timeline)), 2)?;
    let r2_stripe_sectors = 48u64; // 3 data units x 16 sectors
    let r2_data = &data[..(r2_stripe_sectors * 4096) as usize];
    let mut lba2 = 0u64;
    write_round(raizn2.as_ref(), &mut lba2, r2_data, 8, Some(&timeline))?;
    let (r2_ns, r2_full_allocs) =
        write_round(raizn2.as_ref(), &mut lba2, r2_data, 64, Some(&timeline))?;
    let allocs_per_full_p2 = r2_full_allocs as f64 / 64.0;
    write_round(raizn2.as_ref(), &mut lba2, four_k, 8, Some(&timeline))?;
    let (_, r2_partial_allocs) =
        write_round(raizn2.as_ref(), &mut lba2, four_k, 64, Some(&timeline))?;
    let allocs_per_partial_p2 = r2_partial_allocs as f64 / 64.0;
    let raizn2_mib_s = (r2_stripe_sectors * 4096) as f64 / (1024.0 * 1024.0) / (r2_ns / 1e9);
    let raizn2_over_raizn1 = raizn2_mib_s / mib_s;

    // --- GF(2^8) P+Q encode: four 64 KiB data units ----------------------
    // Unit by unit through the scalar references (XOR into P, g^k
    // multiply-accumulate into Q) vs the one fused Horner pass. Timed
    // after the overhead rounds so its buffers do not change the heap
    // those rounds run on.
    let (gf_scalar_ns, gf_fused_ns) = {
        let unit = 64 * 1024;
        let mut units = vec![0u8; 4 * unit];
        sim::SimRng::new(0x6F).fill_bytes(&mut units);
        let (mut p, mut q) = (vec![0u8; unit], vec![0u8; unit]);
        let scalar = time_ns(20, || {
            for (k, u) in units.chunks_exact(unit).enumerate() {
                sim::xor::xor_into_scalar_reference(&mut p, black_box(u));
                sim::gf::gf_mul_into_scalar_reference(
                    &mut q,
                    black_box(u),
                    sim::gf_pow(2, k as u32),
                );
            }
        });
        let fused = time_ns(400, || {
            sim::gf_pq_into(&mut p, &mut q, black_box(&units), 0);
        });
        black_box((p[0], q[0]));
        (scalar, fused)
    };
    let gf_speedup = gf_scalar_ns / gf_fused_ns;

    // --- Degraded read: dual parity, two devices failed ------------------
    // Every 64 KiB unit of ten full stripes is read back with devices 0
    // and 1 failed; reads of their units decode two erasures (data+data,
    // data+P or data+Q, as the roles rotate). The first pass warms the
    // reconstruction scratch pool; the second must not touch the heap.
    let degraded = fresh_volume(None, 2)?;
    let mut lba_d = 0u64;
    write_round(degraded.as_ref(), &mut lba_d, r2_data, 10, None)?;
    degraded.fail_device(0)?;
    degraded.fail_device(1)?;
    let mut unit_buf = vec![0u8; 16 * 4096];
    // Returns (heap allocations, two-erasure decodes) of one pass.
    let mut read_units = || -> bench::BenchResult<(u64, u64)> {
        let d0 = degraded.stats().double_degraded_reads;
        let a0 = allocs();
        for lba in (0..lba_d).step_by(16) {
            degraded.read(SimTime::ZERO, lba, &mut unit_buf)?;
        }
        let a1 = allocs();
        Ok((a1 - a0, degraded.stats().double_degraded_reads - d0))
    };
    read_units()?;
    let (degraded_allocs, decodes) = read_units()?;
    gate!(decodes > 0, "degraded read pass decoded no double erasure");
    let allocs_per_double_degraded = degraded_allocs as f64 / decodes as f64;

    // --- Log-structured engine: steady-state append writes --------------
    // The lsraid log write path holds the same budget with the full
    // observability plane attached: the flat mapping table, the pooled
    // stripe accumulators and the per-group metadata are preallocated,
    // so appends into an open stripe group never touch the heap. The
    // engine's reported WAF must be exactly 1.0 while its collector is
    // idle: stripe-aligned appends produce no pads and no migrations,
    // and the stats must not invent amplification where none happened.
    let lsr = fresh_ls_volume(&recorder, &timeline)?;
    let mut lba_l = 0u64;
    write_round(lsr.as_ref(), &mut lba_l, &data, 8, Some(&timeline))?;
    let ls_pre = lsr.stats();
    let ls_iters = 100u64;
    let (ls_ns, ls_allocs) =
        write_round(lsr.as_ref(), &mut lba_l, &data, ls_iters, Some(&timeline))?;
    let ls_post = lsr.stats();
    let allocs_per_ls = ls_allocs as f64 / ls_iters as f64;
    let ls_waf = phase_waf(&ls_pre, &ls_post);
    let lsraid_mib_s = stripe_bytes as f64 / (1024.0 * 1024.0) / (ls_ns / 1e9);

    // --- Lifecycle manager: steady-state pumps on the write path --------
    // A ZoneLifecycleManager attached to the traced volume and pumped
    // once per write must keep the path allocation-free: all per-zone
    // manager state is preallocated at construction and the pump's zone
    // scan touches only atomics. Warm-up pumps settle the pre-open pass
    // (its one management open) before the measured window.
    let manager = ZoneLifecycleManager::new(traced.clone(), LifecycleConfig::default());
    let zone_cap = traced.geometry().zone_cap();
    let mut lba_m = zone_cap; // fresh zone: stripe-aligned writes
    for _ in 0..8 {
        manager.pump(SimTime::ZERO)?;
    }
    traced.write(SimTime::ZERO, lba_m, &data, WriteFlags::default())?;
    lba_m += stripe_sectors;
    let mgr_iters = 64u64;
    let m0 = allocs();
    for _ in 0..mgr_iters {
        traced.write(SimTime::ZERO, lba_m, &data, WriteFlags::default())?;
        lba_m += stripe_sectors;
        timeline.maybe_sample(SimTime::ZERO);
        manager.pump(SimTime::ZERO)?;
    }
    let allocs_per_managed = (allocs() - m0) as f64 / mgr_iters as f64;

    // --- QoS scheduler: steady-state submit/dispatch ---------------------
    // Coalescer on, unsampled recorder attached (worst case): after a
    // warm-up that fills the payload pool and scratch capacities, a
    // submit/step window must not touch the heap at all.
    let qdev = Arc::new(ZnsDevice::new(
        ZnsConfig::builder()
            .zones(64, 4096, 4096)
            .open_limits(14, 28)
            .store_data(false)
            .build(),
    ));
    let qsched = QosScheduler::new(
        Arc::new(ZonedTarget::new(qdev)),
        QosConfig {
            stripe_sectors,
            ..QosConfig::default()
        },
        vec![TenantSpec::new("hot").coalesce(true)],
    )?
    .with_recorder(recorder.clone());
    let qdata = &data[..16 * 4096];
    let mut qoff = 0u64;
    let mut qfrontier = SimTime::ZERO;
    let mut qcomps: Vec<SchedCompletion> = Vec::with_capacity(64);
    qos_round(&qsched, &mut qoff, &mut qfrontier, qdata, 64, &mut qcomps)?;
    let qos_iters = 256u64;
    let qos_allocs = qos_round(
        &qsched,
        &mut qoff,
        &mut qfrontier,
        qdata,
        qos_iters,
        &mut qcomps,
    )?;
    let allocs_per_qos = qos_allocs as f64 / qos_iters as f64;

    // --- Thread scaling: sharded write pipeline --------------------------
    // Fixed work — eight sequential full-stripe jobs, each confined to its
    // own logical zones — driven by a growing worker pool against a fresh
    // volume per trial. Device time is virtual (costs nothing real), so
    // wall-clock speedup isolates the host-side write path: per-zone lock
    // shards must let independent zones' writes proceed concurrently.
    let probe = fresh_volume(None, 1)?;
    let zone_cap = probe.geometry().zone_cap();
    let num_zones = u64::from(probe.geometry().num_zones());
    drop(probe);
    let scale_jobs_n = 8u64.min(num_zones);
    let zones_per_job = (num_zones / scale_jobs_n).max(1);
    let span = zone_cap * zones_per_job;
    let scale_ops = (span / stripe_sectors).min(384);
    let scale_jobs: Vec<JobSpec> = (0..scale_jobs_n)
        .map(|i| {
            JobSpec::new(OpKind::Write, Pattern::Sequential, stripe_sectors)
                .region(i * span, (i + 1) * span)
                .ops(scale_ops)
                .queue_depth(16)
        })
        .collect();
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut sweep: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|t| *t <= sweep_max)
        .collect();
    if sweep.is_empty() {
        sweep.push(1);
    }
    const SCALE_ROUNDS: usize = 2;
    let mut wall_ms: Vec<f64> = Vec::new();
    let mut scale_mib_s: Vec<f64> = Vec::new();
    let mut scale_total_ops = 0u64;
    for &t in &sweep {
        let mut best = f64::INFINITY;
        let mut bytes = 0u64;
        for _ in 0..SCALE_ROUNDS {
            let (wall, ops, b) = scaling_trial(t, &scale_jobs)?;
            gate!(
                scale_total_ops == 0 || ops == scale_total_ops,
                "scaling trial at {t} threads completed {ops} ops, expected {scale_total_ops}"
            );
            scale_total_ops = ops;
            best = best.min(wall);
            bytes = b;
        }
        wall_ms.push(best * 1e3);
        scale_mib_s.push(bytes as f64 / (1024.0 * 1024.0) / best);
    }
    let speedup_4t = sweep
        .iter()
        .position(|t| *t == 4)
        .map(|i| scale_mib_s[i] / scale_mib_s[0]);
    let scaling_json = format!(
        "{{\n    \"jobs\": {scale_jobs_n},\n    \"ops_per_job\": {scale_ops},\n    \"block_sectors\": {stripe_sectors},\n    \"threads\": [{}],\n    \"wall_ms\": [{}],\n    \"mib_s\": [{}],\n    \"speedup_4t\": {}\n  }}",
        sweep
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        wall_ms
            .iter()
            .map(|w| format!("{w:.2}"))
            .collect::<Vec<_>>()
            .join(", "),
        scale_mib_s
            .iter()
            .map(|m| format!("{m:.1}"))
            .collect::<Vec<_>>()
            .join(", "),
        speedup_4t.map_or_else(|| "null".to_string(), |s| format!("{s:.2}")),
    );

    // Every verdict is a row of the artifact's `slo` array, named after
    // the key it gates; the scaling row exists only where the gate is
    // checked (>= 4 host cores and a sweep that reaches 4 workers).
    let mut slos = vec![
        Slo::new("xor_speedup", speedup, SloOp::Ge, 4.0),
        Slo::new("gf_encode_speedup", gf_speedup, SloOp::Ge, 4.0),
        Slo::new(
            "allocs_per_full_stripe_write",
            allocs_per_full,
            SloOp::Eq,
            0.0,
        ),
        Slo::new(
            "allocs_per_full_stripe_write_p2",
            allocs_per_full_p2,
            SloOp::Eq,
            0.0,
        ),
        Slo::new(
            "allocs_per_double_degraded_read_p2",
            allocs_per_double_degraded,
            SloOp::Eq,
            0.0,
        ),
        Slo::new("allocs_per_lsraid_write", allocs_per_ls, SloOp::Eq, 0.0),
        Slo::new("lsraid_waf_gc_idle", ls_waf, SloOp::Eq, 1.0),
        Slo::new("trace_overhead_pct", overhead_pct, SloOp::Lt, 5.0),
        Slo::new("allocs_per_qos_op", allocs_per_qos, SloOp::Eq, 0.0),
        Slo::new(
            "allocs_per_write_managed",
            allocs_per_managed,
            SloOp::Eq,
            0.0,
        ),
    ];
    match speedup_4t {
        Some(s) if host_cores >= 4 => {
            slos.push(Slo::new("scaling_speedup_4t", s, SloOp::Ge, 2.0));
        }
        Some(s) => {
            println!(
                "note: scaling gate skipped (host parallelism {host_cores} < 4); measured {s:.2}x"
            );
        }
        None => {
            println!("note: scaling gate skipped (sweep capped below 4 threads)");
        }
    }

    let reused = traced.stats().stripe_buffers_reused;
    let slo = bench::slo_json(&slos);
    let json = format!(
        "{{\n  \"xor_scalar_ns_per_op\": {scalar_ns:.1},\n  \"xor_word_ns_per_op\": {word_ns:.1},\n  \"xor_speedup\": {speedup:.2},\n  \"gf_scalar_encode_ns_per_op\": {gf_scalar_ns:.1},\n  \"gf_fused_encode_ns_per_op\": {gf_fused_ns:.1},\n  \"gf_encode_speedup\": {gf_speedup:.2},\n  \"write_path_mib_s\": {mib_s:.1},\n  \"raizn2_write_mib_s\": {raizn2_mib_s:.1},\n  \"raizn2_over_raizn1_host\": {raizn2_over_raizn1:.2},\n  \"lsraid_write_mib_s\": {lsraid_mib_s:.1},\n  \"allocs_per_full_stripe_write\": {allocs_per_full},\n  \"allocs_per_partial_write\": {allocs_per_partial},\n  \"allocs_per_full_stripe_write_p2\": {allocs_per_full_p2},\n  \"allocs_per_partial_write_p2\": {allocs_per_partial_p2},\n  \"allocs_per_double_degraded_read_p2\": {allocs_per_double_degraded},\n  \"allocs_per_lsraid_write\": {allocs_per_ls},\n  \"lsraid_waf_gc_idle\": {ls_waf},\n  \"allocs_per_qos_op\": {allocs_per_qos},\n  \"allocs_per_write_managed\": {allocs_per_managed},\n  \"stripe_buffers_reused\": {reused},\n  \"trace_overhead_pct\": {overhead_pct:.2},\n  \"scaling\": {scaling_json},\n  \"slo\": {slo}\n}}\n"
    );
    std::fs::write("BENCH_hotpath.json", &json)?;
    print!("{json}");
    std::fs::write(
        "BENCH_hotpath_breakdown.json",
        recorder.breakdown_json("hotpath"),
    )?;
    println!("\nlatency breakdown -> BENCH_hotpath_breakdown.json");
    timeline.force_sample(SimTime::ZERO);
    std::fs::write(
        "BENCH_hotpath_timeline.json",
        obs::timeline_json("hotpath", &recorder, Some(&timeline), zns::SECTOR_SIZE),
    )?;
    println!("timeline -> BENCH_hotpath_timeline.json\n");
    bench::check_slos("BENCH_hotpath.json", &slos)
}
