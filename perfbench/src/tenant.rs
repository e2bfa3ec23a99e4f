//! `tenant-mix`: RAIZN with single parity behind a `QosScheduler` with
//! two tenants — `reader` (weight 1, random 4 KiB reads over a primed
//! half of the volume) and `writer` (weight 2, coalescing, sequential
//! 16 KiB writes over the other half) — with an obs recorder attached.
//! Per-op costs dominate: the engine loop, mClock dispatch, the
//! coalescer (which merges the writes into full stripes) and span close.

use crate::probe::{TimedSched, TimedTarget, TimedVolume};
use crate::{devices, per_mib, per_op, percentile_us, recorder, DevTotals, Instance, Opts, Phase};
use qos::{QosConfig, QosScheduler, TenantSpec};
use raizn::{RaiznConfig, RaiznVolume};
use sim::SimTime;
use std::sync::Arc;
use std::time::Instant;
use workloads::{Engine, IoTarget, JobSpec, OpKind, Pattern, ZonedTarget};
use zns::ZonedVolume;

/// Array members: four data units and P per stripe.
pub const DEVICES: usize = 5;
/// Stripe unit in sectors (64 KiB).
pub const UNIT: u64 = 16;
/// Full stripe in sectors (256 KiB): the coalescing alignment.
pub const STRIPE: u64 = 4 * UNIT;
/// Reader block (4 KiB).
pub const READ_BLOCK: u64 = 1;
/// Writer block (16 KiB).
pub const WRITE_BLOCK: u64 = 4;
/// Tenant index of the reader.
pub const READER: u32 = 0;
/// Tenant index of the writer.
pub const WRITER: u32 = 1;

/// The two tenants, reader first.
pub fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("reader").weight(1),
        TenantSpec::new("writer").weight(2).coalesce(true),
    ]
}

/// Scheduler knobs: default dispatch depth, stripe-aligned coalescing.
pub fn qos_config() -> QosConfig {
    QosConfig {
        stripe_sectors: STRIPE,
        ..QosConfig::default()
    }
}

/// The array's configuration.
pub fn config() -> RaiznConfig {
    RaiznConfig {
        stripe_unit_sectors: UNIT,
        ..RaiznConfig::default()
    }
}

/// Runs one instance.
///
/// # Errors
///
/// Propagates scheduler, volume and device errors.
pub fn run(o: &Opts) -> zns::Result<Instance> {
    let zones = o.pick(40, 12);
    let zone_sectors = o.pick(2048, 256);
    let reads = o.pick(260_000, 4_000);
    let writes = o.pick(140_000, 2_000);

    let setup = Instant::now();
    let rec = o.recorder.then(recorder);
    let devs = devices(DEVICES, zones, zone_sectors, false, rec.as_ref());
    let vol = Arc::new(RaiznVolume::format(devs.clone(), config(), SimTime::ZERO)?);
    if let Some(rec) = &rec {
        vol.set_recorder(rec.clone());
    }
    let geo = vol.geometry();
    let lcap = geo.zone_cap();
    let half = u64::from(geo.num_zones() / 2) * lcap;
    // Prime the reader's half straight through an adapter of its own, so
    // the probes see only the measured phase.
    let prime = JobSpec::new(OpKind::Write, Pattern::Sequential, STRIPE)
        .queue_depth(16)
        .region(0, half);
    let primed = Engine::new(o.seed).run(&ZonedTarget::new(vol.clone()), &[prime])?;
    let tv = Arc::new(TimedVolume::new(vol.clone(), o.timing));
    let target = Arc::new(TimedTarget::new(
        ZonedTarget::new(tv.clone()),
        o.timing,
        false,
    ));
    let mut qos = QosScheduler::new(target.clone() as Arc<dyn IoTarget>, qos_config(), tenants())?;
    if let Some(rec) = &rec {
        qos = qos.with_recorder(rec.clone());
    }
    let qos = Arc::new(qos);
    let jobs = [
        JobSpec::new(OpKind::Read, Pattern::Random, READ_BLOCK)
            .queue_depth(16)
            .ops(reads)
            .region(0, half)
            .tenant(READER),
        JobSpec::new(OpKind::Write, Pattern::Sequential, WRITE_BLOCK)
            .queue_depth(16)
            .ops(writes)
            .region(half, 2 * half)
            .tenant(WRITER),
    ];
    let sched = TimedSched::new(
        qos.clone(),
        o.timing,
        vec![(OpKind::Read, READ_BLOCK), (OpKind::Write, WRITE_BLOCK)],
        2,
    );
    let mut engine = Engine::new(o.seed ^ 0x7E4A).start_at(primed.end);
    if let Some(rec) = &rec {
        engine = engine.recorder(rec.clone());
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let dev0 = DevTotals::of(&devs);
    let st0 = vol.stats();
    let t = Instant::now();
    let rep = engine.run_shared(&sched, &jobs)?;
    let measured_ns = t.elapsed().as_nanos() as u64;
    let dev = DevTotals::of(&devs).since(&dev0);
    let st = vol.stats();

    let log = sched.take_log();
    let tlog = target.log();
    let qs = qos.stats();
    let ops = rep.total_ops;
    let mut inst = Instance {
        setup_s,
        measured_s: measured_ns as f64 / 1e9,
        ops,
        attempted: reads + writes,
        digest: tlog.digest,
        ..Instance::default()
    };
    let issued = [reads, writes];
    for (i, snap) in qs.iter().enumerate() {
        let name = &snap.name;
        inst.expect_eq(&format!("{name} engine ops"), rep.jobs[i].ops, issued[i]);
        inst.expect_eq(&format!("{name} admitted"), snap.admitted, log.admitted[i]);
        inst.expect_eq(&format!("{name} completed"), snap.completed, issued[i]);
        inst.expect_eq(
            &format!("{name} completions seen"),
            log.completed[i],
            issued[i],
        );
        inst.expect_eq(&format!("{name} shed"), snap.shed, 0);
        inst.expect_eq(&format!("{name} bytes"), snap.bytes, log.bytes[i]);
        inst.expect_eq(
            &format!("{name} engine bytes"),
            rep.jobs[i].bytes,
            snap.bytes,
        );
    }
    inst.expect_eq("target reads", tlog.reads, reads);
    inst.expect_eq("target read bytes", tlog.read_bytes, qs[0].bytes);
    inst.expect_eq("target write bytes", tlog.write_bytes, qs[1].bytes);
    inst.expect_eq("target write batches", tlog.writes, qs[1].batches);
    let vlog = tv.log();
    inst.expect_eq("volume write bytes", vlog.write_bytes, qs[1].bytes);
    inst.expect_eq("volume read bytes", vlog.read_bytes, qs[0].bytes);

    let mut wait = log.queue_wait;
    let phase = Phase {
        sim_ns: rep.end.since(primed.end).as_nanos(),
        read_bytes: qs[0].bytes,
        write_bytes: qs[1].bytes,
        device_written_bytes: dev.programmed_bytes(),
        read_lat: log.read_lat,
        write_lat: log.write_lat,
    };
    inst.end_to_end(phase);
    inst.zns_counts(&dev);
    let user = qs[1].bytes as f64;
    let s = &mut inst.sim;
    s.insert("workloads.peak_inflight", log.peak_inflight as f64);
    s.insert("qos.queue_wait_p99_us", percentile_us(&mut wait, 99.0));
    s.insert("qos.coalesce_ratio", qs[1].coalesce_ratio());
    let shed: u64 = qs.iter().map(|q| q.shed).sum();
    s.insert("qos.shed_frac", shed as f64 / (reads + writes) as f64);
    s.insert(
        "raizn.full_parity_writes",
        (st.full_parity_writes - st0.full_parity_writes) as f64,
    );
    s.insert(
        "raizn.pp_log_bytes_per_user_byte",
        (st.pp_log_bytes - st0.pp_log_bytes) as f64 / user,
    );
    s.insert("raizn.md_appends", (st.md_appends - st0.md_appends) as f64);
    s.insert(
        "raizn.persistence_flushes",
        (st.persistence_flushes - st0.persistence_flushes) as f64,
    );
    if let Some(rec) = &rec {
        inst.blame(rec);
    }
    if o.timing {
        let h = &mut inst.host;
        h.insert(
            "workloads.self_ns_per_op",
            per_op(measured_ns - sched.clock.ns(), ops),
        );
        h.insert(
            "qos.self_ns_per_op",
            per_op(sched.clock.ns() - target.clock.ns(), ops),
        );
        h.insert(
            "raizn.write_ns_per_mib",
            per_mib(tv.write_clock.ns(), vlog.write_bytes),
        );
        h.insert(
            "raizn.read_ns_per_mib",
            per_mib(tv.read_clock.ns(), vlog.read_bytes),
        );
    }
    Ok(inst)
}
