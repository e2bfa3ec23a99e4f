//! `ls-overwrite`: lsraid at 100% logical fill takes skewed random 64 KiB
//! sub-stripe overwrites (90% of them into 5% of the space), one op at a
//! time, with one read in eight. Its `GcManager` is pumped after every op
//! and migrates through a weight-1 internal QoS tenant. Prefill and aging
//! are set-up. No RAIZN code runs.

use crate::probe::{Clock, TimedSched, TimedTarget, TimedVolume};
use crate::{devices, per_op, percentile_us, recorder, DevTotals, Instance, Opts, Phase};
use lsraid::{GcConfig, GcManager, GcSink, LsConfig, LsVolume};
use qos::{QosConfig, QosScheduler, TenantSpec};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use std::time::Instant;
use workloads::{
    Admission, IoTarget, OpKind, SchedCompletion, SharedScheduler, TenantId, ZonedTarget,
};
use zns::{Lba, ZnsError, ZonedVolume, SECTOR_SIZE};

/// Array members.
pub const DEVICES: usize = 5;
/// Overwrite and read size: one stripe unit (64 KiB), a sub-stripe write.
pub const BLOCK: u64 = 16;
/// Prefill write size: one full stripe (256 KiB).
pub const FILL_BLOCK: u64 = 64;
/// Share of the logical space that is hot, in percent.
pub const HOT_SPACE_PCT: u64 = 5;
/// Share of ops that go to the hot space, in percent.
pub const HOT_OPS_PCT: u64 = 90;
/// One op in this many is a read.
pub const READ_EVERY: u64 = 8;
/// The application tenant.
pub const APP: TenantId = 0;
/// The internal GC tenant.
pub const GC: TenantId = 1;
/// Engine tag of application writes (the [`TimedSched`] job table).
const TAG_WRITE: u64 = 0;
/// Engine tag of application reads.
const TAG_READ: u64 = 1;

/// The application tenant (weight 8) and the GC tenant (weight 1,
/// dispatched as the GC actor so its device stalls are blamed to GC).
pub fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("app").weight(8),
        TenantSpec::new("gc").weight(1).actor(obs::Actor::Gc),
    ]
}

/// Collector policy: victims must be half garbage unless the free pool
/// runs low; pressure ramps over the pool's spare groups.
pub fn gc_config() -> GcConfig {
    GcConfig {
        threshold: 0.5,
        low_water: 4,
        threshold_water: 8,
        high_water: 12,
        budget_sectors: 112,
    }
}

/// One op of the skewed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Read (otherwise write).
    pub read: bool,
    /// Dense sector offset, [`BLOCK`]-aligned.
    pub off: u64,
}

/// The skewed op stream: `n` ops over `blocks` blocks.
pub fn ops(rng: &mut SimRng, blocks: u64, n: u64, reads: bool) -> Vec<Op> {
    let hot = (blocks * HOT_SPACE_PCT / 100).max(1);
    (0..n)
        .map(|_| {
            let b = if rng.gen_range(100) < HOT_OPS_PCT {
                rng.gen_range(hot)
            } else {
                hot + rng.gen_range(blocks - hot)
            };
            Op {
                read: reads && rng.gen_range(READ_EVERY) == 0,
                off: b * BLOCK,
            }
        })
        .collect()
}

/// [`GcSink`] submitting migrations to the scheduler's GC tenant and
/// draining it, so each migration is dispatched under mClock before the
/// collector continues. Times its scheduler calls.
pub struct QosSink<'a> {
    sched: &'a QosScheduler,
    /// Host time inside the scheduler.
    pub clock: Clock,
    done: Vec<SchedCompletion>,
    /// Migrations submitted.
    pub migrations: u64,
    /// Bytes migrated.
    pub bytes: u64,
}

impl<'a> QosSink<'a> {
    /// A sink over `sched`.
    pub fn new(sched: &'a QosScheduler, timing: bool) -> Self {
        QosSink {
            sched,
            clock: Clock::new(timing),
            done: Vec::with_capacity(8),
            migrations: 0,
            bytes: 0,
        }
    }
}

impl GcSink for QosSink<'_> {
    fn migrate(&mut self, at: SimTime, lba: Lba, data: &[u8]) -> zns::Result<SimTime> {
        let tag = self.migrations;
        let adm = self
            .clock
            .time(|| self.sched.submit_write(GC, tag, at, lba, data))?;
        if let Admission::Shed { reason, .. } = adm {
            return Err(ZnsError::InvalidArgument(format!(
                "gc migration at lba {lba} shed ({reason:?})"
            )));
        }
        self.migrations += 1;
        self.bytes += data.len() as u64;
        self.done.clear();
        let (sched, done) = (self.sched, &mut self.done);
        self.clock.time(|| -> zns::Result<()> {
            while sched.step(done)? {}
            Ok(())
        })?;
        Ok(self.done.iter().fold(at, |t, c| t.max(c.done)))
    }
}

/// Scheduler knobs: default dispatch depth, stripe-aligned coalescing.
pub fn qos_config() -> QosConfig {
    QosConfig {
        stripe_sectors: FILL_BLOCK,
        ..QosConfig::default()
    }
}

/// Issues `op` as the application tenant (`block` is the write payload,
/// or sizes the read) and runs the scheduler until it completes; returns
/// the completion instant.
pub fn issue<S: SharedScheduler>(
    sched: &S,
    now: SimTime,
    op: Op,
    block: &[u8],
    done: &mut Vec<SchedCompletion>,
) -> zns::Result<SimTime> {
    let adm = if op.read {
        sched.submit_read(APP, TAG_READ, now, op.off, block.len() as u64 / SECTOR_SIZE)?
    } else {
        sched.submit_write(APP, TAG_WRITE, now, op.off, block)?
    };
    if let Admission::Shed { reason, .. } = adm {
        return Err(ZnsError::InvalidArgument(format!(
            "application op at {} shed ({reason:?})",
            op.off
        )));
    }
    done.clear();
    while sched.step(done)? {}
    Ok(done.iter().fold(now, |t, c| t.max(c.done)))
}

/// Runs one instance.
///
/// # Errors
///
/// Propagates scheduler, volume and device errors.
pub fn run(o: &Opts) -> zns::Result<Instance> {
    let zones = o.pick(40, 18);
    let zone_sectors = o.pick(2048, 256);
    let age_ops = o.pick(10_000, 1_500);
    let n = o.pick(30_000, 1_500);

    let setup = Instant::now();
    let rec = o.recorder.then(recorder);
    let devs = devices(DEVICES, zones, zone_sectors, false, rec.as_ref());
    let vol = Arc::new(LsVolume::format(
        devs.clone(),
        LsConfig::default(),
        SimTime::ZERO,
    )?);
    if let Some(rec) = &rec {
        vol.set_recorder(rec.clone());
    }
    let tv = Arc::new(TimedVolume::new(vol.clone(), o.timing));
    let target = Arc::new(TimedTarget::new(
        ZonedTarget::overwriting(tv.clone()),
        o.timing,
        false,
    ));
    let mut qos = QosScheduler::new(target.clone() as Arc<dyn IoTarget>, qos_config(), tenants())?;
    if let Some(rec) = &rec {
        qos = qos.with_recorder(rec.clone());
    }
    let qos = Arc::new(qos);
    let sched = TimedSched::new(
        qos.clone(),
        o.timing,
        vec![(OpKind::Write, BLOCK), (OpKind::Read, BLOCK)],
        2,
    );
    let cap = target.capacity_sectors();
    let blocks = cap / BLOCK;
    let mut rng = SimRng::new(o.seed);
    let block = vec![0u8; (BLOCK * SECTOR_SIZE) as usize];
    let fill = vec![0u8; (FILL_BLOCK * SECTOR_SIZE) as usize];
    let mut done = Vec::with_capacity(8);
    let mut now = SimTime::ZERO;
    for off in (0..cap).step_by(FILL_BLOCK as usize) {
        now = issue(&*qos, now, Op { read: false, off }, &fill, &mut done)?;
    }
    now = vol.flush(now)?.done;
    let mut mgr = GcManager::new(vol.clone(), gc_config());
    let mut sink = QosSink::new(&qos, o.timing);
    for op in ops(&mut rng, blocks, age_ops, false) {
        now = issue(&*qos, now, op, &block, &mut done)?;
        mgr.pump(now, &mut sink)?;
    }
    let stream = ops(&mut rng, blocks, n, true);
    let setup_s = setup.elapsed().as_secs_f64();

    let dev0 = DevTotals::of(&devs);
    let st0 = vol.stats();
    let q0 = qos.stats();
    let t0 = target.log();
    let v0 = tv.log();
    let sink0 = (sink.migrations, sink.bytes, sink.clock.ns());
    let clocks0 = (target.clock.ns(), tv.write_clock.ns());
    let mig0 = mgr.migrated_sectors();
    let start = now;
    let pump = Clock::new(o.timing);
    let t = Instant::now();
    for &op in &stream {
        now = issue(&sched, now, op, &block, &mut done)?;
        pump.time(|| mgr.pump(now, &mut sink))?;
    }
    let measured_ns = t.elapsed().as_nanos() as u64;
    let dev = DevTotals::of(&devs).since(&dev0);
    let st = vol.stats();
    let qs = qos.stats();

    let log = sched.take_log();
    let tlog = target.log();
    let vlog = tv.log();
    let reads = stream.iter().filter(|op| op.read).count() as u64;
    let writes = n - reads;
    let migrations = sink.migrations - sink0.0;
    let migrated_bytes = sink.bytes - sink0.1;
    let mut inst = Instance {
        setup_s,
        measured_s: measured_ns as f64 / 1e9,
        ops: log.completed[APP as usize],
        attempted: n,
        digest: stream.iter().fold(crate::probe::DIGEST_SEED, |d, op| {
            crate::probe::mix(d, op.off << 1 | u64::from(op.read))
        }),
        ..Instance::default()
    };
    inst.expect_eq("app completions seen", log.completed[0], n);
    inst.expect_eq("app admitted", qs[0].admitted - q0[0].admitted, n);
    inst.expect_eq("app completed", qs[0].completed - q0[0].completed, n);
    inst.expect_eq("app shed", qs[0].shed, 0);
    inst.expect_eq("gc admitted", qs[1].admitted - q0[1].admitted, migrations);
    inst.expect_eq(
        "gc completed",
        qs[1].completed - q0[1].completed,
        migrations,
    );
    inst.expect_eq("gc shed", qs[1].shed, 0);
    inst.expect_eq("gc bytes", qs[1].bytes - q0[1].bytes, migrated_bytes);
    let app_write_bytes = writes * BLOCK * SECTOR_SIZE;
    inst.expect_eq("app bytes", qs[0].bytes - q0[0].bytes, log.bytes[0]);
    inst.expect_eq("target reads", tlog.reads - t0.reads, reads);
    inst.expect_eq(
        "volume write bytes",
        vlog.write_bytes - v0.write_bytes,
        app_write_bytes + migrated_bytes,
    );
    inst.expect_eq(
        "lsraid user sectors",
        (st.user_sectors - st0.user_sectors) * SECTOR_SIZE,
        app_write_bytes,
    );
    // Emergency reclaims migrate inline, outside the manager.
    let inline = st.emergency_reclaims > st0.emergency_reclaims;
    let (engine_mig, mgr_mig) = (
        st.migrated_sectors - st0.migrated_sectors,
        mgr.migrated_sectors() - mig0,
    );
    if inline {
        inst.expect(
            "lsraid migrated less than its GC manager",
            engine_mig >= mgr_mig,
        );
    } else {
        inst.expect_eq("lsraid migrated sectors", engine_mig, mgr_mig);
    }
    inst.expect_eq(
        "migrated sectors through the sink",
        (mgr.migrated_sectors() - mig0) * SECTOR_SIZE,
        migrated_bytes,
    );

    let phase = Phase {
        sim_ns: now.since(start).as_nanos(),
        read_bytes: reads * BLOCK * SECTOR_SIZE,
        write_bytes: app_write_bytes,
        device_written_bytes: dev.programmed_bytes(),
        read_lat: log.read_lat,
        write_lat: log.write_lat,
    };
    inst.end_to_end(phase);
    inst.zns_counts(&dev);
    let mut wait = log.queue_wait;
    let user = (st.user_sectors - st0.user_sectors) as f64;
    let s = &mut inst.sim;
    s.insert("workloads.peak_inflight", log.peak_inflight as f64);
    s.insert("qos.queue_wait_p99_us", percentile_us(&mut wait, 99.0));
    s.insert("qos.coalesce_ratio", qs[0].coalesce_ratio());
    s.insert("qos.shed_frac", 0.0);
    s.insert(
        "lsraid.migrated_per_user",
        (st.migrated_sectors - st0.migrated_sectors) as f64 / user,
    );
    s.insert(
        "lsraid.pad_per_user",
        (st.pad_sectors - st0.pad_sectors) as f64 / user,
    );
    s.insert(
        "lsraid.group_reclaims",
        (st.group_reclaims - st0.group_reclaims) as f64,
    );
    s.insert(
        "lsraid.meta_rotations",
        (st.meta_rotations - st0.meta_rotations) as f64,
    );
    s.insert(
        "lsraid.emergency_reclaims",
        (st.emergency_reclaims - st0.emergency_reclaims) as f64,
    );
    if let Some(rec) = &rec {
        inst.blame(rec);
    }
    if o.timing {
        let sched_ns = sched.clock.ns() + sink.clock.ns() - sink0.2;
        let target_ns = target.clock.ns() - clocks0.0;
        let h = &mut inst.host;
        h.insert(
            "workloads.self_ns_per_op",
            per_op(measured_ns - sched.clock.ns() - pump.ns(), n),
        );
        h.insert("qos.self_ns_per_op", per_op(sched_ns - target_ns, n));
        h.insert(
            "lsraid.write_ns_per_op",
            per_op(tv.write_clock.ns() - clocks0.1, vlog.writes - v0.writes),
        );
        h.insert("lsraid.gc_pump_ns_per_op", per_op(pump.ns(), n));
    }
    Ok(inst)
}
