//! `raid6-degraded`: RAIZN with P+Q parity. Two zone-disjoint jobs write
//! 256 KiB full stripes sequentially at QD16; then two devices fail and
//! 64 KiB random reads run at QD32 over everything written. P+Q encode
//! and two-erasure decode carry the host work.

use crate::probe::{TimedTarget, TimedVolume};
use crate::{devices, per_mib, per_op, recorder, DevTotals, Instance, Opts, Phase};
use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Engine, JobSpec, OpKind, Pattern, PipelineDepth, ZonedTarget};
use zns::ZonedVolume;

/// Array members: four data units and P and Q per stripe.
pub const DEVICES: usize = 6;
/// Stripe unit in sectors (64 KiB).
pub const UNIT: u64 = 16;
/// Write size: one full stripe (256 KiB).
pub const STRIPE: u64 = 4 * UNIT;
/// Arrays a timed set-up formats. One format of discard-mode devices
/// takes about 15 µs, too short to time apart from timer and cache
/// noise, so set-up formats this many fresh arrays and keeps the last.
pub const FORMATS: usize = 200;

/// The array's parity configuration.
pub fn config() -> RaiznConfig {
    RaiznConfig {
        stripe_unit_sectors: UNIT,
        parity: 2,
        ..RaiznConfig::default()
    }
}

/// The seed's choices: where the two jobs write and which devices fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// First logical zone written.
    pub first_zone: u32,
    /// Logical zones written by job A, then by job B.
    pub zones: [u32; 2],
    /// The two devices failed before the read phase.
    pub failed: [usize; 2],
}

impl Layout {
    /// Draws a layout for `written` zones out of `available`.
    pub fn draw(rng: &mut SimRng, written: u32, available: u32) -> Layout {
        let spare = u64::from(available - written);
        let first_zone = rng.gen_range(spare + 1) as u32;
        let quarter = u64::from(written / 4);
        let a = written / 2 - written / 8 + rng.gen_range(quarter + 1) as u32;
        let f0 = rng.gen_range(DEVICES as u64) as usize;
        let f1 = (f0 + 1 + rng.gen_range(DEVICES as u64 - 1) as usize) % DEVICES;
        Layout {
            first_zone,
            zones: [a, written - a],
            failed: [f0, f1],
        }
    }
}

/// Runs one instance.
///
/// # Errors
///
/// Propagates volume and device errors.
pub fn run(o: &Opts) -> zns::Result<Instance> {
    let zones = o.pick(36, 16);
    let zone_sectors = o.pick(2048, 256);
    let written = o.pick(10, 8);
    let reads = o.pick(10_000, 1_000);

    let setup = Instant::now();
    for _ in 1..o.pick(FORMATS, 1) {
        let devs = devices(DEVICES, zones, zone_sectors, false, None);
        RaiznVolume::format(devs, config(), SimTime::ZERO)?;
    }
    let rec = o.recorder.then(recorder);
    let devs = devices(DEVICES, zones, zone_sectors, false, rec.as_ref());
    let vol = Arc::new(RaiznVolume::format(devs.clone(), config(), SimTime::ZERO)?);
    if let Some(rec) = &rec {
        vol.set_recorder(rec.clone());
    }
    let tv = Arc::new(TimedVolume::new(vol.clone(), o.timing));
    let target = TimedTarget::new(ZonedTarget::new(tv.clone()), o.timing, true);
    let lcap = vol.geometry().zone_cap();
    let mut rng = SimRng::new(o.seed);
    let lay = Layout::draw(&mut rng, written, vol.geometry().num_zones());
    let a0 = u64::from(lay.first_zone) * lcap;
    let a1 = a0 + u64::from(lay.zones[0]) * lcap;
    let b1 = a1 + u64::from(lay.zones[1]) * lcap;
    let depth = PipelineDepth::new();
    let engine = |seed: u64, start: SimTime| {
        let e = Engine::new(seed).start_at(start).depth_gauge(depth.clone());
        match &rec {
            Some(r) => e.recorder(r.clone()),
            None => e,
        }
    };
    let write_jobs = [
        JobSpec::new(OpKind::Write, Pattern::Sequential, STRIPE)
            .queue_depth(16)
            .region(a0, a1),
        JobSpec::new(OpKind::Write, Pattern::Sequential, STRIPE)
            .queue_depth(16)
            .region(a1, b1),
    ];
    let read_job = JobSpec::new(OpKind::Read, Pattern::Random, UNIT)
        .queue_depth(32)
        .ops(reads)
        .region(a0, b1);
    let setup_s = setup.elapsed().as_secs_f64();

    let dev0 = DevTotals::of(&devs);
    let st0 = vol.stats();
    let t = Instant::now();
    let wr = engine(o.seed, SimTime::ZERO).run(&target, &write_jobs)?;
    for d in lay.failed {
        vol.fail_device(d)?;
    }
    let rd = engine(o.seed ^ 0x5EAD, wr.end).run(&target, &[read_job])?;
    let measured_ns = t.elapsed().as_nanos() as u64;
    let dev = DevTotals::of(&devs).since(&dev0);
    let st = vol.stats();

    let log = target.take_log();
    let stripes = (b1 - a0) / STRIPE;
    let ops = wr.total_ops + rd.total_ops;
    let mut inst = Instance {
        setup_s,
        measured_s: measured_ns as f64 / 1e9,
        ops,
        attempted: stripes + reads,
        digest: log.digest,
        ..Instance::default()
    };
    inst.expect_eq("engine writes", wr.total_ops, stripes);
    inst.expect_eq("engine reads", rd.total_ops, reads);
    inst.expect_eq("target writes", log.writes, stripes);
    inst.expect_eq("target reads", log.reads, reads);
    inst.expect_eq("target write bytes", log.write_bytes, wr.total_bytes);
    inst.expect_eq("target read bytes", log.read_bytes, rd.total_bytes);
    let vlog = tv.log();
    inst.expect_eq("volume writes", vlog.writes, stripes);
    inst.expect_eq("volume reads", vlog.reads, reads);
    inst.expect_eq(
        "raizn full parity writes",
        st.full_parity_writes - st0.full_parity_writes,
        stripes,
    );
    inst.expect_eq(
        "raizn q parity writes",
        st.q_parity_writes - st0.q_parity_writes,
        stripes,
    );
    inst.expect_eq(
        "raizn pp-log entries",
        st.pp_log_entries - st0.pp_log_entries,
        0,
    );
    inst.expect(
        "raizn served no double-degraded read",
        st.double_degraded_reads > st0.double_degraded_reads,
    );

    let phase = Phase {
        sim_ns: rd.end.as_nanos(),
        read_bytes: rd.total_bytes,
        write_bytes: wr.total_bytes,
        device_written_bytes: dev.programmed_bytes(),
        read_lat: log.read_lat,
        write_lat: log.write_lat,
    };
    inst.end_to_end(phase);
    inst.zns_counts(&dev);
    let s = &mut inst.sim;
    s.insert("workloads.peak_inflight", depth.peak() as f64);
    s.insert(
        "raizn.q_parity_writes",
        (st.q_parity_writes - st0.q_parity_writes) as f64,
    );
    s.insert(
        "raizn.double_degraded_reads",
        (st.double_degraded_reads - st0.double_degraded_reads) as f64,
    );
    s.insert(
        "raizn.full_parity_writes",
        (st.full_parity_writes - st0.full_parity_writes) as f64,
    );
    s.insert(
        "raizn.pp_log_bytes_per_user_byte",
        (st.pp_log_bytes - st0.pp_log_bytes) as f64 / wr.total_bytes as f64,
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
            per_op(measured_ns - target.clock.ns(), ops),
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
