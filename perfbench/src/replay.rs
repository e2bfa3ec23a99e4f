//! Untimed byte-exact replays on store-mode devices.
//!
//! The timed instances run on discard-mode devices, which read zeros, so
//! they can check counts but not bytes. Each replay here runs the same op
//! mix as its workload at a small scale on devices that keep every byte,
//! writes seeded content, and compares every byte read back against a
//! model. Each returns the failed checks (empty when clean).

use crate::lsow::{self, Op};
use crate::{devices, kv, raid6, tenant, Opts, Workload};
use lsraid::{GcManager, LsConfig, LsVolume};
use qos::QosScheduler;
use raizn::RaiznVolume;
use sim::{SimRng, SimTime};
use std::sync::Arc;
use workloads::{IoTarget, SchedCompletion, SharedScheduler, ZonedTarget};
use zns::{ZonedVolume, SECTOR_SIZE};

/// Zones per replay device.
const ZONES: u32 = 12;
/// Zone size of replay devices in sectors (512 KiB).
const ZONE_SECTORS: u64 = 128;
/// Mixed into the run's seed: a replay draws its own content and offsets.
const REPLAY: u64 = 0x5EB1_A7ED;
/// lsraid replay zones: one stripe group per zone, leaving spare groups
/// for GC after a 100% prefill.
const LS_ZONES: u32 = 18;

/// Runs the replay of `w` at `seed`.
///
/// # Errors
///
/// Propagates IO errors (a replay that cannot finish is a failed check).
pub fn check(w: Workload, seed: u64) -> zns::Result<Vec<String>> {
    match w {
        Workload::Raid6Degraded => raid6_replay(seed),
        Workload::TenantMix => tenant_replay(seed),
        Workload::LsOverwrite => lsow_replay(seed),
        Workload::KvRww => {
            let o = Opts {
                seed: seed ^ REPLAY,
                timing: false,
                recorder: false,
                small: true,
            };
            let inst = kv::run_with(&o, true)?;
            Ok(inst.errors)
        }
    }
}

fn bytes(sectors: u64) -> usize {
    (sectors * SECTOR_SIZE) as usize
}

/// Reads `[from, to)` through `target` in `chunk`-sector reads and
/// reports the first mismatch against `model` (indexed from `base`).
fn compare(
    target: &dyn IoTarget,
    model: &[u8],
    base: u64,
    (from, to): (u64, u64),
    chunk: u64,
    what: &str,
    errors: &mut Vec<String>,
) -> zns::Result<()> {
    let mut buf = vec![0u8; bytes(chunk)];
    for off in (from..to).step_by(chunk as usize) {
        target.read(SimTime::ZERO, off, &mut buf)?;
        let at = bytes(off - base);
        if buf[..] != model[at..at + buf.len()] {
            errors.push(format!(
                "{what}: bytes at sector {off} differ from the last write"
            ));
            return Ok(());
        }
    }
    Ok(())
}

/// `raid6-degraded`: two interleaved full-stripe writers, a clean scrub,
/// then every unit and random 64 KiB reads through both failed devices.
fn raid6_replay(seed: u64) -> zns::Result<Vec<String>> {
    let mut errors = Vec::new();
    let devs = devices(raid6::DEVICES, ZONES, ZONE_SECTORS, true, None);
    let vol = Arc::new(RaiznVolume::format(devs, raid6::config(), SimTime::ZERO)?);
    let target = ZonedTarget::new(vol.clone());
    let lcap = vol.geometry().zone_cap();
    let mut rng = SimRng::new(seed ^ REPLAY);
    let lay = raid6::Layout::draw(&mut rng, 6, vol.geometry().num_zones());
    let a0 = u64::from(lay.first_zone) * lcap;
    let a1 = a0 + u64::from(lay.zones[0]) * lcap;
    let b1 = a1 + u64::from(lay.zones[1]) * lcap;
    let mut model = vec![0u8; bytes(b1 - a0)];
    let mut cursor = [a0, a1];
    let ends = [a1, b1];
    let mut t = SimTime::ZERO;
    while cursor != ends {
        for j in 0..2 {
            if cursor[j] == ends[j] {
                continue;
            }
            let at = bytes(cursor[j] - a0);
            let data = &mut model[at..at + bytes(raid6::STRIPE)];
            rng.fill_bytes(data);
            t = target.write(t, cursor[j], data)?;
            cursor[j] += raid6::STRIPE;
        }
    }
    let scrub = vol.scrub(t)?;
    if scrub.stripes_checked == 0 || scrub.parity_repairs != 0 || scrub.units_healed != 0 {
        errors.push(format!("raizn scrub not clean: {scrub:?}"));
    }
    for d in lay.failed {
        vol.fail_device(d)?;
    }
    compare(
        &target,
        &model,
        a0,
        (a0, b1),
        raid6::UNIT,
        "degraded read",
        &mut errors,
    )?;
    let units = (b1 - a0) / raid6::UNIT;
    let mut buf = vec![0u8; bytes(raid6::UNIT)];
    for _ in 0..200 {
        let off = a0 + rng.gen_range(units) * raid6::UNIT;
        target.read(SimTime::ZERO, off, &mut buf)?;
        let at = bytes(off - a0);
        if buf[..] != model[at..at + buf.len()] {
            errors.push(format!("random degraded read at {off} differs"));
            break;
        }
    }
    if vol.stats().double_degraded_reads == 0 {
        errors.push("replay served no double-degraded read".to_string());
    }
    Ok(errors)
}

/// `tenant-mix`: a primed reader half, random reads and coalesced
/// sequential writes (wrapping once into a zone reset) through the QoS
/// scheduler, then a full read-back and a clean scrub.
fn tenant_replay(seed: u64) -> zns::Result<Vec<String>> {
    let mut errors = Vec::new();
    let devs = devices(tenant::DEVICES, ZONES, ZONE_SECTORS, true, None);
    let vol = Arc::new(RaiznVolume::format(devs, tenant::config(), SimTime::ZERO)?);
    let target = Arc::new(ZonedTarget::new(vol.clone()));
    let lcap = vol.geometry().zone_cap();
    let half = u64::from(vol.geometry().num_zones() / 2) * lcap;
    let mut rng = SimRng::new(seed ^ REPLAY);
    let mut model = vec![0u8; bytes(2 * half)];
    let mut t = SimTime::ZERO;
    for off in (0..half).step_by(tenant::STRIPE as usize) {
        let at = bytes(off);
        let data = &mut model[at..at + bytes(tenant::STRIPE)];
        rng.fill_bytes(data);
        t = target.write(t, off, data)?;
    }
    let sched = QosScheduler::new(
        target.clone() as Arc<dyn IoTarget>,
        tenant::qos_config(),
        tenant::tenants(),
    )?;
    let writes = half / tenant::WRITE_BLOCK + lcap / tenant::WRITE_BLOCK;
    let mut written = 0;
    let mut done: Vec<SchedCompletion> = Vec::new();
    let mut data = vec![0u8; bytes(tenant::WRITE_BLOCK)];
    while written < writes {
        for _ in 0..16.min(writes - written) {
            let off = half + (written * tenant::WRITE_BLOCK) % half;
            rng.fill_bytes(&mut data);
            let at = bytes(off);
            model[at..at + data.len()].copy_from_slice(&data);
            sched.submit_write(tenant::WRITER, 1, t, off, &data)?;
            written += 1;
        }
        for _ in 0..16 {
            let off = rng.gen_range(half / tenant::READ_BLOCK) * tenant::READ_BLOCK;
            sched.submit_read(tenant::READER, 0, t, off, tenant::READ_BLOCK)?;
        }
        done.clear();
        while sched.step(&mut done)? {}
        t = done.iter().fold(t, |t, c| t.max(c.done));
    }
    let st = sched.stats();
    if st.iter().any(|s| s.shed != 0) || st[1].merged == 0 {
        errors.push(format!("replay scheduler sheds or never coalesced: {st:?}"));
    }
    compare(
        &*target,
        &model,
        0,
        (0, 2 * half),
        tenant::STRIPE,
        "read-back",
        &mut errors,
    )?;
    let scrub = vol.scrub(t)?;
    if scrub.stripes_checked == 0 || scrub.parity_repairs != 0 || scrub.units_healed != 0 {
        errors.push(format!("raizn scrub not clean: {scrub:?}"));
    }
    Ok(errors)
}

/// `ls-overwrite`: prefill, skewed overwrites with reads and GC through
/// the internal tenant, then a full read-back and a clean scrub.
fn lsow_replay(seed: u64) -> zns::Result<Vec<String>> {
    let mut errors = Vec::new();
    let devs = devices(lsow::DEVICES, LS_ZONES, ZONE_SECTORS, true, None);
    let vol = Arc::new(LsVolume::format(devs, LsConfig::default(), SimTime::ZERO)?);
    let target = Arc::new(ZonedTarget::overwriting(vol.clone()));
    let sched = QosScheduler::new(
        target.clone() as Arc<dyn IoTarget>,
        lsow::qos_config(),
        lsow::tenants(),
    )?;
    let cap = target.capacity_sectors();
    let mut rng = SimRng::new(seed ^ REPLAY);
    let mut model = vec![0u8; bytes(cap)];
    let mut done = Vec::new();
    let mut t = SimTime::ZERO;
    for off in (0..cap).step_by(lsow::FILL_BLOCK as usize) {
        let at = bytes(off);
        let data = &mut model[at..at + bytes(lsow::FILL_BLOCK)];
        rng.fill_bytes(data);
        t = lsow::issue(&sched, t, Op { read: false, off }, data, &mut done)?;
    }
    let mut mgr = GcManager::new(vol.clone(), lsow::gc_config());
    let mut sink = lsow::QosSink::new(&sched, false);
    let mut data = vec![0u8; bytes(lsow::BLOCK)];
    for op in lsow::ops(&mut rng, cap / lsow::BLOCK, cap / lsow::BLOCK / 2, true) {
        if !op.read {
            rng.fill_bytes(&mut data);
            let at = bytes(op.off);
            model[at..at + data.len()].copy_from_slice(&data);
        }
        t = lsow::issue(&sched, t, op, &data, &mut done)?;
        mgr.pump(t, &mut sink)?;
    }
    if vol.stats().group_reclaims == 0 {
        errors.push("replay never reclaimed a stripe group".to_string());
    }
    compare(
        &*target,
        &model,
        0,
        (0, cap),
        lsow::BLOCK,
        "read-back",
        &mut errors,
    )?;
    let scrub = vol.scrub(t)?;
    if scrub.stripes == 0 || scrub.parity_errors != 0 || scrub.q_errors != 0 {
        errors.push(format!("lsraid scrub not clean: {scrub:?}"));
    }
    Ok(errors)
}
