//! Engine-level tests for the log-structured RAID volume: read/write
//! semantics, padding and WAF accounting, scrub, GC, crash recovery and
//! metadata-log rotation.

use lsraid::{DirectSink, GcConfig, GcManager, GcSink, LsConfig, LsVolume};
use sim::SimTime;
use std::sync::Arc;
use zns::{CrashPolicy, WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;

fn devices(n: usize) -> Vec<Arc<ZnsDevice>> {
    (0..n)
        .map(|_| {
            Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(16, 64, 64)
                    .open_limits(8, 12)
                    .build(),
            ))
        })
        .collect()
}

/// Deterministic content for `sectors` sectors starting at logical `lba`,
/// salted by `version` so overwrites are distinguishable.
fn pattern(lba: u64, sectors: u64, version: u64) -> Vec<u8> {
    let mut buf = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    for s in 0..sectors {
        let tag = (lba + s) * 31 + version * 7 + 1;
        for (i, b) in buf[(s * SECTOR_SIZE) as usize..((s + 1) * SECTOR_SIZE) as usize]
            .iter_mut()
            .enumerate()
        {
            *b = (tag as u8).wrapping_add(i as u8);
        }
    }
    buf
}

fn write_zone(vol: &LsVolume, zone: u32, version: u64) {
    let geo = vol.geometry();
    let start = geo.zone_start(zone);
    let data = pattern(start, geo.zone_cap(), version);
    vol.write(T0, start, &data, WriteFlags::default()).unwrap();
}

fn verify_zone(vol: &LsVolume, zone: u32, version: u64) {
    let geo = vol.geometry();
    let start = geo.zone_start(zone);
    let want = pattern(start, geo.zone_cap(), version);
    let mut got = vec![0u8; want.len()];
    vol.read(T0, start, &mut got).unwrap();
    assert_eq!(got, want, "zone {zone} content mismatch");
}

#[test]
fn format_exposes_dense_logical_geometry() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let geo = vol.geometry();
    // 16 phys zones - 2 meta = 14 groups; (14-2) * 256 slots * 0.8 OP
    // = 2457 usable sectors = 38 zones of 64.
    assert_eq!(geo.num_zones(), 38);
    assert_eq!(geo.zone_size(), geo.zone_cap());
    assert_eq!(vol.group_capacity(), 256);
    assert_eq!(vol.free_group_count(), 14);
}

#[test]
fn write_read_roundtrip_and_unit_waf() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let geo = vol.geometry();
    // Write zone 0 in 8-sector chunks.
    for c in 0..8u64 {
        let lba = c * 8;
        let data = pattern(lba, 8, 0);
        vol.write(T0, lba, &data, WriteFlags::default()).unwrap();
    }
    verify_zone(&vol, 0, 0);
    assert_eq!(vol.stats().user_sectors, geo.zone_cap());
    // No GC, no flush: nothing but user data has been logged.
    assert!((vol.waf() - 1.0).abs() < f64::EPSILON);
    assert_eq!(vol.stats().pad_sectors, 0);
    let info = vol.zone_info(0).unwrap();
    assert_eq!(info.written(), geo.zone_cap());
}

#[test]
fn relaxed_overwrite_remaps_in_place() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    write_zone(&vol, 0, 1);
    // Overwrite the middle of the zone: allowed (rel <= wp) and the read
    // must observe the newest version.
    let data = pattern(10, 4, 9);
    vol.write(T0, 10, &data, WriteFlags::default()).unwrap();
    let mut got = vec![0u8; data.len()];
    vol.read(T0, 10, &mut got).unwrap();
    assert_eq!(got, data);
    // Sectors around the overwrite keep version 1.
    let want = pattern(14, 4, 1);
    let mut got = vec![0u8; want.len()];
    vol.read(T0, 14, &mut got).unwrap();
    assert_eq!(got, want);
}

#[test]
fn append_advances_write_pointer() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let a = vol
        .append(T0, 3, &pattern(0, 4, 0), WriteFlags::default())
        .unwrap();
    let b = vol
        .append(T0, 3, &pattern(4, 4, 0), WriteFlags::default())
        .unwrap();
    let geo = vol.geometry();
    assert_eq!(a.lba, geo.zone_start(3));
    assert_eq!(b.lba, geo.zone_start(3) + 4);
    assert_eq!(vol.zone_info(3).unwrap().written(), 8);
}

#[test]
fn flush_pads_open_stripe_and_waf_is_honest() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let data = pattern(0, 8, 0);
    vol.write(T0, 0, &data, WriteFlags::default()).unwrap();
    assert!((vol.waf() - 1.0).abs() < f64::EPSILON);
    vol.flush(T0).unwrap();
    // kd = 16 * 4 = 64 data slots per stripe; 8 written, 56 padded.
    let st = vol.stats();
    assert_eq!(st.pad_sectors, 56);
    assert!((vol.waf() - 8.0).abs() < 1e-9);
    // Padding is not user data: read-back still works and the zone wp
    // is untouched.
    let mut got = vec![0u8; data.len()];
    vol.read(T0, 0, &mut got).unwrap();
    assert_eq!(got, data);
    assert_eq!(vol.zone_info(0).unwrap().written(), 8);
}

#[test]
fn scrub_is_clean_and_detects_corruption() {
    let devs = devices(5);
    let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
    for z in 0..4 {
        write_zone(&vol, z, 0);
    }
    vol.flush(T0).unwrap();
    let rep = vol.scrub(T0).unwrap();
    assert!(rep.stripes >= 4);
    assert_eq!(rep.parity_errors, 0);
    // Stripe 0 of the first group lives at physical zone 2 (the lowest
    // free zone); its parity is on device 0, so device 1 holds data.
    let plba = devs[1].config().geometry().zone_start(2);
    devs[1].corrupt_sector_for_test(plba, 0x5a);
    let rep = vol.scrub(T0).unwrap();
    assert!(rep.parity_errors >= 1);
}

#[test]
fn dual_parity_scrub_checks_q() {
    let devs = devices(6);
    let cfg = LsConfig::default().parity(2);
    let vol = LsVolume::format(devs.clone(), cfg, T0).unwrap();
    for z in 0..4 {
        write_zone(&vol, z, 0);
    }
    vol.flush(T0).unwrap();
    let rep = vol.scrub(T0).unwrap();
    assert!(rep.stripes >= 4);
    assert_eq!(rep.parity_errors, 0);
    assert_eq!(rep.q_errors, 0);
    // Corrupt a data sector: both P and Q must notice.
    let plba = devs[2].config().geometry().zone_start(2);
    devs[2].corrupt_sector_for_test(plba, 0xa5);
    let rep = vol.scrub(T0).unwrap();
    assert!(rep.parity_errors >= 1);
    assert!(rep.q_errors >= 1);
}

#[test]
fn remount_preserves_data_and_zone_state() {
    let devs = devices(5);
    {
        let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
        for z in 0..6 {
            write_zone(&vol, z, z as u64);
        }
        // A partial zone too.
        vol.write(
            T0,
            vol.geometry().zone_start(7),
            &pattern(vol.geometry().zone_start(7), 12, 3),
            WriteFlags::default(),
        )
        .unwrap();
        vol.finish_zone(T0, 5).unwrap();
        vol.flush(T0).unwrap();
    }
    let vol = LsVolume::mount(devs, LsConfig::default(), T0).unwrap();
    for z in 0..5 {
        verify_zone(&vol, z, z as u64);
    }
    verify_zone(&vol, 5, 5);
    assert_eq!(vol.zone_info(5).unwrap().state, zns::ZoneState::Full);
    assert_eq!(vol.zone_info(7).unwrap().written(), 12);
    let want = pattern(vol.geometry().zone_start(7), 12, 3);
    let mut got = vec![0u8; want.len()];
    vol.read(T0, vol.geometry().zone_start(7), &mut got)
        .unwrap();
    assert_eq!(got, want);
    assert_eq!(vol.scrub(T0).unwrap().parity_errors, 0);
}

#[test]
fn crash_recovers_durable_prefix_only() {
    let devs = devices(5);
    {
        let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
        write_zone(&vol, 0, 0);
        vol.flush(T0).unwrap();
        // Never flushed: this data is volatile on the devices.
        write_zone(&vol, 1, 0);
    }
    for d in &devs {
        d.crash(&mut CrashPolicy::LoseCache);
    }
    let vol = LsVolume::mount(devs, LsConfig::default(), T0).unwrap();
    verify_zone(&vol, 0, 0);
    // Zone 1's stripes never became durable: the roll-forward validation
    // against surviving write pointers must refuse them.
    assert_eq!(vol.zone_info(1).unwrap().written(), 0);
    assert_eq!(vol.scrub(T0).unwrap().parity_errors, 0);
    // The recovered array keeps working.
    write_zone(&vol, 1, 7);
    verify_zone(&vol, 1, 7);
}

#[test]
fn gc_manager_reclaims_and_preserves_data() {
    let devs = devices(5);
    let vol = Arc::new(LsVolume::format(devs, LsConfig::default(), T0).unwrap());
    let zones = vol.geometry().num_zones();
    let mut version = vec![0u64; zones as usize];
    for z in 0..zones {
        write_zone(&vol, z, 0);
    }
    // Overwrite a third of the zones to create garbage.
    for z in (0..zones).step_by(3) {
        write_zone(&vol, z, 1);
        version[z as usize] = 1;
    }
    vol.flush(T0).unwrap();
    let free_before = vol.free_group_count();
    let mut gc = GcManager::new(vol.clone(), GcConfig::default());
    let mut sink = DirectSink::new(&vol);
    for _ in 0..200 {
        gc.pump(T0, &mut sink).unwrap();
        if gc.reclaimed_groups() >= 2 {
            break;
        }
    }
    assert!(gc.reclaimed_groups() >= 2, "GC never reclaimed a group");
    assert!(gc.migrated_sectors() > 0);
    assert!(vol.free_group_count() > free_before);
    assert!(vol.waf() > 1.0);
    for z in 0..zones {
        verify_zone(&vol, z, version[z as usize]);
    }
    assert_eq!(vol.scrub(T0).unwrap().parity_errors, 0);
}

#[test]
fn emergency_reclaim_keeps_writes_flowing() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let zones = vol.geometry().num_zones();
    let mut version = vec![0u64; zones as usize];
    for z in 0..zones {
        write_zone(&vol, z, 0);
    }
    // No background GC: sustained overwrite must eventually hit the
    // reserve and trigger inline emergency collection instead of
    // failing with an allocation error.
    let mut v = 1u64;
    while vol.stats().emergency_reclaims == 0 {
        assert!(v < 300, "emergency collection never fired");
        let z = (v % u64::from(zones)) as u32;
        write_zone(&vol, z, v);
        version[z as usize] = v;
        v += 1;
    }
    for z in 0..zones {
        verify_zone(&vol, z, version[z as usize]);
    }
    let st = vol.stats();
    assert!(st.group_reclaims >= 1);
    assert!(st.migrated_sectors > 0 || st.group_reclaims > 0);
}

#[test]
fn meta_rotation_survives_remount() {
    let devs = devices(5);
    let version;
    {
        let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
        let zones = vol.geometry().num_zones();
        let mut ver = vec![0u64; zones as usize];
        for z in 0..zones {
            write_zone(&vol, z, 0);
        }
        let mut v = 1u64;
        // Each full-zone write seals a stripe (one summary record); the
        // 64-sector meta zone rotates after a few dozen.
        while vol.stats().meta_rotations < 2 {
            assert!(v < 400, "metadata log never rotated");
            let z = (v % u64::from(zones)) as u32;
            write_zone(&vol, z, v);
            ver[z as usize] = v;
            v += 1;
        }
        vol.flush(T0).unwrap();
        version = ver;
    }
    let vol = LsVolume::mount(devs, LsConfig::default(), T0).unwrap();
    for (z, &ver) in version.iter().enumerate() {
        verify_zone(&vol, z as u32, ver);
    }
    assert_eq!(vol.scrub(T0).unwrap().parity_errors, 0);
}

#[test]
fn zone_reset_unmaps_and_reclaims_capacity() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    write_zone(&vol, 0, 0);
    vol.flush(T0).unwrap();
    vol.reset_zone(T0, 0).unwrap();
    assert_eq!(vol.zone_info(0).unwrap().written(), 0);
    let mut buf = vec![0u8; SECTOR_SIZE as usize];
    assert!(vol.read(T0, 0, &mut buf).is_err());
    // The old blocks are garbage now; a fresh write works.
    write_zone(&vol, 0, 2);
    verify_zone(&vol, 0, 2);
}

#[test]
fn sequential_rule_enforced_for_foreground() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let data = pattern(8, 4, 0);
    let err = vol.write(T0, 8, &data, WriteFlags::default()).unwrap_err();
    assert!(matches!(err, zns::ZnsError::NotSequential { zone: 0, .. }));
    // Reading past the write pointer is refused.
    let mut buf = vec![0u8; SECTOR_SIZE as usize];
    assert!(matches!(
        vol.read(T0, 0, &mut buf),
        Err(zns::ZnsError::ReadUnwritten { .. })
    ));
}

/// Metadata rotation nested inside padding. A flush pads the hot
/// stream; the pad seals a stripe, its summary record fills the metadata
/// log, and the rotation's own flush pads the cold stream that the outer
/// pad has not reached yet. Each round leaves one partial stripe in both
/// streams (a one-sector user write and a one-sector migration) and
/// flushes; the padding soon drains the free pool, so emergency reclaims
/// take the same reclaim → flush → pad path. Rotations land inside pads
/// again and again.
#[test]
fn meta_rotation_inside_pad_pads_the_other_streams() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let geo = vol.geometry();
    let (zones, cap) = (geo.num_zones() / 2, geo.zone_cap());
    for z in 0..zones {
        write_zone(&vol, z, 0);
    }
    // Zone 0 is rewritten one sector per round; the rest stay version 0.
    vol.reset_zone(T0, 0).unwrap();
    let mut hot = 0u64;
    let mut sink = DirectSink::new(&vol);
    let mut buf = vec![0u8; SECTOR_SIZE as usize];
    let mut round = 0u64;
    while vol.stats().meta_rotations < 4 {
        assert!(round < 1000, "metadata log never rotated");
        if hot == cap {
            vol.reset_zone(T0, 0).unwrap();
            hot = 0;
        }
        vol.write(T0, hot, &pattern(hot, 1, round), WriteFlags::default())
            .unwrap();
        hot += 1;
        let g = vol.pick_victim(0.0, usize::MAX).expect("a victim");
        assert!(vol.begin_migration(g));
        if let Some((lba, _, _)) = vol.next_valid_run(g, 0, 1) {
            vol.read(T0, lba, &mut buf).unwrap();
            sink.migrate(T0, lba, &buf).unwrap();
        }
        vol.end_migration();
        vol.flush(T0).unwrap();
        round += 1;
    }
    assert!(vol.stats().emergency_reclaims > 0);
    let mut got = vec![0u8; (hot * SECTOR_SIZE) as usize];
    vol.read(T0, 0, &mut got).unwrap();
    for (s, sector) in got.chunks_exact(SECTOR_SIZE as usize).enumerate() {
        let s = s as u64;
        // Sector s of the current pass went in at round (round - hot + s).
        assert_eq!(sector, pattern(s, 1, round - hot + s), "zone 0 sector {s}");
    }
    for z in 1..zones {
        verify_zone(&vol, z, 0);
    }
    assert_eq!(vol.scrub(T0).unwrap().parity_errors, 0);
}
