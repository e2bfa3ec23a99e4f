//! lsraid: a log-structured RAID engine behind the [`ZonedVolume`] trait.
//!
//! Where RAIZN (the `raizn` crate) preserves the physical zone layout and
//! pays for partial-stripe durability with a partial-parity log, this
//! engine takes the opposite point in the design space: **every** write —
//! user data, GC migration, or zero padding — is appended into a
//! dynamically allocated *stripe group*, and parity is only ever computed
//! over full stripes. There is no partial-parity log and no
//! read-modify-write, at the cost of a logical→physical mapping table and
//! a RAID-level garbage collector that migrates valid data out of victim
//! groups before their zones are reset.
//!
//! # Layout
//!
//! A stripe group owns one physical zone on each of the `n` devices.
//! Within a group, stripe `s` occupies sectors `[s*K, (s+1)*K)` of every
//! member zone (`K` = stripe unit). Parity placement rotates by stripe
//! (`P` on device `s % n`, `Q` on `(s+1) % n` for dual parity), so parity
//! load spreads across the array exactly like classic RAID-5/6 rotation.
//! Physical zones 0 and 1 on every device are reserved; devices 0 and 1
//! use them as the two slots of a replicated, checksummed metadata log.
//!
//! # Crash consistency
//!
//! The mapping table is made durable by checkpoint + roll-forward: the
//! active metadata slot starts with a full checkpoint record and accrues
//! per-stripe seal summaries, group open/free transitions and logical
//! zone reset/finish events, all FUA-written and individually
//! checksummed. At mount the highest-epoch slot is replayed in sequence
//! order; a seal summary is only applied when every member zone provably
//! holds the stripe's data (device write pointers survived the crash),
//! which truncates each logical zone to its durable prefix. Mount ends by
//! rotating to a fresh checkpoint so recovery repairs are durable.
//!
//! Group reclaim follows a strict ordering invariant: migrated data is
//! sealed and flushed *before* the `GroupFree` record is written, and the
//! victim's zones are reset only after that record is durable. A crash at
//! any intermediate point either replays the group as live (zones still
//! hold data) or as free (all valid data already durable elsewhere).

#![warn(missing_docs)]

mod gc;
mod meta;

pub use gc::{DirectSink, GcConfig, GcManager, GcSink};

use meta::{finish_record, kind, parse_record, put_u32, put_u64, MetaLog, Record, HEADER_BYTES};
use parking_lot::{Mutex, RwLock};
use sim::SimTime;
use std::sync::Arc;
use zns::{
    AppendCompletion, IoCompletion, Lba, Result, WriteFlags, ZnsDevice, ZnsError, ZoneGeometry,
    ZoneInfo, ZoneState, ZonedVolume, SECTOR_SIZE,
};

/// Sentinel for an unmapped logical sector / empty reverse-map slot.
const NONE64: u64 = u64::MAX;
/// Sentinel for "no physical zone assigned".
const NO_ZONE: u32 = u32::MAX;
/// Bits of a packed physical address holding the in-group slot index.
const SLOT_BITS: u32 = 40;
/// Physical zones 0..META_ZONES are reserved on every device.
const META_ZONES: u32 = 2;
/// The metadata log is replicated on the first two devices.
const META_DEVICES: usize = 2;
/// Stream index for foreground (hot) data.
const HOT: usize = 0;
/// Stream index for GC-migrated (cold) data.
const COLD: usize = 1;
/// Number of write streams: the foreground hot stream plus two cold
/// generations. Survivors of a hot-group collection go to generation 1;
/// survivors of a cold-group collection have proven cold twice and go
/// to generation 2, where they stop being remixed with warm newcomers.
const STREAMS: usize = 3;

/// Packs a stripe-group index and in-group slot into one map word.
fn enc(g: u32, slot: u64) -> u64 {
    (u64::from(g) << SLOT_BITS) | slot
}

/// The stripe group a packed physical address lives in.
fn group_of(pa: u64) -> u32 {
    (pa >> SLOT_BITS) as u32
}

/// The in-group data-slot index of a packed physical address.
fn slot_of(pa: u64) -> u64 {
    pa & ((1u64 << SLOT_BITS) - 1)
}

/// Configuration of a log-structured RAID volume.
#[derive(Debug, Clone)]
pub struct LsConfig {
    /// Stripe unit in sectors (must divide the device zone capacity).
    pub stripe_unit: u64,
    /// Parity units per stripe: 1 (RAID-5-like) or 2 (RAID-6-like).
    pub parity: u32,
    /// Fraction of spendable capacity held back as over-provisioning;
    /// raising it gives GC more slack and lowers write amplification.
    pub op_ratio: f64,
    /// Free stripe groups kept in reserve; dropping to the reserve
    /// triggers an inline (emergency) collection that stalls the write.
    /// Must be at least 2: draining a victim can consume one free group
    /// for survivors before the victim's own reclaim returns a group,
    /// and the write that triggered the collection takes another.
    pub reserve_groups: u32,
}

impl Default for LsConfig {
    fn default() -> Self {
        LsConfig {
            stripe_unit: 16,
            parity: 1,
            op_ratio: 0.20,
            reserve_groups: 2,
        }
    }
}

impl LsConfig {
    /// Sets the stripe unit in sectors.
    #[must_use]
    pub fn stripe_unit(mut self, sectors: u64) -> Self {
        self.stripe_unit = sectors;
        self
    }

    /// Sets the parity count (1 or 2).
    #[must_use]
    pub fn parity(mut self, parity: u32) -> Self {
        self.parity = parity;
        self
    }

    /// Sets the over-provisioning ratio in `[0, 0.9]`.
    #[must_use]
    pub fn op_ratio(mut self, ratio: f64) -> Self {
        self.op_ratio = ratio;
        self
    }

    /// Sets the reserved free-group count.
    #[must_use]
    pub fn reserve_groups(mut self, groups: u32) -> Self {
        self.reserve_groups = groups;
        self
    }
}

/// Write-accounting snapshot of a volume (sector counts on the data
/// path; parity is reported separately and excluded from
/// [`LsVolume::waf`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsStats {
    /// Sectors of user data logged (foreground writes and appends).
    pub user_sectors: u64,
    /// Valid sectors rewritten by GC migration.
    pub migrated_sectors: u64,
    /// Zero-pad sectors written to seal partial stripes at flush points.
    pub pad_sectors: u64,
    /// Parity sectors written (P and Q units).
    pub parity_sectors: u64,
    /// Stripe groups reclaimed (zones reset and returned to the pool).
    pub group_reclaims: u64,
    /// Inline collections that stalled a foreground write.
    pub emergency_reclaims: u64,
    /// Stripe groups opened.
    pub groups_opened: u64,
    /// Metadata records committed.
    pub meta_records: u64,
    /// Metadata slot rotations (checkpoint rewrites).
    pub meta_rotations: u64,
}

/// Result of a full-array parity scrub.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsScrubReport {
    /// Sealed stripes verified.
    pub stripes: u64,
    /// Stripes whose XOR parity did not verify.
    pub parity_errors: u64,
    /// Stripes whose Q (Reed–Solomon) parity did not verify.
    pub q_errors: u64,
}

/// Lifecycle state of a stripe group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GState {
    /// No zones assigned; available for allocation.
    Free,
    /// Accepting appends on the given stream (0 = hot, 1 = cold).
    Open(u8),
    /// All stripes sealed; immutable until reclaimed.
    Sealed,
}

/// In-flight parity accumulator for the open stripe of a group.
#[derive(Debug)]
struct StripeBuf {
    p: Vec<u8>,
    q: Vec<u8>,
}

impl StripeBuf {
    fn new(k: u64, dual: bool) -> StripeBuf {
        let bytes = (k * SECTOR_SIZE) as usize;
        StripeBuf {
            p: vec![0u8; bytes],
            q: if dual { vec![0u8; bytes] } else { Vec::new() },
        }
    }

    fn clear(&mut self) {
        self.p.fill(0);
        self.q.fill(0);
    }
}

/// One stripe group: a RAID stripe set over one zone per device.
#[derive(Debug)]
struct Group {
    state: GState,
    /// Member zone per device (`NO_ZONE` when free).
    zones: Vec<u32>,
    /// Stripes sealed so far (also the index of the open stripe).
    sealed: u64,
    /// Data slots filled in the open stripe (0..kd).
    fill: u64,
    /// Live mapped sectors in this group.
    valid: u64,
    /// Allocation sequence number (GC tie-break: older first).
    created: u64,
    /// Write-stream generation this group was filled under (0 = hot
    /// foreground, 1/2 = cold generations). Migration out of a victim
    /// targets `min(gen + 1, STREAMS - 1)`.
    gen: u8,
    /// Latest completion among the open stripe's data writes; the seal's
    /// parity write issues no earlier than this.
    stripe_issue: SimTime,
    /// Reverse map: logical sector per data slot (`NONE64` = garbage).
    lbas: Vec<u64>,
    /// Parity accumulator, held only while open.
    buf: Option<StripeBuf>,
}

/// One logical zone exposed through [`ZonedVolume`].
#[derive(Debug, Clone, Copy)]
struct LZone {
    wp: u64,
    state: ZoneState,
}

/// How a run of sectors enters the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogMode {
    /// Foreground data: maps unconditionally.
    User,
    /// GC migration: maps only if the source mapping is still current.
    Gc,
    /// Zero fill to a stripe boundary: never mapped.
    Pad,
}

#[derive(Debug)]
struct LsInner {
    /// Logical sector → packed physical address (`NONE64` = unmapped).
    map: Vec<u64>,
    lz: Vec<LZone>,
    groups: Vec<Group>,
    /// Per-device free physical zones (popped lowest-index first).
    free_zones: Vec<Vec<u32>>,
    /// Free stripe groups (popped lowest-index first).
    free_groups: Vec<u32>,
    /// Open group per stream (`[hot, cold gen 1, cold gen 2]`).
    open: [Option<u32>; STREAMS],
    /// Group currently being drained by GC; guards migration remaps.
    migrating: Option<u32>,
    /// Set while an inline emergency collection runs (re-entrancy guard).
    in_emergency: bool,
    created_seq: u64,
    /// Pool of parity accumulators (one per possible open group).
    bufs: Vec<StripeBuf>,
    /// Bounce buffer for emergency-GC migration reads.
    gc_buf: Vec<u8>,
    meta: MetaLog,
    /// Reserved metadata headroom so a rotation's pad-seal summaries
    /// always fit in the active slot.
    rotating: bool,
    c_user: u64,
    c_migrated: u64,
    c_pads: u64,
    c_parity: u64,
    c_group_reclaims: u64,
    c_emergency: u64,
    c_groups_opened: u64,
}

/// A log-structured RAID array over a set of [`ZnsDevice`]s.
///
/// See the crate docs for the design. All methods take `&self`; one
/// internal mutex serializes engine state (device IO cost is accounted
/// on the virtual timeline, so the lock is never held across real
/// waiting).
pub struct LsVolume {
    devices: Vec<Arc<ZnsDevice>>,
    config: LsConfig,
    /// Physical (device) zone layout.
    phys: ZoneGeometry,
    /// Logical layout exposed through [`ZonedVolume`]; `zone_size ==
    /// zone_cap`, so logical LBAs are dense.
    geo: ZoneGeometry,
    n: usize,
    p: usize,
    /// Data units per stripe (`n - p`).
    d: usize,
    /// Stripe unit in sectors.
    k: u64,
    /// Stripes per group (`zone_cap / k`).
    s: u64,
    /// Data slots per stripe (`k * d`).
    kd: u64,
    /// Data slots per group (`s * kd`).
    group_cap: u64,
    /// Metadata headroom (sectors) that forces early rotation so the
    /// rotation's own pad-seal summaries still fit.
    meta_headroom: u64,
    /// Zero source for padding (one stripe unit). Immutable and outside
    /// [`LsInner`], so a pad nested inside another pad (metadata rotation
    /// during a flush) still reads it.
    zeros: Box<[u8]>,
    inner: Mutex<LsInner>,
    recorder: RwLock<Option<Arc<obs::Recorder>>>,
}

impl std::fmt::Debug for LsVolume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsVolume")
            .field("devices", &self.n)
            .field("parity", &self.p)
            .field("stripe_unit", &self.k)
            .field("group_cap", &self.group_cap)
            .finish_non_exhaustive()
    }
}

fn invalid(msg: &str) -> ZnsError {
    ZnsError::InvalidArgument(msg.to_string())
}

fn zstate_code(s: ZoneState) -> u32 {
    match s {
        ZoneState::Empty => 0,
        ZoneState::ImplicitlyOpen => 1,
        ZoneState::ExplicitlyOpen => 2,
        ZoneState::Closed => 3,
        _ => 4,
    }
}

fn zstate_decode(c: u32) -> ZoneState {
    match c {
        0 => ZoneState::Empty,
        1 => ZoneState::ImplicitlyOpen,
        2 => ZoneState::ExplicitlyOpen,
        3 => ZoneState::Closed,
        _ => ZoneState::Full,
    }
}

fn gstate_code(s: GState) -> u32 {
    match s {
        GState::Free => 0,
        GState::Open(stream) => 1 + u32::from(stream),
        GState::Sealed => 4,
    }
}

fn gstate_decode(c: u32) -> GState {
    match c {
        0 => GState::Free,
        c @ 1..=3 => GState::Open((c - 1) as u8),
        _ => GState::Sealed,
    }
}

/// Bounds-checked little-endian reader for mount-path record parsing.
struct Rd<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Rd<'a> {
        Rd { b, off: 0 }
    }

    fn u32(&mut self) -> Result<u32> {
        if self.off + 4 > self.b.len() {
            return Err(invalid("lsraid: truncated metadata record"));
        }
        let v = meta::get_u32(self.b, self.off);
        self.off += 4;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64> {
        if self.off + 8 > self.b.len() {
            return Err(invalid("lsraid: truncated metadata record"));
        }
        let v = meta::get_u64(self.b, self.off);
        self.off += 8;
        Ok(v)
    }
}

impl LsVolume {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Initializes a fresh array: wipes every zone on every device and
    /// writes the initial checkpoint (epoch 1) to metadata slot 0.
    ///
    /// # Errors
    ///
    /// Fails if the device set or configuration is invalid, or on device
    /// IO failure.
    pub fn format(devices: Vec<Arc<ZnsDevice>>, config: LsConfig, at: SimTime) -> Result<LsVolume> {
        let vol = Self::assemble(devices, config)?;
        {
            let mut inner = vol.inner.lock();
            let mut t = at;
            for dev in &vol.devices {
                let mut td = at;
                for z in 0..vol.phys.num_zones() {
                    if dev.zone_info(z)?.state != ZoneState::Empty {
                        td = dev.reset_zone(td, z)?.done;
                    }
                }
                t = t.max(td);
            }
            inner.meta.epoch = 1;
            inner.meta.slot = 0;
            inner.meta.used = 0;
            inner.meta.seq = 0;
            vol.write_checkpoint(&mut inner, t)?;
        }
        Ok(vol)
    }

    /// Mounts an existing array: picks the highest-epoch metadata slot,
    /// replays its roll-forward records (validating every seal summary
    /// against the surviving device write pointers), trims each logical
    /// zone to its durable prefix, and rotates to a fresh checkpoint so
    /// the recovered state is durable.
    ///
    /// # Errors
    ///
    /// Fails if no slot holds a valid checkpoint, the on-disk layout
    /// disagrees with `config`, or device IO fails.
    pub fn mount(devices: Vec<Arc<ZnsDevice>>, config: LsConfig, at: SimTime) -> Result<LsVolume> {
        let vol = Self::assemble(devices, config)?;
        {
            let mut inner = vol.inner.lock();
            let s0 = vol.read_slot(0, at);
            let s1 = vol.read_slot(1, at);
            let (slot, epoch, records) = match (s0, s1) {
                (Some((e0, r0)), Some((e1, r1))) => {
                    if e0 >= e1 {
                        (0u32, e0, r0)
                    } else {
                        (1, e1, r1)
                    }
                }
                (Some((e0, r0)), None) => (0, e0, r0),
                (None, Some((e1, r1))) => (1, e1, r1),
                (None, None) => return Err(invalid("lsraid: no valid metadata checkpoint found")),
            };
            vol.replay(&mut inner, slot, epoch, &records)?;
            vol.finish_mount(&mut inner);
            // Rotating gives the repaired state a durable checkpoint and
            // guarantees post-mount records never interleave with the
            // pre-crash log.
            vol.rotate_meta(&mut inner, at)?;
        }
        Ok(vol)
    }

    fn assemble(devices: Vec<Arc<ZnsDevice>>, config: LsConfig) -> Result<LsVolume> {
        let n = devices.len();
        let p = config.parity as usize;
        if !(1..=2).contains(&p) {
            return Err(invalid("lsraid: parity must be 1 or 2"));
        }
        if n < p + 2 || n > 64 {
            return Err(invalid("lsraid: need parity + 2 ..= 64 devices"));
        }
        if !(0.0..=0.9).contains(&config.op_ratio) {
            return Err(invalid("lsraid: op_ratio must be in [0, 0.9]"));
        }
        let phys = devices[0].config().geometry();
        for dev in &devices[1..] {
            let g = dev.config().geometry();
            if g.num_zones() != phys.num_zones()
                || g.zone_size() != phys.zone_size()
                || g.zone_cap() != phys.zone_cap()
            {
                return Err(invalid("lsraid: devices disagree on geometry"));
            }
        }
        let k = config.stripe_unit;
        let c = phys.zone_cap();
        if k == 0 || !c.is_multiple_of(k) {
            return Err(invalid("lsraid: stripe unit must divide zone capacity"));
        }
        let d = n - p;
        let s = c / k;
        let kd = k * d as u64;
        let group_cap = s * kd;
        if phys.num_zones() < META_ZONES + config.reserve_groups + 3 {
            return Err(invalid("lsraid: too few zones per device"));
        }
        let g_total = phys.num_zones() - META_ZONES;
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let user_sectors =
            ((u64::from(g_total) - 2) as f64 * group_cap as f64 * (1.0 - config.op_ratio)) as u64;
        let l_zones = (user_sectors / c) as u32;
        if l_zones == 0 {
            return Err(invalid("lsraid: capacity too small for one logical zone"));
        }
        let geo = ZoneGeometry::new(l_zones, c, c);

        let map = vec![NONE64; (u64::from(l_zones) * c) as usize];
        let lz = vec![
            LZone {
                wp: 0,
                state: ZoneState::Empty,
            };
            l_zones as usize
        ];
        let groups: Vec<Group> = (0..g_total)
            .map(|_| Group {
                state: GState::Free,
                zones: vec![NO_ZONE; n],
                sealed: 0,
                fill: 0,
                valid: 0,
                created: 0,
                gen: 0,
                stripe_issue: SimTime::ZERO,
                lbas: vec![NONE64; group_cap as usize],
                buf: None,
            })
            .collect();
        let free_zones: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let mut v = Vec::with_capacity(g_total as usize);
                for z in (META_ZONES..phys.num_zones()).rev() {
                    v.push(z);
                }
                v
            })
            .collect();
        let free_groups: Vec<u32> = (0..g_total).rev().collect();
        let bufs = (0..STREAMS).map(|_| StripeBuf::new(k, p == 2)).collect();

        // Metadata scratch: the summary record is the largest ordinary
        // record; the checkpoint dominates everything.
        let summary_payload = 16 + kd as usize * 8;
        let rec_cap = (meta::record_sectors(summary_payload) * SECTOR_SIZE) as usize;
        let ckpt_payload = 24 + lz.len() * 16 + groups.len() * (24 + n * 4) + map.len() * 8;
        let ckpt_sectors = meta::record_sectors(ckpt_payload);
        let meta_headroom = 4 * meta::record_sectors(summary_payload);
        if ckpt_sectors + meta_headroom + 1 > c {
            return Err(invalid("lsraid: checkpoint does not fit the metadata zone"));
        }

        let inner = LsInner {
            map,
            lz,
            groups,
            free_zones,
            free_groups,
            open: [None; STREAMS],
            migrating: None,
            in_emergency: false,
            created_seq: 0,
            bufs,
            gc_buf: vec![0u8; (k * SECTOR_SIZE) as usize],
            meta: MetaLog {
                slot: 0,
                used: 0,
                seq: 0,
                epoch: 0,
                rec_buf: Vec::with_capacity(rec_cap),
                ckpt_buf: Vec::with_capacity((ckpt_sectors * SECTOR_SIZE) as usize),
            },
            rotating: false,
            c_user: 0,
            c_migrated: 0,
            c_pads: 0,
            c_parity: 0,
            c_group_reclaims: 0,
            c_emergency: 0,
            c_groups_opened: 0,
        };

        Ok(LsVolume {
            devices,
            config,
            phys,
            geo,
            n,
            p,
            d,
            k,
            s,
            kd,
            group_cap,
            meta_headroom,
            zeros: vec![0u8; (k * SECTOR_SIZE) as usize].into_boxed_slice(),
            inner: Mutex::new(inner),
            recorder: RwLock::new(None),
        })
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Attaches an observability recorder for volume-layer spans and
    /// counters (device-layer spans attach via each device).
    pub fn set_recorder(&self, recorder: Arc<obs::Recorder>) {
        *self.recorder.write() = Some(recorder);
    }

    /// The member devices.
    pub fn devices(&self) -> &[Arc<ZnsDevice>] {
        &self.devices
    }

    /// The engine configuration.
    pub fn config(&self) -> &LsConfig {
        &self.config
    }

    /// Stripe unit in sectors (the natural GC migration granule).
    pub fn stripe_unit(&self) -> u64 {
        self.k
    }

    /// Data slots per stripe group.
    pub fn group_capacity(&self) -> u64 {
        self.group_cap
    }

    /// Write-accounting snapshot.
    pub fn stats(&self) -> LsStats {
        let inner = self.inner.lock();
        LsStats {
            user_sectors: inner.c_user,
            migrated_sectors: inner.c_migrated,
            pad_sectors: inner.c_pads,
            parity_sectors: inner.c_parity,
            group_reclaims: inner.c_group_reclaims,
            emergency_reclaims: inner.c_emergency,
            groups_opened: inner.c_groups_opened,
            meta_records: inner.meta.seq,
            meta_rotations: inner.meta.epoch.saturating_sub(1),
        }
    }

    /// Data-path write amplification: `(user + migrated + pads) / user`.
    /// Parity is excluded (it is the RAID tax, not a log-structuring
    /// cost) and reported via [`LsStats::parity_sectors`]. Exactly 1.0
    /// until GC migrates or a flush pads.
    pub fn waf(&self) -> f64 {
        let inner = self.inner.lock();
        Self::waf_inner(&inner)
    }

    #[allow(clippy::cast_precision_loss)]
    fn waf_inner(inner: &LsInner) -> f64 {
        if inner.c_user == 0 {
            return 1.0;
        }
        (inner.c_user + inner.c_migrated + inner.c_pads) as f64 / inner.c_user as f64
    }

    /// Fraction of sealed-group capacity that is garbage (0.0 when no
    /// group is sealed).
    pub fn garbage_ratio(&self) -> f64 {
        let inner = self.inner.lock();
        self.garbage_ratio_inner(&inner)
    }

    #[allow(clippy::cast_precision_loss)]
    fn garbage_ratio_inner(&self, inner: &LsInner) -> f64 {
        let mut garbage = 0u64;
        let mut total = 0u64;
        for g in &inner.groups {
            if g.state == GState::Sealed {
                garbage += self.group_cap - g.valid;
                total += self.group_cap;
            }
        }
        if total == 0 {
            0.0
        } else {
            garbage as f64 / total as f64
        }
    }

    // ------------------------------------------------------------------
    // Tracing (mirrors the raizn-core idiom; volume spans carry
    // device == obs::NONE, device attribution lives in device spans)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn trace_span(
        &self,
        op: obs::OpClass,
        stage: obs::Stage,
        path: Option<obs::PathKind>,
        zone: u32,
        lba: Lba,
        sectors: u64,
        start: SimTime,
        end: SimTime,
    ) {
        if let Some(rec) = self.recorder.read().as_ref() {
            rec.record(obs::TraceEvent {
                seq: 0,
                op,
                stage,
                path,
                device: obs::NONE,
                zone,
                lba,
                sectors,
                start,
                end,
                outcome: obs::Outcome::Success,
                span: 0,
                parent: obs::current_span(),
                blame: obs::current_actor(),
            });
        }
    }

    fn begin_span(&self) -> (u64, u64, obs::SpanScope) {
        let parent = obs::current_span();
        let span = self.recorder.read().as_ref().map_or(0, |r| r.new_span());
        (span, parent, obs::span_scope(span))
    }

    #[allow(clippy::too_many_arguments)]
    fn trace_root(
        &self,
        op: obs::OpClass,
        zone: u32,
        lba: Lba,
        sectors: u64,
        start: SimTime,
        end: SimTime,
        span: u64,
        parent: u64,
    ) {
        if let Some(rec) = self.recorder.read().as_ref() {
            rec.record(obs::TraceEvent {
                seq: 0,
                op,
                stage: obs::Stage::WholeOp,
                path: None,
                device: obs::NONE,
                zone,
                lba,
                sectors,
                start,
                end,
                outcome: obs::Outcome::Success,
                span,
                parent,
                blame: obs::current_actor(),
            });
        }
    }

    fn mark_lock(&self, op: obs::OpClass, zone: u32, at: SimTime) {
        if let Some(rec) = self.recorder.read().as_ref() {
            if rec.spans_enabled() {
                rec.record(obs::TraceEvent {
                    seq: 0,
                    op,
                    stage: obs::Stage::LockWait,
                    path: None,
                    device: obs::NONE,
                    zone,
                    lba: 0,
                    sectors: 0,
                    start: at,
                    end: at,
                    outcome: obs::Outcome::Success,
                    span: 0,
                    parent: obs::current_span(),
                    blame: obs::current_actor(),
                });
            }
        }
    }

    fn bump(&self, counter: obs::Counter) {
        if let Some(rec) = self.recorder.read().as_ref() {
            rec.bump(counter);
        }
    }

    fn addc(&self, counter: obs::Counter, n: u64) {
        if let Some(rec) = self.recorder.read().as_ref() {
            rec.add(counter, n);
        }
    }

    // ------------------------------------------------------------------
    // Geometry helpers
    // ------------------------------------------------------------------

    /// The device holding data unit `unit` of `stripe` (parity rotates:
    /// P on `stripe % n`, Q on `stripe + 1 % n`; data units skip them).
    fn data_dev(&self, stripe: u64, unit: usize) -> usize {
        let p0 = (stripe % self.n as u64) as usize;
        if self.p == 1 {
            let mut dev = unit;
            if dev >= p0 {
                dev += 1;
            }
            dev
        } else {
            let p1 = (p0 + 1) % self.n;
            let (lo, hi) = if p0 < p1 { (p0, p1) } else { (p1, p0) };
            let mut dev = unit;
            if dev >= lo {
                dev += 1;
            }
            if dev >= hi {
                dev += 1;
            }
            dev
        }
    }

    /// Device index and physical LBA of a data slot in group `g`.
    fn locate_slot(&self, inner: &LsInner, g: u32, slot: u64) -> (usize, Lba) {
        let stripe = slot / self.kd;
        let off = slot % self.kd;
        let unit = (off / self.k) as usize;
        let sec = off % self.k;
        let dev = self.data_dev(stripe, unit);
        let zone = inner.groups[g as usize].zones[dev];
        (dev, self.phys.zone_start(zone) + stripe * self.k + sec)
    }

    // ------------------------------------------------------------------
    // Metadata log
    // ------------------------------------------------------------------

    /// Writes `buf` (a finished record) to both metadata replicas with
    /// FUA and advances the log cursor.
    fn meta_write(
        &self,
        inner: &mut LsInner,
        t: SimTime,
        buf: &[u8],
        sectors: u64,
    ) -> Result<SimTime> {
        let lba = self.phys.zone_start(inner.meta.slot as u32) + inner.meta.used;
        let mut done = t;
        for dev in self.devices.iter().take(META_DEVICES) {
            done = done.max(dev.write(t, lba, buf, WriteFlags::FUA)?.done);
        }
        inner.meta.used += sectors;
        inner.meta.seq += 1;
        self.trace_span(
            obs::OpClass::Write,
            obs::Stage::MetaAppend,
            None,
            obs::NONE,
            lba,
            sectors,
            t,
            done,
        );
        Ok(done)
    }

    /// Commits one roll-forward record built by `build`, rotating the
    /// log first when the active slot is (almost) full. The headroom
    /// check triggers early enough that the rotation's own pad-seal
    /// summaries always fit in the old slot. `build` serializes from
    /// engine state and is re-invoked after a rotation (the rotated log
    /// starts from a fresh checkpoint, so the record must restate itself
    /// under the new epoch).
    fn commit_record(
        &self,
        inner: &mut LsInner,
        t: SimTime,
        rec_kind: u32,
        build: impl Fn(&LsInner, &mut Vec<u8>),
    ) -> Result<SimTime> {
        let mut buf = std::mem::take(&mut inner.meta.rec_buf);
        buf.clear();
        buf.resize(HEADER_BYTES, 0);
        build(inner, &mut buf);
        let sectors = meta::record_sectors(buf.len() - HEADER_BYTES);
        let mut t = t;
        if !inner.rotating && inner.meta.used + sectors + self.meta_headroom > self.phys.zone_cap()
        {
            // Rotation pads/seals open stripes, so it may itself commit
            // summary records; restore the scratch buffer first.
            inner.meta.rec_buf = buf;
            t = self.rotate_meta(inner, t)?;
            buf = std::mem::take(&mut inner.meta.rec_buf);
            buf.clear();
            buf.resize(HEADER_BYTES, 0);
            build(inner, &mut buf);
        }
        let n = finish_record(&mut buf, rec_kind, inner.meta.epoch, inner.meta.seq);
        let done = self.meta_write(inner, t, &buf, n);
        inner.meta.rec_buf = buf;
        done
    }

    /// Rotates the metadata log: makes all logged state durable (pad-seal
    /// plus device flush), resets the inactive slot, bumps the epoch and
    /// writes a fresh checkpoint there. The durability barrier is what
    /// lets the checkpoint's mapping table be trusted verbatim at mount.
    fn rotate_meta(&self, inner: &mut LsInner, t: SimTime) -> Result<SimTime> {
        inner.rotating = true;
        let res = self.rotate_meta_guarded(inner, t);
        inner.rotating = false;
        res
    }

    fn rotate_meta_guarded(&self, inner: &mut LsInner, t: SimTime) -> Result<SimTime> {
        let t = self.flush_inner(inner, t)?;
        let other = 1 - inner.meta.slot;
        let mut done = t;
        for dev in self.devices.iter().take(META_DEVICES) {
            if dev.zone_info(other as u32)?.state != ZoneState::Empty {
                done = done.max(dev.reset_zone(t, other as u32)?.done);
            }
        }
        inner.meta.slot = other;
        inner.meta.used = 0;
        inner.meta.epoch += 1;
        self.write_checkpoint(inner, done)
    }

    fn write_checkpoint(&self, inner: &mut LsInner, t: SimTime) -> Result<SimTime> {
        let mut buf = std::mem::take(&mut inner.meta.ckpt_buf);
        buf.clear();
        buf.resize(HEADER_BYTES, 0);
        self.build_checkpoint(inner, &mut buf);
        let n = finish_record(&mut buf, kind::CHECKPOINT, inner.meta.epoch, inner.meta.seq);
        let done = self.meta_write(inner, t, &buf, n);
        inner.meta.ckpt_buf = buf;
        done
    }

    fn build_checkpoint(&self, inner: &LsInner, buf: &mut Vec<u8>) {
        put_u32(buf, self.geo.num_zones());
        put_u32(buf, self.n as u32);
        put_u32(buf, inner.groups.len() as u32);
        put_u32(buf, 0);
        put_u64(buf, inner.map.len() as u64);
        put_u64(buf, inner.created_seq);
        for z in &inner.lz {
            put_u64(buf, z.wp);
            put_u32(buf, zstate_code(z.state));
            put_u32(buf, 0);
        }
        for g in &inner.groups {
            put_u32(buf, gstate_code(g.state));
            put_u32(buf, u32::from(g.gen));
            put_u64(buf, g.sealed);
            put_u64(buf, g.created);
            for &z in &g.zones {
                put_u32(buf, z);
            }
        }
        for &pa in &inner.map {
            put_u64(buf, pa);
        }
    }

    // ------------------------------------------------------------------
    // Mount path
    // ------------------------------------------------------------------

    /// Reads and parses one metadata slot, preferring the primary
    /// replica and falling back to the secondary.
    fn read_slot(&self, slot: u32, at: SimTime) -> Option<(u64, Vec<Record>)> {
        (0..META_DEVICES).find_map(|di| self.read_slot_from(di, slot, at))
    }

    fn read_slot_from(&self, di: usize, slot: u32, at: SimTime) -> Option<(u64, Vec<Record>)> {
        let dev = &self.devices[di];
        let info = dev.zone_info(slot).ok()?;
        let written = info.written();
        if written == 0 {
            return None;
        }
        let mut buf = vec![0u8; (written * SECTOR_SIZE) as usize];
        dev.read(at, info.start, &mut buf).ok()?;
        let mut records = Vec::new();
        let mut epoch = 0u64;
        let mut off = 0usize;
        while off < buf.len() {
            let Some((rec, n)) = parse_record(&buf[off..]) else {
                break;
            };
            if records.is_empty() {
                if rec.kind != kind::CHECKPOINT {
                    return None;
                }
                epoch = rec.epoch;
            } else if rec.epoch != epoch {
                break;
            }
            off += (n * SECTOR_SIZE) as usize;
            records.push(rec);
        }
        if records.is_empty() {
            None
        } else {
            Some((epoch, records))
        }
    }

    fn replay(&self, inner: &mut LsInner, slot: u32, epoch: u64, records: &[Record]) -> Result<()> {
        self.apply_checkpoint(inner, &records[0].payload)?;
        let mut capped = vec![false; inner.groups.len()];
        let mut last_seq = records[0].seq;
        let mut used = meta::record_sectors(records[0].payload.len());
        for rec in &records[1..] {
            last_seq = rec.seq;
            used += meta::record_sectors(rec.payload.len());
            match rec.kind {
                kind::SUMMARY => self.apply_summary(inner, &rec.payload, &mut capped)?,
                kind::GROUP_OPEN => self.apply_group_open(inner, &rec.payload, &mut capped)?,
                kind::GROUP_FREE => self.apply_group_free(inner, &rec.payload)?,
                kind::ZONE_RESET => self.apply_zone_reset(inner, &rec.payload)?,
                kind::ZONE_FINISH => self.apply_zone_finish(inner, &rec.payload)?,
                _ => {}
            }
        }
        inner.meta.slot = slot as usize;
        inner.meta.epoch = epoch;
        inner.meta.seq = last_seq + 1;
        inner.meta.used = used;
        Ok(())
    }

    fn apply_checkpoint(&self, inner: &mut LsInner, payload: &[u8]) -> Result<()> {
        let mut rd = Rd::new(payload);
        let l = rd.u32()?;
        let n = rd.u32()?;
        let g = rd.u32()?;
        let _pad = rd.u32()?;
        let map_len = rd.u64()?;
        let created_seq = rd.u64()?;
        if l != self.geo.num_zones()
            || n as usize != self.n
            || g as usize != inner.groups.len()
            || map_len as usize != inner.map.len()
        {
            return Err(invalid("lsraid: checkpoint layout mismatch"));
        }
        inner.created_seq = created_seq;
        for zi in 0..l as usize {
            let wp = rd.u64()?;
            let state = zstate_decode(rd.u32()?);
            let _pad = rd.u32()?;
            inner.lz[zi] = LZone { wp, state };
        }
        for gi in 0..g as usize {
            let state = gstate_decode(rd.u32()?);
            let gen = rd.u32()?;
            let sealed = rd.u64()?;
            let created = rd.u64()?;
            let grp = &mut inner.groups[gi];
            grp.state = state;
            grp.gen = gen.min(STREAMS as u32 - 1) as u8;
            grp.sealed = sealed;
            grp.created = created;
            for zi in 0..self.n {
                grp.zones[zi] = rd.u32()?;
            }
        }
        for mi in 0..map_len as usize {
            inner.map[mi] = rd.u64()?;
        }
        Ok(())
    }

    fn apply_summary(
        &self,
        inner: &mut LsInner,
        payload: &[u8],
        capped: &mut [bool],
    ) -> Result<()> {
        let mut rd = Rd::new(payload);
        let g = rd.u32()? as usize;
        let _pad = rd.u32()?;
        let stripe = rd.u64()?;
        if g >= inner.groups.len() || capped[g] {
            return Ok(());
        }
        if stripe != inner.groups[g].sealed {
            return Ok(());
        }
        // Only apply when every member zone provably holds the stripe
        // (device write pointers survive a crash truncated to the
        // durable prefix; a lost data or parity write caps the group).
        for (di, &z) in inner.groups[g].zones.iter().enumerate() {
            if z == NO_ZONE {
                capped[g] = true;
                return Ok(());
            }
            if self.devices[di].zone_info(z)?.written() < (stripe + 1) * self.k {
                capped[g] = true;
                return Ok(());
            }
        }
        for i in 0..self.kd {
            let lba = rd.u64()?;
            if lba == NONE64 || lba as usize >= inner.map.len() {
                continue;
            }
            inner.map[lba as usize] = enc(g as u32, stripe * self.kd + i);
        }
        inner.groups[g].sealed = stripe + 1;
        Ok(())
    }

    fn apply_group_open(
        &self,
        inner: &mut LsInner,
        payload: &[u8],
        capped: &mut [bool],
    ) -> Result<()> {
        let mut rd = Rd::new(payload);
        let g = rd.u32()? as usize;
        let stream = rd.u32()?;
        let created = rd.u64()?;
        if g >= inner.groups.len() {
            return Ok(());
        }
        let grp = &mut inner.groups[g];
        let stream = stream.min(STREAMS as u32 - 1) as u8;
        grp.state = GState::Open(stream);
        grp.gen = stream;
        grp.sealed = 0;
        grp.created = created;
        inner.created_seq = inner.created_seq.max(created + 1);
        for zi in 0..self.n {
            grp.zones[zi] = rd.u32()?;
        }
        capped[g] = false;
        Ok(())
    }

    fn apply_group_free(&self, inner: &mut LsInner, payload: &[u8]) -> Result<()> {
        let mut rd = Rd::new(payload);
        let g = rd.u32()?;
        if g as usize >= inner.groups.len() {
            return Ok(());
        }
        // Defensive sweep: by the reclaim ordering invariant no live
        // mapping should point here, but a crash-truncated log replays
        // the same records deterministically either way.
        for pa in &mut inner.map {
            if *pa != NONE64 && group_of(*pa) == g {
                *pa = NONE64;
            }
        }
        let grp = &mut inner.groups[g as usize];
        grp.state = GState::Free;
        grp.sealed = 0;
        grp.zones.fill(NO_ZONE);
        Ok(())
    }

    fn apply_zone_reset(&self, inner: &mut LsInner, payload: &[u8]) -> Result<()> {
        let mut rd = Rd::new(payload);
        let zone = rd.u32()?;
        if zone >= self.geo.num_zones() {
            return Ok(());
        }
        let base = u64::from(zone) * self.geo.zone_cap();
        for off in 0..self.geo.zone_cap() {
            inner.map[(base + off) as usize] = NONE64;
        }
        inner.lz[zone as usize] = LZone {
            wp: 0,
            state: ZoneState::Empty,
        };
        Ok(())
    }

    fn apply_zone_finish(&self, inner: &mut LsInner, payload: &[u8]) -> Result<()> {
        let mut rd = Rd::new(payload);
        let zone = rd.u32()?;
        if zone < self.geo.num_zones() {
            inner.lz[zone as usize].state = ZoneState::Full;
        }
        Ok(())
    }

    /// Repairs in-memory state after replay: interrupted open groups
    /// become sealed (or free), each logical zone is trimmed to its
    /// contiguous mapped prefix, and validity counts, reverse maps and
    /// free pools are rebuilt from the mapping table.
    fn finish_mount(&self, inner: &mut LsInner) {
        let c = self.geo.zone_cap();
        for (zi, z) in inner.lz.iter_mut().enumerate() {
            let base = zi as u64 * c;
            let mut prefix = 0u64;
            while prefix < c && inner.map[(base + prefix) as usize] != NONE64 {
                prefix += 1;
            }
            for off in prefix..c {
                inner.map[(base + off) as usize] = NONE64;
            }
            z.wp = prefix;
            z.state = match z.state {
                ZoneState::Full => ZoneState::Full,
                _ if prefix == c => ZoneState::Full,
                _ if prefix > 0 => ZoneState::Closed,
                _ => ZoneState::Empty,
            };
        }
        for grp in &mut inner.groups {
            grp.valid = 0;
            grp.fill = 0;
            grp.stripe_issue = SimTime::ZERO;
            grp.buf = None;
            grp.lbas.fill(NONE64);
        }
        for (l, &pa) in inner.map.iter().enumerate() {
            if pa == NONE64 {
                continue;
            }
            let g = group_of(pa) as usize;
            inner.groups[g].valid += 1;
            inner.groups[g].lbas[slot_of(pa) as usize] = l as u64;
        }
        // Dispose of interrupted open groups only after validity is
        // rebuilt: a checkpoint taken mid-seal can map data into a group
        // whose `sealed` count is still zero, and freeing such a group
        // would orphan durable, referenced data.
        for grp in &mut inner.groups {
            if let GState::Open(_) = grp.state {
                if grp.sealed > 0 || grp.valid > 0 {
                    grp.state = GState::Sealed;
                } else {
                    grp.state = GState::Free;
                    grp.zones.fill(NO_ZONE);
                }
            }
        }
        inner.free_groups.clear();
        for gi in (0..inner.groups.len()).rev() {
            if inner.groups[gi].state == GState::Free {
                inner.free_groups.push(gi as u32);
            }
        }
        let mut owned = vec![false; self.phys.num_zones() as usize];
        for di in 0..self.n {
            owned.fill(false);
            for grp in &inner.groups {
                if grp.state != GState::Free && grp.zones[di] != NO_ZONE {
                    owned[grp.zones[di] as usize] = true;
                }
            }
            inner.free_zones[di].clear();
            for z in (META_ZONES..self.phys.num_zones()).rev() {
                if !owned[z as usize] {
                    inner.free_zones[di].push(z);
                }
            }
        }
        inner.open = [None; STREAMS];
        inner.migrating = None;
        inner.in_emergency = false;
        while inner.bufs.len() < STREAMS {
            inner.bufs.push(StripeBuf::new(self.k, self.p == 2));
        }
    }

    // ------------------------------------------------------------------
    // Log write path
    // ------------------------------------------------------------------

    /// Returns the open group for `stream`, allocating one (and running
    /// an emergency collection first if the free pool is at the reserve).
    fn open_group(
        &self,
        inner: &mut LsInner,
        at: SimTime,
        stream: usize,
    ) -> Result<(u32, SimTime)> {
        if let Some(g) = inner.open[stream] {
            return Ok((g, at));
        }
        let mut t = at;
        // Collect until the pool clears the reserve. A single pass is
        // not enough under high-valid victims: draining one group can
        // net almost nothing (survivors fill a cold group as fast as
        // the reclaim frees the victim), but every pass converts that
        // victim's garbage to log headroom, so the loop terminates —
        // either the pool recovers or no garbage is left anywhere.
        while !inner.in_emergency && inner.free_groups.len() <= self.config.reserve_groups as usize
        {
            let (done, collected) = self.emergency_collect(inner, t)?;
            t = done;
            if !collected {
                break;
            }
            // The collection migrates into the cold stream, so it may
            // have opened this very stream's group; don't open a second.
            if let Some(g) = inner.open[stream] {
                return Ok((g, t));
            }
        }
        let Some(g) = inner.free_groups.pop() else {
            return Err(invalid("lsraid: out of free stripe groups"));
        };
        for di in 0..self.n {
            let Some(z) = inner.free_zones[di].pop() else {
                return Err(invalid("lsraid: out of free physical zones"));
            };
            // A crash between a durable GroupFree record and the zone
            // resets leaves stale data behind; clean it up lazily here.
            if self.devices[di].zone_info(z)?.state != ZoneState::Empty {
                t = t.max(self.devices[di].reset_zone(t, z)?.done);
            }
            inner.groups[g as usize].zones[di] = z;
        }
        let created = inner.created_seq;
        inner.created_seq += 1;
        {
            let grp = &mut inner.groups[g as usize];
            grp.state = GState::Open(stream as u8);
            grp.gen = stream as u8;
            grp.sealed = 0;
            grp.fill = 0;
            grp.valid = 0;
            grp.created = created;
            grp.stripe_issue = SimTime::ZERO;
            grp.lbas.fill(NONE64);
            let mut buf = inner.bufs.pop().expect("stripe buffer pool exhausted");
            buf.clear();
            inner.groups[g as usize].buf = Some(buf);
        }
        inner.c_groups_opened += 1;
        let done = self.commit_record(inner, t, kind::GROUP_OPEN, |inner, buf| {
            put_u32(buf, g);
            put_u32(buf, stream as u32);
            put_u64(buf, inner.groups[g as usize].created);
            for &z in &inner.groups[g as usize].zones {
                put_u32(buf, z);
            }
        })?;
        inner.open[stream] = Some(g);
        Ok((g, done))
    }

    /// Appends `data` into `stream`'s open group, accumulating parity
    /// and updating the mapping table; seals each stripe as it fills.
    /// `lba` is the first logical sector (ignored for pads).
    fn log_data(
        &self,
        inner: &mut LsInner,
        at: SimTime,
        data: &[u8],
        mode: LogMode,
        lba: u64,
        stream: usize,
    ) -> Result<SimTime> {
        let total = data.len() as u64 / SECTOR_SIZE;
        let mut consumed = 0u64;
        let mut t = at;
        while consumed < total {
            let (g, t2) = self.open_group(inner, t, stream)?;
            t = t2;
            let gi = g as usize;
            let (stripe, fill) = {
                let grp = &inner.groups[gi];
                (grp.sealed, grp.fill)
            };
            let unit = (fill / self.k) as usize;
            let sec = fill % self.k;
            let run = (self.k - sec).min(total - consumed);
            let dev = self.data_dev(stripe, unit);
            let zone = inner.groups[gi].zones[dev];
            let plba = self.phys.zone_start(zone) + stripe * self.k + sec;
            let chunk =
                &data[(consumed * SECTOR_SIZE) as usize..((consumed + run) * SECTOR_SIZE) as usize];
            let c = self.devices[dev].write(t, plba, chunk, WriteFlags::default())?;
            {
                let grp = &mut inner.groups[gi];
                grp.stripe_issue = grp.stripe_issue.max(c.done);
                let buf = grp.buf.as_mut().expect("open group has a stripe buffer");
                let bo = (sec * SECTOR_SIZE) as usize;
                let end = bo + chunk.len();
                if self.p == 2 {
                    sim::gf_pq_into(&mut buf.p[bo..end], &mut buf.q[bo..end], chunk, unit as u32);
                } else {
                    sim::xor_into(&mut buf.p[bo..end], chunk);
                }
            }
            match mode {
                LogMode::Pad => {}
                LogMode::User => {
                    for i in 0..run {
                        self.map_sector(inner, gi, stripe * self.kd + fill + i, lba + consumed + i);
                    }
                }
                LogMode::Gc => {
                    for i in 0..run {
                        let l = lba + consumed + i;
                        let old = inner.map[l as usize];
                        // Only remap if the sector is still where GC read
                        // it from; a concurrent overwrite wins and the
                        // migrated copy becomes garbage.
                        if old != NONE64 && inner.migrating == Some(group_of(old)) {
                            self.map_sector(inner, gi, stripe * self.kd + fill + i, l);
                        }
                    }
                }
            }
            inner.groups[gi].fill += run;
            consumed += run;
            match mode {
                LogMode::User => inner.c_user += run,
                LogMode::Gc => {
                    inner.c_migrated += run;
                    self.addc(obs::Counter::LsMigratedSectors, run);
                }
                LogMode::Pad => {
                    inner.c_pads += run;
                    self.addc(obs::Counter::LsPadSectors, run);
                }
            }
            if inner.groups[gi].fill == self.kd {
                t = self.seal_stripe(inner, g, c.done)?;
            } else {
                t = c.done;
            }
        }
        Ok(t)
    }

    /// Points logical sector `l` at `(gi, slot)`, releasing any previous
    /// mapping.
    fn map_sector(&self, inner: &mut LsInner, gi: usize, slot: u64, l: u64) {
        let old = inner.map[l as usize];
        if old != NONE64 {
            let og = group_of(old) as usize;
            inner.groups[og].lbas[slot_of(old) as usize] = NONE64;
            inner.groups[og].valid -= 1;
        }
        inner.map[l as usize] = enc(gi as u32, slot);
        inner.groups[gi].lbas[slot as usize] = l;
        inner.groups[gi].valid += 1;
    }

    /// Writes the full-stripe parity unit(s) and commits the stripe's
    /// seal summary; closes the group when its last stripe seals.
    fn seal_stripe(&self, inner: &mut LsInner, g: u32, t: SimTime) -> Result<SimTime> {
        let gi = g as usize;
        let (stripe, issue) = {
            let grp = &inner.groups[gi];
            (grp.sealed, grp.stripe_issue.max(t))
        };
        let pdev = (stripe % self.n as u64) as usize;
        let pzone = inner.groups[gi].zones[pdev];
        let plba = self.phys.zone_start(pzone) + stripe * self.k;
        let mut done = {
            let buf = inner.groups[gi]
                .buf
                .as_ref()
                .expect("sealing an open group");
            let c = self.devices[pdev].write(issue, plba, &buf.p, WriteFlags::default())?;
            self.trace_span(
                obs::OpClass::Write,
                obs::Stage::Xor,
                Some(obs::PathKind::FullParity),
                obs::NONE,
                plba,
                self.k,
                issue,
                c.done,
            );
            c.done
        };
        self.bump(obs::Counter::FullParityWrites);
        inner.c_parity += self.k;
        if self.p == 2 {
            let qdev = ((stripe + 1) % self.n as u64) as usize;
            let qzone = inner.groups[gi].zones[qdev];
            let qlba = self.phys.zone_start(qzone) + stripe * self.k;
            let buf = inner.groups[gi]
                .buf
                .as_ref()
                .expect("sealing an open group");
            let c = self.devices[qdev].write(issue, qlba, &buf.q, WriteFlags::default())?;
            self.trace_span(
                obs::OpClass::Write,
                obs::Stage::Xor,
                Some(obs::PathKind::QParity),
                obs::NONE,
                qlba,
                self.k,
                issue,
                c.done,
            );
            self.bump(obs::Counter::QParityWrites);
            inner.c_parity += self.k;
            done = done.max(c.done);
        }
        let done = self.commit_record(inner, done, kind::SUMMARY, |inner, buf| {
            put_u32(buf, g);
            put_u32(buf, 0);
            put_u64(buf, stripe);
            let grp = &inner.groups[gi];
            let base = (stripe * self.kd) as usize;
            for slot in 0..self.kd as usize {
                put_u64(buf, grp.lbas[base + slot]);
            }
        })?;
        let grp = &mut inner.groups[gi];
        grp.sealed = stripe + 1;
        grp.fill = 0;
        grp.stripe_issue = SimTime::ZERO;
        if let Some(buf) = grp.buf.as_mut() {
            buf.clear();
        }
        if grp.sealed == self.s {
            let stream = match grp.state {
                GState::Open(stream) => stream as usize,
                _ => HOT,
            };
            grp.state = GState::Sealed;
            let buf = grp.buf.take().expect("sealed group returns its buffer");
            inner.bufs.push(buf);
            inner.open[stream] = None;
        }
        Ok(done)
    }

    /// Zero-pads every open stream to its next stripe boundary so all
    /// logged data becomes parity-protected and summarized.
    fn pad_seal(&self, inner: &mut LsInner, at: SimTime) -> Result<SimTime> {
        let mut t = at;
        for stream in 0..STREAMS {
            let Some(g) = inner.open[stream] else {
                continue;
            };
            let fill = inner.groups[g as usize].fill;
            if fill == 0 {
                continue;
            }
            let mut pad = self.kd - fill;
            while pad > 0 {
                let chunk = pad.min(self.k);
                t = self.log_data(
                    inner,
                    t,
                    &self.zeros[..(chunk * SECTOR_SIZE) as usize],
                    LogMode::Pad,
                    0,
                    stream,
                )?;
                pad -= chunk;
            }
        }
        Ok(t)
    }

    /// Durability barrier: pad-seals every stream, then flushes every
    /// device cache.
    fn flush_inner(&self, inner: &mut LsInner, at: SimTime) -> Result<SimTime> {
        let start = self.pad_seal(inner, at)?;
        let mut done = start;
        for dev in &self.devices {
            done = done.max(dev.flush(start)?.done);
        }
        self.trace_span(
            obs::OpClass::Flush,
            obs::Stage::Flush,
            None,
            obs::NONE,
            0,
            0,
            start,
            done,
        );
        Ok(done)
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Reads mapped sectors, coalescing physically contiguous runs
    /// (bounded by the stripe unit) into single device commands issued
    /// in parallel.
    fn read_inner(
        &self,
        inner: &LsInner,
        at: SimTime,
        lba: u64,
        buf: &mut [u8],
    ) -> Result<SimTime> {
        let nsec = buf.len() as u64 / SECTOR_SIZE;
        let mut done = at;
        let mut i = 0u64;
        while i < nsec {
            let pa = inner.map[(lba + i) as usize];
            if pa == NONE64 {
                return Err(ZnsError::ReadUnwritten { lba: lba + i });
            }
            let within = slot_of(pa) % self.k;
            let max_run = (self.k - within).min(nsec - i);
            let mut run = 1u64;
            while run < max_run && inner.map[(lba + i + run) as usize] == pa + run {
                run += 1;
            }
            let (dev, plba) = self.locate_slot(inner, group_of(pa), slot_of(pa));
            let c = self.devices[dev].read(
                at,
                plba,
                &mut buf[(i * SECTOR_SIZE) as usize..((i + run) * SECTOR_SIZE) as usize],
            )?;
            done = done.max(c.done);
            i += run;
        }
        Ok(done)
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// The stream migration out of the active victim targets: one
    /// generation colder than the victim, saturating at the coldest.
    fn migration_target(&self, inner: &LsInner) -> usize {
        inner
            .migrating
            .and_then(|v| inner.groups.get(v as usize))
            .map_or(COLD, |g| (usize::from(g.gen) + 1).min(STREAMS - 1))
    }

    /// Picks a GC victim by LFS-style cost-benefit: among sealed groups
    /// whose garbage fraction meets `threshold`, the one maximizing
    /// `garbage * age / valid` (fully-drained groups win outright,
    /// older wins ties). Pure greedy-by-garbage collects young
    /// half-rotted groups whose surviving data is still dying; weighting
    /// by age steers the collector toward old groups whose survivors
    /// have proven cold, so migration segregates stable data instead of
    /// endlessly remixing it. When the free pool is at or below
    /// `low_water` any garbage qualifies.
    pub fn pick_victim(&self, threshold: f64, low_water: usize) -> Option<u32> {
        let inner = self.inner.lock();
        let force = inner.free_groups.len() <= low_water;
        self.pick_victim_inner(&inner, threshold, force)
    }

    #[allow(clippy::cast_precision_loss)]
    fn pick_victim_inner(&self, inner: &LsInner, threshold: f64, force: bool) -> Option<u32> {
        // Age bonus saturation, in group creations. Age rewards groups
        // whose garbage has stopped accruing (their live data is cold,
        // so migrating it is a one-time cost), but an unbounded bonus
        // lets ancient, barely-rotted cold groups outbid heavily-rotted
        // young ones — draining a nearly-full group stalls the
        // foreground and wrecks write amplification.
        const AGE_SATURATION: u64 = 32;
        // Score components per candidate; compared via u128
        // cross-multiplication so selection is exact and deterministic.
        struct Cand {
            garbage: u64,
            age: u64,
            valid: u64,
            created: u64,
            g: u32,
        }
        let mut best: Option<Cand> = None;
        for (gi, grp) in inner.groups.iter().enumerate() {
            if grp.state != GState::Sealed || inner.migrating == Some(gi as u32) {
                continue;
            }
            let garbage = self.group_cap - grp.valid;
            if garbage == 0 {
                continue;
            }
            if !force && (garbage as f64) < threshold * self.group_cap as f64 {
                continue;
            }
            let cand = Cand {
                garbage,
                age: (inner.created_seq.saturating_sub(grp.created) + 1).min(AGE_SATURATION),
                valid: grp.valid,
                created: grp.created,
                g: gi as u32,
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    // cand.score > best.score with score = garbage*age/valid;
                    // valid == 0 means infinite score (free reclaim).
                    let lhs = u128::from(cand.garbage) * u128::from(cand.age) * u128::from(b.valid);
                    let rhs = u128::from(b.garbage) * u128::from(b.age) * u128::from(cand.valid);
                    lhs > rhs || (lhs == rhs && cand.created < b.created)
                }
            };
            if better {
                best = Some(cand);
            }
        }
        best.map(|c| c.g)
    }

    /// Marks `g` as the group being drained. Migration writes (issued
    /// under [`obs::Actor::Gc`]) only remap sectors that still live in
    /// this group, so foreground overwrites racing the migration win.
    /// Returns `false` if a migration is already active or `g` is not
    /// sealed.
    pub fn begin_migration(&self, g: u32) -> bool {
        let mut inner = self.inner.lock();
        if inner.migrating.is_some()
            || g as usize >= inner.groups.len()
            || inner.groups[g as usize].state != GState::Sealed
        {
            return false;
        }
        inner.migrating = Some(g);
        true
    }

    /// Clears the active migration mark.
    pub fn end_migration(&self) {
        self.inner.lock().migrating = None;
    }

    /// Scans group `g`'s reverse map from slot `from` for the next run
    /// of valid sectors with consecutive logical addresses in one zone,
    /// at most `max` long. Returns `(lba, len, next_slot)`.
    pub fn next_valid_run(&self, g: u32, from: u64, max: u64) -> Option<(Lba, u64, u64)> {
        let inner = self.inner.lock();
        self.valid_run_inner(&inner, g, from, max)
    }

    fn valid_run_inner(
        &self,
        inner: &LsInner,
        g: u32,
        from: u64,
        max: u64,
    ) -> Option<(Lba, u64, u64)> {
        let grp = inner.groups.get(g as usize)?;
        let total = grp.lbas.len() as u64;
        let mut start = from;
        while start < total && grp.lbas[start as usize] == NONE64 {
            start += 1;
        }
        if start >= total {
            return None;
        }
        let lba0 = grp.lbas[start as usize];
        let zone = lba0 / self.geo.zone_cap();
        let mut len = 1u64;
        while start + len < total && len < max.max(1) {
            let l = grp.lbas[(start + len) as usize];
            if l != lba0 + len || l / self.geo.zone_cap() != zone {
                break;
            }
            len += 1;
        }
        Some((lba0, len, start + len))
    }

    /// Live mapped sectors in group `g`.
    pub fn group_valid(&self, g: u32) -> u64 {
        let inner = self.inner.lock();
        inner.groups.get(g as usize).map_or(0, |grp| grp.valid)
    }

    /// Free stripe groups available for allocation.
    pub fn free_group_count(&self) -> usize {
        self.inner.lock().free_groups.len()
    }

    /// Reclaims a fully drained sealed group: seals and flushes all
    /// in-flight data (so every migrated copy is durable), commits the
    /// `GroupFree` record, then resets the member zones and returns them
    /// to the free pools.
    ///
    /// # Errors
    ///
    /// Fails if `g` is not a sealed group with zero valid sectors, or on
    /// device IO failure.
    pub fn reclaim_group(&self, at: SimTime, g: u32) -> Result<SimTime> {
        let mut inner = self.inner.lock();
        let grp = inner
            .groups
            .get(g as usize)
            .ok_or_else(|| invalid("lsraid: no such stripe group"))?;
        if grp.state != GState::Sealed || grp.valid != 0 {
            return Err(invalid("lsraid: group is not drained"));
        }
        self.reclaim_inner(&mut inner, at, g)
    }

    fn reclaim_inner(&self, inner: &mut LsInner, at: SimTime, g: u32) -> Result<SimTime> {
        // Ordering invariant: (1) migrated data durable, (2) GroupFree
        // durable, (3) zones reset. See the crate docs.
        let t = self.flush_inner(inner, at)?;
        let mut t = self.commit_record(inner, t, kind::GROUP_FREE, |_, buf| {
            put_u32(buf, g);
        })?;
        let reset_at = t;
        let gi = g as usize;
        for di in 0..self.n {
            let z = inner.groups[gi].zones[di];
            if z == NO_ZONE {
                continue;
            }
            t = t.max(self.devices[di].reset_zone(reset_at, z)?.done);
            inner.free_zones[di].push(z);
            inner.groups[gi].zones[di] = NO_ZONE;
        }
        let grp = &mut inner.groups[gi];
        grp.state = GState::Free;
        grp.sealed = 0;
        grp.fill = 0;
        grp.lbas.fill(NONE64);
        inner.free_groups.push(g);
        inner.c_group_reclaims += 1;
        self.bump(obs::Counter::LsGroupReclaims);
        Ok(t)
    }

    /// Inline collection on the foreground write path: drains the best
    /// victim into the cold stream and reclaims it, stalling the caller.
    /// Runs when the free pool hits the configured reserve (the
    /// background [`GcManager`] should normally keep ahead of this).
    fn emergency_collect(&self, inner: &mut LsInner, at: SimTime) -> Result<(SimTime, bool)> {
        let Some(victim) = self.pick_victim_inner(inner, 0.0, true) else {
            return Ok((at, false));
        };
        // A background GcManager may be mid-migration; its mark picked
        // the emergency victim apart from its own group above, and must
        // be restored so its remaining migrate writes stay guarded.
        let saved = inner.migrating;
        inner.in_emergency = true;
        inner.migrating = Some(victim);
        let guard = obs::actor_scope(obs::Actor::Gc);
        let res = self.drain_victim(inner, at, victim);
        drop(guard);
        inner.migrating = saved;
        inner.in_emergency = false;
        let done = res?;
        inner.c_emergency += 1;
        self.bump(obs::Counter::GcStalls);
        self.addc(
            obs::Counter::GcStallNanos,
            done.as_nanos().saturating_sub(at.as_nanos()),
        );
        Ok((done, true))
    }

    fn drain_victim(&self, inner: &mut LsInner, at: SimTime, victim: u32) -> Result<SimTime> {
        let mut buf = std::mem::take(&mut inner.gc_buf);
        let res = self.drain_victim_with(inner, at, victim, &mut buf);
        inner.gc_buf = buf;
        res
    }

    fn drain_victim_with(
        &self,
        inner: &mut LsInner,
        at: SimTime,
        victim: u32,
        buf: &mut [u8],
    ) -> Result<SimTime> {
        let mut t = at;
        let mut cursor = 0u64;
        while let Some((lba, len, next)) = self.valid_run_inner(inner, victim, cursor, self.k) {
            cursor = next;
            let bytes = (len * SECTOR_SIZE) as usize;
            let rd = self.read_inner(inner, t, lba, &mut buf[..bytes])?;
            let target = self.migration_target(inner);
            t = self.log_data(inner, rd, &buf[..bytes], LogMode::Gc, lba, target)?;
        }
        debug_assert_eq!(inner.groups[victim as usize].valid, 0);
        self.reclaim_inner(inner, t, victim)
    }

    // ------------------------------------------------------------------
    // Scrub
    // ------------------------------------------------------------------

    /// Verifies parity over every sealed stripe of every non-free group.
    ///
    /// # Errors
    ///
    /// Propagates device IO failures.
    pub fn scrub(&self, at: SimTime) -> Result<LsScrubReport> {
        let inner = self.inner.lock();
        let mut rep = LsScrubReport::default();
        let bytes = (self.k * SECTOR_SIZE) as usize;
        let mut acc = vec![0u8; bytes];
        let mut qacc = vec![0u8; bytes];
        let mut units = vec![0u8; self.d * bytes];
        let mut unit_buf = vec![0u8; bytes];
        for grp in &inner.groups {
            if grp.state == GState::Free {
                continue;
            }
            for stripe in 0..grp.sealed {
                rep.stripes += 1;
                acc.fill(0);
                qacc.fill(0);
                for (unit, buf) in units.chunks_exact_mut(bytes).enumerate() {
                    let dev = self.data_dev(stripe, unit);
                    let z = grp.zones[dev];
                    self.devices[dev].read(at, self.phys.zone_start(z) + stripe * self.k, buf)?;
                }
                if self.p == 2 {
                    sim::gf_pq_into(&mut acc, &mut qacc, &units, 0);
                } else {
                    for unit in units.chunks_exact(bytes) {
                        sim::xor_into(&mut acc, unit);
                    }
                }
                let pdev = (stripe % self.n as u64) as usize;
                self.devices[pdev].read(
                    at,
                    self.phys.zone_start(grp.zones[pdev]) + stripe * self.k,
                    &mut unit_buf,
                )?;
                sim::xor_into(&mut acc, &unit_buf);
                if !sim::is_zero(&acc) {
                    rep.parity_errors += 1;
                }
                if self.p == 2 {
                    let qdev = ((stripe + 1) % self.n as u64) as usize;
                    self.devices[qdev].read(
                        at,
                        self.phys.zone_start(grp.zones[qdev]) + stripe * self.k,
                        &mut unit_buf,
                    )?;
                    sim::xor_into(&mut qacc, &unit_buf);
                    if !sim::is_zero(&qacc) {
                        rep.q_errors += 1;
                    }
                }
            }
        }
        Ok(rep)
    }

    // ------------------------------------------------------------------
    // Shared write body (write + append)
    // ------------------------------------------------------------------

    /// Validated logging of a foreground write at `rel` in `zone`
    /// (caller holds the lock and has validated bounds).
    #[allow(clippy::too_many_arguments)]
    fn write_body(
        &self,
        inner: &mut LsInner,
        at: SimTime,
        zone: u32,
        rel: u64,
        data: &[u8],
        flags: WriteFlags,
        gc_write: bool,
    ) -> Result<SimTime> {
        let nsec = data.len() as u64 / SECTOR_SIZE;
        let lba = self.geo.zone_start(zone) + rel;
        let mut t = at;
        if flags.preflush {
            t = self.flush_inner(inner, t)?;
        }
        let (mode, stream) = if gc_write {
            (LogMode::Gc, self.migration_target(inner))
        } else {
            (LogMode::User, HOT)
        };
        let mut done = self.log_data(inner, t, data, mode, lba, stream)?;
        if !gc_write {
            let z = &mut inner.lz[zone as usize];
            z.wp = z.wp.max(rel + nsec);
            if matches!(z.state, ZoneState::Empty | ZoneState::Closed) {
                z.state = ZoneState::ImplicitlyOpen;
            }
            if z.wp == self.geo.zone_cap() {
                z.state = ZoneState::Full;
            }
        }
        if flags.fua {
            done = self.flush_inner(inner, done)?;
        }
        Ok(done)
    }

    fn check_write_range(&self, lba: Lba, sectors: u64, bytes: usize) -> Result<(u32, u64)> {
        if sectors == 0 || !bytes.is_multiple_of(SECTOR_SIZE as usize) {
            return Err(invalid("lsraid: IO must be a whole number of sectors"));
        }
        if !self.geo.contains(lba) {
            return Err(ZnsError::OutOfRange { lba, sectors });
        }
        if !self.geo.range_in_one_zone(lba, sectors) {
            return Err(ZnsError::ZoneBoundary { lba, sectors });
        }
        Ok((self.geo.zone_of(lba), self.geo.offset_in_zone(lba)))
    }
}

impl ZonedVolume for LsVolume {
    fn geometry(&self) -> ZoneGeometry {
        self.geo
    }

    fn read(&self, at: SimTime, lba: Lba, buf: &mut [u8]) -> Result<IoCompletion> {
        let nsec = buf.len() as u64 / SECTOR_SIZE;
        let (zone, rel) = self.check_write_range(lba, nsec, buf.len())?;
        let (span, parent, _scope) = self.begin_span();
        let inner = self.inner.lock();
        self.mark_lock(obs::OpClass::Read, zone, at);
        if rel + nsec > inner.lz[zone as usize].wp {
            return Err(ZnsError::ReadUnwritten {
                lba: self.geo.zone_start(zone) + inner.lz[zone as usize].wp,
            });
        }
        let done = self.read_inner(&inner, at, lba, buf)?;
        drop(inner);
        self.trace_root(obs::OpClass::Read, zone, lba, nsec, at, done, span, parent);
        Ok(IoCompletion { done })
    }

    fn write(&self, at: SimTime, lba: Lba, data: &[u8], flags: WriteFlags) -> Result<IoCompletion> {
        let nsec = data.len() as u64 / SECTOR_SIZE;
        let (zone, rel) = self.check_write_range(lba, nsec, data.len())?;
        let (span, parent, _scope) = self.begin_span();
        let mut inner = self.inner.lock();
        self.mark_lock(obs::OpClass::Write, zone, at);
        let gc_write = obs::current_actor() == obs::Actor::Gc && inner.migrating.is_some();
        if !gc_write {
            let z = &inner.lz[zone as usize];
            if rel > z.wp {
                return Err(ZnsError::NotSequential {
                    zone,
                    expected: self.geo.zone_start(zone) + z.wp,
                    got: lba,
                });
            }
            // Relaxed semantics: rewriting below the write pointer is an
            // overwrite (remapped internally), even in a Full zone; only
            // growth past the capacity is refused.
            if rel + nsec > self.geo.zone_cap() {
                return Err(ZnsError::ZoneFull { zone });
            }
        }
        let done = self.write_body(&mut inner, at, zone, rel, data, flags, gc_write)?;
        drop(inner);
        self.trace_root(obs::OpClass::Write, zone, lba, nsec, at, done, span, parent);
        Ok(IoCompletion { done })
    }

    fn append(
        &self,
        at: SimTime,
        zone: u32,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<AppendCompletion> {
        let nsec = data.len() as u64 / SECTOR_SIZE;
        if nsec == 0 || !data.len().is_multiple_of(SECTOR_SIZE as usize) {
            return Err(invalid("lsraid: IO must be a whole number of sectors"));
        }
        if zone >= self.geo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: u64::from(zone) * self.geo.zone_size(),
                sectors: nsec,
            });
        }
        let (span, parent, _scope) = self.begin_span();
        let mut inner = self.inner.lock();
        self.mark_lock(obs::OpClass::Append, zone, at);
        let rel = inner.lz[zone as usize].wp;
        if inner.lz[zone as usize].state == ZoneState::Full || rel + nsec > self.geo.zone_cap() {
            return Err(ZnsError::ZoneFull { zone });
        }
        let lba = self.geo.zone_start(zone) + rel;
        let done = self.write_body(&mut inner, at, zone, rel, data, flags, false)?;
        drop(inner);
        self.trace_root(
            obs::OpClass::Append,
            zone,
            lba,
            nsec,
            at,
            done,
            span,
            parent,
        );
        Ok(AppendCompletion { lba, done })
    }

    fn reset_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        if zone >= self.geo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: u64::from(zone) * self.geo.zone_size(),
                sectors: 0,
            });
        }
        let (span, parent, _scope) = self.begin_span();
        let mut inner = self.inner.lock();
        self.mark_lock(obs::OpClass::Reset, zone, at);
        let base = u64::from(zone) * self.geo.zone_cap();
        for off in 0..self.geo.zone_cap() {
            let idx = (base + off) as usize;
            let pa = inner.map[idx];
            if pa != NONE64 {
                let og = group_of(pa) as usize;
                inner.groups[og].lbas[slot_of(pa) as usize] = NONE64;
                inner.groups[og].valid -= 1;
                inner.map[idx] = NONE64;
            }
        }
        inner.lz[zone as usize] = LZone {
            wp: 0,
            state: ZoneState::Empty,
        };
        let done = self.commit_record(&mut inner, at, kind::ZONE_RESET, |_, buf| {
            put_u32(buf, zone);
        })?;
        drop(inner);
        self.trace_root(
            obs::OpClass::Reset,
            zone,
            self.geo.zone_start(zone),
            0,
            at,
            done,
            span,
            parent,
        );
        Ok(IoCompletion { done })
    }

    fn finish_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        if zone >= self.geo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: u64::from(zone) * self.geo.zone_size(),
                sectors: 0,
            });
        }
        let (span, parent, _scope) = self.begin_span();
        let mut inner = self.inner.lock();
        self.mark_lock(obs::OpClass::Finish, zone, at);
        if inner.lz[zone as usize].state == ZoneState::Full {
            return Ok(IoCompletion { done: at });
        }
        // Finishing is a durability point: everything logged so far is
        // sealed and flushed before the Full state is recorded.
        let t = self.flush_inner(&mut inner, at)?;
        inner.lz[zone as usize].state = ZoneState::Full;
        let done = self.commit_record(&mut inner, t, kind::ZONE_FINISH, |_, buf| {
            put_u32(buf, zone);
        })?;
        drop(inner);
        self.trace_root(
            obs::OpClass::Finish,
            zone,
            self.geo.zone_start(zone),
            0,
            at,
            done,
            span,
            parent,
        );
        Ok(IoCompletion { done })
    }

    fn open_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        if zone >= self.geo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: u64::from(zone) * self.geo.zone_size(),
                sectors: 0,
            });
        }
        let mut inner = self.inner.lock();
        let z = &mut inner.lz[zone as usize];
        match z.state {
            ZoneState::Full => Err(ZnsError::BadZoneState {
                zone,
                state: "full",
                op: "open",
            }),
            _ => {
                z.state = ZoneState::ExplicitlyOpen;
                Ok(IoCompletion { done: at })
            }
        }
    }

    fn close_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        if zone >= self.geo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: u64::from(zone) * self.geo.zone_size(),
                sectors: 0,
            });
        }
        let mut inner = self.inner.lock();
        let z = &mut inner.lz[zone as usize];
        if z.state.is_open() {
            z.state = if z.wp > 0 {
                ZoneState::Closed
            } else {
                ZoneState::Empty
            };
        }
        Ok(IoCompletion { done: at })
    }

    fn flush(&self, at: SimTime) -> Result<IoCompletion> {
        let (span, parent, _scope) = self.begin_span();
        let mut inner = self.inner.lock();
        self.mark_lock(obs::OpClass::Flush, obs::NONE, at);
        let done = self.flush_inner(&mut inner, at)?;
        drop(inner);
        self.trace_root(obs::OpClass::Flush, obs::NONE, 0, 0, at, done, span, parent);
        Ok(IoCompletion { done })
    }

    fn zone_info(&self, zone: u32) -> Result<ZoneInfo> {
        if zone >= self.geo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: u64::from(zone) * self.geo.zone_size(),
                sectors: 0,
            });
        }
        let inner = self.inner.lock();
        let z = &inner.lz[zone as usize];
        Ok(ZoneInfo {
            zone,
            state: z.state,
            start: self.geo.zone_start(zone),
            write_pointer: self.geo.zone_start(zone) + z.wp,
            capacity: self.geo.zone_cap(),
        })
    }
}

impl obs::GaugeSource for LsVolume {
    fn source_label(&self) -> &'static str {
        "lsraid"
    }

    #[allow(clippy::cast_precision_loss)]
    fn sample_gauges(&self, out: &mut Vec<obs::GaugeReading>) {
        let inner = self.inner.lock();
        out.push(obs::GaugeReading::new(
            "ls_garbage_ratio",
            obs::NONE,
            self.garbage_ratio_inner(&inner),
        ));
        out.push(obs::GaugeReading::new(
            "ls_waf",
            obs::NONE,
            Self::waf_inner(&inner),
        ));
        out.push(obs::GaugeReading::new(
            "ls_open_groups",
            obs::NONE,
            inner.open.iter().flatten().count() as f64,
        ));
        out.push(obs::GaugeReading::new(
            "ls_free_groups",
            obs::NONE,
            inner.free_groups.len() as f64,
        ));
    }
}
