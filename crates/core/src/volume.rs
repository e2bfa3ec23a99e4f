//! The RAIZN logical volume: write/read paths, persistence, metadata
//! logging and GC, zone resets, degraded mode and rebuild.
//!
//! # Concurrency model
//!
//! The volume is sharded for multi-core scaling (see `DESIGN.md`,
//! "Concurrency model"): every logical zone owns a [`Mutex<LZone>`] shard
//! holding its write pointer, stripe buffer and conflict set, while the
//! global metadata that genuinely spans zones (generation counters,
//! relocation cache, metadata zone roles, partial-parity checkpoint
//! snapshots) lives in one [`MetaState`] mutex. Writes to independent
//! zones proceed concurrently; the meta lock is taken only on metadata
//! appends, relocations and resets.
//!
//! Lock order (deadlock freedom): **at most one zone shard → meta →
//! device**. Counters are relaxed atomics ([`AtomicRaiznStats`]), the
//! failed-device bitmask and read-only flag are atomics, and per-zone
//! write pointers are mirrored in lock-free [`RaiznVolume::zone_wp`] cells
//! so metadata GC can validate checkpoint snapshots without touching
//! shards.

use crate::bitmap::PersistenceBitmap;
use crate::config::RaiznConfig;
use crate::layout::RaiznLayout;
use crate::metadata::{MdPayload, MdPayloadRef, MdRecord, MdRecordRef, Superblock};
use crate::stats::{AtomicRaiznStats, RaiznStats};
use crate::stripe::StripeBuffer;
use crate::Result;
use parking_lot::{Mutex, RwLock};
use sim::gf::{Decode, Slot};
use sim::SimTime;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use zns::{
    AppendCompletion, IoCompletion, Lba, WriteFlags, ZnsDevice, ZnsError, ZoneGeometry, ZoneInfo,
    ZoneState, ZonedVolume, SECTOR_SIZE,
};

/// Which metadata zone a record goes to (§4.3: partial parity is isolated
/// in its own zone; everything else shares the general zone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MdRole {
    /// The general metadata zone (superblock, generation counters, reset
    /// WALs, relocated stripe units).
    General,
    /// The partial-parity log zone.
    PpLog,
}

/// Per-device metadata zone role assignment.
#[derive(Debug, Clone)]
pub(crate) struct MdRoles {
    pub general: u32,
    pub pplog: u32,
    pub swaps: Vec<u32>,
}

/// In-memory cached copy of a relocated stripe unit (§5.2). The key in
/// [`MetaState::relocated`] identifies the slot: `(lzone, stripe, device)`.
#[derive(Debug, Clone)]
pub(crate) struct RelocatedUnit {
    /// Full stripe unit bytes, zero padded beyond `valid`.
    pub data: Vec<u8>,
    /// Valid sectors at the start of `data`.
    pub valid: u64,
}

/// Per-logical-zone descriptor: one lock shard of the write pipeline.
#[derive(Debug)]
pub(crate) struct LZone {
    pub state: ZoneState,
    /// Write pointer, relative sectors within the logical zone capacity.
    /// Mirrored lock-free in [`RaiznVolume::zone_wp`] on every change.
    pub wp: u64,
    pub pbitmap: PersistenceBitmap,
    /// Stripe buffer of the current incomplete stripe, if any.
    pub buffer: Option<StripeBuffer>,
    /// Slots `(stripe, device)` occupied by unreachable "ghost" data from
    /// a rolled-back crash suffix; writes to them are relocated.
    pub conflicts: HashSet<(u64, u32)>,
    /// Retired stripe buffer kept for reuse, so this zone's steady-state
    /// writes allocate nothing. Per-shard (not a global pool): reuse never
    /// contends with other zones' writers.
    pub spare: Option<StripeBuffer>,
}

impl LZone {
    /// Returns a cleared stripe buffer for `stripe`, reusing the zone's
    /// spare when available.
    fn stripe_buffer(
        &mut self,
        stats: &AtomicRaiznStats,
        stripe: u64,
        data_units: u64,
        unit_sectors: u64,
        parity_units: u32,
    ) -> StripeBuffer {
        match self.spare.take() {
            Some(mut b) => {
                debug_assert!(b.shape_matches_parity(data_units, unit_sectors, parity_units));
                debug_assert!(sim::is_zero(b.parity()), "pooled buffer not clean");
                debug_assert!(
                    b.parity_units() < 2 || sim::is_zero(b.q_parity()),
                    "pooled buffer Q not clean"
                );
                b.recycle(stripe);
                AtomicRaiznStats::add(&stats.stripe_buffers_reused, 1);
                b
            }
            None => StripeBuffer::with_parity(stripe, data_units, unit_sectors, parity_units),
        }
    }

    /// Retires a stripe buffer into the zone's spare slot (cleared via its
    /// dirty high-water mark), or drops it if a spare is already parked.
    fn retire_buffer(&mut self, mut buf: StripeBuffer) {
        if self.spare.is_none() {
            buf.recycle(0);
            self.spare = Some(buf);
        }
    }
}

/// Checkpoint snapshot of a zone's running partial parity, maintained on
/// every pp-log append so metadata GC can re-log live parity without
/// locking the zone shard that owns the stripe buffer.
#[derive(Debug, Default)]
pub(crate) struct PpSnapshot {
    /// Stripe index the snapshot describes.
    pub stripe: u64,
    /// Data sectors filled into the stripe at snapshot time. The snapshot
    /// is live iff the zone's mirrored write pointer still equals
    /// `stripe * stripe_data + filled`.
    pub filled: u64,
    /// Running parity prefix (`filled.min(stripe_unit)` rows).
    pub parity: Vec<u8>,
    /// Running Q-parity prefix, same shape as `parity`. Empty in
    /// single-parity mode.
    pub q: Vec<u8>,
}

/// Cross-zone volume metadata: the single global lock domain. Everything
/// here is either genuinely shared between zones (generation table,
/// metadata zone roles, relocation cache) or is scratch reused across
/// operations.
pub(crate) struct MetaState {
    pub gens: Vec<u64>,
    pub relocated: HashMap<(u32, u64, u32), RelocatedUnit>,
    pub md: Vec<MdRoles>,
    /// Per-zone partial-parity checkpoint snapshots (see [`PpSnapshot`]).
    pub pp_live: HashMap<u32, PpSnapshot>,
    /// Scratch buffer for metadata record encoding; taken/restored around
    /// appends so payload bytes never need an owned staging `Vec`.
    pub md_scratch: Vec<u8>,
    /// Scratch buffer for gather writes ([`zns::ZonedVolume::write_vectored`]);
    /// taken/restored around the staged write so steady-state batches
    /// allocate nothing.
    pub gather_scratch: Vec<u8>,
}

/// Outcome of rebuilding a replaced device (§4.2, Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildReport {
    /// Virtual time from rebuild start to the last write completion.
    pub duration: sim::SimDuration,
    /// Bytes written to the replacement device (valid data only).
    pub bytes_written: u64,
    /// Logical zones whose contents were rebuilt.
    pub zones_rebuilt: u32,
}

/// A logical host-managed zoned volume striped over an array of ZNS
/// devices with rotating parity. See the crate docs for the design and an
/// example; construct with [`RaiznVolume::format`] (fresh array) or
/// [`RaiznVolume::mount`] (crash recovery).
///
/// All IO entry points take `&self` and may be called from multiple
/// threads; writes to distinct logical zones run concurrently (see the
/// module docs for the locking discipline).
pub struct RaiznVolume {
    pub(crate) layout: RaiznLayout,
    pub(crate) config: RaiznConfig,
    /// Per-zone lock shards.
    pub(crate) zones: Vec<Mutex<LZone>>,
    /// The global metadata domain.
    pub(crate) meta: Mutex<MetaState>,
    /// Member devices. Read-locked for the duration of an operation;
    /// write-locked only by rebuild's final device swap.
    pub(crate) devices: RwLock<Vec<Arc<ZnsDevice>>>,
    /// Bitmask of failed devices (bit `i` = device `i`). The array keeps
    /// serving while `count_ones() <= layout.parity_units()`; claiming a
    /// failure beyond that headroom is refused with
    /// [`ZnsError::TooManyFailures`].
    pub(crate) failed_mask: AtomicU64,
    read_only: AtomicBool,
    /// Per-device count of unrecovered errors (retry-exhausted transients
    /// and media errors); exceeding the configured budget auto-degrades
    /// the device.
    pub(crate) device_errors: Vec<AtomicU64>,
    /// Lock-free mirror of each zone's write pointer, stored on every wp
    /// change under the shard lock. Readers that only need the frontier
    /// (metadata GC snapshot validation) use this instead of the shard.
    pub(crate) zone_wp: Vec<AtomicU64>,
    /// Lock-free per-zone "sealed by an explicit finish" flags. Metadata
    /// GC checkpoints a [`MdPayload::ZoneFinishLog`] for flagged zones so
    /// the sealed write pointer stays durable across GC passes.
    pub(crate) zone_sealed: Vec<AtomicBool>,
    /// Lock-free mirror of `meta.relocated.len()`: hot reads skip the meta
    /// lock entirely while no relocations exist.
    relocated_len: AtomicUsize,
    /// Rebuild progress: zones scheduled by the in-flight rebuild pass
    /// (0 when no rebuild is running). Exported as a gauge.
    pub(crate) rebuild_zones_total: AtomicU64,
    /// Rebuild progress: zones completed by the in-flight rebuild pass.
    pub(crate) rebuild_zones_done: AtomicU64,
    pub(crate) stats: AtomicRaiznStats,
    /// Observability recorder for volume-layer spans (parity-path
    /// attribution, metadata appends, flush latency) and counters.
    recorder: RwLock<Option<Arc<obs::Recorder>>>,
    /// Wall-clock contention statistics for the zone shard locks
    /// (aggregate across shards; gauge id 0).
    shard_locks: obs::LockStats,
    /// Wall-clock contention statistics for the meta lock (gauge id 1).
    meta_locks: obs::LockStats,
    /// Reusable fetch buffers of degraded-read reconstructions, one per
    /// reconstruction in flight. A leaf lock: nothing else is taken while
    /// it is held.
    recon_scratch: Mutex<Vec<Vec<u8>>>,
}

impl std::fmt::Debug for RaiznVolume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaiznVolume")
            .field("layout", &self.layout)
            .finish_non_exhaustive()
    }
}

// Parity arithmetic goes through the shared word-vectorized kernel in
// `sim::xor` (also used by the stripe buffer, recovery, and mdraid5).
pub(crate) use sim::xor_into;

/// An internal invariant violation surfaced as an error instead of a
/// panic, so injected device faults can never take the volume down
/// mid-operation.
pub(crate) fn internal(context: &'static str) -> ZnsError {
    ZnsError::InvalidArgument(format!("internal invariant violated: {context}"))
}

/// Outcome of a [`RaiznVolume::scrub`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Complete stripes whose parity was verified.
    pub stripes_checked: u64,
    /// Parity mismatches detected and repaired (corrected parity
    /// relocated via the metadata log).
    pub parity_repairs: u64,
    /// Stripe units healed from latent media errors during the walk.
    pub units_healed: u64,
}

impl RaiznVolume {
    // ------------------------------------------------------------------
    // Locking and lock-free helpers
    // ------------------------------------------------------------------

    /// Locks logical zone `lzone`'s shard, recording contention.
    pub(crate) fn lock_shard(&self, lzone: u32) -> parking_lot::MutexGuard<'_, LZone> {
        self.shard_locks.lock(&self.zones[lzone as usize])
    }

    /// Locks the global metadata domain, recording contention. Callers
    /// may hold at most one zone shard (lock order: shard → meta).
    pub(crate) fn lock_meta(&self) -> parking_lot::MutexGuard<'_, MetaState> {
        self.meta_locks.lock(&self.meta)
    }

    /// Whether device `dev` is in the failed set.
    pub(crate) fn is_failed(&self, dev: usize) -> bool {
        self.failed_mask.load(Ordering::Acquire) & (1u64 << dev) != 0
    }

    /// The current failed-device bitmask.
    pub(crate) fn failure_mask(&self) -> u64 {
        self.failed_mask.load(Ordering::Acquire)
    }

    /// Number of devices currently failed.
    pub(crate) fn failed_count(&self) -> u32 {
        self.failure_mask().count_ones()
    }

    /// The lowest failed device index, if any.
    pub(crate) fn failed_idx(&self) -> Option<usize> {
        match self.failure_mask() {
            0 => None,
            m => Some(m.trailing_zeros() as usize),
        }
    }

    /// Attempts to add `dev` to the failed set. Returns `Ok(true)` when
    /// this call newly claimed the failure, `Ok(false)` when the device
    /// was already failed, and [`ZnsError::TooManyFailures`] when the
    /// failure would exceed the array's parity count (no redundancy
    /// headroom left). Lock-free compare-exchange loop.
    pub(crate) fn claim_failure(&self, dev: usize) -> Result<bool> {
        let bit = 1u64 << dev;
        let parity = self.layout.parity_units();
        let mut cur = self.failed_mask.load(Ordering::Acquire);
        loop {
            if cur & bit != 0 {
                return Ok(false);
            }
            if cur.count_ones() >= parity {
                return Err(ZnsError::TooManyFailures {
                    failed: cur.count_ones(),
                    parity,
                });
            }
            match self.failed_mask.compare_exchange(
                cur,
                cur | bit,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(true),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Refreshes the lock-free relocation count mirror after any mutation
    /// of `meta.relocated` (call with the meta lock still held).
    pub(crate) fn sync_relocated_count(&self, m: &MetaState) {
        self.relocated_len
            .store(m.relocated.len(), Ordering::Release);
    }

    /// Records a volume-layer trace span on the attached recorder, if any.
    /// Volume spans carry `device == obs::NONE`: device attribution lives
    /// in the device-layer spans emitted by [`zns::ZnsDevice`] itself.
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

    /// Opens a causal span for a top-level volume operation: allocates an
    /// id (0 when span tracing is disabled), remembers any enclosing span
    /// as the parent, and installs the id as the ambient span so nested
    /// device, lock, and parity events link to it. The returned guard
    /// restores the previous ambient span on drop.
    fn begin_span(&self) -> (u64, u64, obs::SpanScope) {
        let parent = obs::current_span();
        let span = self.recorder.read().as_ref().map_or(0, |r| r.new_span());
        (span, parent, obs::span_scope(span))
    }

    /// Records the root `WholeOp` event of a top-level operation with an
    /// explicit span identity (from [`begin_span`](Self::begin_span)) so
    /// the recorder can close the op's blame tree on it.
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

    /// Drops a zero-width `LockWait` marker at `at` into the current span.
    /// Wall-clock lock contention can never enter the virtual timeline
    /// (that would break determinism; contention totals live in the
    /// lock-contention shards), but the marker places the acquisition in
    /// the op's blame tree and exported waterfalls.
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

    /// Bumps a counter on the attached recorder, if any.
    fn bump(&self, counter: obs::Counter) {
        if let Some(rec) = self.recorder.read().as_ref() {
            rec.bump(counter);
        }
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Initializes a fresh array: resets every zone, writes the superblock
    /// and initial generation counters to every device.
    ///
    /// # Errors
    ///
    /// Fails if the devices disagree on geometry, fewer than 3 are given,
    /// or device IO fails.
    pub fn format(
        devices: Vec<Arc<ZnsDevice>>,
        config: RaiznConfig,
        at: SimTime,
    ) -> Result<RaiznVolume> {
        let layout = Self::check_devices(&devices, config)?;
        // mkfs: wipe all zones.
        for dev in &devices {
            for z in 0..dev.geometry().num_zones() {
                let info = dev.zone_info(z)?;
                if info.write_pointer > info.start || info.state == ZoneState::Full {
                    dev.reset_zone(at, z)?;
                }
            }
        }
        let vol = Self::assemble(
            devices,
            config,
            layout,
            vec![0; layout.logical_zones() as usize],
        );
        {
            let devices = vol.devices.read();
            let mut m = vol.lock_meta();
            let mut t = at;
            t = vol.persist_superblock(&mut m, &devices, t)?;
            vol.persist_all_gens(&mut m, &devices, t)?;
        }
        Ok(vol)
    }

    /// Validates the device set and derives the layout.
    pub(crate) fn check_devices(
        devices: &[Arc<ZnsDevice>],
        config: RaiznConfig,
    ) -> Result<RaiznLayout> {
        let min_devices = config.parity as usize + 2;
        if devices.len() < min_devices {
            return Err(ZnsError::InvalidArgument(format!(
                "RAIZN needs >= {min_devices} devices with parity = {}, got {}",
                config.parity,
                devices.len()
            )));
        }
        if devices.len() > 64 {
            return Err(ZnsError::InvalidArgument(format!(
                "RAIZN supports at most 64 devices (failure bitmask), got {}",
                devices.len()
            )));
        }
        let geo = devices[0].geometry();
        if devices.iter().any(|d| d.geometry() != geo) {
            return Err(ZnsError::InvalidArgument(
                "all array devices must share one geometry".to_string(),
            ));
        }
        if config.use_zrwa
            && devices
                .iter()
                .any(|d| d.config().zrwa_sectors() < config.stripe_unit_sectors)
        {
            return Err(ZnsError::InvalidArgument(
                "use_zrwa requires every device's ZRWA window to cover one stripe unit".to_string(),
            ));
        }
        Ok(RaiznLayout::new(devices.len() as u32, config, geo))
    }

    /// Builds the in-memory volume object with default metadata roles.
    pub(crate) fn assemble(
        devices: Vec<Arc<ZnsDevice>>,
        config: RaiznConfig,
        layout: RaiznLayout,
        gens: Vec<u64>,
    ) -> RaiznVolume {
        let n = devices.len();
        let nz = layout.logical_zones() as usize;
        let zones = (0..nz)
            .map(|_| {
                Mutex::new(LZone {
                    state: ZoneState::Empty,
                    wp: 0,
                    pbitmap: PersistenceBitmap::new(
                        layout.stripes_per_zone() * layout.data_units(),
                        layout.stripe_unit(),
                    ),
                    buffer: None,
                    conflicts: HashSet::new(),
                    spare: None,
                })
            })
            .collect();
        let md = (0..n)
            .map(|_| MdRoles {
                general: 0,
                pplog: 1,
                swaps: (2..config.md_zones_per_device).collect(),
            })
            .collect();
        RaiznVolume {
            layout,
            config,
            zones,
            meta: Mutex::new(MetaState {
                gens,
                relocated: HashMap::new(),
                md,
                pp_live: HashMap::new(),
                md_scratch: Vec::new(),
                gather_scratch: Vec::new(),
            }),
            devices: RwLock::new(devices),
            failed_mask: AtomicU64::new(0),
            read_only: AtomicBool::new(false),
            device_errors: (0..n).map(|_| AtomicU64::new(0)).collect(),
            zone_wp: (0..nz).map(|_| AtomicU64::new(0)).collect(),
            zone_sealed: (0..nz).map(|_| AtomicBool::new(false)).collect(),
            relocated_len: AtomicUsize::new(0),
            rebuild_zones_total: AtomicU64::new(0),
            rebuild_zones_done: AtomicU64::new(0),
            stats: AtomicRaiznStats::default(),
            recorder: RwLock::new(None),
            shard_locks: obs::LockStats::new(),
            meta_locks: obs::LockStats::new(),
            recon_scratch: Mutex::new(Vec::new()),
        }
    }

    /// The array layout (address arithmetic).
    pub fn layout(&self) -> RaiznLayout {
        self.layout
    }

    /// The array configuration.
    pub fn config(&self) -> RaiznConfig {
        self.config
    }

    /// Volume statistics.
    pub fn stats(&self) -> RaiznStats {
        self.stats.snapshot()
    }

    /// Attaches an observability recorder: volume-layer spans (parity-path
    /// attribution, metadata appends, flush latency) and counters land on
    /// it. To also capture device-layer spans, attach the same recorder to
    /// the member devices via [`zns::ZnsDevice::set_recorder`].
    pub fn set_recorder(&self, recorder: std::sync::Arc<obs::Recorder>) {
        *self.recorder.write() = Some(recorder);
    }

    /// The generation counter of logical zone `lzone`.
    pub fn generation(&self, lzone: u32) -> u64 {
        self.lock_meta().gens[lzone as usize]
    }

    /// Whether the array is running degraded (a device has failed).
    pub fn is_degraded(&self) -> bool {
        self.failed_idx().is_some()
    }

    /// Number of currently relocated stripe units.
    pub fn relocated_count(&self) -> usize {
        self.relocated_len.load(Ordering::Acquire)
    }

    /// Marks device `index` failed. Subsequent reads reconstruct from
    /// parity; writes omit the device. Idempotent for an already-failed
    /// device.
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::InvalidArgument`] if `index` is out of range
    /// and [`ZnsError::TooManyFailures`] if the failure would exceed the
    /// array's parity count (one for RAIZN, two for RAIZN-2).
    pub fn fail_device(&self, index: usize) -> Result<()> {
        let devices = self.devices.read();
        if index >= devices.len() {
            return Err(ZnsError::InvalidArgument(format!(
                "device index {index} out of range (array has {})",
                devices.len()
            )));
        }
        if self.claim_failure(index)? {
            devices[index].fail();
        }
        Ok(())
    }

    /// The lowest failed device index, if any. See
    /// [`failed_devices`](Self::failed_devices) for the full set.
    pub fn failed_device(&self) -> Option<usize> {
        self.failed_idx()
    }

    /// All currently failed device indices, ascending.
    pub fn failed_devices(&self) -> Vec<usize> {
        let mut m = self.failure_mask();
        let mut out = Vec::new();
        while m != 0 {
            let d = m.trailing_zeros() as usize;
            out.push(d);
            m &= m - 1;
        }
        out
    }

    // ------------------------------------------------------------------
    // Fault handling: retries and the per-device error budget
    // ------------------------------------------------------------------

    /// Records one unrecovered error against `dev` and auto-degrades the
    /// array (the [`fail_device`](Self::fail_device) equivalent) once the
    /// device exceeds its error budget — but only while redundancy
    /// headroom remains: once `parity` devices are already failed the
    /// array keeps limping on the sick device rather than taking itself
    /// past its tolerable failure count. Lock-free: the failure bit is
    /// claimed by compare-exchange.
    fn note_device_error(&self, devices: &[Arc<ZnsDevice>], dev: usize) {
        let errs = self.device_errors[dev].fetch_add(1, Ordering::AcqRel) + 1;
        if errs > self.config.device_error_budget && self.claim_failure(dev) == Ok(true) {
            devices[dev].fail();
            AtomicRaiznStats::add(&self.stats.auto_degrades, 1);
        }
    }

    /// Appends to `dev`'s physical `zone` with bounded retries on
    /// transient errors; exhaustion counts against the device's error
    /// budget and surfaces the transient error.
    fn append_with_retry(
        &self,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        dev: usize,
        zone: u32,
        bytes: &[u8],
        flags: WriteFlags,
    ) -> Result<AppendCompletion> {
        let limit = self.config.transient_retry_limit;
        let mut attempt = 0u32;
        loop {
            match devices[dev].append(at, zone, bytes, flags) {
                Err(ZnsError::TransientError { .. }) if attempt < limit => {
                    attempt += 1;
                    AtomicRaiznStats::add(&self.stats.transient_retries, 1);
                    self.bump(obs::Counter::Retries);
                }
                Err(e @ ZnsError::TransientError { .. }) => {
                    self.note_device_error(devices, dev);
                    return Err(e);
                }
                other => return other,
            }
        }
    }

    /// Resets `dev`'s physical zone `phys` with bounded retries. On
    /// exhaustion the device is charged an error; if that degrades it the
    /// reset is treated as done (the device is out of the array, and the
    /// logged reset WAL replays on its eventual rebuild/remount).
    fn reset_phys_with_retry(
        &self,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        dev: usize,
        phys: u32,
    ) -> Result<SimTime> {
        let limit = self.config.transient_retry_limit;
        let mut attempt = 0u32;
        loop {
            match devices[dev].reset_zone(at, phys) {
                Ok(c) => return Ok(c.done),
                Err(ZnsError::TransientError { .. }) if attempt < limit => {
                    attempt += 1;
                    AtomicRaiznStats::add(&self.stats.transient_retries, 1);
                    self.bump(obs::Counter::Retries);
                }
                Err(e @ ZnsError::TransientError { .. }) => {
                    self.note_device_error(devices, dev);
                    if self.is_failed(dev) {
                        return Ok(at);
                    }
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl RaiznVolume {
    // ------------------------------------------------------------------
    // Metadata plumbing
    // ------------------------------------------------------------------

    /// Appends a record to `dev`'s metadata zone for `role`, running
    /// metadata GC if the zone is full. Returns the completion time.
    ///
    /// Convenience wrapper over [`Self::md_append_bytes`] for owned
    /// records on cold paths; the hot write path encodes borrowed-payload
    /// [`crate::MdRecordRef`]s into the pooled scratch buffer instead.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn md_append(
        &self,
        m: &mut MetaState,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        dev: usize,
        role: MdRole,
        rec: &MdRecord,
        fua: bool,
    ) -> Result<SimTime> {
        if self.is_failed(dev) {
            return Ok(at);
        }
        let mut scratch = std::mem::take(&mut m.md_scratch);
        rec.as_ref().encode_into(&mut scratch);
        let is_pp = matches!(
            rec.header.md_type,
            crate::metadata::MetadataType::PartialParity
                | crate::metadata::MetadataType::PartialParityQ
        );
        let r = self.md_append_bytes(m, devices, at, dev, role, is_pp, &scratch, fua);
        m.md_scratch = scratch;
        r
    }

    /// Appends pre-encoded record `bytes` (header + payload sectors) to
    /// `dev`'s metadata zone for `role`, running metadata GC if the zone
    /// is full. `is_pp` flags partial-parity records for the
    /// logical-block-metadata ablation. Returns the completion time.
    ///
    /// Callers encode via [`crate::MdRecordRef::encode_into`] into
    /// [`MetaState::md_scratch`] (taken out around the call), keeping the
    /// steady-state metadata path free of heap allocation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn md_append_bytes(
        &self,
        m: &mut MetaState,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        dev: usize,
        role: MdRole,
        is_pp: bool,
        bytes: &[u8],
        fua: bool,
    ) -> Result<SimTime> {
        if self.is_failed(dev) {
            return Ok(at);
        }
        // Ablation (§5.4): with logical-block metadata enabled, partial
        // parity headers ride in per-block metadata descriptors instead of
        // a dedicated 4 KiB header sector. Modelled by dropping the header
        // sector from the log append (recovery of such records is not
        // exercised by the ablation benches).
        let bytes = if self.config.lb_metadata_headers
            && is_pp
            && bytes.len() > crate::metadata::MD_HEADER_BYTES
        {
            &bytes[crate::metadata::MD_HEADER_BYTES..]
        } else {
            bytes
        };
        let flags = WriteFlags {
            fua,
            preflush: false,
        };
        let zone = match role {
            MdRole::General => m.md[dev].general,
            MdRole::PpLog => m.md[dev].pplog,
        };
        let r = match self.append_with_retry(devices, at, dev, zone, bytes, flags) {
            Ok(c) => {
                AtomicRaiznStats::add(&self.stats.md_appends, 1);
                Ok(c.done)
            }
            Err(ZnsError::ZoneFull { .. }) => {
                let t = self.md_gc(m, devices, at, dev, role)?;
                let zone = match role {
                    MdRole::General => m.md[dev].general,
                    MdRole::PpLog => m.md[dev].pplog,
                };
                match self.append_with_retry(devices, t, dev, zone, bytes, flags) {
                    Ok(c) => {
                        AtomicRaiznStats::add(&self.stats.md_appends, 1);
                        Ok(c.done)
                    }
                    Err(ZnsError::TransientError { .. }) if self.is_failed(dev) => Ok(t),
                    Err(e) => Err(e),
                }
            }
            // Retry exhaustion just degraded the device: its metadata
            // replica is gone with it, mirroring the failed-device
            // early-return above.
            Err(ZnsError::TransientError { .. }) if self.is_failed(dev) => Ok(at),
            Err(e) => Err(e),
        };
        if let Ok(done) = r {
            self.trace_span(
                obs::OpClass::Append,
                obs::Stage::MetaAppend,
                None,
                zone,
                0,
                bytes.len() as u64 / SECTOR_SIZE,
                at,
                done,
            );
        }
        r
    }

    /// Garbage collects `dev`'s metadata zone for `role` (§4.3, Fig. 4):
    /// designate a swap zone, checkpoint live metadata into it, flush, and
    /// reset the old zone back into the swap pool.
    ///
    /// Partial-parity checkpoints are re-logged from the [`PpSnapshot`]s
    /// in [`MetaState::pp_live`] rather than the stripe buffers (which
    /// live behind per-zone shard locks): a snapshot is included iff the
    /// zone's lock-free write-pointer mirror still matches its frontier,
    /// which makes the checkpoint identical to a buffer walk without
    /// violating the shard → meta lock order.
    pub(crate) fn md_gc(
        &self,
        m: &mut MetaState,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        dev: usize,
        role: MdRole,
    ) -> Result<SimTime> {
        self.bump(obs::Counter::MdGcRuns);
        let new_zone = m.md[dev]
            .swaps
            .pop()
            .ok_or_else(|| internal("metadata GC requires at least one swap zone"))?;
        let old_zone = match role {
            MdRole::General => std::mem::replace(&mut m.md[dev].general, new_zone),
            MdRole::PpLog => std::mem::replace(&mut m.md[dev].pplog, new_zone),
        };
        let mut t = at;
        // Checkpoint live metadata, flagged as checkpoint records. Every
        // record is encoded straight out of live state (pp snapshots,
        // relocation cache, counter table) into the pooled scratch buffer:
        // no owned payload staging.
        let mut scratch = std::mem::take(&mut m.md_scratch);
        let r = (|| -> Result<()> {
            match role {
                MdRole::PpLog => {
                    // Re-log the partial parity of every zone whose
                    // snapshot is still live and whose parity lands on
                    // this device.
                    let su = self.layout.stripe_unit();
                    let lgeo = self.layout.logical_geometry();
                    let stripe_data = self.layout.stripe_data_sectors();
                    for lz in 0..self.layout.logical_zones() as usize {
                        let Some(snap) = m.pp_live.get(&(lz as u32)) else {
                            continue;
                        };
                        if snap.filled == 0 {
                            continue;
                        }
                        // Staleness guard: the snapshot must describe the
                        // zone's current in-flight stripe frontier.
                        let wp = self.zone_wp[lz].load(Ordering::Acquire);
                        if wp / stripe_data != snap.stripe || wp % stripe_data != snap.filled {
                            continue;
                        }
                        let pdev = self.layout.parity_device(lz as u32, snap.stripe);
                        let qdev = self.layout.q_device(lz as u32, snap.stripe);
                        let is_p_home = pdev as usize == dev;
                        let is_q_home = qdev == Some(dev as u32);
                        if !is_p_home && !is_q_home {
                            continue;
                        }
                        let rows = snap.filled.min(su);
                        let zstart = lgeo.zone_start(lz as u32);
                        let sstart = zstart + snap.stripe * stripe_data;
                        let bytes = (rows * SECTOR_SIZE) as usize;
                        let payload = if is_p_home {
                            MdPayloadRef::PartialParity {
                                first_row: 0,
                                data: &snap.parity[..bytes],
                            }
                        } else {
                            MdPayloadRef::PartialParityQ {
                                first_row: 0,
                                data: &snap.q[..bytes],
                            }
                        };
                        MdRecordRef::new(payload, true, sstart, sstart + snap.filled, m.gens[lz])
                            .encode_into(&mut scratch);
                        let c = self.append_with_retry(
                            devices,
                            t,
                            dev,
                            new_zone,
                            &scratch,
                            WriteFlags::default(),
                        )?;
                        t = c.done;
                        AtomicRaiznStats::add(&self.stats.md_appends, 1);
                    }
                }
                MdRole::General => {
                    self.superblock_record(devices.len(), dev, true)
                        .as_ref()
                        .encode_into(&mut scratch);
                    let c = self.append_with_retry(
                        devices,
                        t,
                        dev,
                        new_zone,
                        &scratch,
                        WriteFlags::default(),
                    )?;
                    t = c.done;
                    AtomicRaiznStats::add(&self.stats.md_appends, 1);
                    let per = crate::metadata::GEN_COUNTERS_PER_PAGE;
                    for first in (0..m.gens.len()).step_by(per) {
                        Self::encode_gen_page(&m.gens, first, true, &mut scratch);
                        let c = self.append_with_retry(
                            devices,
                            t,
                            dev,
                            new_zone,
                            &scratch,
                            WriteFlags::default(),
                        )?;
                        t = c.done;
                        AtomicRaiznStats::add(&self.stats.md_appends, 1);
                    }
                    // Zone-finish WALs stay live until the zone's next
                    // reset: re-log one checkpoint record per sealed zone
                    // (the lock-free mirrors carry the frozen frontier).
                    let lgeo = self.layout.logical_geometry();
                    for lz in 0..self.layout.logical_zones() as usize {
                        if !self.zone_sealed[lz].load(Ordering::Acquire) {
                            continue;
                        }
                        let wp = self.zone_wp[lz].load(Ordering::Acquire);
                        let zstart = lgeo.zone_start(lz as u32);
                        MdRecordRef::new(
                            MdPayloadRef::ZoneFinishLog,
                            true,
                            zstart,
                            zstart + wp,
                            m.gens[lz],
                        )
                        .encode_into(&mut scratch);
                        let c = self.append_with_retry(
                            devices,
                            t,
                            dev,
                            new_zone,
                            &scratch,
                            WriteFlags::default(),
                        )?;
                        t = c.done;
                        AtomicRaiznStats::add(&self.stats.md_appends, 1);
                    }
                    let mut keys: Vec<(u32, u64, u32)> = m
                        .relocated
                        .keys()
                        .filter(|(_, _, rdev)| *rdev as usize == dev)
                        .copied()
                        .collect();
                    keys.sort_unstable();
                    for (lz, stripe, rdev) in keys {
                        {
                            let unit = &m.relocated[&(lz, stripe, rdev)];
                            self.encode_relocation_record(
                                m.gens[lz as usize],
                                lz,
                                stripe,
                                unit,
                                true,
                                &mut scratch,
                            );
                        }
                        let c = self.append_with_retry(
                            devices,
                            t,
                            dev,
                            new_zone,
                            &scratch,
                            WriteFlags::default(),
                        )?;
                        t = c.done;
                        AtomicRaiznStats::add(&self.stats.md_appends, 1);
                    }
                }
            }
            Ok(())
        })();
        m.md_scratch = scratch;
        r?;
        // The checkpoint must be durable before the old zone disappears.
        t = devices[dev].flush(t)?.done;
        t = self.reset_phys_with_retry(devices, t, dev, old_zone)?;
        m.md[dev].swaps.insert(0, old_zone);
        AtomicRaiznStats::add(&self.stats.md_gc_runs, 1);
        Ok(t)
    }

    pub(crate) fn superblock_record(
        &self,
        num_devices: usize,
        dev: usize,
        checkpoint: bool,
    ) -> MdRecord {
        let phys = self.layout.phys_geometry();
        MdRecord::new(
            MdPayload::Superblock(Superblock {
                num_devices: num_devices as u32,
                device_index: dev as u32,
                stripe_unit_sectors: self.layout.stripe_unit(),
                md_zones_per_device: self.layout.md_zones(),
                phys_zones: phys.num_zones(),
                phys_zone_size: phys.zone_size(),
                phys_zone_cap: phys.zone_cap(),
            }),
            checkpoint,
            0,
            0,
            0,
        )
    }

    /// Builds the generation counter pages covering all logical zones.
    pub(crate) fn gen_records(&self, m: &MetaState, checkpoint: bool) -> Vec<MdRecord> {
        m.gens
            .chunks(crate::metadata::GEN_COUNTERS_PER_PAGE)
            .enumerate()
            .map(|(i, chunk)| {
                MdRecord::new(
                    MdPayload::GenCounters {
                        first_zone: (i * crate::metadata::GEN_COUNTERS_PER_PAGE) as u32,
                        counters: chunk.to_vec(),
                    },
                    checkpoint,
                    0,
                    0,
                    0,
                )
            })
            .collect()
    }

    /// Encodes the generation counter page starting at logical zone
    /// `first` into `out`, borrowing the live counter table directly.
    fn encode_gen_page(gens: &[u64], first: usize, checkpoint: bool, out: &mut Vec<u8>) {
        let per = crate::metadata::GEN_COUNTERS_PER_PAGE;
        let end = (first + per).min(gens.len());
        MdRecordRef::new(
            MdPayloadRef::GenCounters {
                first_zone: first as u32,
                counters: &gens[first..end],
            },
            checkpoint,
            0,
            0,
            0,
        )
        .encode_into(out);
    }

    /// Encodes a relocation record into `out`, borrowing the cached
    /// unit's payload bytes (no owned copy of the stripe unit).
    fn encode_relocation_record(
        &self,
        gen: u64,
        lzone: u32,
        stripe: u64,
        unit: &RelocatedUnit,
        checkpoint: bool,
        out: &mut Vec<u8>,
    ) {
        let lgeo = self.layout.logical_geometry();
        let sstart = lgeo.zone_start(lzone) + stripe * self.layout.stripe_data_sectors();
        MdRecordRef::new(
            MdPayloadRef::RelocatedStripeUnit {
                lzone,
                stripe,
                valid_sectors: unit.valid,
                data: &unit.data,
            },
            checkpoint,
            sstart,
            sstart + self.layout.stripe_data_sectors(),
            gen,
        )
        .encode_into(out);
    }

    /// Writes the superblock to every live device's general metadata zone.
    pub(crate) fn persist_superblock(
        &self,
        m: &mut MetaState,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
    ) -> Result<SimTime> {
        let mut done = at;
        for dev in 0..devices.len() {
            let rec = self.superblock_record(devices.len(), dev, false);
            done = done.max(self.md_append(m, devices, at, dev, MdRole::General, &rec, true)?);
        }
        Ok(done)
    }

    /// Persists all generation counter pages to every live device.
    pub(crate) fn persist_all_gens(
        &self,
        m: &mut MetaState,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
    ) -> Result<SimTime> {
        let per = crate::metadata::GEN_COUNTERS_PER_PAGE;
        let mut scratch = std::mem::take(&mut m.md_scratch);
        let r = (|| -> Result<SimTime> {
            let mut done = at;
            for first in (0..m.gens.len()).step_by(per) {
                Self::encode_gen_page(&m.gens, first, false, &mut scratch);
                for dev in 0..devices.len() {
                    done = done.max(self.md_append_bytes(
                        m,
                        devices,
                        at,
                        dev,
                        MdRole::General,
                        false,
                        &scratch,
                        true,
                    )?);
                }
            }
            Ok(done)
        })();
        m.md_scratch = scratch;
        r
    }

    /// Persists the generation counter page containing `lzone` to every
    /// live device (one 4 KiB page per update, Table 1).
    pub(crate) fn persist_gen_page(
        &self,
        m: &mut MetaState,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
    ) -> Result<SimTime> {
        let per = crate::metadata::GEN_COUNTERS_PER_PAGE;
        let first = (lzone as usize / per) * per;
        let mut scratch = std::mem::take(&mut m.md_scratch);
        Self::encode_gen_page(&m.gens, first, false, &mut scratch);
        let r = (|| -> Result<SimTime> {
            let mut done = at;
            for dev in 0..devices.len() {
                done = done.max(self.md_append_bytes(
                    m,
                    devices,
                    at,
                    dev,
                    MdRole::General,
                    false,
                    &scratch,
                    true,
                )?);
            }
            Ok(done)
        })();
        m.md_scratch = scratch;
        r
    }
}

impl RaiznVolume {
    // ------------------------------------------------------------------
    // Unit fetch (relocation- and failure-aware)
    // ------------------------------------------------------------------

    /// Reads rows straight off `dev` with bounded transient retries; retry
    /// exhaustion and media errors are charged against the device's error
    /// budget and surfaced for the caller to reconstruct around.
    #[allow(clippy::too_many_arguments)]
    fn fetch_device_rows(
        &self,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
        stripe: u64,
        dev: u32,
        row0: u64,
        out: &mut [u8],
    ) -> Result<SimTime> {
        if self.is_failed(dev as usize) {
            return Err(ZnsError::DeviceFailed);
        }
        let pba = self.layout.stripe_pba(lzone, stripe) + row0;
        let limit = self.config.transient_retry_limit;
        let mut attempt = 0u32;
        loop {
            match devices[dev as usize].read(at, pba, out) {
                Ok(c) => return Ok(c.done),
                Err(ZnsError::TransientError { .. }) if attempt < limit => {
                    attempt += 1;
                    AtomicRaiznStats::add(&self.stats.transient_retries, 1);
                    self.bump(obs::Counter::Retries);
                }
                Err(e @ (ZnsError::TransientError { .. } | ZnsError::MediaError { .. })) => {
                    self.note_device_error(devices, dev as usize);
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads `out.len()` bytes starting at row `row0` of the unit held by
    /// `dev` for `(lzone, stripe)`, transparently serving relocated slots
    /// from the in-memory cache. Cold-path variant for callers already
    /// holding the meta lock (recovery).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fetch_slot_rows(
        &self,
        m: &MetaState,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
        stripe: u64,
        dev: u32,
        row0: u64,
        out: &mut [u8],
    ) -> Result<SimTime> {
        if let Some(rel) = m.relocated.get(&(lzone, stripe, dev)) {
            let off = (row0 * SECTOR_SIZE) as usize;
            out.copy_from_slice(&rel.data[off..off + out.len()]);
            return Ok(at);
        }
        self.fetch_device_rows(devices, at, lzone, stripe, dev, row0, out)
    }

    /// Hot-path variant of [`Self::fetch_slot_rows`]: consults the
    /// relocation cache only when the lock-free relocation count says any
    /// entries exist, so steady-state reads never touch the meta lock.
    #[allow(clippy::too_many_arguments)]
    fn fetch_slot_rows_live(
        &self,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
        stripe: u64,
        dev: u32,
        row0: u64,
        out: &mut [u8],
    ) -> Result<SimTime> {
        if self.relocated_len.load(Ordering::Acquire) > 0 {
            let m = self.lock_meta();
            if let Some(rel) = m.relocated.get(&(lzone, stripe, dev)) {
                let off = (row0 * SECTOR_SIZE) as usize;
                out.copy_from_slice(&rel.data[off..off + out.len()]);
                return Ok(at);
            }
        }
        self.fetch_device_rows(devices, at, lzone, stripe, dev, row0, out)
    }

    /// The role a device plays in one stripe (the roles rotate per
    /// stripe and zone; see [`RaiznLayout`]): a data unit, the P (XOR)
    /// parity, or the Q (Reed–Solomon) parity.
    fn slot_role(&self, lzone: u32, stripe: u64, dev: u32) -> Slot {
        match self.layout.unit_of_device(lzone, stripe, dev) {
            Some(k) => Slot::Data(k as usize),
            None => {
                if dev == self.layout.parity_device(lzone, stripe) {
                    Slot::P
                } else {
                    Slot::Q
                }
            }
        }
    }

    /// Reconstructs rows of the unit that `missing_dev` holds for
    /// `(lzone, stripe)` from the surviving devices (§4.2). The stripe
    /// must be complete (parity present).
    ///
    /// The surviving slots the erasure pattern needs (see
    /// [`sim::gf::Decode`]) are fetched into pooled scratch, then one
    /// fused pass forms the syndromes and solves for the missing slot.
    /// Devices in the failed set whose slots are not served by the
    /// relocation cache count as erased alongside `missing_dev`; more
    /// erasures than parity units is unrecoverable.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reconstruct_slot_rows(
        &self,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
        stripe: u64,
        missing_dev: u32,
        row0: u64,
        out: &mut [u8],
    ) -> Result<SimTime> {
        let n = self.layout.devices();
        let mut missing = 1u64 << missing_dev;
        let failed = self.failure_mask();
        if failed & !missing != 0 {
            for dev in 0..n {
                let bit = 1u64 << dev;
                if failed & bit == 0 || missing & bit != 0 {
                    continue;
                }
                // A failed device's slot is still available when the
                // relocation cache holds it.
                let relocated = self.relocated_len.load(Ordering::Acquire) > 0
                    && self
                        .lock_meta()
                        .relocated
                        .contains_key(&(lzone, stripe, dev));
                if !relocated {
                    missing |= bit;
                }
            }
        }
        if missing.count_ones() > self.layout.parity_units() {
            return Err(ZnsError::DeviceFailed);
        }
        // Scratch comes from a pool, so it is bounded by the
        // reconstructions in flight; the pool lock is a leaf lock.
        let mut scratch = self.recon_scratch.lock().pop().unwrap_or_default();
        let res = self.decode_slot_rows(
            devices,
            at,
            lzone,
            stripe,
            missing_dev,
            missing,
            row0,
            out,
            &mut scratch,
        );
        self.recon_scratch.lock().push(scratch);
        let (done, double) = res?;
        if double {
            AtomicRaiznStats::add(&self.stats.double_degraded_reads, 1);
            self.bump(obs::Counter::DoubleDegradedReads);
            self.trace_span(
                obs::OpClass::Read,
                obs::Stage::WholeOp,
                Some(obs::PathKind::DoubleDegraded),
                lzone,
                0,
                out.len() as u64 / SECTOR_SIZE,
                at,
                done,
            );
        }
        Ok(done)
    }

    /// The body of [`Self::reconstruct_slot_rows`]: fetches into
    /// `scratch` and decodes. Returns the completion time and whether
    /// the decode covered two erasures.
    #[allow(clippy::too_many_arguments)]
    fn decode_slot_rows(
        &self,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
        stripe: u64,
        missing_dev: u32,
        mut missing: u64,
        row0: u64,
        out: &mut [u8],
        scratch: &mut Vec<u8>,
    ) -> Result<(SimTime, bool)> {
        let n = self.layout.devices();
        let d = self.layout.data_units() as usize;
        let len = out.len();
        let target = self.slot_role(lzone, stripe, missing_dev);
        // A *source* slot can turn out unreadable mid-decode (a latent
        // media error on a second device); with parity headroom left it
        // joins the erasure set and the decode restarts.
        'retry: loop {
            let rest = missing & !(1u64 << missing_dev);
            let other = (rest != 0).then(|| self.slot_role(lzone, stripe, rest.trailing_zeros()));
            if other == Some(target) {
                return Err(internal("duplicate parity role in erasure set"));
            }
            let dec = Decode::new(d, target, other);
            let reads = (0..n)
                .filter(|&dev| {
                    missing & (1u64 << dev) == 0 && dec.reads(self.slot_role(lzone, stripe, dev))
                })
                .count();
            if scratch.len() < reads * len {
                scratch.resize(reads * len, 0);
            }
            let mut free = &mut scratch[..reads * len];
            let mut data: [&[u8]; 64] = [&[]; 64];
            let (mut p, mut q): (&[u8], &[u8]) = (&[], &[]);
            let mut done = at;
            for dev in 0..n {
                if missing & (1u64 << dev) != 0 {
                    continue;
                }
                let role = self.slot_role(lzone, stripe, dev);
                if !dec.reads(role) {
                    continue;
                }
                let (buf, rest) = std::mem::take(&mut free).split_at_mut(len);
                free = rest;
                match self.fetch_slot_rows_live(devices, at, lzone, stripe, dev, row0, buf) {
                    Ok(t) => done = done.max(t),
                    Err(
                        e @ (ZnsError::MediaError { .. }
                        | ZnsError::TransientError { .. }
                        | ZnsError::DeviceFailed),
                    ) => {
                        if missing.count_ones() >= self.layout.parity_units() {
                            return Err(e);
                        }
                        missing |= 1u64 << dev;
                        continue 'retry;
                    }
                    Err(e) => return Err(e),
                }
                match role {
                    Slot::Data(k) => data[k] = buf,
                    Slot::P => p = buf,
                    Slot::Q => q = buf,
                }
            }
            dec.run(out, &data[..d], p, q);
            return Ok((done, other.is_some()));
        }
    }

    // ------------------------------------------------------------------
    // Self-healing read path
    // ------------------------------------------------------------------

    /// Reads rows of data unit `unit` at `(lzone, stripe)`, healing around
    /// device errors: latent media errors trigger in-place repair
    /// (reconstruct + relocate), retry-exhausted transients fall back to
    /// one-off reconstruction, and failed devices take the degraded path.
    /// Runs under `lzone`'s shard lock (`z`).
    #[allow(clippy::too_many_arguments)]
    fn read_slot_rows(
        &self,
        z: &mut LZone,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
        stripe: u64,
        unit: u64,
        row0: u64,
        out: &mut [u8],
    ) -> Result<SimTime> {
        let dev = self.layout.data_device(lzone, stripe, unit);
        let relocated = self.relocated_len.load(Ordering::Acquire) > 0
            && self
                .lock_meta()
                .relocated
                .contains_key(&(lzone, stripe, dev));
        if relocated || !self.is_failed(dev as usize) {
            match self.fetch_slot_rows_live(devices, at, lzone, stripe, dev, row0, out) {
                Ok(t) => Ok(t),
                Err(
                    e @ (ZnsError::MediaError { .. }
                    | ZnsError::TransientError { .. }
                    | ZnsError::DeviceFailed),
                ) => self.heal_read(z, devices, at, lzone, stripe, unit, dev, row0, out, e),
                Err(e) => Err(e),
            }
        } else {
            self.degraded_slot_read(z, devices, at, lzone, stripe, unit, dev, row0, out)
        }
    }

    /// Degraded read (§4.2): incomplete stripes come from the stripe
    /// buffer; complete ones reconstruct from parity.
    #[allow(clippy::too_many_arguments)]
    fn degraded_slot_read(
        &self,
        z: &LZone,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
        stripe: u64,
        unit: u64,
        dev: u32,
        row0: u64,
        out: &mut [u8],
    ) -> Result<SimTime> {
        AtomicRaiznStats::add(&self.stats.degraded_reads, 1);
        self.bump(obs::Counter::DegradedReads);
        let from_buffer = matches!(&z.buffer, Some(b) if b.stripe() == stripe);
        let r = if from_buffer {
            let b = z
                .buffer
                .as_ref()
                .ok_or_else(|| internal("stripe buffer matched above"))?;
            let su = self.layout.stripe_unit();
            let s0 = unit * su + row0;
            let rows = out.len() as u64 / SECTOR_SIZE;
            out.copy_from_slice(b.read_range(s0, s0 + rows));
            Ok(at)
        } else {
            self.reconstruct_slot_rows(devices, at, lzone, stripe, dev, row0, out)
        };
        if let Ok(t) = r {
            self.trace_span(
                obs::OpClass::Read,
                obs::Stage::WholeOp,
                Some(obs::PathKind::Degraded),
                lzone,
                0,
                out.len() as u64 / SECTOR_SIZE,
                at,
                t,
            );
        }
        r
    }

    /// Recovers a read that hit a device error on `dev`. Latent media
    /// errors in complete stripes are healed in place: the whole unit is
    /// reconstructed from the surviving devices and relocated, so
    /// subsequent reads of the range succeed without reconstruction.
    /// Other errors fall back to one-off degraded service.
    #[allow(clippy::too_many_arguments)]
    fn heal_read(
        &self,
        z: &mut LZone,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
        stripe: u64,
        unit: u64,
        dev: u32,
        row0: u64,
        out: &mut [u8],
        err: ZnsError,
    ) -> Result<SimTime> {
        let su = self.layout.stripe_unit();
        let stripe_data = self.layout.stripe_data_sectors();
        let complete = (stripe + 1) * stripe_data <= z.wp;
        if !complete {
            // No parity yet: the stripe buffer still stages this stripe,
            // and any sector below the logical wp is within its fill
            // frontier.
            let staged = matches!(&z.buffer, Some(b) if b.stripe() == stripe);
            if staged {
                return self
                    .degraded_slot_read(z, devices, at, lzone, stripe, unit, dev, row0, out);
            }
            return Err(err);
        }
        if matches!(err, ZnsError::MediaError { .. }) {
            // Self-heal: rebuild the full unit, serve the requested rows,
            // and relocate the repaired copy so the latent sectors are
            // never read again.
            let mut data = vec![0u8; (su * SECTOR_SIZE) as usize];
            let t = self.reconstruct_slot_rows(devices, at, lzone, stripe, dev, 0, &mut data)?;
            let off = (row0 * SECTOR_SIZE) as usize;
            out.copy_from_slice(&data[off..off + out.len()]);
            AtomicRaiznStats::add(&self.stats.read_repairs, 1);
            self.bump(obs::Counter::ReadRepairs);
            let t2 = self.relocate_repaired_unit(z, devices, at, lzone, stripe, dev, data, su)?;
            Ok(t.max(t2))
        } else {
            // Transient exhaustion / fresh device failure: serve this read
            // from parity without committing a relocation.
            AtomicRaiznStats::add(&self.stats.degraded_reads, 1);
            self.bump(obs::Counter::DegradedReads);
            self.reconstruct_slot_rows(devices, at, lzone, stripe, dev, row0, out)
        }
    }

    /// Installs a repaired copy of the unit held by `dev` at
    /// `(lzone, stripe)` into the relocation cache (marking the physical
    /// slot conflicted) and persists a relocation record, mirroring the
    /// §5.2 write-conflict machinery. Failure to persist the record is
    /// tolerated: the cache still serves reads and metadata GC
    /// checkpoints re-log it. Runs under `lzone`'s shard lock.
    #[allow(clippy::too_many_arguments)]
    fn relocate_repaired_unit(
        &self,
        z: &mut LZone,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
        stripe: u64,
        dev: u32,
        data: Vec<u8>,
        valid: u64,
    ) -> Result<SimTime> {
        z.conflicts.insert((stripe, dev));
        let mut m = self.lock_meta();
        m.relocated
            .insert((lzone, stripe, dev), RelocatedUnit { data, valid });
        self.sync_relocated_count(&m);
        let mut scratch = std::mem::take(&mut m.md_scratch);
        {
            let unit = &m.relocated[&(lzone, stripe, dev)];
            self.encode_relocation_record(
                m.gens[lzone as usize],
                lzone,
                stripe,
                unit,
                false,
                &mut scratch,
            );
        }
        let r = self.md_append_bytes(
            &mut m,
            devices,
            at,
            dev as usize,
            MdRole::General,
            false,
            &scratch,
            true,
        );
        m.md_scratch = scratch;
        match r {
            Ok(t) => Ok(t),
            Err(ZnsError::TransientError { .. } | ZnsError::DeviceFailed) => Ok(at),
            Err(e) => Err(e),
        }
    }

    /// Walks every complete stripe of the volume verifying its parity,
    /// repairing what it finds (§4.2 maintenance): latent media errors
    /// are healed by reconstruction, and parity mismatches are corrected
    /// from the data. In dual-parity mode both P (data XOR parity must
    /// vanish) and Q (the Reed–Solomon syndrome must vanish) are checked
    /// and repaired independently. Returns what was checked and repaired;
    /// counters land in [`stats`](Self::stats).
    ///
    /// Takes each zone's shard in turn; concurrent writers to other zones
    /// are unaffected.
    pub fn scrub(&self, at: SimTime) -> Result<ScrubReport> {
        if self.failed_idx().is_some() {
            return Err(ZnsError::DeviceFailed);
        }
        if self.read_only.load(Ordering::Acquire) {
            return Err(ZnsError::VolumeReadOnly);
        }
        // Everything the scrub touches — device occupancy, trace events —
        // is blamed on the scrub actor, so foreground ops stalled behind
        // it show up as interference in their blame trees.
        let _actor = obs::actor_scope(obs::Actor::Scrub);
        let devices = self.devices.read();
        let su = self.layout.stripe_unit();
        let dual = self.layout.parity_units() == 2;
        let stripe_data = self.layout.stripe_data_sectors();
        let unit_bytes = (su * SECTOR_SIZE) as usize;
        let mut report = ScrubReport::default();
        let d = self.layout.data_units() as usize;
        let mut acc_p = vec![0u8; unit_bytes];
        let mut acc_q = vec![0u8; if dual { unit_bytes } else { 0 }];
        // Every slot of the stripe, staged by role: data units 0..d, then
        // P, then Q.
        let mut slots = vec![0u8; self.layout.devices() as usize * unit_bytes];
        for lz in 0..self.layout.logical_zones() {
            let mut z = self.lock_shard(lz);
            let full_stripes = z.wp / stripe_data;
            for stripe in 0..full_stripes {
                for dev in 0..self.layout.devices() {
                    let idx = match self.slot_role(lz, stripe, dev) {
                        Slot::Data(k) => k,
                        Slot::P => d,
                        Slot::Q => d + 1,
                    };
                    let slot = &mut slots[idx * unit_bytes..(idx + 1) * unit_bytes];
                    match self.fetch_slot_rows_live(&devices, at, lz, stripe, dev, 0, slot) {
                        Ok(_) => {}
                        Err(ZnsError::MediaError { .. }) => {
                            self.reconstruct_slot_rows(&devices, at, lz, stripe, dev, 0, slot)?;
                            self.relocate_repaired_unit(
                                &mut z,
                                &devices,
                                at,
                                lz,
                                stripe,
                                dev,
                                slot.to_vec(),
                                su,
                            )?;
                            report.units_healed += 1;
                            AtomicRaiznStats::add(&self.stats.scrub_repairs, 1);
                        }
                        Err(e) => return Err(e),
                    }
                }
                // The P syndrome folds data and stored P, the Q syndrome
                // g^k-scaled data and stored Q; each vanishes iff its
                // parity is right.
                let (data, parity) = slots.split_at(d * unit_bytes);
                acc_p.copy_from_slice(&parity[..unit_bytes]);
                if dual {
                    acc_q.copy_from_slice(&parity[unit_bytes..]);
                    sim::gf_pq_into(&mut acc_p, &mut acc_q, data, 0);
                } else {
                    for unit in data.chunks_exact(unit_bytes) {
                        xor_into(&mut acc_p, unit);
                    }
                }
                report.stripes_checked += 1;
                if !sim::is_zero(&acc_p) {
                    // The P syndrome should vanish; it does not, so
                    // stored_P ^ acc_p is the correct parity. Install it
                    // as a relocated unit.
                    let pdev = self.layout.parity_device(lz, stripe);
                    let mut fixed = vec![0u8; unit_bytes];
                    self.fetch_slot_rows_live(&devices, at, lz, stripe, pdev, 0, &mut fixed)?;
                    xor_into(&mut fixed, &acc_p);
                    self.relocate_repaired_unit(&mut z, &devices, at, lz, stripe, pdev, fixed, su)?;
                    report.parity_repairs += 1;
                    AtomicRaiznStats::add(&self.stats.scrub_repairs, 1);
                }
                if dual && !sim::is_zero(&acc_q) {
                    let qdev = self
                        .layout
                        .q_device(lz, stripe)
                        .ok_or_else(|| internal("dual mode must have a Q device"))?;
                    let mut fixed = vec![0u8; unit_bytes];
                    self.fetch_slot_rows_live(&devices, at, lz, stripe, qdev, 0, &mut fixed)?;
                    xor_into(&mut fixed, &acc_q);
                    self.relocate_repaired_unit(&mut z, &devices, at, lz, stripe, qdev, fixed, su)?;
                    report.parity_repairs += 1;
                    AtomicRaiznStats::add(&self.stats.scrub_repairs, 1);
                }
            }
        }
        AtomicRaiznStats::add(&self.stats.scrub_runs, 1);
        Ok(report)
    }
}

impl RaiznVolume {
    // ------------------------------------------------------------------
    // Write path helpers
    // ------------------------------------------------------------------

    /// Stores `data` rows of the slot held by `dev` at `(lzone, stripe)`,
    /// relocating to the device's metadata zone when the slot is
    /// conflicted, and skipping failed devices. `row0` is the first row.
    /// Runs under `lzone`'s shard lock (`z`).
    #[allow(clippy::too_many_arguments)]
    fn store_slot_rows(
        &self,
        z: &mut LZone,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
        stripe: u64,
        dev: u32,
        row0: u64,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<SimTime> {
        let su = self.layout.stripe_unit();
        if z.conflicts.contains(&(stripe, dev)) {
            // Relocate: accumulate into the cached unit and persist a
            // relocation record on the affected device (§5.2).
            let unit_bytes = (su * SECTOR_SIZE) as usize;
            let mut m = self.lock_meta();
            let entry = m
                .relocated
                .entry((lzone, stripe, dev))
                .or_insert_with(|| RelocatedUnit {
                    data: vec![0u8; unit_bytes],
                    valid: 0,
                });
            let off = (row0 * SECTOR_SIZE) as usize;
            entry.data[off..off + data.len()].copy_from_slice(data);
            entry.valid = entry.valid.max(row0 + data.len() as u64 / SECTOR_SIZE);
            let valid = entry.valid;
            self.sync_relocated_count(&m);
            if std::env::var_os("RAIZN_DEBUG").is_some() {
                eprintln!("[reloc] lz={lzone} stripe={stripe} dev={dev} row0={row0} valid={valid}");
            }
            AtomicRaiznStats::add(&self.stats.relocated_units, 1);
            self.bump(obs::Counter::RelocatedWrites);
            self.trace_span(
                obs::OpClass::Write,
                obs::Stage::WholeOp,
                Some(obs::PathKind::Relocated),
                lzone,
                0,
                data.len() as u64 / SECTOR_SIZE,
                at,
                at,
            );
            // Encode the record borrowing the cached unit in place: no
            // clone of the stripe-unit payload on the relocation path.
            let mut scratch = std::mem::take(&mut m.md_scratch);
            {
                let unit = &m.relocated[&(lzone, stripe, dev)];
                self.encode_relocation_record(
                    m.gens[lzone as usize],
                    lzone,
                    stripe,
                    unit,
                    false,
                    &mut scratch,
                );
            }
            let r = self.md_append_bytes(
                &mut m,
                devices,
                at,
                dev as usize,
                MdRole::General,
                false,
                &scratch,
                flags.fua,
            );
            m.md_scratch = scratch;
            return r;
        }
        if self.is_failed(dev as usize) {
            return Ok(at); // degraded write: omitted, covered by parity
        }
        let pba = self.layout.stripe_pba(lzone, stripe) + row0;
        let limit = self.config.transient_retry_limit;
        let mut attempt = 0u32;
        loop {
            match devices[dev as usize].write(at, pba, data, flags) {
                Ok(c) => return Ok(c.done),
                Err(ZnsError::TransientError { .. }) if attempt < limit => {
                    attempt += 1;
                    AtomicRaiznStats::add(&self.stats.transient_retries, 1);
                    self.bump(obs::Counter::Retries);
                }
                Err(e @ ZnsError::TransientError { .. }) => {
                    self.note_device_error(devices, dev as usize);
                    if self.is_failed(dev as usize) {
                        // Freshly degraded: the write is omitted and the
                        // unit stays covered by parity.
                        return Ok(at);
                    }
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Foreground active-budget reclaim: when `reclaim_on_exhaustion` is
    /// set, a write that would activate a fresh logical zone while some
    /// device sits at its active-zone limit inline-finishes the most
    /// nearly full active logical zone to make room, and returns the
    /// finish completion as the write's new issue time — the write-stall
    /// cliff a [`crate::ZoneLifecycleManager`] exists to prevent.
    ///
    /// Takes no locks on entry; `zone_info`/`finish_zone` acquire their
    /// own (shard → meta → device), so this must run before `do_write`
    /// locks anything.
    fn reclaim_for_activation(&self, at: SimTime, lzone: u32) -> Result<SimTime> {
        if !self.config.reclaim_on_exhaustion
            || self.zone_wp[lzone as usize].load(Ordering::Acquire) != 0
        {
            return Ok(at);
        }
        let exhausted = {
            let devices = self.devices.read();
            devices.iter().enumerate().any(|(d, dev)| {
                !self.is_failed(d) && dev.active_zones() >= dev.config().max_active_zones()
            })
        };
        if !exhausted {
            return Ok(at);
        }
        // Victim: the most nearly full writable logical zone (the cheapest
        // remainder to fill), never the zone being activated.
        let mut candidates: Vec<(u64, u32)> = (0..self.layout.logical_zones())
            .filter(|z| *z != lzone)
            .filter_map(|z| {
                let wp = self.zone_wp[z as usize].load(Ordering::Acquire);
                (wp > 0).then_some((wp, z))
            })
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        for (_, victim) in candidates {
            if !self.zone_info(victim)?.state.is_writable() {
                continue;
            }
            let done = self.finish_zone(at, victim)?.done;
            AtomicRaiznStats::add(&self.stats.foreground_reclaims, 1);
            return Ok(done);
        }
        // Nothing reclaimable: let the device report budget exhaustion.
        Ok(at)
    }

    /// The write-path core, shared by `write` and `append`. Takes only
    /// the target zone's shard lock (plus brief meta acquisitions on the
    /// metadata-logging branches), so writes to distinct zones run
    /// concurrently.
    fn do_write(
        &self,
        at: SimTime,
        lba: Lba,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<IoCompletion> {
        let lgeo = self.layout.logical_geometry();
        if data.is_empty() || !data.len().is_multiple_of(SECTOR_SIZE as usize) {
            return Err(ZnsError::InvalidArgument(format!(
                "buffer length {} is not a positive multiple of the sector size",
                data.len()
            )));
        }
        let sectors = data.len() as u64 / SECTOR_SIZE;
        if !lgeo.contains(lba) {
            return Err(ZnsError::OutOfRange { lba, sectors });
        }
        let lzone = lgeo.zone_of(lba);
        if self.read_only.load(Ordering::Acquire) {
            return Err(ZnsError::VolumeReadOnly);
        }
        let (span, parent, _span_guard) = self.begin_span();
        // Foreground reclaim (opt-in): activating a fresh zone with the
        // device active budget exhausted inline-finishes a victim zone
        // first, and this write absorbs the whole finish (fill writes
        // over the victim's remainder). Runs before any lock is taken:
        // it acquires shard/meta/device locks of its own.
        let at = self.reclaim_for_activation(at, lzone)?;
        let devices = self.devices.read();
        let mut z = self.lock_shard(lzone);
        self.mark_lock(obs::OpClass::Write, lzone, at);
        let validate = |z: &LZone| -> Result<()> {
            match z.state {
                ZoneState::Full => return Err(ZnsError::ZoneFull { zone: lzone }),
                ZoneState::ReadOnly => return Err(ZnsError::ZoneReadOnly { zone: lzone }),
                ZoneState::Offline => return Err(ZnsError::ZoneOffline { zone: lzone }),
                _ => {}
            }
            let expect = lgeo.zone_start(lzone) + z.wp;
            if lba != expect {
                return Err(ZnsError::NotSequential {
                    zone: lzone,
                    expected: expect,
                    got: lba,
                });
            }
            if z.wp + sectors > lgeo.zone_cap() {
                return Err(ZnsError::ZoneFull { zone: lzone });
            }
            Ok(())
        };
        validate(&z)?;

        let mut issue = at;
        let mut completion = at;
        if flags.preflush {
            // flush_all takes every shard in index order; release ours
            // first (lock order: at most one shard at a time), then
            // re-validate — a racing writer to the same zone surfaces as
            // an ordinary sequencing error.
            drop(z);
            let done = self.flush_all(&devices, at)?;
            issue = done;
            completion = done;
            z = self.lock_shard(lzone);
            validate(&z)?;
        }

        let stripe_data = self.layout.stripe_data_sectors();
        let su = self.layout.stripe_unit();
        let data_units = self.layout.data_units();
        let mut remaining = data;
        while !remaining.is_empty() {
            let wp = z.wp;
            let stripe = wp / stripe_data;
            let off_in_stripe = wp % stripe_data;
            // Ensure the stripe buffer stages this stripe, drawing from
            // the zone's spare so steady-state writes allocate nothing.
            {
                let need_new = match &z.buffer {
                    Some(b) => b.stripe() != stripe,
                    None => true,
                };
                if need_new {
                    debug_assert_eq!(off_in_stripe, 0, "mid-stripe write without a staged buffer");
                    if let Some(stale) = z.buffer.take() {
                        z.retire_buffer(stale);
                    }
                    let buf = z.stripe_buffer(
                        &self.stats,
                        stripe,
                        data_units,
                        su,
                        self.layout.parity_units(),
                    );
                    z.buffer = Some(buf);
                }
            }
            let chunk_sectors =
                (stripe_data - off_in_stripe).min(remaining.len() as u64 / SECTOR_SIZE);
            let (chunk, rest) = remaining.split_at((chunk_sectors * SECTOR_SIZE) as usize);
            remaining = rest;

            let (row_lo, row_hi) = z
                .buffer
                .as_mut()
                .ok_or_else(|| internal("stripe buffer staged above"))?
                .fill(chunk);

            // Data sub-IOs, split per unit.
            let mut cursor = off_in_stripe;
            let mut coff = 0usize;
            while cursor < off_in_stripe + chunk_sectors {
                let unit = cursor / su;
                let row0 = cursor % su;
                let rows = (su - row0).min(off_in_stripe + chunk_sectors - cursor);
                let dev = self.layout.data_device(lzone, stripe, unit);
                let bytes = &chunk[coff..coff + (rows * SECTOR_SIZE) as usize];
                let done = self.store_slot_rows(
                    &mut z,
                    &devices,
                    issue,
                    lzone,
                    stripe,
                    dev,
                    row0,
                    bytes,
                    WriteFlags {
                        fua: flags.fua,
                        preflush: false,
                    },
                )?;
                completion = completion.max(done);
                cursor += rows;
                coff += (rows * SECTOR_SIZE) as usize;
            }

            {
                // The written units are volatile again until the next
                // flush/FUA, even if an earlier flush covered their heads.
                let wp = z.wp;
                z.pbitmap.clear_range(wp, wp + chunk_sectors);
                z.wp += chunk_sectors;
                self.zone_wp[lzone as usize].store(z.wp, Ordering::Release);
            }
            let complete = z
                .buffer
                .as_ref()
                .ok_or_else(|| internal("stripe buffer staged for completion check"))?
                .is_complete();
            let pdev = self.layout.parity_device(lzone, stripe);
            let qdev = self.layout.q_device(lzone, stripe);
            let slot_conflicted = z.conflicts.contains(&(stripe, pdev));
            // The in-place ZRWA parity path needs healthy, unconflicted
            // slots for every parity leg; otherwise fall back to the
            // store/pp-log paths which handle degradation and relocation.
            let q_zrwa_ok = match qdev {
                None => true,
                Some(q) => !self.is_failed(q as usize) && !z.conflicts.contains(&(stripe, q)),
            };
            let zrwa_ok = self.config.use_zrwa
                && !self.is_failed(pdev as usize)
                && !slot_conflicted
                && q_zrwa_ok;
            if complete {
                // Detach the buffer: its parity is handed to the device
                // layer as a borrowed slice (no copy) and the buffer is
                // then retired into the zone's spare slot.
                let buf = z
                    .buffer
                    .take()
                    .ok_or_else(|| internal("stripe buffer staged for parity write"))?;
                if zrwa_ok {
                    // §5.4 extension: the earlier rows are already in the
                    // window; write the final delta and commit the slot.
                    let pp = &buf.parity()
                        [(row_lo * SECTOR_SIZE) as usize..(row_hi * SECTOR_SIZE) as usize];
                    let phys_zone = self.layout.phys_zone(lzone);
                    let pba = self.layout.stripe_pba(lzone, stripe) + row_lo;
                    let dev = &devices[pdev as usize];
                    let mut done = dev.write_zrwa(issue, pba, pp)?.done;
                    done = done.max(dev.commit_zrwa(done, phys_zone, (stripe + 1) * su)?.done);
                    completion = completion.max(done);
                    AtomicRaiznStats::add(&self.stats.zrwa_parity_writes, 1);
                    self.bump(obs::Counter::ZrwaParityWrites);
                    self.trace_span(
                        obs::OpClass::Write,
                        obs::Stage::Xor,
                        Some(obs::PathKind::Zrwa),
                        lzone,
                        pba,
                        row_hi - row_lo,
                        issue,
                        done,
                    );
                    if let Some(q) = qdev {
                        // Q-leg: the same delta rows of the Q column.
                        let qq = &buf.q_parity()
                            [(row_lo * SECTOR_SIZE) as usize..(row_hi * SECTOR_SIZE) as usize];
                        let qd = &devices[q as usize];
                        let mut qdone = qd.write_zrwa(issue, pba, qq)?.done;
                        qdone =
                            qdone.max(qd.commit_zrwa(qdone, phys_zone, (stripe + 1) * su)?.done);
                        completion = completion.max(qdone);
                        AtomicRaiznStats::add(&self.stats.zrwa_parity_writes, 1);
                        self.bump(obs::Counter::ZrwaParityWrites);
                    }
                } else {
                    // Full parity to the parity slot in the data zone.
                    let done = self.store_slot_rows(
                        &mut z,
                        &devices,
                        issue,
                        lzone,
                        stripe,
                        pdev,
                        0,
                        buf.parity(),
                        WriteFlags {
                            fua: flags.fua,
                            preflush: false,
                        },
                    )?;
                    completion = completion.max(done);
                    self.trace_span(
                        obs::OpClass::Write,
                        obs::Stage::Xor,
                        Some(obs::PathKind::FullParity),
                        lzone,
                        0,
                        su,
                        issue,
                        done,
                    );
                }
                AtomicRaiznStats::add(&self.stats.full_parity_writes, 1);
                self.bump(obs::Counter::FullParityWrites);
                if let Some(q) = qdev {
                    if !zrwa_ok {
                        // Full Q parity to the Q slot in the data zone.
                        let qdone = self.store_slot_rows(
                            &mut z,
                            &devices,
                            issue,
                            lzone,
                            stripe,
                            q,
                            0,
                            buf.q_parity(),
                            WriteFlags {
                                fua: flags.fua,
                                preflush: false,
                            },
                        )?;
                        completion = completion.max(qdone);
                        self.trace_span(
                            obs::OpClass::Write,
                            obs::Stage::Xor,
                            Some(obs::PathKind::QParity),
                            lzone,
                            0,
                            su,
                            issue,
                            qdone,
                        );
                    }
                    AtomicRaiznStats::add(&self.stats.q_parity_writes, 1);
                    self.bump(obs::Counter::QParityWrites);
                }
                z.retire_buffer(buf);
            } else if zrwa_ok {
                // §5.4 extension: overwrite the affected parity rows in
                // place inside the parity slot's ZRWA window (borrowed
                // straight out of the stripe buffer).
                let buf = z
                    .buffer
                    .as_ref()
                    .ok_or_else(|| internal("stripe buffer staged for zrwa parity"))?;
                let pp =
                    &buf.parity()[(row_lo * SECTOR_SIZE) as usize..(row_hi * SECTOR_SIZE) as usize];
                let pba = self.layout.stripe_pba(lzone, stripe) + row_lo;
                let done = devices[pdev as usize].write_zrwa(issue, pba, pp)?.done;
                completion = completion.max(done);
                AtomicRaiznStats::add(&self.stats.zrwa_parity_writes, 1);
                self.bump(obs::Counter::ZrwaParityWrites);
                self.trace_span(
                    obs::OpClass::Write,
                    obs::Stage::Xor,
                    Some(obs::PathKind::Zrwa),
                    lzone,
                    pba,
                    row_hi - row_lo,
                    issue,
                    done,
                );
                if let Some(q) = qdev {
                    // Q-leg: the same rows of the Q column, still open in
                    // the Q slot's ZRWA window until the stripe completes.
                    let qq = &buf.q_parity()
                        [(row_lo * SECTOR_SIZE) as usize..(row_hi * SECTOR_SIZE) as usize];
                    let qdone = devices[q as usize].write_zrwa(issue, pba, qq)?.done;
                    completion = completion.max(qdone);
                    AtomicRaiznStats::add(&self.stats.zrwa_parity_writes, 1);
                    self.bump(obs::Counter::ZrwaParityWrites);
                }
            } else {
                // Partial parity log on the device that will hold this
                // stripe's parity (§5.1). Write completion is withheld
                // until the log is written, closing the write hole. The
                // parity rows are encoded straight out of the stripe
                // buffer into the pooled scratch: no owned payload copy.
                let mut m = self.lock_meta();
                let mut scratch = std::mem::take(&mut m.md_scratch);
                let (pp_rows, pp_stripe, pp_filled) = {
                    let buf = z
                        .buffer
                        .as_ref()
                        .ok_or_else(|| internal("stripe buffer staged for pp log"))?;
                    // Ablation: optionally log the whole running parity
                    // unit instead of only the affected rows (§5.1).
                    let (lo, hi) = if self.config.pp_log_full_unit {
                        (0, su)
                    } else {
                        (row_lo, row_hi)
                    };
                    let zstart = lgeo.zone_start(lzone);
                    MdRecordRef::new(
                        MdPayloadRef::PartialParity {
                            first_row: lo,
                            data: &buf.parity()
                                [(lo * SECTOR_SIZE) as usize..(hi * SECTOR_SIZE) as usize],
                        },
                        false,
                        lba.max(zstart + z.wp - chunk_sectors),
                        zstart + z.wp,
                        m.gens[lzone as usize],
                    )
                    .encode_into(&mut scratch);
                    (hi - lo, buf.stripe(), buf.filled_sectors())
                };
                let r = self.md_append_bytes(
                    &mut m,
                    &devices,
                    issue,
                    pdev as usize,
                    MdRole::PpLog,
                    true,
                    &scratch,
                    flags.fua,
                );
                let mut pp_done = match r {
                    Ok(done) => done,
                    Err(e) => {
                        m.md_scratch = scratch;
                        return Err(e);
                    }
                };
                // Q-leg (§RAIZN-2): a second partial-parity record, tagged
                // PartialParityQ, on the device that will hold this
                // stripe's Q parity. Both legs must land before the write
                // completes so a crash plus two device losses can still
                // close the write hole.
                if let Some(q) = qdev {
                    {
                        let buf = z
                            .buffer
                            .as_ref()
                            .ok_or_else(|| internal("stripe buffer staged for pp-q log"))?;
                        let (lo, hi) = if self.config.pp_log_full_unit {
                            (0, su)
                        } else {
                            (row_lo, row_hi)
                        };
                        let zstart = lgeo.zone_start(lzone);
                        MdRecordRef::new(
                            MdPayloadRef::PartialParityQ {
                                first_row: lo,
                                data: &buf.q_parity()
                                    [(lo * SECTOR_SIZE) as usize..(hi * SECTOR_SIZE) as usize],
                            },
                            false,
                            lba.max(zstart + z.wp - chunk_sectors),
                            zstart + z.wp,
                            m.gens[lzone as usize],
                        )
                        .encode_into(&mut scratch);
                    }
                    let rq = self.md_append_bytes(
                        &mut m,
                        &devices,
                        issue,
                        q as usize,
                        MdRole::PpLog,
                        true,
                        &scratch,
                        flags.fua,
                    );
                    match rq {
                        Ok(done) => pp_done = pp_done.max(done),
                        Err(e) => {
                            m.md_scratch = scratch;
                            return Err(e);
                        }
                    }
                    AtomicRaiznStats::add(&self.stats.pp_q_log_entries, 1);
                    AtomicRaiznStats::add(&self.stats.pp_log_bytes, pp_rows * SECTOR_SIZE);
                }
                m.md_scratch = scratch;
                // Refresh the checkpoint snapshot for metadata GC: the
                // stripe buffer itself stays behind this zone's shard.
                {
                    let buf = z
                        .buffer
                        .as_ref()
                        .ok_or_else(|| internal("stripe buffer staged for pp snapshot"))?;
                    let rows = (pp_filled.min(su) * SECTOR_SIZE) as usize;
                    let snap = m.pp_live.entry(lzone).or_default();
                    snap.stripe = pp_stripe;
                    snap.filled = pp_filled;
                    snap.parity.clear();
                    snap.parity.extend_from_slice(&buf.parity()[..rows]);
                    snap.q.clear();
                    if qdev.is_some() {
                        snap.q.extend_from_slice(&buf.q_parity()[..rows]);
                    }
                }
                drop(m);
                completion = completion.max(pp_done);
                AtomicRaiznStats::add(&self.stats.pp_log_entries, 1);
                AtomicRaiznStats::add(&self.stats.pp_log_bytes, pp_rows * SECTOR_SIZE);
                self.bump(obs::Counter::PpLogWrites);
                self.trace_span(
                    obs::OpClass::Write,
                    obs::Stage::Xor,
                    Some(obs::PathKind::PpLog),
                    lzone,
                    0,
                    pp_rows,
                    issue,
                    pp_done,
                );
            }
        }

        // State transitions.
        if z.wp == lgeo.zone_cap() {
            z.state = ZoneState::Full;
            if let Some(buf) = z.buffer.take() {
                z.retire_buffer(buf);
            }
            // No WAL is written on the hot path, but the next metadata GC
            // checkpoints a finish record so the cap fill stays durable
            // under maximal device failures.
            self.zone_sealed[lzone as usize].store(true, Ordering::Release);
        } else if z.state == ZoneState::Empty || z.state == ZoneState::Closed {
            z.state = ZoneState::ImplicitlyOpen;
        }

        // FUA: everything below the new write pointer must be durable
        // before completion (§5.3).
        if flags.fua {
            let done = self.persist_zone(&mut z, &devices, completion, lzone)?;
            completion = completion.max(done);
        }
        self.trace_root(
            obs::OpClass::Write,
            lzone,
            lba,
            sectors,
            at,
            completion,
            span,
            parent,
        );
        Ok(IoCompletion { done: completion })
    }

    /// Flushes every device holding a non-persisted stripe unit of
    /// `lzone` below its write pointer, then marks the zone persisted.
    /// Runs under `lzone`'s shard lock.
    fn persist_zone(
        &self,
        z: &mut LZone,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
    ) -> Result<SimTime> {
        let data_units = self.layout.data_units();
        let wp = z.wp;
        let mut flush_set = HashSet::new();
        for unit in z.pbitmap.unpersisted_below(wp) {
            let stripe = unit / data_units;
            let k = unit % data_units;
            let dev = self.layout.data_device(lzone, stripe, k);
            flush_set.insert(dev);
            // The parity (or its log) must be durable too for fault
            // tolerance of the acknowledged data.
            flush_set.insert(self.layout.parity_device(lzone, stripe));
            if let Some(q) = self.layout.q_device(lzone, stripe) {
                flush_set.insert(q);
            }
        }
        let mut done = at;
        for dev in flush_set {
            if self.is_failed(dev as usize) {
                continue;
            }
            done = done.max(devices[dev as usize].flush(at)?.done);
            AtomicRaiznStats::add(&self.stats.persistence_flushes, 1);
        }
        z.pbitmap.mark_persisted_below(wp);
        self.trace_span(
            obs::OpClass::Flush,
            obs::Stage::Flush,
            None,
            lzone,
            0,
            0,
            at,
            done,
        );
        Ok(done)
    }

    /// Flushes all devices and marks every zone persisted. Callers must
    /// not hold any shard lock: each zone's shard is taken in index order
    /// to update its persistence bitmap.
    fn flush_all(&self, devices: &[Arc<ZnsDevice>], at: SimTime) -> Result<SimTime> {
        let mut done = at;
        for (i, dev) in devices.iter().enumerate() {
            if self.is_failed(i) {
                continue;
            }
            done = done.max(dev.flush(at)?.done);
        }
        for zm in &self.zones {
            let mut z = self.shard_locks.lock(zm);
            let wp = z.wp;
            z.pbitmap.mark_persisted_below(wp);
        }
        self.trace_span(
            obs::OpClass::Flush,
            obs::Stage::Flush,
            None,
            obs::NONE,
            0,
            0,
            at,
            done,
        );
        Ok(done)
    }

    // ------------------------------------------------------------------
    // Zone reset (§5.2)
    // ------------------------------------------------------------------

    /// Appends the zone-reset WAL for `lzone` to the two designated
    /// devices (first stripe unit holder and first parity holder, rotating
    /// per zone) and returns the completion time.
    fn log_reset_intent(
        &self,
        m: &mut MetaState,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
    ) -> Result<SimTime> {
        let lgeo = self.layout.logical_geometry();
        let rec = MdRecord::new(
            MdPayload::ZoneResetLog,
            false,
            lgeo.zone_start(lzone),
            lgeo.zone_start(lzone) + lgeo.zone_cap(),
            m.gens[lzone as usize],
        );
        let d0 = self.layout.data_device(lzone, 0, 0) as usize;
        let d1 = self.layout.parity_device(lzone, 0) as usize;
        let mut done = at;
        done = done.max(self.md_append(m, devices, at, d0, MdRole::General, &rec, true)?);
        done = done.max(self.md_append(m, devices, at, d1, MdRole::General, &rec, true)?);
        // Dual parity keeps a third WAL copy on the Q holder so the intent
        // survives losing any two devices.
        if let Some(q) = self.layout.q_device(lzone, 0) {
            done = done.max(self.md_append(
                m,
                devices,
                at,
                q as usize,
                MdRole::General,
                &rec,
                true,
            )?);
        }
        Ok(done)
    }

    /// Appends the zone-finish WAL for `lzone` (sealed at `wp`) to the
    /// same devices as the reset WAL. Unlike the reset intent — which is
    /// consumed by the replay — the finish record stays live until the
    /// zone's next reset bumps its generation: it is the remount's only
    /// authoritative witness of the sealed fill when the devices holding
    /// the final stripe's data are gone.
    fn log_finish_intent(
        &self,
        m: &mut MetaState,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lzone: u32,
        wp: u64,
    ) -> Result<SimTime> {
        let lgeo = self.layout.logical_geometry();
        let rec = MdRecord::new(
            MdPayload::ZoneFinishLog,
            false,
            lgeo.zone_start(lzone),
            lgeo.zone_start(lzone) + wp,
            m.gens[lzone as usize],
        );
        let d0 = self.layout.data_device(lzone, 0, 0) as usize;
        let d1 = self.layout.parity_device(lzone, 0) as usize;
        let mut done = at;
        done = done.max(self.md_append(m, devices, at, d0, MdRole::General, &rec, true)?);
        done = done.max(self.md_append(m, devices, at, d1, MdRole::General, &rec, true)?);
        if let Some(q) = self.layout.q_device(lzone, 0) {
            done = done.max(self.md_append(
                m,
                devices,
                at,
                q as usize,
                MdRole::General,
                &rec,
                true,
            )?);
        }
        Ok(done)
    }

    /// Completes a logical zone reset: bumps the generation counter,
    /// persists its page, and clears the zone's in-memory state. Runs
    /// under `lzone`'s shard lock.
    fn finish_reset(
        &self,
        z: &mut LZone,
        devices: &[Arc<ZnsDevice>],
        t: SimTime,
        lzone: u32,
    ) -> Result<SimTime> {
        let done = {
            let mut m = self.lock_meta();
            m.gens[lzone as usize] += 1;
            if m.gens[lzone as usize] == u64::MAX {
                // Counter exhaustion: the volume goes read-only until
                // maintenance runs (§4.3).
                self.read_only.store(true, Ordering::Release);
            }
            let done = self.persist_gen_page(&mut m, devices, t, lzone)?;
            m.relocated.retain(|(lz, _, _), _| *lz != lzone);
            self.sync_relocated_count(&m);
            m.pp_live.remove(&lzone);
            done
        };
        if let Some(buf) = z.buffer.take() {
            z.retire_buffer(buf);
        }
        z.state = ZoneState::Empty;
        z.wp = 0;
        z.pbitmap.clear();
        z.conflicts.clear();
        self.zone_wp[lzone as usize].store(0, Ordering::Release);
        // The generation bump above invalidates any finish WAL; stop
        // checkpointing it.
        self.zone_sealed[lzone as usize].store(false, Ordering::Release);
        AtomicRaiznStats::add(&self.stats.zone_resets, 1);
        Ok(done)
    }

    /// Test support: performs the reset WAL and then resets only the first
    /// `devices_reset` physical zones before "losing power" — the partial
    /// zone reset scenario of §5.2. The volume must be dropped and
    /// remounted afterwards.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    #[doc(hidden)]
    pub fn interrupted_reset_for_test(
        &self,
        at: SimTime,
        lzone: u32,
        devices_reset: usize,
    ) -> Result<()> {
        let devices = self.devices.read();
        let _z = self.lock_shard(lzone);
        let t = {
            let mut m = self.lock_meta();
            self.log_reset_intent(&mut m, &devices, at, lzone)?
        };
        let phys = self.layout.phys_zone(lzone);
        for dev in devices.iter().take(devices_reset) {
            dev.reset_zone(t, phys)?;
        }
        Ok(())
    }

    /// Test support: performs the finish WAL and then finishes only the
    /// first `devices_finished` physical zones — a background finish
    /// interrupted partway across the array's per-device seal loop. No
    /// logical state is updated and no parity prefix is sealed; the
    /// volume must be dropped and remounted afterwards.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    #[doc(hidden)]
    pub fn interrupted_finish_for_test(
        &self,
        at: SimTime,
        lzone: u32,
        devices_finished: usize,
    ) -> Result<()> {
        let devices = self.devices.read();
        let z = self.lock_shard(lzone);
        let t = {
            let mut m = self.lock_meta();
            self.log_finish_intent(&mut m, &devices, at, lzone, z.wp)?
        };
        let phys = self.layout.phys_zone(lzone);
        for dev in devices.iter().take(devices_finished) {
            dev.finish_zone(t, phys)?;
        }
        Ok(())
    }

    /// Generation-counter maintenance (§4.3): garbage collects every
    /// metadata zone, resets all generation counters to zero and clears
    /// read-only mode. The paper runs this when a counter would overflow;
    /// it is write-ahead logged there — atomic by construction in this
    /// synchronous model.
    ///
    /// # Errors
    ///
    /// Propagates device IO errors.
    pub fn maintenance(&self, at: SimTime) -> Result<SimTime> {
        let devices = self.devices.read();
        let su = self.layout.stripe_unit();
        // Sync the pp checkpoint snapshots from the live stripe buffers
        // first (shard → meta per zone): zones staging parity without pp
        // appends (the ZRWA path) have buffers but no snapshots.
        for lz in 0..self.layout.logical_zones() {
            let z = self.lock_shard(lz);
            let mut m = self.lock_meta();
            match &z.buffer {
                Some(buf) if buf.filled_sectors() > 0 => {
                    let rows = (buf.filled_sectors().min(su) * SECTOR_SIZE) as usize;
                    let snap = m.pp_live.entry(lz).or_default();
                    snap.stripe = buf.stripe();
                    snap.filled = buf.filled_sectors();
                    snap.parity.clear();
                    snap.parity.extend_from_slice(&buf.parity()[..rows]);
                    snap.q.clear();
                    if buf.parity_units() >= 2 {
                        snap.q.extend_from_slice(&buf.q_parity()[..rows]);
                    }
                }
                _ => {
                    m.pp_live.remove(&lz);
                }
            }
        }
        let mut m = self.lock_meta();
        for g in &mut m.gens {
            *g = 0;
        }
        let mut t = at;
        for dev in 0..devices.len() {
            if self.is_failed(dev) {
                continue;
            }
            t = t.max(self.md_gc(&mut m, &devices, t, dev, MdRole::General)?);
            t = t.max(self.md_gc(&mut m, &devices, t, dev, MdRole::PpLog)?);
        }
        drop(m);
        self.read_only.store(false, Ordering::Release);
        Ok(t)
    }

    // ------------------------------------------------------------------
    // Rebuild (§4.2)
    // ------------------------------------------------------------------

    /// Rebuilds the lowest-indexed failed device onto `replacement`, zone
    /// by zone with active zones first, rebuilding **only valid data** (up
    /// to each logical zone's write pointer) — the Fig. 12 behaviour.
    ///
    /// In dual-parity mode with two devices failed, each `rebuild` call
    /// restores one device (lowest index first); reconstruction during the
    /// first pass decodes around the second missing device with the
    /// two-erasure Reed–Solomon path. Call again with a second
    /// replacement to restore full redundancy.
    ///
    /// Locks one zone shard at a time; concurrent IO to other zones is
    /// not blocked, but callers should quiesce writes for a consistent
    /// rebuild point (see `DESIGN.md`).
    ///
    /// # Errors
    ///
    /// Fails if no device is failed, the replacement geometry mismatches,
    /// or device IO fails.
    pub fn rebuild(&self, at: SimTime, replacement: Arc<ZnsDevice>) -> Result<RebuildReport> {
        let failed = self.failed_idx().ok_or_else(|| {
            ZnsError::InvalidArgument("rebuild requires a failed device".to_string())
        })?;
        if replacement.geometry() != self.layout.phys_geometry() {
            return Err(ZnsError::InvalidArgument(
                "replacement geometry mismatch".to_string(),
            ));
        }
        let su = self.layout.stripe_unit();
        let su_bytes = (su * SECTOR_SIZE) as usize;

        // Rebuild reads and replacement writes are blamed on the rebuild
        // actor; foreground ops queued behind them see the stall as
        // rebuild interference in their blame trees.
        let _actor = obs::actor_scope(obs::Actor::Rebuild);
        let mut cursor = at;
        let mut last_write = at;
        let mut bytes = 0u64;
        let mut zones_rebuilt = 0u32;
        {
            let devices = self.devices.read();
            // Priority order: active zones first (open/closed), then full.
            let mut order: Vec<(u32, u8)> = Vec::new();
            for lz in 0..self.layout.logical_zones() {
                let z = self.lock_shard(lz);
                if z.wp == 0 {
                    continue;
                }
                let pri = match z.state {
                    ZoneState::ImplicitlyOpen | ZoneState::ExplicitlyOpen | ZoneState::Closed => 0,
                    _ => 1,
                };
                order.push((lz, pri));
            }
            order.sort_by_key(|&(_, pri)| pri);
            self.rebuild_zones_total
                .store(order.len() as u64, Ordering::Release);
            self.rebuild_zones_done.store(0, Ordering::Release);

            for (lzone, _) in order {
                let mut z = self.lock_shard(lzone);
                let wp = z.wp;
                let phys_zone = self.layout.phys_zone(lzone);
                let full_stripes = wp / self.layout.stripe_data_sectors();
                let tail = wp % self.layout.stripe_data_sectors();
                let max_stripe = full_stripes + if tail > 0 { 1 } else { 0 };
                for stripe in 0..max_stripe {
                    let complete = stripe < full_stripes;
                    // What does the replacement hold for this stripe?
                    let needed: u64 = match self.layout.unit_of_device(lzone, stripe, failed as u32)
                    {
                        None => {
                            // Parity slot: present only for complete stripes.
                            if complete {
                                su
                            } else {
                                0
                            }
                        }
                        Some(k) => {
                            if complete {
                                su
                            } else {
                                tail.saturating_sub(k * su).min(su)
                            }
                        }
                    };
                    if needed == 0 {
                        continue;
                    }
                    let mut out = vec![0u8; (needed * SECTOR_SIZE) as usize];
                    let reads_done;
                    let healed = {
                        let mut m = self.lock_meta();
                        let rel = m.relocated.remove(&(lzone, stripe, failed as u32));
                        if rel.is_some() {
                            self.sync_relocated_count(&m);
                        }
                        rel
                    };
                    if let Some(rel) = healed {
                        // Heal the relocation: the true data returns to its
                        // arithmetic slot on the fresh device.
                        let len = out.len();
                        out.copy_from_slice(&rel.data[..len]);
                        reads_done = cursor;
                        z.conflicts.remove(&(stripe, failed as u32));
                    } else if !complete {
                        // Incomplete stripe: serve from the stripe buffer.
                        let k = self
                            .layout
                            .unit_of_device(lzone, stripe, failed as u32)
                            .ok_or_else(|| internal("parity slot handled above"))?;
                        match &z.buffer {
                            Some(buf) if buf.stripe() == stripe => {
                                let len = out.len();
                                out.copy_from_slice(&buf.unit_data(k)[..len]);
                            }
                            _ => {
                                // No buffer (e.g. finished zone): reconstruct
                                // readable rows from surviving devices is not
                                // possible without parity; read from survivors
                                // directly is not possible either (this IS the
                                // missing device). Treat as zeros.
                            }
                        }
                        reads_done = cursor;
                    } else {
                        reads_done = self.reconstruct_slot_rows(
                            &devices,
                            cursor,
                            lzone,
                            stripe,
                            failed as u32,
                            0,
                            &mut out,
                        )?;
                    }
                    debug_assert!(out.len() <= su_bytes);
                    let pba = self.layout.phys_geometry().zone_start(phys_zone) + stripe * su;
                    let w = replacement.write(reads_done, pba, &out, WriteFlags::default())?;
                    last_write = last_write.max(w.done);
                    bytes += out.len() as u64;
                    cursor = reads_done;
                }
                // Seal the replacement's zone to match the logical state.
                if z.state == ZoneState::Full {
                    replacement.finish_zone(last_write, phys_zone)?;
                }
                zones_rebuilt += 1;
                self.rebuild_zones_done.fetch_add(1, Ordering::AcqRel);
            }

            // Replicated metadata goes onto the fresh device.
            {
                let mut m = self.lock_meta();
                let sb = self.superblock_record(devices.len(), failed, false);
                let gens = self.gen_records(&m, false);
                let mut t = last_write;
                let c = replacement.append(t, 0, &sb.encode(), WriteFlags::FUA)?;
                t = c.done;
                for rec in gens {
                    let c = replacement.append(t, 0, &rec.encode(), WriteFlags::FUA)?;
                    t = c.done;
                }
                last_write = last_write.max(t);
                m.md[failed] = MdRoles {
                    general: 0,
                    pplog: 1,
                    swaps: (2..self.layout.md_zones()).collect(),
                };
            }
        }
        // Swap in the replacement: the only writer of the device table.
        {
            let mut devs = self.devices.write();
            devs[failed] = replacement;
        }
        // Clear only this device's failure bit: in dual-parity mode the
        // other failed device (if any) stays degraded until its own
        // rebuild pass.
        self.failed_mask
            .fetch_and(!(1u64 << failed), Ordering::AcqRel);
        self.device_errors[failed].store(0, Ordering::Relaxed);
        self.rebuild_zones_total.store(0, Ordering::Release);
        self.rebuild_zones_done.store(0, Ordering::Release);
        AtomicRaiznStats::add(&self.stats.rebuild_bytes, bytes);
        AtomicRaiznStats::add(&self.stats.rebuilds_completed, 1);
        Ok(RebuildReport {
            duration: last_write.since(at),
            bytes_written: bytes,
            zones_rebuilt,
        })
    }
}

impl ZonedVolume for RaiznVolume {
    fn geometry(&self) -> ZoneGeometry {
        self.layout.logical_geometry()
    }

    fn read(&self, at: SimTime, lba: Lba, buf: &mut [u8]) -> Result<IoCompletion> {
        let lgeo = self.layout.logical_geometry();
        if buf.is_empty() || !buf.len().is_multiple_of(SECTOR_SIZE as usize) {
            return Err(ZnsError::InvalidArgument(format!(
                "buffer length {} is not a positive multiple of the sector size",
                buf.len()
            )));
        }
        let sectors = buf.len() as u64 / SECTOR_SIZE;
        if !lgeo.contains(lba) {
            return Err(ZnsError::OutOfRange { lba, sectors });
        }
        if !lgeo.range_in_one_zone(lba, sectors) {
            return Err(ZnsError::ZoneBoundary { lba, sectors });
        }
        let lzone = lgeo.zone_of(lba);
        let rel0 = lgeo.offset_in_zone(lba);
        let (span, parent, _span_guard) = self.begin_span();
        let devices = self.devices.read();
        let mut z = self.lock_shard(lzone);
        self.mark_lock(obs::OpClass::Read, lzone, at);
        if rel0 + sectors > z.wp {
            return Err(ZnsError::ReadUnwritten {
                lba: lgeo.zone_start(lzone) + z.wp,
            });
        }
        let su = self.layout.stripe_unit();
        let stripe_data = self.layout.stripe_data_sectors();
        let mut done = at;
        let mut cursor = rel0;
        let mut off = 0usize;
        while cursor < rel0 + sectors {
            let stripe = cursor / stripe_data;
            let within = cursor % stripe_data;
            let unit = within / su;
            let row0 = within % su;
            let rows = (su - row0).min(rel0 + sectors - cursor);
            let out = &mut buf[off..off + (rows * SECTOR_SIZE) as usize];
            let t = self.read_slot_rows(&mut z, &devices, at, lzone, stripe, unit, row0, out)?;
            done = done.max(t);
            cursor += rows;
            off += (rows * SECTOR_SIZE) as usize;
        }
        self.trace_root(
            obs::OpClass::Read,
            lzone,
            lba,
            sectors,
            at,
            done,
            span,
            parent,
        );
        Ok(IoCompletion { done })
    }

    fn write(&self, at: SimTime, lba: Lba, data: &[u8], flags: WriteFlags) -> Result<IoCompletion> {
        self.do_write(at, lba, data, flags)
    }

    /// Batch-write entry point: stages `segments` into a pooled scratch
    /// buffer and submits them as one contiguous extent, so a coalesced
    /// batch spanning full stripes takes the full-parity path instead of
    /// per-segment partial-parity logging.
    fn write_vectored(
        &self,
        at: SimTime,
        lba: Lba,
        segments: &[&[u8]],
        flags: WriteFlags,
    ) -> Result<IoCompletion> {
        match segments {
            [] => Ok(IoCompletion { done: at }),
            [only] => self.do_write(at, lba, only, flags),
            _ => {
                let mut scratch = std::mem::take(&mut self.lock_meta().gather_scratch);
                scratch.clear();
                for seg in segments {
                    scratch.extend_from_slice(seg);
                }
                let r = self.do_write(at, lba, &scratch, flags);
                self.lock_meta().gather_scratch = scratch;
                if r.is_ok() {
                    AtomicRaiznStats::add(&self.stats.gather_writes, 1);
                    AtomicRaiznStats::add(
                        &self.stats.gather_segments_merged,
                        segments.len() as u64 - 1,
                    );
                }
                r
            }
        }
    }

    fn append(
        &self,
        at: SimTime,
        zone: u32,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<AppendCompletion> {
        let lgeo = self.layout.logical_geometry();
        if zone >= lgeo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: zone as u64 * lgeo.zone_size(),
                sectors: 0,
            });
        }
        let lba = {
            let z = self.lock_shard(zone);
            lgeo.zone_start(zone) + z.wp
        };
        let c = self.do_write(at, lba, data, flags)?;
        Ok(AppendCompletion { lba, done: c.done })
    }

    fn reset_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        let lgeo = self.layout.logical_geometry();
        if zone >= lgeo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: zone as u64 * lgeo.zone_size(),
                sectors: 0,
            });
        }
        let (span, parent, _span_guard) = self.begin_span();
        let devices = self.devices.read();
        let mut z = self.lock_shard(zone);
        self.mark_lock(obs::OpClass::Reset, zone, at);
        if self.read_only.load(Ordering::Acquire) {
            return Err(ZnsError::VolumeReadOnly);
        }
        // WAL first (§5.2): the reset must be replayable before any
        // physical zone is touched.
        let t = {
            let mut m = self.lock_meta();
            self.mark_lock(obs::OpClass::Reset, obs::NONE, at);
            self.log_reset_intent(&mut m, &devices, at, zone)?
        };
        let phys = self.layout.phys_zone(zone);
        let mut done = t;
        for i in 0..devices.len() {
            if self.is_failed(i) {
                continue;
            }
            done = done.max(self.reset_phys_with_retry(&devices, t, i, phys)?);
        }
        done = done.max(self.finish_reset(&mut z, &devices, done, zone)?);
        self.trace_root(
            obs::OpClass::Reset,
            zone,
            lgeo.zone_start(zone),
            0,
            at,
            done,
            span,
            parent,
        );
        Ok(IoCompletion { done })
    }

    fn finish_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        let lgeo = self.layout.logical_geometry();
        if zone >= lgeo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: zone as u64 * lgeo.zone_size(),
                sectors: 0,
            });
        }
        let (span, parent, _span_guard) = self.begin_span();
        let devices = self.devices.read();
        let mut z = self.lock_shard(zone);
        self.mark_lock(obs::OpClass::Finish, zone, at);
        if self.read_only.load(Ordering::Acquire) {
            return Err(ZnsError::VolumeReadOnly);
        }
        let mut done = at;
        // Seal the incomplete stripe's parity prefix into the parity slot
        // so the finished zone stays single-fault tolerant. The buffer is
        // detached for the duration of the write so its parity can be
        // passed as a borrowed slice, then reattached (rebuild still
        // consults it for the incomplete stripe).
        let taken = z.buffer.take();
        let mut seal_result: Result<()> = Ok(());
        if let Some(buf) = &taken {
            if buf.filled_sectors() > 0 {
                let rows = buf.filled_sectors().min(self.layout.stripe_unit());
                let stripe = buf.stripe();
                let pdev = self.layout.parity_device(zone, stripe);
                match self.store_slot_rows(
                    &mut z,
                    &devices,
                    at,
                    zone,
                    stripe,
                    pdev,
                    0,
                    &buf.parity()[..(rows * SECTOR_SIZE) as usize],
                    WriteFlags::default(),
                ) {
                    Ok(t) => {
                        done = done.max(t);
                        AtomicRaiznStats::add(&self.stats.full_parity_writes, 1);
                        self.bump(obs::Counter::FullParityWrites);
                    }
                    Err(e) => seal_result = Err(e),
                }
                if seal_result.is_ok() {
                    if let Some(q) = self.layout.q_device(zone, stripe) {
                        match self.store_slot_rows(
                            &mut z,
                            &devices,
                            at,
                            zone,
                            stripe,
                            q,
                            0,
                            &buf.q_parity()[..(rows * SECTOR_SIZE) as usize],
                            WriteFlags::default(),
                        ) {
                            Ok(t) => {
                                done = done.max(t);
                                AtomicRaiznStats::add(&self.stats.q_parity_writes, 1);
                                self.bump(obs::Counter::QParityWrites);
                            }
                            Err(e) => seal_result = Err(e),
                        }
                    }
                }
            }
        }
        z.buffer = taken;
        seal_result?;
        // Write-ahead: the sealed write pointer goes to the metadata WAL
        // before any device seals, so a crash anywhere in the per-device
        // finish loop rolls forward to exactly this fill at mount.
        {
            let mut m = self.lock_meta();
            self.mark_lock(obs::OpClass::Finish, obs::NONE, at);
            let t = self.log_finish_intent(&mut m, &devices, at, zone, z.wp)?;
            done = done.max(t);
        }
        let phys = self.layout.phys_zone(zone);
        for (i, dev) in devices.iter().enumerate() {
            if self.is_failed(i) {
                continue;
            }
            done = done.max(dev.finish_zone(at, phys)?.done);
        }
        self.zone_sealed[zone as usize].store(true, Ordering::Release);
        z.state = ZoneState::Full;
        let wp = z.wp;
        z.pbitmap.mark_persisted_below(wp);
        AtomicRaiznStats::add(&self.stats.zone_finishes, 1);
        self.trace_root(
            obs::OpClass::Finish,
            zone,
            lgeo.zone_start(zone),
            0,
            at,
            done,
            span,
            parent,
        );
        Ok(IoCompletion { done })
    }

    fn open_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        let lgeo = self.layout.logical_geometry();
        if zone >= lgeo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: zone as u64 * lgeo.zone_size(),
                sectors: 0,
            });
        }
        let devices = self.devices.read();
        let mut z = self.lock_shard(zone);
        let phys = self.layout.phys_zone(zone);
        let mut done = at;
        for (i, dev) in devices.iter().enumerate() {
            if self.is_failed(i) {
                continue;
            }
            done = done.max(dev.open_zone(at, phys)?.done);
        }
        z.state = ZoneState::ExplicitlyOpen;
        Ok(IoCompletion { done })
    }

    fn close_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        let lgeo = self.layout.logical_geometry();
        if zone >= lgeo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: zone as u64 * lgeo.zone_size(),
                sectors: 0,
            });
        }
        let devices = self.devices.read();
        let mut z = self.lock_shard(zone);
        if !z.state.is_open() {
            return Err(ZnsError::BadZoneState {
                zone,
                state: z.state.name(),
                op: "close",
            });
        }
        let phys = self.layout.phys_zone(zone);
        let mut done = at;
        for (i, dev) in devices.iter().enumerate() {
            if self.is_failed(i) {
                continue;
            }
            // Physical zones that were never written cannot be closed;
            // ignore state errors from them.
            match dev.close_zone(at, phys) {
                Ok(c) => done = done.max(c.done),
                Err(ZnsError::BadZoneState { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        z.state = if z.wp == 0 {
            ZoneState::Empty
        } else {
            ZoneState::Closed
        };
        Ok(IoCompletion { done })
    }

    fn flush(&self, at: SimTime) -> Result<IoCompletion> {
        let devices = self.devices.read();
        let done = self.flush_all(&devices, at)?;
        Ok(IoCompletion { done })
    }

    fn zone_info(&self, zone: u32) -> Result<ZoneInfo> {
        let lgeo = self.layout.logical_geometry();
        if zone >= lgeo.num_zones() {
            return Err(ZnsError::OutOfRange {
                lba: zone as u64 * lgeo.zone_size(),
                sectors: 0,
            });
        }
        let z = self.lock_shard(zone);
        Ok(ZoneInfo {
            zone,
            state: z.state,
            start: lgeo.zone_start(zone),
            write_pointer: lgeo.zone_start(zone) + z.wp,
            capacity: lgeo.zone_cap(),
        })
    }
}

impl obs::GaugeSource for RaiznVolume {
    fn source_label(&self) -> &'static str {
        "raizn"
    }

    /// Instantaneous array state: relocation backlog, degraded flag and
    /// metadata-path counters volume-wide, plus per-device error-budget
    /// headroom, metadata-zone utilization (general + pp-log zone fill,
    /// the input to the §4.3 metadata GC policy), and — new with the
    /// sharded pipeline — per-lock-domain contention gauges (id 0 = zone
    /// shards, id 1 = global metadata).
    fn sample_gauges(&self, out: &mut Vec<obs::GaugeReading>) {
        out.push(obs::GaugeReading::new(
            "relocation_backlog",
            obs::NONE,
            self.relocated_len.load(Ordering::Acquire) as f64,
        ));
        out.push(obs::GaugeReading::new(
            "degraded",
            obs::NONE,
            if self.failed_idx().is_some() {
                1.0
            } else {
                0.0
            },
        ));
        let s = self.stats.snapshot();
        out.push(obs::GaugeReading::new(
            "pp_log_entries",
            obs::NONE,
            s.pp_log_entries as f64,
        ));
        out.push(obs::GaugeReading::new(
            "md_appends",
            obs::NONE,
            s.md_appends as f64,
        ));
        out.push(obs::GaugeReading::new(
            "transient_retries",
            obs::NONE,
            s.transient_retries as f64,
        ));
        let budget = self.config.device_error_budget;
        {
            let devices = self.devices.read();
            let m = self.lock_meta();
            for (d, (dev, roles)) in devices.iter().zip(m.md.iter()).enumerate() {
                out.push(obs::GaugeReading::new(
                    "error_budget_remaining",
                    d as u32,
                    budget.saturating_sub(self.device_errors[d].load(Ordering::Relaxed)) as f64,
                ));
                // Consistent meta -> device lock order (same as the IO path).
                let zone_fill = |zone: u32| -> u64 {
                    dev.zone_info(zone)
                        .map(|zi| zi.write_pointer - zi.start)
                        .unwrap_or(0)
                };
                out.push(obs::GaugeReading::new(
                    "md_zone_used_sectors",
                    d as u32,
                    (zone_fill(roles.general) + zone_fill(roles.pplog)) as f64,
                ));
            }
        }
        out.push(obs::GaugeReading::new(
            "failed_devices",
            obs::NONE,
            self.failed_count() as f64,
        ));
        out.push(obs::GaugeReading::new(
            "rebuild_zones_total",
            obs::NONE,
            self.rebuild_zones_total.load(Ordering::Relaxed) as f64,
        ));
        out.push(obs::GaugeReading::new(
            "rebuild_zones_done",
            obs::NONE,
            self.rebuild_zones_done.load(Ordering::Relaxed) as f64,
        ));
        self.shard_locks.sample_gauges(0, out);
        self.meta_locks.sample_gauges(1, out);
    }
}
