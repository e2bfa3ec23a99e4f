//! Wrappers placed at the public boundary of each layer.
//!
//! Each wrapper implements the same public trait as the layer it wraps
//! ([`IoTarget`], [`SharedScheduler`], [`ZonedVolume`]) and forwards every
//! call. On the way it counts ops and bytes, folds the op stream into a
//! digest, records simulated latencies and, when its [`Clock`] is on,
//! accumulates the host time spent inside the wrapped layer. A layer's
//! self time is its wrapper's time minus the time of the wrappers it
//! calls into.
//!
//! Every workload drives its wrappers from one thread, so counts are
//! [`Count`]s (a plain load and store, no locked instruction) and the
//! only lock guards the latency samples a wrapper keeps. Measured once
//! against wrappers that forward without counting, this bookkeeping
//! costs the figure `NOTES.md` gives.

use sim::SimTime;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::{Admission, IoTarget, OpKind, SchedCompletion, SharedScheduler, TenantId};
use zns::{
    AppendCompletion, IoCompletion, Lba, Result, WriteFlags, ZoneGeometry, ZoneInfo, ZonedVolume,
    SECTOR_SIZE,
};

/// Host time accumulated inside one layer boundary. A clock that is off
/// costs one branch per call.
#[derive(Debug, Default)]
pub struct Clock {
    on: bool,
    ns: AtomicU64,
}

impl Clock {
    /// A clock that times calls when `on`.
    pub fn new(on: bool) -> Self {
        Clock {
            on,
            ns: AtomicU64::new(0),
        }
    }

    /// Runs `f`, adding its host duration when the clock is on.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        r
    }

    /// Host nanoseconds accumulated so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }
}

/// One step of the op-stream digest: folds a 64-bit word in with a
/// multiply and an xor-shift.
pub fn mix(digest: u64, word: u64) -> u64 {
    let x = (digest ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 29)
}

/// Digest of an empty op stream.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A counter with a single writer. `add` is a load and a store rather
/// than a locked read-modify-write; a second writing thread would lose
/// counts, which the count checks would then report.
#[derive(Debug, Default)]
pub struct Count(AtomicU64);

impl Count {
    /// A counter starting at `v`.
    pub fn new(v: u64) -> Self {
        Count(AtomicU64::new(v))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.set(self.get().wrapping_add(n));
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// The value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Ops, bytes and simulated latencies seen at one boundary.
#[derive(Debug, Clone)]
pub struct OpLog {
    /// Read calls.
    pub reads: u64,
    /// Write calls (gather writes count once).
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Zone appends (volumes only; also counted in `writes`).
    pub appends: u64,
    /// Digest of every (kind, offset, length) passing the boundary.
    pub digest: u64,
    /// Simulated read latencies in ns (when latency capture is on).
    pub read_lat: Vec<u64>,
    /// Simulated write latencies in ns (when latency capture is on).
    pub write_lat: Vec<u64>,
}

/// The live counters behind an [`OpLog`].
#[derive(Debug)]
struct OpCounts {
    reads: Count,
    writes: Count,
    read_bytes: Count,
    write_bytes: Count,
    appends: Count,
    digest: Count,
}

impl Default for OpCounts {
    fn default() -> Self {
        OpCounts {
            reads: Count::default(),
            writes: Count::default(),
            read_bytes: Count::default(),
            write_bytes: Count::default(),
            appends: Count::default(),
            digest: Count::new(DIGEST_SEED),
        }
    }
}

impl OpCounts {
    fn note(&self, kind: u64, off: u64, len: u64) {
        let d = mix(mix(mix(self.digest.get(), kind), off), len);
        self.digest.set(d);
    }

    fn read(&self, off: u64, bytes: u64) {
        self.reads.add(1);
        self.read_bytes.add(bytes);
        self.note(0, off, bytes);
    }

    fn wrote(&self, off: u64, bytes: u64) {
        self.writes.add(1);
        self.write_bytes.add(bytes);
        self.note(1, off, bytes);
    }

    fn snapshot(&self) -> OpLog {
        OpLog {
            reads: self.reads.get(),
            writes: self.writes.get(),
            read_bytes: self.read_bytes.get(),
            write_bytes: self.write_bytes.get(),
            appends: self.appends.get(),
            digest: self.digest.get(),
            read_lat: Vec::new(),
            write_lat: Vec::new(),
        }
    }
}

/// Simulated latency samples in ns.
#[derive(Debug, Default)]
struct Latencies {
    read: Vec<u64>,
    write: Vec<u64>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("probe state poisoned by a panicking benchmark thread")
}

/// An [`IoTarget`] wrapper: the boundary between the op generator and
/// whatever it drives (a scheduler or a volume adapter).
pub struct TimedTarget<T> {
    inner: T,
    /// Host time inside the wrapped target.
    pub clock: Clock,
    /// Latency samples, kept only when capture is on.
    lat: Option<Mutex<Latencies>>,
    counts: OpCounts,
}

impl<T: IoTarget> TimedTarget<T> {
    /// Wraps `inner`; `capture_latency` records `done - at` per op, which
    /// is the op's simulated latency when the caller is the op generator.
    pub fn new(inner: T, timing: bool, capture_latency: bool) -> Self {
        TimedTarget {
            inner,
            clock: Clock::new(timing),
            lat: capture_latency.then(|| Mutex::new(Latencies::default())),
            counts: OpCounts::default(),
        }
    }

    /// Snapshot of the counts, without latencies.
    pub fn log(&self) -> OpLog {
        self.counts.snapshot()
    }

    /// Snapshot of the counts with the latency samples moved out.
    pub fn take_log(&self) -> OpLog {
        let mut log = self.counts.snapshot();
        if let Some(lat) = &self.lat {
            let lat = std::mem::take(&mut *lock(lat));
            (log.read_lat, log.write_lat) = (lat.read, lat.write);
        }
        log
    }

    fn after_write(&self, at: SimTime, off: u64, bytes: u64, done: SimTime) {
        self.counts.wrote(off, bytes);
        if let Some(lat) = &self.lat {
            lock(lat).write.push(done.since(at).as_nanos());
        }
    }
}

impl<T: IoTarget> IoTarget for TimedTarget<T> {
    fn capacity_sectors(&self) -> u64 {
        self.inner.capacity_sectors()
    }

    fn read(&self, at: SimTime, off: u64, buf: &mut [u8]) -> Result<SimTime> {
        let done = self.clock.time(|| self.inner.read(at, off, buf))?;
        self.counts.read(off, buf.len() as u64);
        if let Some(lat) = &self.lat {
            lock(lat).read.push(done.since(at).as_nanos());
        }
        Ok(done)
    }

    fn write(&self, at: SimTime, off: u64, data: &[u8]) -> Result<SimTime> {
        let done = self.clock.time(|| self.inner.write(at, off, data))?;
        self.after_write(at, off, data.len() as u64, done);
        Ok(done)
    }

    fn write_vectored(&self, at: SimTime, off: u64, segments: &[&[u8]]) -> Result<SimTime> {
        let done = self
            .clock
            .time(|| self.inner.write_vectored(at, off, segments))?;
        let bytes = segments.iter().map(|s| s.len() as u64).sum();
        self.after_write(at, off, bytes, done);
        Ok(done)
    }

    fn flush(&self, at: SimTime) -> Result<SimTime> {
        self.clock.time(|| self.inner.flush(at))
    }

    fn manage_zone(&self, at: SimTime, zone: u32, op: zns::ZoneMgmtOp) -> Result<SimTime> {
        self.clock.time(|| self.inner.manage_zone(at, zone, op))
    }

    fn max_io_at(&self, off: u64) -> u64 {
        self.inner.max_io_at(off)
    }
}

/// Admission and completion counts seen at the scheduler boundary.
#[derive(Debug, Clone, Default)]
pub struct SchedLog {
    /// Submissions admitted, per tenant.
    pub admitted: Vec<u64>,
    /// Completions returned, per tenant.
    pub completed: Vec<u64>,
    /// Bytes of completed ops, per tenant.
    pub bytes: Vec<u64>,
    /// Most ops admitted and not yet completed at once.
    pub peak_inflight: u64,
    /// Simulated queue waits (dispatch - arrival) in ns.
    pub queue_wait: Vec<u64>,
    /// Simulated read latencies (done - arrival) in ns.
    pub read_lat: Vec<u64>,
    /// Simulated write latencies (done - arrival) in ns.
    pub write_lat: Vec<u64>,
}

/// Simulated times of completed ops in ns.
#[derive(Debug, Default)]
struct SchedTimes {
    queue_wait: Vec<u64>,
    read: Vec<u64>,
    write: Vec<u64>,
}

/// A [`SharedScheduler`] wrapper: the boundary between the workload
/// engine and the QoS scheduler. Knows each job's op kind and block size
/// (the engine tags completions with the job index).
pub struct TimedSched<S> {
    inner: Arc<S>,
    /// Host time inside the wrapped scheduler.
    pub clock: Clock,
    jobs: Vec<(OpKind, u64)>,
    inflight: Count,
    peak_inflight: Count,
    admitted: Vec<Count>,
    completed: Vec<Count>,
    bytes: Vec<Count>,
    times: Mutex<SchedTimes>,
}

impl<S: SharedScheduler> TimedSched<S> {
    /// Wraps `inner` for jobs of the given `(kind, block_sectors)`, in
    /// job order, spread over `tenants` tenants.
    pub fn new(inner: Arc<S>, timing: bool, jobs: Vec<(OpKind, u64)>, tenants: usize) -> Self {
        TimedSched {
            inner,
            clock: Clock::new(timing),
            jobs,
            inflight: Count::default(),
            peak_inflight: Count::default(),
            admitted: (0..tenants).map(|_| Count::default()).collect(),
            completed: (0..tenants).map(|_| Count::default()).collect(),
            bytes: (0..tenants).map(|_| Count::default()).collect(),
            times: Mutex::new(SchedTimes::default()),
        }
    }

    /// Snapshot of the counts with the simulated times moved out.
    pub fn take_log(&self) -> SchedLog {
        let times = std::mem::take(&mut *lock(&self.times));
        let get = |v: &[Count]| v.iter().map(Count::get).collect();
        SchedLog {
            admitted: get(&self.admitted),
            completed: get(&self.completed),
            bytes: get(&self.bytes),
            peak_inflight: self.peak_inflight.get(),
            queue_wait: times.queue_wait,
            read_lat: times.read,
            write_lat: times.write,
        }
    }

    fn admit(&self, tenant: TenantId, adm: &Admission) {
        if let Admission::Admitted(_) = adm {
            self.admitted[tenant as usize].add(1);
            self.inflight.add(1);
            let now = self.inflight.get();
            if now > self.peak_inflight.get() {
                self.peak_inflight.set(now);
            }
        }
    }
}

impl<S: SharedScheduler> SharedScheduler for TimedSched<S> {
    fn capacity_sectors(&self) -> u64 {
        self.inner.capacity_sectors()
    }

    fn max_io_at(&self, off: u64) -> u64 {
        self.inner.max_io_at(off)
    }

    fn submit_write(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        data: &[u8],
    ) -> Result<Admission> {
        let adm = self
            .clock
            .time(|| self.inner.submit_write(tenant, tag, arrival, off, data))?;
        self.admit(tenant, &adm);
        Ok(adm)
    }

    fn submit_read(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        sectors: u64,
    ) -> Result<Admission> {
        let adm = self
            .clock
            .time(|| self.inner.submit_read(tenant, tag, arrival, off, sectors))?;
        self.admit(tenant, &adm);
        Ok(adm)
    }

    fn step(&self, out: &mut Vec<SchedCompletion>) -> Result<bool> {
        let first = out.len();
        let any = self.clock.time(|| self.inner.step(out))?;
        let new = &out[first..];
        if new.is_empty() {
            return Ok(any);
        }
        let mut times = lock(&self.times);
        for c in new {
            let (kind, sectors) = self.jobs[c.tag as usize];
            let t = c.tenant as usize;
            self.completed[t].add(1);
            self.bytes[t].add(sectors * SECTOR_SIZE);
            times
                .queue_wait
                .push(c.dispatched.since(c.arrival).as_nanos());
            let lat = c.done.since(c.arrival).as_nanos();
            match kind {
                OpKind::Read => times.read.push(lat),
                OpKind::Write => times.write.push(lat),
            }
        }
        self.inflight.set(self.inflight.get() - new.len() as u64);
        Ok(any)
    }
}

/// A [`ZonedVolume`] wrapper: the boundary between a volume's user (an
/// adapter, the key-value store) and the RAID engine with its devices.
pub struct TimedVolume<V> {
    inner: Arc<V>,
    /// Host time inside reads.
    pub read_clock: Clock,
    /// Host time inside writes, gather writes and appends.
    pub write_clock: Clock,
    /// Host time inside every other call.
    pub other_clock: Clock,
    counts: OpCounts,
}

impl<V: ZonedVolume> TimedVolume<V> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<V>, timing: bool) -> Self {
        TimedVolume {
            inner,
            read_clock: Clock::new(timing),
            write_clock: Clock::new(timing),
            other_clock: Clock::new(timing),
            counts: OpCounts::default(),
        }
    }

    /// Snapshot of the counts.
    pub fn log(&self) -> OpLog {
        self.counts.snapshot()
    }

    /// Host nanoseconds inside every call.
    pub fn total_ns(&self) -> u64 {
        self.read_clock.ns() + self.write_clock.ns() + self.other_clock.ns()
    }
}

impl<V: ZonedVolume> ZonedVolume for TimedVolume<V> {
    fn geometry(&self) -> ZoneGeometry {
        self.inner.geometry()
    }

    fn read(&self, at: SimTime, lba: Lba, buf: &mut [u8]) -> Result<IoCompletion> {
        let c = self.read_clock.time(|| self.inner.read(at, lba, buf))?;
        self.counts.read(lba, buf.len() as u64);
        Ok(c)
    }

    fn write(&self, at: SimTime, lba: Lba, data: &[u8], flags: WriteFlags) -> Result<IoCompletion> {
        let c = self
            .write_clock
            .time(|| self.inner.write(at, lba, data, flags))?;
        self.counts.wrote(lba, data.len() as u64);
        Ok(c)
    }

    fn write_vectored(
        &self,
        at: SimTime,
        lba: Lba,
        segments: &[&[u8]],
        flags: WriteFlags,
    ) -> Result<IoCompletion> {
        let c = self
            .write_clock
            .time(|| self.inner.write_vectored(at, lba, segments, flags))?;
        self.counts
            .wrote(lba, segments.iter().map(|s| s.len() as u64).sum());
        Ok(c)
    }

    fn append(
        &self,
        at: SimTime,
        zone: u32,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<AppendCompletion> {
        let c = self
            .write_clock
            .time(|| self.inner.append(at, zone, data, flags))?;
        self.counts.wrote(c.lba, data.len() as u64);
        self.counts.appends.add(1);
        Ok(c)
    }

    fn reset_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.other_clock.time(|| self.inner.reset_zone(at, zone))
    }

    fn finish_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.other_clock.time(|| self.inner.finish_zone(at, zone))
    }

    fn open_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.other_clock.time(|| self.inner.open_zone(at, zone))
    }

    fn close_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.other_clock.time(|| self.inner.close_zone(at, zone))
    }

    fn flush(&self, at: SimTime) -> Result<IoCompletion> {
        self.other_clock.time(|| self.inner.flush(at))
    }

    fn zone_info(&self, zone: u32) -> Result<ZoneInfo> {
        self.other_clock.time(|| self.inner.zone_info(zone))
    }
}
