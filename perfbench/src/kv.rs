//! `kv-rww`: zkv on RAIZN with single parity. A fillrandom pass loads
//! every key once (set-up); the measured phase runs overwrite, then
//! readwhilewriting — one writer and eight readers, each a closed loop —
//! with 4000-byte values. The only workload that runs zkv's memtable,
//! flush and compaction, and the volume through small WAL appends.

use crate::probe::{Clock, TimedVolume, DIGEST_SEED};
use crate::{devices, per_mib, per_op, recorder, DevTotals, Instance, Opts, Phase};
use obs::Recorder;
use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use std::time::Instant;
use zkv::{ZkvConfig, ZkvStore};

/// Array members.
pub const DEVICES: usize = 5;
/// Value size in bytes.
pub const VALUE: usize = 4000;
/// Reader streams in readwhilewriting.
pub const READERS: usize = 8;

/// Value `ver` of `key`: key and version up front, then a fill byte.
pub fn value(buf: &mut [u8], key: u64, ver: u32) {
    buf.fill((key as u8) ^ (ver as u8) ^ 0xA5);
    buf[..8].copy_from_slice(&key.to_le_bytes());
    buf[8..12].copy_from_slice(&ver.to_le_bytes());
}

/// The store, its probes and the model of what it should hold.
struct Kv {
    store: ZkvStore<TimedVolume<RaiznVolume>>,
    tv: Arc<TimedVolume<RaiznVolume>>,
    rec: Option<Arc<Recorder>>,
    /// Host time inside store calls.
    clock: Clock,
    /// Version of each key's latest put.
    ver: Vec<u32>,
    buf: Vec<u8>,
    want: Vec<u8>,
    /// Compare every byte of every value read (store-mode devices).
    verify: bool,
    digest: u64,
    puts: u64,
    gets: u64,
    errors: Vec<String>,
    put_lat: Vec<u64>,
    get_lat: Vec<u64>,
}

impl Kv {
    /// Wraps a store call in a root span when a recorder is attached.
    fn root<R>(
        &self,
        read: bool,
        at: SimTime,
        f: impl FnOnce() -> zns::Result<(R, SimTime)>,
    ) -> zns::Result<(R, SimTime)> {
        let Some(rec) = &self.rec else {
            return self.clock.time(f);
        };
        let rid = rec.new_span();
        let (r, done) = {
            let _scope = obs::span_scope(rid);
            self.clock.time(f)?
        };
        rec.record(obs::TraceEvent {
            seq: 0,
            op: if read {
                obs::OpClass::Read
            } else {
                obs::OpClass::Write
            },
            stage: obs::Stage::WholeOp,
            path: None,
            device: u32::from(read),
            zone: obs::NONE,
            lba: 0,
            sectors: 0,
            start: at,
            end: done,
            outcome: obs::Outcome::Success,
            span: rid,
            parent: 0,
            blame: obs::Actor::None,
        });
        Ok((r, done))
    }

    fn put(&mut self, at: SimTime, key: u64, measured: bool) -> zns::Result<SimTime> {
        let k = key as usize;
        self.ver[k] += 1;
        value(&mut self.buf, key, self.ver[k]);
        self.digest = crate::probe::mix(self.digest, key << 1);
        let (store, buf) = (&self.store, &self.buf);
        let ((), done) = self.root(false, at, || Ok(((), store.put(at, key, buf)?)))?;
        if measured {
            self.puts += 1;
            self.put_lat.push(done.since(at).as_nanos());
        }
        Ok(done)
    }

    fn get(&mut self, at: SimTime, key: u64) -> zns::Result<SimTime> {
        self.digest = crate::probe::mix(self.digest, key << 1 | 1);
        let store = &self.store;
        let (got, done) = self.root(true, at, || store.get(at, key))?;
        self.gets += 1;
        self.get_lat.push(done.since(at).as_nanos());
        match got {
            None => self.errors.push(format!("get {key}: missing")),
            Some(v) if v.len() != VALUE => self
                .errors
                .push(format!("get {key}: {} bytes, expected {VALUE}", v.len())),
            Some(v) if self.verify => {
                value(&mut self.want, key, self.ver[key as usize]);
                if v != self.want {
                    self.errors
                        .push(format!("get {key}: value differs from the last put"));
                }
            }
            Some(_) => {}
        }
        Ok(done)
    }
}

/// Runs one instance on discard-mode devices.
///
/// # Errors
///
/// Propagates store, volume and device errors.
pub fn run(o: &Opts) -> zns::Result<Instance> {
    run_with(o, false)
}

/// Runs one instance; `store` keeps payload bytes on the devices and
/// compares every value read against the last put of its key.
///
/// # Errors
///
/// Propagates store, volume and device errors.
pub fn run_with(o: &Opts, store: bool) -> zns::Result<Instance> {
    let zones = o.pick(24, 16);
    let zone_sectors = o.pick(4096, 128);
    let keys = o.pick(30_000, 400);
    let overwrites = o.pick(15_000, 800);
    let gets = o.pick(30_000, 1_200);
    let cfg = o.pick(
        ZkvConfig::default(),
        ZkvConfig {
            memtable_bytes: 64 * 1024,
            compaction_trigger: 3,
            wal_zones: 2,
            io_chunk_sectors: 8,
        },
    );

    let setup = Instant::now();
    let rec = o.recorder.then(recorder);
    let devs = devices(DEVICES, zones, zone_sectors, store, rec.as_ref());
    let vol = Arc::new(RaiznVolume::format(
        devs.clone(),
        RaiznConfig::default(),
        SimTime::ZERO,
    )?);
    if let Some(rec) = &rec {
        vol.set_recorder(rec.clone());
    }
    let tv = Arc::new(TimedVolume::new(vol.clone(), o.timing));
    let mut kv = Kv {
        store: ZkvStore::create(tv.clone(), cfg, SimTime::ZERO)?,
        tv,
        rec,
        clock: Clock::new(o.timing),
        ver: vec![0; keys as usize],
        buf: vec![0; VALUE],
        want: vec![0; VALUE],
        verify: store,
        digest: DIGEST_SEED,
        puts: 0,
        gets: 0,
        errors: Vec::new(),
        put_lat: Vec::new(),
        get_lat: Vec::new(),
    };
    let mut rng = SimRng::new(o.seed);
    let mut order: Vec<u64> = (0..keys).collect();
    rng.shuffle(&mut order);
    let mut t = SimTime::ZERO;
    for key in order {
        t = kv.put(t, key, false)?;
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let dev0 = DevTotals::of(&devs);
    let st0 = vol.stats();
    let kv0 = kv.store.stats();
    let v0 = kv.tv.log();
    let clocks0 = (
        kv.clock.ns(),
        kv.tv.total_ns(),
        kv.tv.write_clock.ns(),
        kv.tv.read_clock.ns(),
    );
    let start = t;
    let began = Instant::now();
    for _ in 0..overwrites {
        t = kv.put(t, rng.gen_range(keys), true)?;
    }
    // readwhilewriting: the stream with the earliest frontier acts next;
    // stream 0 writes, the others read.
    let mut frontier = [t; READERS + 1];
    let mut end = t;
    let mut reads_left = gets;
    while reads_left > 0 {
        let (i, at) = frontier
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, f)| f)
            .expect("streams exist");
        let key = rng.gen_range(keys);
        frontier[i] = if i == 0 {
            kv.put(at, key, true)?
        } else {
            reads_left -= 1;
            kv.get(at, key)?
        };
        end = end.max(frontier[i]);
    }
    let measured_ns = began.elapsed().as_nanos() as u64;
    let dev = DevTotals::of(&devs).since(&dev0);
    let st = vol.stats();
    let ks = kv.store.stats();
    let vlog = kv.tv.log();

    let ops = kv.puts + kv.gets;
    let put_bytes = kv.puts * VALUE as u64;
    let mut inst = Instance {
        setup_s,
        measured_s: measured_ns as f64 / 1e9,
        ops,
        attempted: kv.puts + gets,
        digest: kv.digest,
        errors: std::mem::take(&mut kv.errors),
        ..Instance::default()
    };
    inst.expect_eq("zkv puts", ks.puts - kv0.puts, kv.puts);
    inst.expect_eq("zkv gets", ks.gets - kv0.gets, gets);
    inst.expect_eq(
        "volume appends (one WAL record per put)",
        vlog.appends - v0.appends,
        kv.puts,
    );

    let phase = Phase {
        sim_ns: end.since(start).as_nanos(),
        read_bytes: gets * VALUE as u64,
        write_bytes: put_bytes,
        device_written_bytes: dev.programmed_bytes(),
        read_lat: std::mem::take(&mut kv.get_lat),
        write_lat: std::mem::take(&mut kv.put_lat),
    };
    inst.end_to_end(phase);
    inst.zns_counts(&dev);
    let s = &mut inst.sim;
    s.insert("workloads.peak_inflight", (READERS + 1) as f64);
    s.insert(
        "raizn.full_parity_writes",
        (st.full_parity_writes - st0.full_parity_writes) as f64,
    );
    s.insert(
        "raizn.pp_log_bytes_per_user_byte",
        (st.pp_log_bytes - st0.pp_log_bytes) as f64 / put_bytes as f64,
    );
    s.insert("raizn.md_appends", (st.md_appends - st0.md_appends) as f64);
    s.insert(
        "raizn.persistence_flushes",
        (st.persistence_flushes - st0.persistence_flushes) as f64,
    );
    s.insert(
        "zkv.compaction_bytes_per_put_byte",
        (ks.compaction_bytes_read - kv0.compaction_bytes_read) as f64 / put_bytes as f64,
    );
    s.insert("zkv.compactions", (ks.compactions - kv0.compactions) as f64);
    if let Some(rec) = &kv.rec {
        inst.blame(rec);
    }
    if o.timing {
        let store_ns = kv.clock.ns() - clocks0.0;
        let volume_ns = kv.tv.total_ns() - clocks0.1;
        let h = &mut inst.host;
        h.insert(
            "workloads.self_ns_per_op",
            per_op(measured_ns - store_ns, ops),
        );
        h.insert("zkv.self_ns_per_op", per_op(store_ns - volume_ns, ops));
        h.insert("zkv.volume_ns_per_op", per_op(volume_ns, ops));
        h.insert(
            "raizn.write_ns_per_mib",
            per_mib(
                kv.tv.write_clock.ns() - clocks0.2,
                vlog.write_bytes - v0.write_bytes,
            ),
        );
        h.insert(
            "raizn.read_ns_per_mib",
            per_mib(
                kv.tv.read_clock.ns() - clocks0.3,
                vlog.read_bytes - v0.read_bytes,
            ),
        );
    }
    Ok(inst)
}
