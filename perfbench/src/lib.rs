//! One benchmark for the whole stack: four workloads over the public API
//! of `raizn`, `lsraid`, `qos`, `workloads`, `zkv`, `zns` and `obs`.
//!
//! A workload runs as *instances*. An instance builds its array from
//! scratch (set-up: format, prime, age), runs a fixed, seed-generated op
//! stream (the measured phase) and checks the counts every layer reports
//! against the ops it issued. The same seed gives the same op stream, so
//! every simulated result of an instance — latencies, bytes, device
//! counters, blame — repeats bit for bit; only host times vary. The
//! binary (`src/main.rs`) repeats instances for a fixed host time over
//! several processes and aggregates them.
//!
//! See `NOTES.md` for the layer × workload matrix and what each metric
//! should move.

pub mod kv;
pub mod lsow;
pub mod probe;
pub mod raid6;
pub mod replay;
pub mod tenant;

use obs::Recorder;
use sim::SimDuration;
use std::collections::BTreeMap;
use std::sync::Arc;
use zns::{LatencyConfig, ZnsConfig, ZnsDevice, SECTOR_SIZE};

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// End-to-end metrics (`--trace 0`) with their units. Simulated times
/// carry the unit `sim_us`: virtual microseconds of the device model,
/// deterministic per seed, not host time.
pub const END_TO_END: [(&str, &str); 10] = [
    ("host_ops_s", "ops/s"),
    ("sim_mib_s", "MiB/s"),
    ("sim_read_p50_us", "sim_us"),
    ("sim_read_p99_us", "sim_us"),
    ("sim_write_p50_us", "sim_us"),
    ("sim_write_p99_us", "sim_us"),
    ("waf", "ratio"),
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("completed_op_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`) with their units. A layer a workload
/// does not run reports 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("workloads.self_ns_per_op", "ns/op"),
    ("workloads.peak_inflight", "count"),
    ("workloads.read_samples", "count"),
    ("workloads.write_samples", "count"),
    ("qos.self_ns_per_op", "ns/op"),
    ("qos.queue_wait_p99_us", "sim_us"),
    ("qos.coalesce_ratio", "ratio"),
    ("qos.shed_frac", "ratio"),
    ("raizn.write_ns_per_mib", "ns/MiB"),
    ("raizn.read_ns_per_mib", "ns/MiB"),
    ("raizn.q_parity_writes", "count"),
    ("raizn.double_degraded_reads", "count"),
    ("raizn.full_parity_writes", "count"),
    ("raizn.pp_log_bytes_per_user_byte", "ratio"),
    ("raizn.md_appends", "count"),
    ("raizn.persistence_flushes", "count"),
    ("zkv.self_ns_per_op", "ns/op"),
    ("zkv.volume_ns_per_op", "ns/op"),
    ("zkv.compaction_bytes_per_put_byte", "ratio"),
    ("zkv.compactions", "count"),
    ("zns.write_ops", "count"),
    ("zns.read_ops", "count"),
    ("zns.flushes", "count"),
    ("zns.zone_resets", "count"),
    ("zns.finish_fill_sectors", "count"),
    ("zns.device_wait_ms", "sim_ms"),
    ("obs.overhead_pct", "%"),
    ("obs.blame.queue_pct", "%"),
    ("obs.blame.lock_pct", "%"),
    ("obs.blame.device_wait_pct", "%"),
    ("obs.blame.device_service_pct", "%"),
    ("obs.blame.xor_gf_pct", "%"),
    ("obs.blame.meta_pct", "%"),
    ("obs.blame.flush_pct", "%"),
    ("obs.blame.interference_gc_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metrics of lsraid, which only `ls-overwrite` runs; its
/// traced run prints them after [`PER_LAYER`].
pub const LSRAID_LAYER: [(&str, &str); 7] = [
    ("lsraid.write_ns_per_op", "ns/op"),
    ("lsraid.gc_pump_ns_per_op", "ns/op"),
    ("lsraid.migrated_per_user", "ratio"),
    ("lsraid.pad_per_user", "ratio"),
    ("lsraid.group_reclaims", "count"),
    ("lsraid.emergency_reclaims", "count"),
    ("lsraid.meta_rotations", "count"),
];

/// The static name of metric `name`, if it is one of the benchmark's.
pub fn metric_name(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(LSRAID_LAYER.iter())
        .map(|(n, _)| *n)
        .find(|n| *n == name)
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RAIZN-2 full-stripe writes, then double-degraded random reads.
    Raid6Degraded,
    /// Two QoS tenants (random 4 KiB reads, coalesced 16 KiB writes) on
    /// RAIZN with an obs recorder attached.
    TenantMix,
    /// Skewed 64 KiB overwrites on a full lsraid volume with GC running
    /// as an internal QoS tenant.
    LsOverwrite,
    /// zkv overwrite then readwhilewriting on RAIZN.
    KvRww,
}

impl Workload {
    /// The workloads `BENCHMARK.json` lists, in its order.
    pub const LISTED: [Workload; 3] = [
        Workload::Raid6Degraded,
        Workload::TenantMix,
        Workload::KvRww,
    ];

    /// Every workload: the listed ones and `ls-overwrite`, which runs
    /// but is not listed because lsraid fails its checks (`NOTES.md`).
    pub const ALL: [Workload; 4] = [
        Workload::Raid6Degraded,
        Workload::TenantMix,
        Workload::KvRww,
        Workload::LsOverwrite,
    ];

    /// The per-layer metrics a traced run of the workload prints.
    pub fn per_layer(self) -> impl Iterator<Item = (&'static str, &'static str)> {
        let lsraid: &[(&str, &str)] = if self == Workload::LsOverwrite {
            &LSRAID_LAYER
        } else {
            &[]
        };
        PER_LAYER.into_iter().chain(lsraid.iter().copied())
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Raid6Degraded => "raid6-degraded",
            Workload::TenantMix => "tenant-mix",
            Workload::LsOverwrite => "ls-overwrite",
            Workload::KvRww => "kv-rww",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed instances carry an obs recorder (only
    /// `tenant-mix` does, the way the scenario binaries attach one).
    pub fn records_by_default(self) -> bool {
        self == Workload::TenantMix
    }

    /// Runs one instance.
    ///
    /// # Errors
    ///
    /// Propagates the first IO error of any layer; count mismatches are
    /// reported in [`Instance::errors`] instead.
    pub fn run(self, opts: &Opts) -> zns::Result<Instance> {
        match self {
            Workload::Raid6Degraded => raid6::run(opts),
            Workload::TenantMix => tenant::run(opts),
            Workload::LsOverwrite => lsow::run(opts),
            Workload::KvRww => kv::run(opts),
        }
    }
}

/// How one instance runs.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed of every op stream in the instance.
    pub seed: u64,
    /// Time the calls into each layer (the traced run).
    pub timing: bool,
    /// Attach an obs recorder with span tracing to every layer.
    pub recorder: bool,
    /// Use the test-sized op counts and arrays.
    pub small: bool,
}

impl Opts {
    /// Default options of a timed instance of `w` at `seed`.
    pub fn timed(w: Workload, seed: u64) -> Opts {
        Opts {
            seed,
            timing: false,
            recorder: w.records_by_default(),
            small: false,
        }
    }

    /// Picks the full-size or the test-size value.
    pub fn pick<T>(&self, full: T, small: T) -> T {
        if self.small {
            small
        } else {
            full
        }
    }
}

/// What one instance yields.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    /// Host seconds spent on set-up (format, prime, age).
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub measured_s: f64,
    /// Ops completed in the measured phase.
    pub ops: u64,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Deterministic results: the `sim_*` metrics, `waf` and every
    /// per-layer count. Identical for one seed.
    pub sim: BTreeMap<&'static str, f64>,
    /// Per-layer host times (filled only with [`Opts::timing`]).
    pub host: BTreeMap<&'static str, f64>,
    /// Output-check failures.
    pub errors: Vec<String>,
    /// Digest of the measured op stream at the generator's boundary.
    pub digest: u64,
}

impl Instance {
    /// Records a failed check unless `got == want`.
    pub fn expect_eq(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.errors
                .push(format!("{what}: got {got}, expected {want}"));
        }
    }

    /// Records a failed check unless `ok`.
    pub fn expect(&mut self, what: &str, ok: bool) {
        if !ok {
            self.errors.push(what.to_string());
        }
    }

    /// Fills the end-to-end simulated metrics of the measured phase.
    pub fn end_to_end(&mut self, mut p: Phase) {
        let secs = p.sim_ns as f64 / 1e9;
        self.sim.insert(
            "sim_mib_s",
            (p.read_bytes + p.write_bytes) as f64 / MIB / secs,
        );
        let (read, write) = (&mut p.read_lat, &mut p.write_lat);
        self.sim
            .insert("sim_read_p50_us", percentile_us(read, 50.0));
        self.sim
            .insert("sim_read_p99_us", percentile_us(read, 99.0));
        self.sim
            .insert("sim_write_p50_us", percentile_us(write, 50.0));
        self.sim
            .insert("sim_write_p99_us", percentile_us(write, 99.0));
        self.sim.insert("workloads.read_samples", read.len() as f64);
        self.sim
            .insert("workloads.write_samples", write.len() as f64);
        self.sim
            .insert("waf", p.device_written_bytes as f64 / p.write_bytes as f64);
    }

    /// Fills the `zns.*` counts from device-counter deltas.
    pub fn zns_counts(&mut self, d: &DevTotals) {
        self.sim.insert("zns.write_ops", d.writes as f64);
        self.sim.insert("zns.read_ops", d.reads as f64);
        self.sim.insert("zns.flushes", d.flushes as f64);
        self.sim.insert("zns.zone_resets", d.zone_resets as f64);
        self.sim
            .insert("zns.finish_fill_sectors", d.finish_fill_sectors as f64);
        self.sim
            .insert("zns.device_wait_ms", d.device_wait_ns as f64 / 1e6);
    }

    /// Fills `obs.blame.<category>_pct` from a recorder's blame table.
    pub fn blame(&mut self, rec: &Recorder) {
        for (name, pct) in blame_pcts(rec) {
            self.sim.insert(name, pct);
        }
    }
}

/// User-visible totals of a measured phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Simulated duration of the phase in ns.
    pub sim_ns: u64,
    /// User bytes read.
    pub read_bytes: u64,
    /// User bytes written.
    pub write_bytes: u64,
    /// Bytes programmed by all devices (host writes plus finish fill).
    pub device_written_bytes: u64,
    /// Simulated read (or get) latencies in ns.
    pub read_lat: Vec<u64>,
    /// Simulated write (or put) latencies in ns.
    pub write_lat: Vec<u64>,
}

/// Nearest-rank percentile of `v` (sorted in place), in microseconds.
pub fn percentile_us(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64 / 1e3
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `n` ZNS devices of `zones` zones of `zone_sectors` sectors with
/// ZN540-like timing. `store` keeps payload bytes (the replay checks);
/// otherwise devices discard data and read zeros, as the scenario
/// binaries run them.
pub fn devices(
    n: usize,
    zones: u32,
    zone_sectors: u64,
    store: bool,
    rec: Option<&Arc<Recorder>>,
) -> Vec<Arc<ZnsDevice>> {
    (0..n)
        .map(|i| {
            let dev = Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(zones, zone_sectors, zone_sectors)
                    .open_limits(14, 28)
                    .latency(LatencyConfig::zns_ssd())
                    .store_data(store)
                    .build(),
            ));
            if let Some(rec) = rec {
                dev.set_recorder(rec.clone(), i as u32);
            }
            dev
        })
        .collect()
}

/// The recorder a scenario binary attaches: a sampled event ring, 100 ms
/// tumbling windows and causal span tracing.
pub fn recorder() -> Arc<Recorder> {
    let rec = Recorder::new(65_536, 16);
    rec.enable_windows(SimDuration::from_millis(100), 8192);
    rec.enable_spans(obs::SpanConfig::default());
    rec
}

/// Blame categories reported, with their metric names.
pub const BLAME: [(&str, &str); 8] = [
    ("queue", "obs.blame.queue_pct"),
    ("lock", "obs.blame.lock_pct"),
    ("device_wait", "obs.blame.device_wait_pct"),
    ("device_service", "obs.blame.device_service_pct"),
    ("xor_gf", "obs.blame.xor_gf_pct"),
    ("meta", "obs.blame.meta_pct"),
    ("flush", "obs.blame.flush_pct"),
    ("interference_gc", "obs.blame.interference_gc_pct"),
];

/// Share of all root latency blamed on each reported category, in %.
pub fn blame_pcts(rec: &Recorder) -> Vec<(&'static str, f64)> {
    let rows = rec.blame_rows();
    let total: u64 = rows.iter().map(|r| r.total_ns).sum();
    BLAME
        .iter()
        .map(|&(cat, name)| {
            let k = obs::span::BLAME_CATEGORIES
                .iter()
                .position(|c| *c == cat)
                .expect("reported blame category exists");
            let ns: u64 = rows.iter().map(|r| r.categories[k]).sum();
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * ns as f64 / total as f64
            };
            (name, pct)
        })
        .collect()
}

/// Device counters summed over an array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevTotals {
    /// Write and append commands.
    pub writes: u64,
    /// Read commands.
    pub reads: u64,
    /// Flush commands.
    pub flushes: u64,
    /// Zone resets.
    pub zone_resets: u64,
    /// Sectors written by the host.
    pub sectors_written: u64,
    /// Padding sectors programmed by zone finishes.
    pub finish_fill_sectors: u64,
    /// Virtual ns commands waited for busy flash units.
    pub device_wait_ns: u64,
}

impl DevTotals {
    /// Sums the counters of `devs`.
    pub fn of(devs: &[Arc<ZnsDevice>]) -> DevTotals {
        let mut t = DevTotals::default();
        for d in devs {
            let s = d.stats();
            t.writes += s.writes;
            t.reads += s.reads;
            t.flushes += s.flushes;
            t.zone_resets += s.zone_resets;
            t.sectors_written += s.sectors_written;
            t.finish_fill_sectors += s.finish_fill_sectors;
            t.device_wait_ns += s.device_wait_ns;
        }
        t
    }

    /// Counter growth since `before`.
    pub fn since(&self, before: &DevTotals) -> DevTotals {
        DevTotals {
            writes: self.writes - before.writes,
            reads: self.reads - before.reads,
            flushes: self.flushes - before.flushes,
            zone_resets: self.zone_resets - before.zone_resets,
            sectors_written: self.sectors_written - before.sectors_written,
            finish_fill_sectors: self.finish_fill_sectors - before.finish_fill_sectors,
            device_wait_ns: self.device_wait_ns - before.device_wait_ns,
        }
    }

    /// Bytes programmed: host writes plus finish fill.
    pub fn programmed_bytes(&self) -> u64 {
        (self.sectors_written + self.finish_fill_sectors) * SECTOR_SIZE
    }
}

/// Per-op host nanoseconds, or 0 without ops.
pub fn per_op(ns: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        ns as f64 / ops as f64
    }
}

/// Host nanoseconds per MiB moved, or 0 without bytes.
pub fn per_mib(ns: u64, bytes: u64) -> f64 {
    if bytes == 0 {
        0.0
    } else {
        ns as f64 / (bytes as f64 / MIB)
    }
}
