//! Virtual-time simulation substrate for the RAIZN reproduction.
//!
//! The entire IO stack in this repository runs on a *virtual clock*: devices
//! compute, for each request, the [`SimTime`] at which it completes, and the
//! workload engine advances time by tracking in-flight completions. This
//! makes every experiment deterministic and lets crash tests inject power
//! loss at exact instants.
//!
//! This crate provides the shared building blocks:
//!
//! - [`SimTime`] / [`SimDuration`]: nanosecond-resolution virtual time.
//! - [`ChannelModel`]: a channel-parallel service-time model that turns
//!   byte counts into completion times, approximating the internal
//!   parallelism of an SSD.
//! - [`OccupancyModel`]: the lock-free discrete-event generalization with
//!   per-channel/way/plane `next_avail_time`, shareable across worker
//!   threads without a device mutex.
//! - [`Histogram`]: a log-linear latency histogram with percentile queries
//!   (an HdrHistogram-style structure, sufficient for p50/p99/p99.9).
//! - [`Timeseries`]: a throughput sampler for timeseries plots (Fig. 10).
//! - [`SimRng`]: a deterministic, seedable RNG wrapper.
//! - [`xor`]: word-vectorized XOR/zero-check kernels shared by every
//!   parity hot path (stripe fill, reconstruction, rebuild, mdraid5).
//! - [`gf`]: blocked GF(2^8) Reed–Solomon kernels for the dual (P+Q)
//!   parity mode: one-pass Horner syndromes and a one-output erasure
//!   decode.
//!
//! # Examples
//!
//! ```
//! use sim::{ChannelModel, SimTime, SimDuration};
//!
//! // A device with 8 channels, 10 us fixed cost plus 1 us per 4 KiB.
//! let mut m = ChannelModel::new(8, SimDuration::from_micros(10),
//!                               SimDuration::from_nanos(1000), 4096);
//! let t0 = SimTime::ZERO;
//! let done = m.service(t0, 4096);
//! assert!(done > t0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gf;
mod histogram;
mod latency;
mod occupancy;
mod rng;
mod series;
mod stats;
mod time;
pub mod xor;

pub use gf::{gf_inv, gf_mul, gf_mul_into, gf_pow, gf_pq_into};
pub use histogram::Histogram;
pub use latency::ChannelModel;
pub use occupancy::{OccupancyModel, Occupied};
pub use rng::SimRng;
pub use series::{Timeseries, TimeseriesPoint};
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
pub use xor::{is_zero, xor_fold, xor_into};
