//! The benchmark's determinism contract: one seed gives one op stream and
//! bit-identical simulated results, whatever is measured on the host;
//! another seed gives another op stream. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! `ls-overwrite` is checked by its own test, marked as a known failure:
//! lsraid's small test instance does not finish (its GC spins on the
//! small full array) and its metadata rotation can panic. Run it with
//! `-- --ignored`; it fails until lsraid is fixed (see `NOTES.md`).

use perfbench::{replay, Instance, Opts, Workload};
use std::sync::mpsc;
use std::time::Duration;

fn small(seed: u64) -> Opts {
    Opts {
        seed,
        timing: false,
        recorder: false,
        small: true,
    }
}

fn run(w: Workload, o: &Opts) -> Instance {
    let inst = w
        .run(o)
        .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
    assert!(inst.errors.is_empty(), "{}: {:?}", w.name(), inst.errors);
    inst
}

/// Simulated results bit for bit, blame aside (it exists only with a
/// recorder).
fn sim_bits(inst: &Instance) -> Vec<(&'static str, u64)> {
    inst.sim
        .iter()
        .filter(|(k, _)| !k.starts_with("obs.blame."))
        .map(|(k, v)| (*k, v.to_bits()))
        .collect()
}

fn one_seed_repeats(w: Workload) {
    let a = run(w, &small(7));
    let b = run(w, &small(7));
    assert_eq!(a.digest, b.digest, "{}: op stream differs", w.name());
    assert_eq!(sim_bits(&a), sim_bits(&b), "{}: results differ", w.name());
    assert!(a.sim.contains_key("waf"), "{}: no waf", w.name());
}

fn another_seed_changes(w: Workload) {
    let a = run(w, &small(7));
    let c = run(w, &small(8));
    assert_ne!(a.digest, c.digest, "{}: seed ignored", w.name());
}

fn clocks_leave_results_alone(w: Workload) {
    let plain = run(w, &small(5));
    let traced = run(
        w,
        &Opts {
            timing: true,
            recorder: true,
            ..small(5)
        },
    );
    assert_eq!(sim_bits(&plain), sim_bits(&traced), "{}", w.name());
    assert!(
        traced.host.contains_key("workloads.self_ns_per_op"),
        "{}: no host split",
        w.name()
    );
    assert!(
        traced.sim.contains_key("obs.blame.device_service_pct"),
        "{}: no blame",
        w.name()
    );
}

fn replay_reads_back(w: Workload) {
    let errors = replay::check(w, 3).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert!(errors.is_empty(), "{}: {errors:?}", w.name());
}

#[test]
fn one_seed_repeats_bit_for_bit() {
    Workload::LISTED.into_iter().for_each(one_seed_repeats);
}

#[test]
fn another_seed_changes_the_op_stream() {
    Workload::LISTED.into_iter().for_each(another_seed_changes);
}

#[test]
fn host_clocks_and_recorder_leave_simulated_results_alone() {
    Workload::LISTED
        .into_iter()
        .for_each(clocks_leave_results_alone);
}

#[test]
fn replays_read_back_every_byte() {
    Workload::LISTED.into_iter().for_each(replay_reads_back);
}

/// Runs `f` on its own thread and fails unless it returns within
/// `secs`; a test that spins forever would otherwise never report.
fn within(secs: u64, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("did not finish within {secs} s"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("failed (see the panic above)"),
    }
}

#[test]
#[ignore = "known lsraid defects: GC spins on the small full array, metadata rotation re-enters pad_seal"]
fn ls_overwrite_repeats_and_reads_back() {
    within(120, || {
        let w = Workload::LsOverwrite;
        one_seed_repeats(w);
        another_seed_changes(w);
        clocks_leave_results_alone(w);
        replay_reads_back(w);
    });
}
