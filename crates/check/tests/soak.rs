//! Randomized-schedule soaks over the three protocol models.
//!
//! Two tiers:
//!
//! * The `*_soak_slice` tests run 10,000 fixed-seed schedules per
//!   model — fast enough for every CI run, deterministic by
//!   construction (the explorer's PRNG is seeded, never wall-clock).
//! * The `#[ignore]`d `*_soak_long` tests are the overnight knob:
//!   `FASTMATCH_CHECK_ITERS=1000000 cargo test -q -p fastmatch-check
//!   -- --ignored soak` runs that many schedules per model (default
//!   200,000 when the variable is unset). On a violation the failing
//!   schedule is shrunk and printed step by step.
//!
//! Soaks use *larger* scopes than the exhaustive unit tests — more
//! workers, more rounds, more tasks — trading completeness for reach.

use fastmatch_check::explorer::{Explorer, Model};
use fastmatch_check::models::{AdmissionSteal, LiveLifecycle, WalRecovery};

/// Fixed seed for the CI slices; the long soaks perturb it per chunk.
const SEED: u64 = 0xfa57_4a7c_0dec_0de5;

/// Schedules per model in the CI slice tier.
const SLICE: usize = 10_000;

/// Schedules per model in the long tier, unless
/// `FASTMATCH_CHECK_ITERS` overrides it.
fn long_iters() -> usize {
    std::env::var("FASTMATCH_CHECK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000)
}

/// Runs `iters` schedules in seed-perturbed chunks so a violation
/// report names the chunk seed that reproduces it standalone.
fn soak<M: Model>(model: M, iters: usize) {
    let explorer = Explorer::new(model);
    let chunk = 10_000;
    let mut left = iters;
    let mut chunk_no = 0u64;
    while left > 0 {
        let seed = SEED.wrapping_add(chunk_no.wrapping_mul(0x9e37_79b9));
        let n = left.min(chunk);
        let stats = explorer
            .walk(seed, n)
            .unwrap_or_else(|f| panic!("soak seed {seed:#x}:\n{f}"));
        assert_eq!(stats.schedules, n);
        left -= n;
        chunk_no += 1;
    }
}

/// Soak scopes: bigger than the exhaustive unit-test scopes.
fn admission_steal() -> AdmissionSteal {
    AdmissionSteal::new(3, &[2, 1, 3, 1], 3)
}

fn live_lifecycle() -> LiveLifecycle {
    LiveLifecycle::new(8, 2, 3, 2)
}

fn wal_recovery() -> WalRecovery {
    WalRecovery::new(9, 2)
}

#[test]
fn admission_steal_soak_slice() {
    soak(admission_steal(), SLICE);
}

#[test]
fn live_lifecycle_soak_slice() {
    soak(live_lifecycle(), SLICE);
}

#[test]
fn wal_recovery_soak_slice() {
    soak(wal_recovery(), SLICE);
}

#[test]
#[ignore = "long soak; run with --ignored, scale with FASTMATCH_CHECK_ITERS"]
fn admission_steal_soak_long() {
    soak(admission_steal(), long_iters());
}

#[test]
#[ignore = "long soak; run with --ignored, scale with FASTMATCH_CHECK_ITERS"]
fn live_lifecycle_soak_long() {
    soak(live_lifecycle(), long_iters());
}

#[test]
#[ignore = "long soak; run with --ignored, scale with FASTMATCH_CHECK_ITERS"]
fn wal_recovery_soak_long() {
    soak(wal_recovery(), long_iters());
}
