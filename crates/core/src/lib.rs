//! # fastmatch-core
//!
//! A from-scratch Rust implementation of **HistSim**, the probabilistic
//! top-k histogram-matching algorithm from *"Adaptive Sampling for Rapidly
//! Matching Histograms"* (Macke, Zhang, Huang, Parameswaran — VLDB 2018).
//!
//! Given a *visual target* histogram `q` and a large family of *candidate*
//! histograms (one per value of a candidate attribute `Z`, each a vector of
//! per-group counts over a grouping attribute `X`), HistSim identifies the
//! `k` candidates whose **normalized** histograms are closest to `q` under
//! ℓ1 distance, by sampling tuples rather than scanning all data, while
//! enforcing two probabilistic guarantees (with probability `> 1 − δ`):
//!
//! * **Separation (Guarantee 1)** — any true top-k candidate of selectivity
//!   at least `σ` that is missing from the output is less than `ε` closer to
//!   the target than the furthest reported candidate;
//! * **Reconstruction (Guarantee 2)** — every reported histogram is within
//!   ℓ1 distance `ε` of its exact counterpart.
//!
//! The algorithm runs in three stages (paper §3.1):
//!
//! 1. **Prune rare candidates** with a hypergeometric underrepresentation
//!    test combined through a Holm–Bonferroni procedure ([`stats::hypergeometric`],
//!    [`stats::holm_bonferroni`]);
//! 2. **Identify the top-k** through rounds of fresh sampling and an
//!    all-or-nothing simultaneous hypothesis test built on the ℓ1 deviation
//!    bound of Theorem 1 ([`stats::deviation`], [`stats::simultaneous`]);
//! 3. **Reconstruct the top-k** by topping samples up to the Theorem 1
//!    sample-complexity bound.
//!
//! The implementation here is *sans-I/O*: [`histsim::HistSim`] is a state
//! machine that tells its driver what samples it needs (a [`histsim::Demand`])
//! and consumes whatever samples the driver provides. Storage, block
//! selection policies and threading live in the companion crates
//! `fastmatch-store` and `fastmatch-engine`; a simple in-memory driver for
//! tests and examples is provided in [`sampler`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod distance;
pub mod error;
pub mod guarantees;
pub mod histogram;
pub mod histsim;
pub mod sampler;
pub mod stats;
pub mod topk;

pub use distance::Metric;
pub use error::{CoreError, Result};
pub use histogram::Histogram;
pub use histsim::{
    Demand, HistAccumulator, HistSim, HistSimConfig, HistSimOutput, MatchedCandidate, PhaseKind,
    RarePruning,
};
pub use sampler::{MemorySampler, Sample};
