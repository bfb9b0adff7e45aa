//! # ones-evo — the online evolutionary search (§3.2)
//!
//! The heart of ONES: a population of candidate schedules (genomes, one
//! `(job, local batch)` slot per GPU — Figure 1) evolved continuously
//! against live cluster state.
//!
//! * [`context`] — [`context::EvoContext`]: everything a generation needs
//!   (job telemetry, batch-size limits `R_j`, Beta progress predictions,
//!   the throughput model) plus shared helpers for batch assignment and
//!   SRUF utilisation estimates.
//! * [`scoring`] — Eq 8 candidate scores and Algorithm 1 probability
//!   sampling: one ρ-sample per job per iteration, shared by every
//!   candidate, smallest score wins.
//! * [`ops`] — the four evolution operations of §3.2.2: *refresh*
//!   (reconcile with live state, free finished GPUs, scale down
//!   over-limit jobs, place new arrivals, fill idle GPUs), *uniform
//!   crossover* (Figure 8), *uniform mutation* (Figure 9) and *reorder*
//!   (Figure 10).
//! * [`search`] — the generation loop of Figure 5: derive `G'_i` from
//!   `G_i`, select the top-K into `G_{i+1}`, surface the best candidate
//!   `S_*`.
//!
//! Candidate derivation (crossover, mutation and legalisation) and the
//! refresh of every member always run on rayon, with no population-size
//! threshold; scoring is a sequential merge of score cards.
//!
//! Three exact accelerations make up the one scoring path (see [`cache`]
//! and the determinism notes in [`search`]): a search-scoped
//! [`ThroughputCache`] memoising the pure `(job, placement shape,
//! batches) → X_j` evaluations across generations (with per-job
//! invalidation on job events), parallel candidate derivation on
//! per-child forked RNG streams, and delta scoring — every op reports the
//! jobs it touched, and each candidate's [`scoring::ScoreCard`] is derived
//! from its parent's by re-resolving only those. The test suite checks
//! every stored card against a from-scratch, uncached rescore; the work
//! saved is observable through [`EvoPerfCounters`].

pub mod cache;
pub mod context;
pub mod ops;
pub mod perfcounters;
pub mod scoring;
pub mod search;

pub use cache::ThroughputCache;
pub use context::EvoContext;
pub use perfcounters::EvoPerfCounters;
pub use scoring::{
    remaining_workloads, sample_rhos, score_schedule, RemainingWorkloads, ScoreCard,
};
pub use search::{EvoConfig, EvolutionarySearch};
