#![warn(missing_docs)]
//! `fncc-des` — a small, fast, deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the FNCC reproduction: everything above it
//! (links, switches, hosts, congestion control) is expressed as a [`Model`]
//! that consumes timestamped events from a central event heap.
//!
//! Design points:
//!
//! * **Integer picosecond time** ([`SimTime`], [`TimeDelta`]): at 400 Gb/s a
//!   byte serializes in 20 ps, so picoseconds keep link arithmetic exact and
//!   deterministic across platforms (no floating-point time).
//! * **Monomorphised engine**: [`Engine`] is generic over the model and its
//!   event type — no trait objects or boxing in the hot dispatch loop.
//! * **Strict determinism**: ties in the heap are broken by insertion
//!   sequence number, and all randomness flows through seeded [`rng`]
//!   streams, so a run is a pure function of its configuration.
//! * **Reusable statistics** ([`stats`]): time series, sample
//!   percentiles, rate meters and Jain's fairness index used by the metric
//!   collectors in `fncc-core`.

pub mod engine;
pub mod output;
pub mod rng;
pub mod stats;
pub mod time;
mod wheel;

pub use engine::{Engine, Model, QueueKind, RunOutcome, Scheduler};
pub use rng::{splitmix64, DetRng};
pub use time::{SimTime, TimeDelta};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::engine::{Engine, Model, RunOutcome, Scheduler};
    pub use crate::rng::{splitmix64, DetRng};
    pub use crate::time::{SimTime, TimeDelta};
}
