#![warn(missing_docs)]
//! `fncc-obs` — the flight-recorder observability layer.
//!
//! This crate sits *below* every simulation crate (it depends on nothing,
//! not even `fncc-des`), so the engine, the fabric, the transport and the
//! fluid solver can all share one instrumentation vocabulary:
//!
//! * [`trace`] — a ring-buffered recorder of typed simulation events
//!   ([`TraceSink`]). The hot path pays a single predictable branch when
//!   tracing is off; when on, events land in a fixed-capacity flight
//!   recorder that drains to the versioned `fncc.trace/v1` JSONL artifact.
//! * [`metrics`] — a [`MetricsRegistry`] of named counters and log-linear
//!   HDR-style [`Histogram`]s, the uniform export path behind the
//!   `RunReport` metric scalars of both backends.
//! * [`profile`] — scoped wall-clock [`Profiler`] spans over engine phases
//!   (scheduler pop, dispatch, fluid solve, report build). Wall-clock
//!   readings are non-deterministic, so spans are off unless explicitly
//!   enabled (`FNCC_PROFILE=1`) and never feed deterministic artifacts.
//!
//! Timestamps cross this crate's API as raw picosecond `u64`s and ids as
//! raw `u32`s: depending on `fncc_des::SimTime` or the id newtypes would
//! invert the crate ordering.

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{CounterId, HistId, Histogram, MetricsRegistry};
pub use profile::{PhaseId, Profiler};
pub use trace::{TraceEvent, TraceMeta, TraceSink, TraceValue, TRACE_SCHEMA};
