#![warn(missing_docs)]
//! `fncc-perfbench` — the repo benchmark behind `BENCHMARK.json`.
//!
//! The `fncc-bench` binary drives the public `Scenario::from_json` →
//! `Backend::run` → `RunReport` path exactly as `fncc-repro run` does, on
//! five workloads over the three backends ([`workloads`]). One invocation
//! ([`harness`]) is: timed set-up → one untimed warm-up repetition → timed
//! in-process repetitions of the same scenario and seed → correctness
//! checks → the four end-to-end metrics of [`spec::END_TO_END`], host times
//! taken by the [`clock`] probe at the core's nominal clock. A traced
//! invocation ([`layers`]) reports the per-layer metrics of
//! [`spec::per_layer`] instead: counts read off the reports plus the
//! [`micro`] drivers, every call into a layer inside a [`trace`] span.
//! [`compare`] holds two sets of invocations against the bounds, and their
//! simulated results for one seed against each other.
//!
//! `README.md` beside this crate has the metric glossary, the table of
//! which layer metric should move which end-to-end metric on which
//! workload, the noise measurements behind the choice of estimators
//! ([`stats`]), and the first baseline.

pub mod clock;
pub mod compare;
pub mod harness;
pub mod layers;
pub mod micro;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
