//! `fncc-bench` — criterion benchmarks, one per paper table/figure plus
//! backend microbenchmarks. See `benches/`; the per-layer engine
//! microbenchmarks (scheduler churn, switch forward, topology build) are
//! the repo benchmark's, in `perfbench/src/micro.rs`.
//!
//! The benches measure the *simulator's* wall-clock cost on deterministic,
//! scaled-down variants of each figure's scenario; the figure *series*
//! themselves are regenerated by the `fncc-repro` binary.
