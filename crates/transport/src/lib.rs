#![warn(missing_docs)]
//! `fncc-transport` — the RDMA-like host model.
//!
//! Implements [`fncc_net::fabric::HostLogic`] for every end host:
//!
//! * **Sender** ([`host::DcHost`]): per-flow (per-QP) congestion-control
//!   state from `fncc-cc`, window enforcement over in-flight payload bytes,
//!   rate pacing, MTU segmentation, and DCQCN's timer ticks.
//! * **Receiver**: per-flow reassembly state, (cumulative) ACK generation —
//!   including the FNCC receiver's concurrent-flow count `N` (Observation 4
//!   / §3.2.3) and the RoCC fair-rate echo — plus DCQCN CNP generation paced
//!   at one per 50 µs per flow.
//! * **Flow lifecycle**: registration, start timers, completion recording
//!   (last payload byte delivered → FCT in `Telemetry`).
//! * **Loss recovery** (optional, [`config::RecoveryConfig`]): go-back-N
//!   retransmission with a per-flow RTO timer and exponential backoff, for
//!   scenarios that inject link faults or random loss.
//!
//! Without recovery enabled, delivery within a flow is in order by
//! construction (symmetric single-path routing, FIFO queues, lossless PFC),
//! so reassembly is cumulative.

pub mod config;
pub mod flow;
pub mod host;
pub mod scheme;

pub use config::{RecoveryConfig, TransportConfig};
pub use flow::FlowSpec;
pub use host::{DcHost, HostTimer};
pub use scheme::apply_cc_features;
