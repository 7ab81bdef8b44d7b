#![warn(missing_docs)]
//! # fncc — Fast Notification Congestion Control, reproduced in Rust
//!
//! A from-scratch reproduction of *“FNCC: Fast Notification Congestion
//! Control in Data Center Networks”* (ICPP 2024): a packet-level
//! discrete-event data-center simulator, the FNCC congestion-control scheme
//! (return-path INT + last-hop congestion speedup), its baselines (HPCC,
//! DCQCN, RoCC, plus Timely/Swift extensions), the paper's workloads, and a
//! harness regenerating every figure of the evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! | crate | contents |
//! |---|---|
//! | [`des`] | deterministic discrete-event engine, RNG streams, statistics |
//! | [`net`] | packets/INT, ports, switches (PFC, ECN, `All_INT_Table`, RoCC PI), routing, topologies |
//! | [`cc`] | congestion-control state machines |
//! | [`transport`] | RDMA-like host model (QPs, pacing, ACK/CNP generation) |
//! | [`workloads`] | WebSearch / FB_Hadoop CDFs, Poisson arrivals, patterns |
//! | [`fluid`] | flow-level water-filling fast path, DES-calibrated `RateModel`s |
//! | [`core`] | simulation builder, paper scenarios, metrics, analysis |
//!
//! ## Quickstart
//!
//! ```
//! use fncc::prelude::*;
//!
//! // Two elephant flows on the paper's dumbbell, FNCC, 100 Gb/s, 500 µs.
//! let report = PacketBackend::default().run(&elephants(CcKind::Fncc, 100, 500));
//! assert!(report.scalar("reaction_us").is_some());
//! println!("peak queue: {:.1} KB", report.scalar("peak_queue_kb").unwrap());
//! ```
//!
//! See `examples/` for runnable scenarios and `fncc-repro` for the full
//! figure harness.

pub use fncc_cc as cc;
pub use fncc_core as core;
pub use fncc_des as des;
pub use fncc_fluid as fluid;
pub use fncc_net as net;
pub use fncc_transport as transport;
pub use fncc_workloads as workloads;

/// One-stop imports (re-export of [`fncc_core::prelude`]).
pub mod prelude {
    pub use fncc_core::prelude::*;
    pub use fncc_transport::{DcHost, FlowSpec, HostTimer, TransportConfig};
}
