#![warn(missing_docs)]
//! `fncc-fluid` — a flow-level (fluid) fast-path simulation backend.
//!
//! The packet DES backend (`fncc-des` + `fncc-net` + `fncc-transport`)
//! models every frame, ACK and PFC pause; that fidelity costs ~10⁶ events
//! per simulated millisecond and caps runs at a few hundred flows. This
//! crate trades per-packet effects for scale, the standard move in
//! flow-level CC studies (max-min fair-share models in Zeng's inter-DC CC
//! survey, FairQ's fairness analysis): time advances directly between flow
//! arrival/completion events, and between events every active flow drains
//! at its *water-filling max-min fair share* of the network, computed over
//! the same [`fncc_net::topology::Topology`] and ECMP routing the packet
//! backend uses.
//!
//! Congestion-control schemes enter through [`RateModel`] steady-state
//! hooks (sustained utilization η + convergence lag in RTTs), so
//! FNCC/HPCC/DCQCN comparisons remain meaningful at a million flows.
//! The backend's FCT slowdowns are pinned against the packet DES on small
//! shared scenarios by the cross-validation suite in the workspace's
//! `tests/` directory.
//!
//! One event loop serves every caller: [`BackgroundFluid`] steps the
//! model an event instant at a time (the hybrid co-simulation interleaves
//! it with a packet DES and feeds foreground load back through
//! [`BackgroundFluid::reserve`]), and [`FluidSim`] is the builder that
//! runs the same engine to completion. See the [`sim`] module docs for
//! when the loop re-solves.
//!
//! ## Quickstart
//!
//! ```
//! use fncc_fluid::{FluidSim, RateModel};
//! use fncc_workloads::patterns::permutation_waves;
//! use fncc_net::topology::Topology;
//! use fncc_net::units::Bandwidth;
//! use fncc_des::time::TimeDelta;
//! use fncc_cc::CcKind;
//!
//! let topo = Topology::fat_tree(4, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
//! let flows = permutation_waves(topo.n_hosts, 1_000_000, 10, TimeDelta::from_us(100), 1);
//! let result = FluidSim::new(topo.clone(), RateModel::paper_default(CcKind::Fncc))
//!     .flows(flows)
//!     .run()
//!     .expect("no zero-capacity links");
//! assert!(result.records().all(|rec| rec.finish.is_some()));
//! println!("mean slowdown: {:.2}", result.mean_slowdown(&topo, Default::default()));
//! ```

pub mod link;
pub mod maxmin;
pub mod model;
pub mod sim;

pub use link::LinkMap;
pub use maxmin::{
    find_non_pareto_flow, water_fill, worst_oversubscription, Demand, Rebalance, WaterFiller,
};
pub use model::{Calibration, CalibrationSet, DurationEta, RateModel};
pub use sim::{BackgroundFluid, FluidError, FluidResult, FluidSim, Framing};
