#![warn(missing_docs)]
//! `fncc-core` — the paper-facing library of the FNCC reproduction.
//!
//! This crate glues the substrates ([`fncc_des`], [`fncc_net`], [`fncc_cc`],
//! [`fncc_transport`], `fncc_workloads`) into runnable experiments:
//!
//! * [`sim`] — [`sim::SimBuilder`]: pick a topology, a congestion-control
//!   scheme and a flow set, get a ready-to-run [`sim::Sim`]; the builder
//!   wires the scheme's switch features (INT-on-data for HPCC, INT-on-ACK
//!   for FNCC, RED/ECN for DCQCN, the PI controller for RoCC) automatically.
//! * [`scenarios`] — the paper's experiments as [`scenario::Scenario`]
//!   presets: the elephant dumbbell of §5.1–5.2, the hop-location study
//!   of §5.4, the fairness staircase of §5.3, and the fat-tree workload
//!   runs of §5.5. The [`report::RunReport`] a run returns is the result.
//! * [`metrics`] — result extraction: reaction times, queue statistics,
//!   FCT-slowdown tables per flow-size bucket.
//! * [`analysis`] — closed-form models: the Fig. 12 notification-latency
//!   model and the Fig. 1a switch buffer/capacity trend data.
//! * [`sweep`] — a small parallel runner for parameter sweeps and
//!   multi-seed repetitions (scoped worker pool).
//! * [`scenario`] — the declarative [`scenario::Scenario`]: topology +
//!   traffic + CC + probes + stop condition as a pure value, with a JSON
//!   file format (`fncc-repro run <file.json>`).
//! * [`backend`] — the [`backend::Backend`] trait (`run(&Scenario) ->
//!   RunReport`) implemented by the packet DES engine, the
//!   `fncc-fluid` flow-level fast path and the hybrid co-simulation;
//!   [`backend::SimBackend`] is the thin CLI parser that resolves to one
//!   of them.
//! * [`hybrid`] — [`hybrid::HybridSim`], the fluid↔packet engine whose
//!   packet half is a [`sim::SimBuilder`]-built [`sim::Sim`].
//! * [`report`] — [`report::RunReport`], the single artifact format every
//!   backend emits (named series + scalars + slowdown rows + JSON writer).
//! * [`json`] — the dependency-free JSON parser/writer behind both.
//!
//! ## Quickstart
//!
//! ```
//! use fncc_core::prelude::*;
//!
//! let report = PacketBackend::default().run(&elephants(CcKind::Fncc, 100, 500));
//! assert!(report.series("queue_kb").unwrap().max() < 600.0); // queue stayed shallow
//! ```

pub mod analysis;
pub mod backend;
pub mod calibration;
pub mod hybrid;
pub mod json;
pub mod metrics;
pub mod report;
pub mod scenario;
pub mod scenarios;
pub mod sharded;
pub mod sim;
pub mod sweep;

pub use analysis::{hardware_trends, notification_gain_model, HopGain, SwitchGen};
pub use backend::{
    run_scenario, run_scenario_traced, Backend, FluidBackend, HybridBackend, PacketBackend,
    SimBackend,
};
pub use calibration::{CalibrationArtifact, CALIBRATION_SCHEMA};
pub use metrics::{fct_slowdowns, reaction_time, time_to_fair, SlowdownStats};
pub use report::{RunReport, RUN_REPORT_SCHEMA};
pub use scenario::{
    parse_cc, CcOverrides, ForegroundSpec, LinkSpec, PartitionRule, ProbeSpec, Scenario,
    StopCondition, TopologySpec, TrafficSpec, Workload,
};
pub use scenarios::{elephants, fattree_workload, hop_location, staircase_scenario, HopLocation};
pub use sharded::{ShardStats, ShardedSim};
pub use sim::{make_algo, Sim, SimBuilder};

/// Flight-recorder observability: trace sink, profiling spans and the
/// histograms behind the reports' distribution scalars (re-export of the
/// dependency-free `fncc-obs` crate).
pub use fncc_obs as obs;

/// One-stop imports for examples and experiment binaries.
pub mod prelude {
    pub use crate::analysis::{hardware_trends, notification_gain_model};
    pub use crate::backend::{
        run_scenario, run_scenario_traced, Backend, FluidBackend, HybridBackend, PacketBackend,
        SimBackend,
    };
    pub use crate::calibration::{CalibrationArtifact, CALIBRATION_SCHEMA};
    pub use crate::metrics::{fct_slowdowns, reaction_time, time_to_fair, SlowdownStats};
    pub use crate::report::RunReport;
    pub use crate::scenario::{
        CcOverrides, ForegroundSpec, LinkSpec, PartitionRule, ProbeSpec, Scenario, StopCondition,
        TopologySpec, TrafficSpec, Workload,
    };
    pub use crate::scenarios::{
        elephants, fattree_workload, hop_location, staircase_scenario, HopLocation,
    };
    pub use crate::sim::{make_algo, Sim, SimBuilder};
    pub use fncc_cc::CcKind;
    pub use fncc_des::output::{series_to_csv, Table};
    pub use fncc_des::stats::{jain_index, TimeSeries};
    pub use fncc_des::time::{SimTime, TimeDelta};
    pub use fncc_fluid::{Calibration, CalibrationSet, RateModel};
    pub use fncc_net::ids::{FlowId, HostId, SwitchId};
    pub use fncc_net::telemetry::Probe;
    pub use fncc_net::topology::Topology;
    pub use fncc_net::units::{Bandwidth, ByteSize};
    pub use fncc_obs::{Profiler, TraceEvent, TraceMeta, TraceSink, TRACE_SCHEMA};
    pub use fncc_transport::FlowSpec;
}
