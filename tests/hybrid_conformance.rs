//! Hybrid co-simulation conformance: the packet-fidelity *foreground* of a
//! hybrid run must see the congestion the pure packet DES would show it.
//!
//! Two cells exercise the two coupling directions, each across all six CC
//! schemes:
//!
//! * **incast** — overlapping incast waves into one receiver; the first
//!   wave runs at packet fidelity, the second drains in the fluid model.
//!   Tests fluid→packet residual capacity.
//! * **mice-behind-elephants** — mice at packet fidelity squeeze past
//!   fluid elephants on a shared dumbbell. Tests packet→fluid demand
//!   reservations (and back).
//!
//! Acceptance band: the foreground's mean FCT within 15% of the pure-DES
//! run of the identical flow set. A third test pins hybrid `RunReport`
//! determinism byte-for-byte (minus the wall-clock `events_per_sec`
//! scalar, exactly like the packet determinism suite).

use fncc::core::hybrid::HybridSim;
use fncc::core::{
    run_scenario, ForegroundSpec, PartitionRule, Scenario, SimBackend, SimBuilder, StopCondition,
    TopologySpec, TrafficSpec,
};
use fncc_cc::CcKind;
use fncc_des::time::{SimTime, TimeDelta};
use fncc_fluid::RateModel;
use fncc_net::ids::FlowId;
use fncc_net::telemetry::Telemetry;
use fncc_transport::FlowSpec;

/// The acceptance band on the foreground's mean FCT.
const TOLERANCE: f64 = 0.15;

fn incast_cell(cc: CcKind) -> Scenario {
    let mut sc = Scenario::new(
        format!("hybrid-conf-incast-{}", cc.name()),
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Incast {
            receiver: 0,
            fan_in: 8,
            size: 100_000,
            waves: 2,
            gap_us: 30,
        },
        cc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 50 };
    // Wave 1 at packet fidelity; the overlapping wave 2 is background.
    sc.foreground = Some(ForegroundSpec {
        rules: vec![PartitionRule::FirstFlows { n: 8 }],
    });
    sc
}

fn mice_cell(cc: CcKind) -> Scenario {
    let mut sc = Scenario::new(
        format!("hybrid-conf-mice-{}", cc.name()),
        TopologySpec::Dumbbell {
            senders: 4,
            switches: 3,
        },
        TrafficSpec::MiceBehindElephants {
            elephants: 2,
            elephant_size: 2_000_000,
            mice: 6,
            mouse_size: 20_000,
            warmup_us: 30,
            gap_us: 10,
        },
        cc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 50 };
    sc.foreground = Some(ForegroundSpec {
        rules: vec![PartitionRule::SizeBelow { bytes: 1_000_000 }],
    });
    sc
}

fn drain_horizon(flows: &[FlowSpec]) -> SimTime {
    flows.iter().map(|f| f.start).max().unwrap_or(SimTime::ZERO) + TimeDelta::from_ms(50)
}

fn mean_fct_us(telem: &Telemetry, ids: &[FlowId]) -> f64 {
    let fcts: Vec<f64> = ids
        .iter()
        .map(|&id| {
            telem
                .flow_record(id)
                .and_then(|r| r.fct())
                .unwrap_or_else(|| panic!("flow {id:?} unfinished"))
                .as_secs_f64()
                * 1e6
        })
        .collect();
    fcts.iter().sum::<f64>() / fcts.len() as f64
}

/// Mean foreground FCT under the pure packet DES (all flows at packet
/// fidelity — the reference the hybrid engine is judged against).
fn pure_des_fg_fct(sc: &Scenario, fg_ids: &[FlowId]) -> f64 {
    let (topo, flows) = sc.instance(1);
    let horizon = drain_horizon(&flows);
    let mut sim = SimBuilder::new(topo, sc.cc).flows(flows).build();
    sim.run_to_completion(TimeDelta::from_ms(1), horizon);
    mean_fct_us(sim.telemetry(), fg_ids)
}

/// Mean foreground FCT under the hybrid engine (background in the fluid
/// model, foreground in the DES).
fn hybrid_fg_fct(sc: &Scenario, fg_ids: &[FlowId]) -> f64 {
    let (topo, flows) = sc.instance(1);
    let spec = sc.foreground.as_ref().expect("cell declares a partition");
    let horizon = drain_horizon(&flows);
    let (fg, bg) = spec.partition(flows);
    let fg = SimBuilder::new(topo, sc.cc).flows(fg);
    let mut sim = HybridSim::new(fg, bg, RateModel::paper_default(sc.cc)).expect("hybrid build");
    let done = sim
        .run_to_completion(TimeDelta::from_ms(1), horizon)
        .expect("hybrid run");
    assert!(done, "hybrid run hit the drain cap on '{}'", sc.name);
    mean_fct_us(sim.telemetry(), fg_ids)
}

fn assert_cell_conforms(sc: &Scenario) {
    let (_, flows) = sc.instance(1);
    let spec = sc.foreground.as_ref().unwrap();
    let fg_ids: Vec<FlowId> = flows
        .iter()
        .filter(|f| spec.is_foreground(f))
        .map(|f| f.id)
        .collect();
    assert!(!fg_ids.is_empty());
    let des = pure_des_fg_fct(sc, &fg_ids);
    let hyb = hybrid_fg_fct(sc, &fg_ids);
    let rel = (hyb - des).abs() / des;
    assert!(
        rel <= TOLERANCE,
        "{}: hybrid fg mean FCT {hyb:.1} us vs pure-DES {des:.1} us \
         ({:+.1}% > ±{:.0}%)",
        sc.name,
        (hyb / des - 1.0) * 100.0,
        TOLERANCE * 100.0,
    );
}

#[test]
fn incast_foreground_fct_tracks_pure_des_all_schemes() {
    for cc in CcKind::ALL {
        assert_cell_conforms(&incast_cell(cc));
    }
}

#[test]
fn mice_foreground_fct_tracks_pure_des_all_schemes() {
    for cc in CcKind::ALL {
        assert_cell_conforms(&mice_cell(cc));
    }
}

/// Same scenario + seed ⇒ byte-identical hybrid `RunReport`, modulo the
/// one wall-clock-derived scalar.
#[test]
fn hybrid_reports_are_byte_identical() {
    let stable = |sc: &Scenario| {
        let mut report = run_scenario(sc, SimBackend::Hybrid);
        report.scalars.retain(|(k, _)| k != "events_per_sec");
        report.to_json()
    };
    let mut sc = mice_cell(CcKind::Fncc);
    sc.seeds = vec![7, 8];
    let a = stable(&sc);
    let b = stable(&sc);
    assert_eq!(a, b, "hybrid report must be deterministic");
}
