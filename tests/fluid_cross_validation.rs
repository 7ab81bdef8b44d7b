//! Cross-validation: the fluid backend's FCT slowdowns must stay within a
//! 15% band of the packet DES backend on shared small-scale scenarios.
//!
//! Both backends execute the *same* declarative [`Scenario`] through the
//! unified `Backend` trait — identical topologies and flow sets (same seeds
//! drive the same generators) — so disagreement is purely modeling error:
//! what the fluid backend gives up by replacing per-packet dynamics with
//! max-min rate shares plus the RateModel's steady-state knobs.

use fncc::cc::CcKind;
use fncc::core::prelude::*;

const BAND: f64 = 0.15;

/// Run one scenario on both backends and return their mean slowdowns.
fn both_backends(sc: &Scenario) -> (f64, f64) {
    let packet = run_scenario(sc, SimBackend::Packet);
    let fluid = run_scenario(sc, SimBackend::Fluid);
    assert!(
        packet.unfinished.iter().all(|&u| u == 0),
        "{}: packet unfinished",
        sc.name
    );
    assert!(
        fluid.unfinished.iter().all(|&u| u == 0),
        "{}: fluid unfinished",
        sc.name
    );
    (
        packet.mean_slowdown().expect("packet slowdowns"),
        fluid.mean_slowdown().expect("fluid slowdowns"),
    )
}

fn assert_within_band(name: &str, p: f64, f: f64) {
    let rel = (f - p) / p;
    // Per-cell error, visible with `cargo test -- --nocapture` and in CI
    // logs: the conformance matrix's reporting obligation.
    println!(
        "[xval] {name:<24} packet {p:7.3}  fluid {f:7.3}  error {:+6.1}%",
        rel * 100.0
    );
    assert!(
        rel.abs() < BAND,
        "{name}: fluid {f:.3} vs packet {p:.3} — off by {:+.1}%",
        rel * 100.0
    );
}

fn xval_workload(cc: CcKind, workload: Workload) {
    let mut sc = fattree_workload(cc, workload);
    sc.topology = TopologySpec::FatTree { k: 4 };
    sc.traffic = TrafficSpec::Poisson {
        workload,
        load: 0.5,
        flows: 120,
    };
    sc.seeds = vec![1, 2];
    let (p, f) = both_backends(&sc);
    assert_within_band(&format!("{cc:?}/{workload:?}"), p, f);
}

// ----------------------------------------------------------------------
// The conformance matrix: every scheme the repo implements × both §5.5
// workloads, all within the band. One test per cell so a failure names
// its cell and the rest of the matrix still reports.
// ----------------------------------------------------------------------

#[test]
fn matrix_covers_every_scheme() {
    // The cell tests below are hand-expanded (one #[test] per cell, so
    // failures are addressable); this guard makes the expansion total. If
    // it fails, a scheme was added to `CcKind::ALL` without matrix cells.
    assert_eq!(
        CcKind::ALL.len(),
        8,
        "new scheme in CcKind::ALL: add its hadoop/websearch matrix cells \
         and a calibration entry"
    );
}

#[test]
fn fncc_hadoop_within_band() {
    xval_workload(CcKind::Fncc, Workload::FbHadoop);
}

#[test]
fn hpcc_hadoop_within_band() {
    xval_workload(CcKind::Hpcc, Workload::FbHadoop);
}

#[test]
fn dcqcn_hadoop_within_band() {
    xval_workload(CcKind::Dcqcn, Workload::FbHadoop);
}

#[test]
fn rocc_hadoop_within_band() {
    xval_workload(CcKind::Rocc, Workload::FbHadoop);
}

#[test]
fn timely_hadoop_within_band() {
    xval_workload(CcKind::Timely, Workload::FbHadoop);
}

#[test]
fn swift_hadoop_within_band() {
    xval_workload(CcKind::Swift, Workload::FbHadoop);
}

#[test]
fn fairq_hadoop_within_band() {
    xval_workload(CcKind::FairQ, Workload::FbHadoop);
}

#[test]
fn throttle_hadoop_within_band() {
    xval_workload(CcKind::Throttle, Workload::FbHadoop);
}

#[test]
fn fncc_websearch_within_band() {
    xval_workload(CcKind::Fncc, Workload::WebSearch);
}

#[test]
fn hpcc_websearch_within_band() {
    xval_workload(CcKind::Hpcc, Workload::WebSearch);
}

#[test]
fn dcqcn_websearch_within_band() {
    xval_workload(CcKind::Dcqcn, Workload::WebSearch);
}

#[test]
fn rocc_websearch_within_band() {
    xval_workload(CcKind::Rocc, Workload::WebSearch);
}

#[test]
fn timely_websearch_within_band() {
    xval_workload(CcKind::Timely, Workload::WebSearch);
}

#[test]
fn swift_websearch_within_band() {
    xval_workload(CcKind::Swift, Workload::WebSearch);
}

#[test]
fn fairq_websearch_within_band() {
    xval_workload(CcKind::FairQ, Workload::WebSearch);
}

#[test]
fn throttle_websearch_within_band() {
    xval_workload(CcKind::Throttle, Workload::WebSearch);
}

/// The §5.1 microbenchmark shape, cross-backend: two 2 MB elephants share
/// the dumbbell bottleneck from t = 0 (expressed as a one-wave incast of
/// the dumbbell's two senders). The packet DES drains them at the CC's
/// fair share; the fluid model must land within the band.
fn dumbbell_elephants(cc: CcKind) -> Scenario {
    Scenario {
        probes: ProbeSpec::default(),
        stop: StopCondition::Drain { cap_ms: 20 },
        ..Scenario::new(
            format!("xval-dumbbell-elephants-{}", cc.name()),
            TopologySpec::Dumbbell {
                senders: 2,
                switches: 3,
            },
            TrafficSpec::Incast {
                receiver: 2,
                fan_in: 2,
                size: 2_000_000,
                waves: 1,
                gap_us: 0,
            },
            cc,
        )
    }
}

#[test]
fn dumbbell_elephants_within_band() {
    let (p, f) = both_backends(&dumbbell_elephants(CcKind::Fncc));
    assert_within_band("dumbbell elephants", p, f);
}

/// Dumbbell spot check for the three schemes the calibration subsystem
/// newly covers (the workload matrix is their primary validation; this
/// pins the microbenchmark shape too).
///
/// Timely used to carry a documented looser bound here: under a
/// *sustained* multi-MB drain its gradient control settles into a deep
/// oscillation (~0.6 sustained utilization in the DES — a regime no §5.5
/// workload flow lives long enough to reach), which a single-η reduction
/// cannot express. The `RateModel` duration→effective-η hook
/// ([`fncc_fluid::DurationEta`]) now models exactly that decay, so Timely
/// is held to the same 15% band as every other scheme.
#[test]
fn new_schemes_dumbbell_spot_checks() {
    for cc in [CcKind::Rocc, CcKind::Swift, CcKind::Timely] {
        let (p, f) = both_backends(&dumbbell_elephants(cc));
        assert_within_band(&format!("{cc:?} dumbbell"), p, f);
    }
}

/// The fairness sanity behind the fluid model: equal elephants through one
/// bottleneck get equal fluid rates, matching the packet backend's
/// converged fair share within the band.
fn incast_fair_share(cc: CcKind) -> Scenario {
    Scenario {
        stop: StopCondition::Drain { cap_ms: 20 },
        ..Scenario::new(
            format!("xval-incast-fair-share-{}", cc.name()),
            TopologySpec::Dumbbell {
                senders: 4,
                switches: 3,
            },
            TrafficSpec::Incast {
                receiver: 4,
                fan_in: 4,
                size: 1_000_000,
                waves: 1,
                gap_us: 0,
            },
            cc,
        )
    }
}

#[test]
fn incast_fair_share_within_band() {
    let (p, f) = both_backends(&incast_fair_share(CcKind::Fncc));
    assert_within_band("incast fair share", p, f);
}

/// Incast spot check for the three newly calibrated schemes. Timely's
/// sustained-saturation decay is covered by the duration→effective-η hook
/// (see the dumbbell spot check), so all three sit in the standard band.
#[test]
fn new_schemes_incast_spot_checks() {
    for cc in [CcKind::Rocc, CcKind::Swift, CcKind::Timely] {
        let (p, f) = both_backends(&incast_fair_share(cc));
        assert_within_band(&format!("{cc:?} incast"), p, f);
    }
}

/// The new scenarios the unified API added ride outside the calibrated
/// band — extreme fan-in and an oversubscribed fabric are exactly where
/// per-packet dynamics (PFC, LHCS, ECMP collisions) matter most — but the
/// two engines must stay the same order of magnitude and agree on flow
/// accounting, or a backend has silently diverged from the shared
/// scenario description.
#[test]
fn new_scenarios_agree_loosely_across_backends() {
    let incast = Scenario {
        stop: StopCondition::Drain { cap_ms: 50 },
        seeds: vec![1],
        ..Scenario::new(
            "xval-incast-fattree",
            TopologySpec::FatTree { k: 4 },
            TrafficSpec::Incast {
                receiver: 0,
                fan_in: 12,
                size: 200_000,
                waves: 3,
                gap_us: 100,
            },
            CcKind::Fncc,
        )
    };
    let (p, f) = both_backends(&incast);
    let ratio = f / p;
    assert!(
        (0.5..2.0).contains(&ratio),
        "incast fat-tree: fluid {f:.2} vs packet {p:.2}"
    );

    let leafspine = Scenario {
        seeds: vec![1],
        ..Scenario::new(
            "xval-leafspine",
            TopologySpec::LeafSpine {
                leaves: 4,
                spines: 2,
                hosts_per_leaf: 8,
            },
            TrafficSpec::Poisson {
                workload: Workload::FbHadoop,
                load: 0.4,
                flows: 120,
            },
            CcKind::Fncc,
        )
    };
    let (p, f) = both_backends(&leafspine);
    let ratio = f / p;
    assert!(
        (0.5..1.5).contains(&ratio),
        "leaf-spine: fluid {f:.2} vs packet {p:.2}"
    );
}
