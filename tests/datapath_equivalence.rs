//! Datapath equivalence: every scheme's `RunReport` on the packet, fluid
//! and hybrid backends is pinned to a golden report under `tests/golden/`
//! (see `golden/mod.rs` for the view, the comparison and the re-record
//! command). The generic `Datapath`/`CcPolicy` layer reproduces each
//! control law float-op for float-op, so any drift in operation order
//! shows up here as a moved scalar before it can show up as a silent
//! behaviour change.
//!
//! The first six schemes' packet and fluid goldens were recorded from the
//! per-scheme `CcFlow` implementations that predate the generic datapath;
//! FairQ and Throttle, which have no such ancestor, from the first
//! generic-datapath build. Every later move of a golden was a change that
//! meant to move it, and says why in its history.

mod golden;

use fncc::core::scenario::FaultSpec;
use fncc::core::{
    elephants, hop_location, run_scenario, staircase_scenario, ForegroundSpec, HopLocation,
    PartitionRule, RunReport, Scenario, SimBackend, SlowdownStats, StopCondition, TopologySpec,
    TrafficSpec, Workload,
};
use fncc::des::time::TimeDelta;
use fncc_cc::CcKind;
use std::path::{Path, PathBuf};

/// Serialize a run's stable report.
fn stable_json(sc: &Scenario, backend: SimBackend) -> String {
    run_scenario(sc, backend).stable().to_json()
}

/// Small fat-tree incast — exercises INT collection, ECN/CNP, PFC, and the
/// per-ACK hot path of every scheme at packet fidelity.
fn packet_scenario(cc: CcKind) -> Scenario {
    let mut sc = Scenario::new(
        "dp-equiv-packet",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Incast {
            receiver: 0,
            fan_in: 6,
            size: 150_000,
            waves: 2,
            gap_us: 50,
        },
        cc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 50 };
    sc.seeds = vec![7, 8];
    sc
}

/// Small web-search Poisson cell on the fluid backend — exercises the
/// per-scheme `RateModel` constants (utilization, queue penalty, duration-η).
fn fluid_scenario(cc: CcKind) -> Scenario {
    let mut sc = Scenario::new(
        "dp-equiv-fluid",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Poisson {
            workload: Workload::WebSearch,
            load: 0.5,
            flows: 200,
        },
        cc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 200 };
    sc.seeds = vec![3];
    sc
}

/// Two overlapping incast waves on the hybrid backend: wave 1 at packet
/// fidelity, wave 2 as fluid background — both coupling directions, the
/// merged slowdown table and every coupler scalar land in the artifact.
fn hybrid_scenario(cc: CcKind) -> Scenario {
    let mut sc = Scenario::new(
        "dp-equiv-hybrid",
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
    sc.seeds = vec![5, 6];
    sc.foreground = Some(ForegroundSpec {
        rules: vec![PartitionRule::FirstFlows { n: 8 }],
    });
    sc
}

/// Every scheme's cell `<prefix>_<scheme>`, built by `scenario`.
fn per_scheme(
    prefix: &str,
    scenario: fn(CcKind) -> Scenario,
) -> impl Iterator<Item = (String, Scenario)> + '_ {
    CcKind::ALL.iter().map(move |&cc| {
        (
            format!("{prefix}_{}", cc.name().to_lowercase()),
            scenario(cc),
        )
    })
}

/// Run each cell on `backend` and check its report against its golden.
fn assert_golden(backend: SimBackend, cells: impl IntoIterator<Item = (String, Scenario)>) {
    golden::check(
        cells
            .into_iter()
            .map(|(cell, sc)| (cell, run_scenario(&sc, backend))),
    );
}

#[test]
fn packet_reports_match_pre_refactor_golden() {
    assert_golden(SimBackend::Packet, per_scheme("packet", packet_scenario));
}

#[test]
fn fluid_reports_match_pre_refactor_golden() {
    assert_golden(SimBackend::Fluid, per_scheme("fluid", fluid_scenario));
}

#[test]
fn hybrid_reports_match_golden() {
    assert_golden(SimBackend::Hybrid, per_scheme("hybrid", hybrid_scenario));
}

fn probed_elephants(cc: CcKind) -> Scenario {
    elephants(cc, 100, 600)
}

/// The probed packet reports: every cell above runs with `sample_ns: 0`,
/// so these are the pins on the report series (`queue_kb`, `util`,
/// `flow{i}`, `cc{i}`) and on the scalars read from them. The Fig. 9 cell
/// is pinned for every scheme; the last-hop cell (Fig. 13) and a
/// three-flow staircase (Fig. 13e) once, under FNCC.
#[test]
fn probed_reports_match_golden() {
    let single = [
        (
            "probed_hop_last".to_string(),
            hop_location(CcKind::Fncc, HopLocation::Last, 600),
        ),
        (
            "probed_staircase".to_string(),
            staircase_scenario(CcKind::Fncc, 3, TimeDelta::from_us(200), 1),
        ),
    ];
    assert_golden(
        SimBackend::Packet,
        per_scheme("probed", probed_elephants).chain(single),
    );
}

/// FNCC under a ToR-uplink flap, one golden per backend: fault runs emit
/// the gated fault/recovery scalars in the middle of each backend's scalar
/// list, so this is the pin on their position and on `incomplete_flows`.
#[test]
fn faulted_reports_match_golden() {
    golden::check(
        [SimBackend::Packet, SimBackend::Fluid, SimBackend::Hybrid].map(|backend| {
            let mut sc = match backend {
                SimBackend::Packet => packet_scenario(CcKind::Fncc),
                SimBackend::Fluid => fluid_scenario(CcKind::Fncc),
                SimBackend::Hybrid => hybrid_scenario(CcKind::Fncc),
            };
            let (switch, port) = (0, 2);
            sc.faults = vec![
                FaultSpec::LinkDown {
                    switch,
                    port,
                    at_us: 20,
                },
                FaultSpec::LinkUp {
                    switch,
                    port,
                    at_us: 120,
                },
            ];
            sc.validate().expect("faulted pin scenario is valid");
            (format!("faulted_{backend}"), run_scenario(&sc, backend))
        }),
    );
}

/// Every scheme — including kinds added after the refactor — must be
/// run-to-run deterministic on both backends.
#[test]
fn all_schemes_are_run_to_run_deterministic() {
    for &cc in CcKind::ALL.iter() {
        let sc = packet_scenario(cc);
        assert_eq!(
            stable_json(&sc, SimBackend::Packet),
            stable_json(&sc, SimBackend::Packet),
            "{}: packet backend not deterministic",
            cc.name()
        );
        let sc = fluid_scenario(cc);
        assert_eq!(
            stable_json(&sc, SimBackend::Fluid),
            stable_json(&sc, SimBackend::Fluid),
            "{}: fluid backend not deterministic",
            cc.name()
        );
    }
}

// ----------------------------------------------------------------------
// The golden comparison itself.
// ----------------------------------------------------------------------

/// A small report with three scalars and three slowdown rows.
fn sample_report() -> RunReport {
    let mut r = RunReport::new("golden-selftest", "packet", "FNCC");
    r.put_scalar("events_processed", 100.0);
    r.put_scalar("mean_slowdown", 1.5);
    r.put_scalar("peak_queue_len", 7.0);
    r.slowdowns = (1..=3)
        .map(|i| SlowdownStats {
            bucket_upper: i * 10_000,
            label: format!("{i}0KB"),
            count: 4,
            avg: 1.25,
            p50: 1.0,
            p95: 2.0,
            p99: 3.0,
        })
        .collect();
    r
}

/// A fresh golden directory holding `report`'s view as `cell.json`, and
/// the output directory beside it.
fn recorded(test: &str, report: RunReport) -> (PathBuf, PathBuf) {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("golden-selftest")
        .join(test);
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("want");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("cell.json"), golden::view(report)).unwrap();
    (dir, root.join("got"))
}

#[test]
fn a_moved_value_is_named_with_both_values() {
    let (dir, out) = recorded("moved", sample_report());
    let mut moved = sample_report();
    moved.put_scalar("mean_slowdown", 1.75);
    moved.slowdowns[2].p99 = 3.5;
    let err = golden::compare(&dir, &out, "cell", &golden::view(moved)).unwrap_err();
    assert!(
        err.contains("scalars.mean_slowdown: want 1.5 got 1.75"),
        "{err}"
    );
    assert!(err.contains("slowdowns[2].p99: want 3 got 3.5"), "{err}");
}

#[test]
fn a_reordered_scalar_list_is_an_order_move() {
    let (dir, out) = recorded("reordered", sample_report());
    let mut moved = sample_report();
    moved.scalars.rotate_left(1);
    let got = golden::view(moved);
    assert!(golden::compare(&dir, &out, "cell", &got).is_err());
    let want = std::fs::read_to_string(dir.join("cell.json")).unwrap();
    assert_eq!(
        golden::deltas(&want, &got),
        [
            "scalars: key order moved: want [events_processed, mean_slowdown, peak_queue_len] \
          got [mean_slowdown, peak_queue_len, events_processed]"
        ]
    );
}

#[test]
fn a_missing_golden_fails_and_writes_the_actual_text() {
    let (dir, out) = recorded("missing", sample_report());
    let actual = golden::view(sample_report());
    let err = golden::compare(&dir, &out, "absent", &actual).unwrap_err();
    assert!(err.contains("no golden file"), "{err}");
    let written = out.join("absent.json");
    let cp = format!(
        "cp {} {}",
        written.display(),
        dir.join("absent.json").display()
    );
    assert!(err.contains(&cp), "{err}");
    assert_eq!(std::fs::read_to_string(written).unwrap(), actual);
}
