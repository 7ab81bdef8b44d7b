//! Datapath-refactor equivalence: every scheme's `RunReport` is pinned to a
//! golden hash recorded from the pre-refactor per-scheme `CcFlow`
//! implementations. The generic `Datapath`/`CcPolicy` layer must reproduce
//! each control law float-op for float-op, so the packet, fluid, and hybrid
//! backends all have to produce byte-identical artifacts — any drift in
//! operation order shows up here as a hash mismatch before it can show up
//! as a silent behaviour change.
//!
//! Wall-clock-derived scalars (`events_per_sec`, `span_*`) and
//! scheduler-internal diagnostics (`wheel_cascades_*`) are stripped before
//! hashing, exactly as in `des_determinism.rs`.
//!
//! The two PR-8 schemes (FairQ, Throttle) have no pre-refactor
//! implementation; their hashes were recorded at PR 14's head (commit
//! 6fea562) so the report-builder refactor of PR 15 had a byte pin on all
//! of `CcKind::ALL`. The hybrid hashes were re-recorded in PR 22 when the
//! `hybrid_residual_pushes` scalar — zero in every cell — left the report;
//! the canonical JSON of each cell differs from PR 14's by that one line.

use fncc::core::scenario::FaultSpec;
use fncc::core::{
    elephants, hop_location, run_scenario, staircase_scenario, ForegroundSpec, HopLocation,
    PartitionRule, Scenario, SimBackend, StopCondition, TopologySpec, TrafficSpec, Workload,
};
use fncc::des::time::TimeDelta;
use fncc_cc::CcKind;

/// 64-bit FNV-1a over the stable report JSON — dependency-free and stable
/// across platforms for identical input bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Serialize a report with wall-clock and scheduler-introspection scalars
/// removed.
fn stable_json(sc: &Scenario, backend: SimBackend) -> String {
    let mut report = run_scenario(sc, backend);
    report.scalars.retain(|(k, _)| {
        k != "events_per_sec" && !k.starts_with("wheel_cascades_") && !k.starts_with("span_")
    });
    report.to_json()
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

/// Golden packet-backend hashes on `packet_scenario`: the first six from
/// the pre-refactor engine (PR 7 head, commit d225292), FairQ and Throttle
/// from PR 14's head.
const PACKET_GOLDEN: [(CcKind, u64); 8] = [
    (CcKind::Fncc, 0x6c771e4bc71b3401),
    (CcKind::Hpcc, 0x3160578e127a8458),
    (CcKind::Dcqcn, 0x80a12becc6cea02a),
    (CcKind::Rocc, 0xcc17a593a2e575ae),
    (CcKind::Timely, 0x27cc0f0095c1923a),
    (CcKind::Swift, 0x545c6a492ae31447),
    (CcKind::FairQ, 0xb7242645b082da1b),
    (CcKind::Throttle, 0x5b1e42d1acdd92fb),
];

/// Golden fluid-backend hashes on `fluid_scenario`. Same provenance as
/// [`PACKET_GOLDEN`] until the water-filler began treating links that one
/// residual flow crosses as per-flow rate caps: that moved which of several
/// tied links records a binding level, hence recruit sets and the last bits
/// of some FCTs (the rates stay the unique max-min solution within 1e-9),
/// and the hashes were re-recorded then.
const FLUID_GOLDEN: [(CcKind, u64); 8] = [
    (CcKind::Fncc, 0xaa014146f200480e),
    (CcKind::Hpcc, 0x75f7d9846b7d7645),
    (CcKind::Dcqcn, 0x42f6ab88495175f7),
    (CcKind::Rocc, 0xdd0e35e2962d9840),
    (CcKind::Timely, 0x7f1a0da811a9fca3),
    (CcKind::Swift, 0xf8d24a3bb11e77bd),
    (CcKind::FairQ, 0x7bebe4874d922a84),
    (CcKind::Throttle, 0x758dff80ad4a88d5),
];

/// Golden hybrid-backend hashes on `hybrid_scenario` (PR 22; see the
/// module docs). Re-recorded when the hybrid's `hybrid_syncs`,
/// `hybrid_reservations` and `hybrid_backlog_pushes` stopped being metrics
/// registry counters: they now land where the backend writes their
/// seed sums, after `background_flows`, instead of ahead of `fct_us_*`.
/// Sorted by key, every cell's report is byte-identical to before. And
/// again when the water-filler's closed-form re-level was deleted: the
/// scalar counting its solves — zero in every cell — left the report,
/// and each cell's canonical JSON differs from before by that one line.
const HYBRID_GOLDEN: [(CcKind, u64); 8] = [
    (CcKind::Fncc, 0xd627549cb131444f),
    (CcKind::Hpcc, 0x88fd91ad7bd506de),
    (CcKind::Dcqcn, 0x8bd72e83ab3c302e),
    (CcKind::Rocc, 0x0d525840f1279f34),
    (CcKind::Timely, 0x6fbd4681f088e9a7),
    (CcKind::Swift, 0x8435a874a632912d),
    (CcKind::FairQ, 0x913405f8871f188d),
    (CcKind::Throttle, 0x55b57b916afedf07),
];

/// Run `scenario(cc)` on `backend` for every pinned scheme and compare the
/// stable report bytes' hash with the golden.
fn assert_golden(golden: &[(CcKind, u64)], scenario: fn(CcKind) -> Scenario, backend: SimBackend) {
    assert_eq!(golden.len(), CcKind::ALL.len(), "a scheme has no byte pin");
    let drifted: Vec<String> = golden
        .iter()
        .filter_map(|&(cc, want)| {
            let got = fnv1a(stable_json(&scenario(cc), backend).as_bytes());
            (got != want).then(|| format!("{}: got 0x{got:016x}, want 0x{want:016x}", cc.name()))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "{backend} RunReport drifted from the golden: {drifted:#?}"
    );
}

#[test]
fn packet_reports_match_pre_refactor_golden() {
    assert_golden(&PACKET_GOLDEN, packet_scenario, SimBackend::Packet);
}

#[test]
fn fluid_reports_match_pre_refactor_golden() {
    assert_golden(&FLUID_GOLDEN, fluid_scenario, SimBackend::Fluid);
}

#[test]
fn hybrid_reports_match_golden() {
    assert_golden(&HYBRID_GOLDEN, hybrid_scenario, SimBackend::Hybrid);
}

/// The probed packet reports: every cell above runs with `sample_ns: 0`,
/// so these are the pins on the report series (`queue_kb`, `util`,
/// `flow{i}`, `cc{i}`) and on the scalars read from them. The Fig. 9 cell
/// is pinned for every scheme; the last-hop cell (Fig. 13) and a
/// three-flow staircase (Fig. 13e) once, under FNCC.
const PROBED_GOLDEN: [(CcKind, u64); 8] = [
    (CcKind::Fncc, 0xe20df2c4de78dde7),
    (CcKind::Hpcc, 0x468e9cc5af7ce190),
    (CcKind::Dcqcn, 0xa0baa17f10756a70),
    (CcKind::Rocc, 0xc3d9393182140ab2),
    (CcKind::Timely, 0x1b4f9e8d7729905b),
    (CcKind::Swift, 0xf085fa5fe1dd133b),
    (CcKind::FairQ, 0xc8946caa0c250820),
    (CcKind::Throttle, 0xcb7d1b9436f6dc0d),
];

/// The last-hop and staircase cells of [`PROBED_GOLDEN`]'s docs.
const PROBED_HOP_LAST_GOLDEN: u64 = 0xde8c730308afbb0d;
const PROBED_STAIRCASE_GOLDEN: u64 = 0x0fef784c2f2f92f0;

fn probed_elephants(cc: CcKind) -> Scenario {
    elephants(cc, 100, 600)
}

#[test]
fn probed_reports_match_golden() {
    assert_golden(&PROBED_GOLDEN, probed_elephants, SimBackend::Packet);
    let cells = [
        (
            "hop-last",
            hop_location(CcKind::Fncc, HopLocation::Last, 600),
            PROBED_HOP_LAST_GOLDEN,
        ),
        (
            "staircase",
            staircase_scenario(CcKind::Fncc, 3, TimeDelta::from_us(200), 1),
            PROBED_STAIRCASE_GOLDEN,
        ),
    ];
    for (label, sc, want) in cells {
        let got = fnv1a(stable_json(&sc, SimBackend::Packet).as_bytes());
        assert_eq!(got, want, "{label}: got 0x{got:016x}, want 0x{want:016x}");
    }
}

/// FNCC under a ToR-uplink flap, one hash per backend: fault runs emit the
/// gated fault/recovery scalars in the middle of each backend's scalar
/// list, so this is the pin on their position and on `incomplete_flows`.
/// The fluid hash moved with [`FLUID_GOLDEN`]'s, for the same reason. The
/// hybrid hash moved when `peak_active` began counting flows a link-up
/// revives: this cell's `peak_bg_active` reads 8, the true peak, not 6;
/// and twice more with [`HYBRID_GOLDEN`]'s, for the same reasons.
const FAULTED_GOLDEN: [(SimBackend, u64); 3] = [
    (SimBackend::Packet, 0xb2b5b784d472533e),
    (SimBackend::Fluid, 0xa5ca28ec7ea8a420),
    (SimBackend::Hybrid, 0x82b3a2c2c9e18b4c),
];

#[test]
fn faulted_reports_match_golden() {
    let drifted: Vec<String> = FAULTED_GOLDEN
        .iter()
        .filter_map(|&(backend, want)| {
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
            let got = fnv1a(stable_json(&sc, backend).as_bytes());
            (got != want).then(|| format!("{backend}: got 0x{got:016x}, want 0x{want:016x}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "faulted RunReport drifted from the golden: {drifted:#?}"
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
