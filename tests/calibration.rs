//! The calibration subsystem's integration tests: the `fncc.calibration/v1`
//! artifact schema snapshot, the checked-in `CALIBRATION.json` ↔
//! `RateModel::paper_default` sync, and property tests over the
//! `Calibration`/`CalibrationSet` invariants.

use fncc::cc::CcKind;
use fncc::core::calibration::{set_from_json, set_to_json, CalibrationArtifact};
use fncc::core::json::Json;
use fncc::core::prelude::*;
use fncc::core::CALIBRATION_SCHEMA;
use proptest::prelude::*;

fn checked_in_artifact() -> CalibrationArtifact {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("CALIBRATION.json");
    CalibrationArtifact::load(&path).expect("repo-root CALIBRATION.json")
}

/// Snapshot of the `fncc.calibration/v1` artifact layout. If this fails,
/// the format changed: bump `CALIBRATION_SCHEMA` and update every consumer
/// (same contract as the `fncc.run_report/v1` snapshot in
/// `tests/scenario_api.rs`).
#[test]
fn calibration_schema_snapshot() {
    let artifact = CalibrationArtifact {
        set: CalibrationSet::paper(),
        scale: "default".into(),
    };
    let v = Json::parse(&artifact.to_json()).expect("artifact parses");

    assert_eq!(
        v.get("schema").and_then(|x| x.as_str()),
        Some("fncc.calibration/v1")
    );
    assert_eq!(
        v.get("schema").and_then(|x| x.as_str()),
        Some(CALIBRATION_SCHEMA)
    );
    // Top-level field set and order are pinned.
    let keys: Vec<String> = match &v {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("artifact root must be an object"),
    };
    assert_eq!(keys, ["schema", "scale", "schemes"]);
    // One entry per scheme, keyed by display name, in CcKind::ALL order,
    // each carrying exactly the two model parameters.
    let schemes = match v.get("schemes").unwrap() {
        Json::Obj(fields) => fields,
        _ => panic!("'schemes' must be an object"),
    };
    let names: Vec<&str> = schemes.iter().map(|(k, _)| k.as_str()).collect();
    let expect: Vec<&str> = CcKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names, expect);
    for (name, entry) in schemes {
        let keys: Vec<String> = match entry {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("scheme entry must be an object"),
        };
        assert_eq!(keys, ["utilization", "queue_rtts"], "{name}");
    }
}

/// The checked-in repo-root artifact IS the source `paper_default` is
/// regenerated from: the two representations must never drift. A failure
/// means either `RateModel::paper_default` changed without re-running
/// `fncc-repro calibrate`, or a fresh calibration produced new values
/// without updating the constants.
#[test]
fn checked_in_artifact_matches_paper_default() {
    let artifact = checked_in_artifact();
    assert_eq!(
        artifact.scale, "default",
        "artifact must come from the default scale"
    );
    assert_eq!(artifact.set, CalibrationSet::paper());
    for kind in CcKind::ALL {
        assert_eq!(
            RateModel::from_calibration(kind, &artifact.set),
            RateModel::paper_default(kind),
            "{kind:?}: checked-in CALIBRATION.json drifted from paper_default"
        );
    }
}

/// A scenario carrying a calibration override round-trips through the
/// scenario-file JSON format and actually steers the fluid backend.
#[test]
fn scenario_calibration_override_roundtrips_and_applies() {
    let mut cal = CalibrationSet::paper();
    cal.set(
        CcKind::Fncc,
        Calibration {
            utilization: 0.5,
            queue_rtts: 2.5,
        },
    )
    .unwrap();
    let slow = Scenario {
        overrides: CcOverrides {
            calibration: Some(cal),
            ..CcOverrides::default()
        },
        stop: StopCondition::Drain { cap_ms: 20 },
        ..Scenario::new(
            "calibrated-dumbbell",
            TopologySpec::Dumbbell {
                senders: 2,
                switches: 3,
            },
            TrafficSpec::Incast {
                receiver: 2,
                fan_in: 2,
                size: 1_000_000,
                waves: 1,
                gap_us: 0,
            },
            CcKind::Fncc,
        )
    };
    let parsed = Scenario::from_json(&slow.to_json()).expect("parse own output");
    assert_eq!(parsed, slow);

    // Halving η must halve throughput: mean slowdown roughly doubles
    // against the default model.
    let baseline = Scenario {
        overrides: CcOverrides::default(),
        ..slow.clone()
    };
    let s_slow = run_scenario(&parsed, SimBackend::Fluid)
        .mean_slowdown()
        .unwrap();
    let s_base = run_scenario(&baseline, SimBackend::Fluid)
        .mean_slowdown()
        .unwrap();
    assert!(
        s_slow > 1.5 * s_base,
        "calibration override ignored: {s_slow} vs {s_base}"
    );
}

fn calibration_strategy() -> impl Strategy<Value = Calibration> {
    // Valid parameter space: utilization ∈ (0, 1], queue_rtts ≥ 0 finite.
    (1u32..1001, 0.0f64..64.0).prop_map(|(u, q)| Calibration {
        utilization: u as f64 / 1000.0,
        queue_rtts: q,
    })
}

proptest! {
    /// Any valid set round-trips losslessly through the JSON artifact
    /// (Rust's shortest-representation float formatting is exact).
    #[test]
    fn calibration_json_roundtrip_is_lossless(
        entries in proptest::collection::vec(
            calibration_strategy(),
            CcKind::ALL.len()..CcKind::ALL.len() + 1,
        )
    ) {
        let mut set = CalibrationSet::paper();
        for (kind, e) in CcKind::ALL.into_iter().zip(entries) {
            set.set(kind, e).unwrap();
        }
        let parsed = set_from_json(&set_to_json(&set)).unwrap();
        prop_assert_eq!(parsed, set);

        let artifact = CalibrationArtifact { set, scale: "default".into() };
        let reparsed = CalibrationArtifact::from_json(&artifact.to_json()).unwrap();
        prop_assert_eq!(reparsed, artifact);
    }

    /// Every constructed set upholds the model invariants, and
    /// `from_calibration` carries them into `RateModel`.
    #[test]
    fn calibration_set_upholds_invariants(
        entries in proptest::collection::vec(
            calibration_strategy(),
            CcKind::ALL.len()..CcKind::ALL.len() + 1,
        )
    ) {
        let mut set = CalibrationSet::paper();
        for (kind, e) in CcKind::ALL.into_iter().zip(entries) {
            set.set(kind, e).unwrap();
        }
        for kind in CcKind::ALL {
            let m = RateModel::from_calibration(kind, &set);
            prop_assert_eq!(m.kind, kind);
            prop_assert!(m.utilization > 0.0 && m.utilization <= 1.0);
            prop_assert!(m.queue_rtts >= 0.0 && m.queue_rtts.is_finite());
        }
    }

}

/// Out-of-range parameters are rejected wherever they enter, and a failed
/// set leaves the entry untouched.
#[test]
fn invalid_calibrations_are_rejected() {
    let mut set = CalibrationSet::paper();
    for utilization in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
        let bad = Calibration {
            utilization,
            queue_rtts: 1.0,
        };
        assert!(set.set(CcKind::Swift, bad).is_err(), "util {utilization}");
    }
    for queue_rtts in [-0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let bad = Calibration {
            utilization: 0.9,
            queue_rtts,
        };
        assert!(set.set(CcKind::Swift, bad).is_err(), "queue {queue_rtts}");
    }
    assert_eq!(set, CalibrationSet::paper());
    // The same invariants gate the JSON loader.
    let poisoned = CalibrationArtifact {
        set: CalibrationSet::paper(),
        scale: "default".into(),
    }
    .to_json()
    .replace("\"queue_rtts\": 1.2", "\"queue_rtts\": -1.2");
    assert!(CalibrationArtifact::from_json(&poisoned).is_err());
}
