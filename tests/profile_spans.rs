//! Self-profiling spans reach the report on every backend, and nothing
//! else in the report moves when they do.
//!
//! One test in a binary of its own: it sets `FNCC_PROFILE`, which every
//! profiler reads when it is built, so no other test may run beside it.

use fncc::core::obs::profile::PROFILE_ENV;
use fncc::core::{
    run_scenario, ForegroundSpec, PartitionRule, RunReport, Scenario, SimBackend, StopCondition,
    TopologySpec, TrafficSpec,
};
use fncc_cc::CcKind;

/// A k=4 two-wave incast, its first wave at packet fidelity under the
/// hybrid backend.
fn cell() -> Scenario {
    let mut sc = Scenario::new(
        "profile-spans",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Incast {
            receiver: 0,
            fan_in: 8,
            size: 100_000,
            waves: 2,
            gap_us: 30,
        },
        CcKind::Fncc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 50 };
    sc.seeds = vec![5, 6];
    sc.foreground = Some(ForegroundSpec {
        rules: vec![PartitionRule::FirstFlows { n: 8 }],
    });
    sc
}

/// The report without its wall-clock scalars: the spans and the event rate.
fn stable_json(mut report: RunReport) -> String {
    report
        .scalars
        .retain(|(k, _)| !k.starts_with("span_") && k != "events_per_sec");
    report.to_json()
}

#[test]
fn every_backend_reports_its_spans_and_nothing_else_moves() {
    let sc = cell();
    let want: [(SimBackend, &[&str]); 3] = [
        (
            SimBackend::Packet,
            &["sched_pop", "dispatch", "cc_update", "report_build"],
        ),
        (SimBackend::Fluid, &["fluid_solve", "report_build"]),
        (
            SimBackend::Hybrid,
            &[
                "sched_pop",
                "dispatch",
                "cc_update",
                "bg_fluid_solve",
                "report_build",
            ],
        ),
    ];
    for (backend, spans) in want {
        std::env::remove_var(PROFILE_ENV);
        let plain = run_scenario(&sc, backend);
        std::env::set_var(PROFILE_ENV, "1");
        let profiled = run_scenario(&sc, backend);
        std::env::remove_var(PROFILE_ENV);

        let name = backend.name();
        assert!(
            !plain.scalars.iter().any(|(k, _)| k.starts_with("span_")),
            "{name}: spans without FNCC_PROFILE"
        );
        for span in spans {
            let calls = profiled.scalar(&format!("span_{span}_calls"));
            assert!(
                calls.is_some_and(|n| n > 0.0),
                "{name}: span_{span}_calls is {calls:?}"
            );
        }
        assert_eq!(
            stable_json(plain),
            stable_json(profiled),
            "{name}: profiling moved a deterministic scalar"
        );
    }
}
