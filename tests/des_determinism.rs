//! Packet-DES determinism: the same `Scenario` + seed must produce a
//! byte-identical `RunReport` artifact run over run, and across event-queue
//! implementations (timing wheel vs the binary-heap reference oracle).
//!
//! The single wall-clock-derived scalar (`events_per_sec`) is stripped
//! before comparison — it is the one intentionally non-deterministic
//! report field.

use fncc::core::scenario::FaultSpec;
use fncc::core::{
    run_scenario, Backend, PacketBackend, Scenario, SimBackend, StopCondition, TopologySpec,
    TrafficSpec,
};
use fncc::des::engine::QueueKind;
use fncc_cc::CcKind;

fn scenario() -> Scenario {
    let mut sc = Scenario::new(
        "determinism-probe",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Incast {
            receiver: 0,
            fan_in: 6,
            size: 150_000,
            waves: 2,
            gap_us: 50,
        },
        CcKind::Fncc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 50 };
    sc.seeds = vec![7, 8];
    sc
}

/// Serialize the wheel's report with the wall-clock scalar removed.
fn stable_json(sc: &Scenario) -> String {
    let mut report = run_scenario(sc, SimBackend::Packet);
    report.scalars.retain(|(k, _)| k != "events_per_sec");
    report.to_json()
}

/// Additionally drop scheduler-internal diagnostics: `wheel_cascades_l*`
/// exists only when the timing wheel is the event queue, so the
/// cross-scheduler invariant pins the *measurements*, not the scheduler's
/// own introspection counters.
fn scheduler_neutral_json(sc: &Scenario, queue: QueueKind) -> String {
    let mut report = PacketBackend { queue }.run(sc);
    report
        .scalars
        .retain(|(k, _)| k != "events_per_sec" && !k.starts_with("wheel_cascades_"));
    report.to_json()
}

#[test]
fn identical_runs_and_schedulers_yield_identical_reports() {
    let sc = scenario();
    let wheel_a = stable_json(&sc);
    let wheel_b = stable_json(&sc);
    assert_eq!(wheel_a, wheel_b, "same scenario+seed, same scheduler");

    let wheel_neutral = scheduler_neutral_json(&sc, QueueKind::Wheel);
    let heap = scheduler_neutral_json(&sc, QueueKind::Heap);
    assert_eq!(wheel_neutral, heap, "wheel vs heap reference scheduler");
}

/// The determinism probe with a link flap and a seeded random-loss window
/// layered on: fault injection, go-back-N recovery, and the ECMP reroute
/// path must all be as reproducible as the lossless run.
fn faulted_scenario() -> Scenario {
    let mut sc = scenario();
    sc.name = "faulted-determinism-probe".into();
    sc.faults = vec![
        FaultSpec::LinkDown {
            switch: 0,
            port: 2,
            at_us: 40,
        },
        FaultSpec::LinkUp {
            switch: 0,
            port: 2,
            at_us: 300,
        },
        FaultSpec::RandomLoss {
            switch: 1,
            port: 2,
            from_us: 0,
            to_us: 2_000,
            probability: 0.01,
        },
    ];
    sc
}

#[test]
fn fault_injection_is_deterministic_across_runs_and_schedulers() {
    let sc = faulted_scenario();
    let wheel_a = stable_json(&sc);
    let wheel_b = stable_json(&sc);
    assert_eq!(wheel_a, wheel_b, "faulted scenario+seed, same scheduler");
    assert!(
        wheel_a.contains("retx_count") && wheel_a.contains("fault_drops"),
        "fault scalars missing from the report"
    );

    let wheel_neutral = scheduler_neutral_json(&sc, QueueKind::Wheel);
    let heap = scheduler_neutral_json(&sc, QueueKind::Heap);
    assert_eq!(wheel_neutral, heap, "faulted run: wheel vs heap scheduler");
}

/// The scheduler oracle in sharded mode: with `threads >= 1` every shard
/// replica is built on the backend's queue kind, so this pins the
/// per-shard wheels to the per-shard heap references — and the sharded
/// runtime to itself across runs — on both the lossless and the faulted
/// probe.
#[test]
fn sharded_runs_are_deterministic_across_runs_and_schedulers() {
    for mut sc in [scenario(), faulted_scenario()] {
        sc.threads = 2;
        let wheel_a = stable_json(&sc);
        let wheel_b = stable_json(&sc);
        assert_eq!(wheel_a, wheel_b, "{}: sharded run-to-run", sc.name);

        let wheel_neutral = scheduler_neutral_json(&sc, QueueKind::Wheel);
        let heap = scheduler_neutral_json(&sc, QueueKind::Heap);
        assert_eq!(
            wheel_neutral, heap,
            "{}: sharded wheel vs heap scheduler",
            sc.name
        );
    }
}

#[test]
fn engine_health_scalars_are_reported() {
    let mut sc = scenario();
    sc.seeds = vec![7];
    let report = run_scenario(&sc, SimBackend::Packet);
    assert_eq!(
        report.scalar("events_processed"),
        Some(report.events as f64)
    );
    assert!(report.scalar("events_per_sec").unwrap_or(0.0) > 0.0);
    assert!(report.scalar("peak_queue_len").unwrap_or(0.0) > 0.0);
    // A healthy model never schedules into the past.
    assert_eq!(report.scalar("clamped_schedules"), Some(0.0));
}
