//! Smoke run of every workload at `--reps 1 --scale tiny`, through the same
//! entry points the binary uses: every workload emits every metric of the
//! spec with its unit, is correct, and its result object survives a trip
//! through `fncc_core::json`.

use fncc_core::json::Json;
use fncc_perfbench::harness::{end_to_end, Options, Outcome};
use fncc_perfbench::layers::traced;
use fncc_perfbench::spec::{per_layer, END_TO_END};
use fncc_perfbench::workloads::{Scale, WORKLOADS};
use std::sync::Mutex;
use std::time::Instant;

/// The traced run switches `FNCC_PROFILE` (process-wide) on and off, and
/// one test holds a wall-clock limit: the tests take turns.
static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const TINY: Options = Options {
    seed: 1,
    seconds: 0.0,
    reps: Some(1),
    scale: Scale::Tiny,
};

fn assert_round_trips(outcome: &Outcome, names: &[(String, &str)]) {
    assert!(outcome.correct(), "{}", outcome.table());
    assert!(outcome.attempted >= 1 && outcome.failed == 0);
    let text = outcome.to_json().to_string_compact();
    assert!(!text.contains('\n'));
    let back = Json::parse(&text).unwrap();
    assert_eq!(back, outcome.to_json());
    let Json::Obj(top) = &back else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Json::Obj(metrics)) = back.get("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), names.len(), "{}", outcome.workload);
    for ((got, value), (want, unit)) in metrics.iter().zip(names) {
        assert_eq!(got, want, "{}", outcome.workload);
        assert_eq!(value.get("unit").and_then(Json::as_str), Some(*unit));
        let v = value.get("value").and_then(Json::as_f64).unwrap();
        assert!(v.is_finite(), "{} {want} = {v}", outcome.workload);
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let _turn = my_turn();
    let started = Instant::now();
    let names: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .collect();
    for w in &WORKLOADS {
        let outcome = end_to_end(w, &TINY).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_round_trips(&outcome, &names);
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{} {} must never be 0", w.name, m.name);
        }
    }
    // < 10 s in a release build; a debug build is given the same again.
    let limit = if cfg!(debug_assertions) { 20.0 } else { 10.0 };
    assert!(
        started.elapsed().as_secs_f64() < limit,
        "tiny pass too slow"
    );
}

#[test]
fn sharded_and_legacy_workloads_report_identical_simulated_statistics() {
    let _turn = my_turn();
    let by = |name: &str| WORKLOADS.iter().find(|w| w.name == name).unwrap();
    let legacy = end_to_end(by("des_websearch_k8"), &TINY).unwrap();
    let sharded = end_to_end(by("des_sharded_k8_t1"), &TINY).unwrap();
    assert_eq!(legacy.attempted, sharded.attempted);
    assert_eq!(
        legacy.value("fct_slowdown_mean").unwrap().to_bits(),
        sharded.value("fct_slowdown_mean").unwrap().to_bits()
    );
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_its_spans() {
    let _turn = my_turn();
    let names: Vec<(String, &str)> = per_layer().into_iter().map(|m| (m.name, m.unit)).collect();
    // One workload per backend, plus the sharded one for its comparisons.
    for name in ["des_sharded_k8_t1", "fluid_websearch_k8", "hybrid_fleet_k8"] {
        let w = WORKLOADS.iter().find(|w| w.name == name).unwrap();
        let (outcome, tracer) = traced(w, &TINY).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_round_trips(&outcome, &names);
        let has = |span: &str| tracer.spans().iter().any(|s| s.name == span);
        for span in ["setup.parse", "setup.instance", "rep.backend_run"] {
            assert!(has(span), "{name}: no {span} span");
        }
        assert!(has("micro.net.pool_cycle_ns"));
        assert!(outcome.value("harness.trace_overhead_pct").is_some());
        let nonzero = |m: &str| outcome.value(m).unwrap() > 0.0;
        assert!(nonzero("des.events") && nonzero("core.instance_ms"));
        match name {
            "des_sharded_k8_t1" => {
                assert!(nonzero("core.epochs") && nonzero("core.sharded_speedup_t2"))
            }
            "fluid_websearch_k8" => {
                assert!(nonzero("fluid.incremental_solves") && nonzero("fluid.flows_per_s"))
            }
            _ => assert!(nonzero("hybrid.syncs") && nonzero("hybrid.fg_flows")),
        }
    }
}
