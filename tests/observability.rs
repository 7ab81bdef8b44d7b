//! Flight-recorder observability guarantees.
//!
//! Four contracts are pinned here:
//!
//! 1. The `fncc.trace/v1` JSONL wire format — a literal snapshot of the
//!    header and one line per event kind, so any accidental schema drift
//!    (renamed field, reordered key) fails a test instead of breaking the
//!    downstream `inspect` tooling silently.
//! 2. Every event round-trips through the repo's own JSON parser with all
//!    payload fields intact (property-tested over the full value ranges,
//!    field by field through `TraceEvent::map_fields`, the writer's visitor).
//! 3. Arming the recorder never changes the `RunReport`: both backends'
//!    smoke scenarios produce byte-identical artifacts with tracing on and
//!    off — the trace rides in a separate file.
//! 4. Each engine's trace artifact itself is byte-pinned: the packet
//!    engine's for the one-replica run (`threads: 0`, ring moved out as
//!    recorded) and the pod-sharded run (per-shard rings interleaved by
//!    `(timestamp, shard)`), and one fluid and one hybrid run's.

use fncc::core::json::Json;
use fncc::core::obs::{TraceEvent, TraceMeta, TraceSink, TraceValue};
use fncc::core::{
    run_scenario_traced, ForegroundSpec, PartitionRule, Scenario, SimBackend, StopCondition,
    TopologySpec, TrafficSpec,
};
use fncc_cc::CcKind;
use proptest::prelude::*;

fn drain(sink: &TraceSink) -> String {
    let meta = TraceMeta {
        scenario: "snap".into(),
        backend: "packet".into(),
        seed: 7,
    };
    let mut out = Vec::new();
    sink.write_jsonl(&mut out, &meta).unwrap();
    String::from_utf8(out).unwrap()
}

/// One event of every kind, with distinct payload values so a swapped
/// field shows up as a changed literal below.
fn one_of_each() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Enqueue {
            t_ps: 1,
            sw: 2,
            port: 3,
            flow: 4,
            size: 5,
            queue_bytes: 6,
        },
        TraceEvent::Dequeue {
            t_ps: 7,
            sw: 8,
            port: 9,
            flow: 10,
            size: 11,
            queue_bytes: 12,
        },
        TraceEvent::EcnMark {
            t_ps: 13,
            sw: 14,
            port: 15,
            flow: 16,
            queue_bytes: 17,
        },
        TraceEvent::Drop {
            t_ps: 18,
            sw: 19,
            port: 20,
            flow: 21,
            size: 22,
        },
        TraceEvent::PfcPause {
            t_ps: 23,
            node: 24,
            port: 25,
            tx: true,
            at_host: false,
        },
        TraceEvent::PfcResume {
            t_ps: 26,
            node: 27,
            port: 28,
            tx: false,
            at_host: true,
        },
        TraceEvent::Cnp {
            t_ps: 29,
            flow: 30,
            src: 31,
            dst: 32,
        },
        TraceEvent::IntRecord {
            t_ps: 33,
            flow: 34,
            hop: 35,
            age_ps: 36,
        },
        TraceEvent::RateUpdate {
            t_ps: 37,
            flow: 38,
            rate_bps: 39.5,
            window_bytes: -1.0,
        },
        TraceEvent::FlowStart {
            t_ps: 40,
            flow: 41,
            src: 42,
            dst: 43,
            size: 44,
        },
        TraceEvent::FlowFinish { t_ps: 45, flow: 46 },
        TraceEvent::SolveBegin {
            t_ps: 47,
            active: 48,
        },
        TraceEvent::SolveEnd {
            t_ps: 49,
            full: true,
            changed: 50,
        },
        TraceEvent::FluidFlowAdd { t_ps: 51, flow: 52 },
        TraceEvent::FluidFlowRemove { t_ps: 53, flow: 54 },
        TraceEvent::HybridSync {
            t_ps: 55,
            reservations: 56,
        },
        TraceEvent::HybridReserve {
            t_ps: 58,
            link: 59,
            load_bps: 60.5,
        },
        TraceEvent::HybridBacklog {
            t_ps: 64,
            link: 65,
            backlog_bytes: 66,
        },
        TraceEvent::LinkDown {
            t_ps: 67,
            sw: 68,
            port: 69,
        },
        TraceEvent::LinkUp {
            t_ps: 70,
            sw: 71,
            port: 72,
        },
        TraceEvent::FaultDrop {
            t_ps: 73,
            sw: 74,
            port: 75,
            flow: 76,
            size: 77,
        },
        TraceEvent::Retransmit {
            t_ps: 78,
            flow: 79,
            seq: 80,
        },
        TraceEvent::Rto {
            t_ps: 81,
            flow: 82,
            rto_ps: 83,
        },
    ]
}

#[test]
fn trace_v1_schema_snapshot() {
    let mut sink = TraceSink::with_capacity(64);
    for ev in one_of_each() {
        sink.record(ev);
    }
    let text = drain(&sink);
    let expected = "\
{\"schema\":\"fncc.trace/v1\",\"scenario\":\"snap\",\"backend\":\"packet\",\"seed\":7,\"events\":23,\"dropped\":0}
{\"ev\":\"enqueue\",\"t_ps\":1,\"sw\":2,\"port\":3,\"flow\":4,\"size\":5,\"queue_bytes\":6}
{\"ev\":\"dequeue\",\"t_ps\":7,\"sw\":8,\"port\":9,\"flow\":10,\"size\":11,\"queue_bytes\":12}
{\"ev\":\"ecn_mark\",\"t_ps\":13,\"sw\":14,\"port\":15,\"flow\":16,\"queue_bytes\":17}
{\"ev\":\"drop\",\"t_ps\":18,\"sw\":19,\"port\":20,\"flow\":21,\"size\":22}
{\"ev\":\"pfc_pause\",\"t_ps\":23,\"node\":24,\"port\":25,\"tx\":true,\"at_host\":false}
{\"ev\":\"pfc_resume\",\"t_ps\":26,\"node\":27,\"port\":28,\"tx\":false,\"at_host\":true}
{\"ev\":\"cnp\",\"t_ps\":29,\"flow\":30,\"src\":31,\"dst\":32}
{\"ev\":\"int_record\",\"t_ps\":33,\"flow\":34,\"hop\":35,\"age_ps\":36}
{\"ev\":\"rate_update\",\"t_ps\":37,\"flow\":38,\"rate_bps\":39.5,\"window_bytes\":-1}
{\"ev\":\"flow_start\",\"t_ps\":40,\"flow\":41,\"src\":42,\"dst\":43,\"size\":44}
{\"ev\":\"flow_finish\",\"t_ps\":45,\"flow\":46}
{\"ev\":\"solve_begin\",\"t_ps\":47,\"active\":48}
{\"ev\":\"solve_end\",\"t_ps\":49,\"full\":true,\"changed\":50}
{\"ev\":\"fluid_flow_add\",\"t_ps\":51,\"flow\":52}
{\"ev\":\"fluid_flow_remove\",\"t_ps\":53,\"flow\":54}
{\"ev\":\"hybrid_sync\",\"t_ps\":55,\"reservations\":56}
{\"ev\":\"hybrid_reserve\",\"t_ps\":58,\"link\":59,\"load_bps\":60.5}
{\"ev\":\"hybrid_backlog\",\"t_ps\":64,\"link\":65,\"backlog_bytes\":66}
{\"ev\":\"link_down\",\"t_ps\":67,\"sw\":68,\"port\":69}
{\"ev\":\"link_up\",\"t_ps\":70,\"sw\":71,\"port\":72}
{\"ev\":\"fault_drop\",\"t_ps\":73,\"sw\":74,\"port\":75,\"flow\":76,\"size\":77}
{\"ev\":\"retransmit\",\"t_ps\":78,\"flow\":79,\"seq\":80}
{\"ev\":\"rto\",\"t_ps\":81,\"flow\":82,\"rto_ps\":83}
";
    assert_eq!(text, expected, "fncc.trace/v1 wire format drifted");
}

#[test]
fn trace_ring_overwrites_oldest_and_counts_drops() {
    let mut sink = TraceSink::with_capacity(4);
    for i in 0..10u64 {
        sink.record(TraceEvent::FlowFinish {
            t_ps: i,
            flow: i as u32,
        });
    }
    assert_eq!(sink.len(), 4);
    assert_eq!(sink.dropped(), 6);
    let ts: Vec<u64> = sink.events().map(TraceEvent::t_ps).collect();
    assert_eq!(ts, vec![6, 7, 8, 9], "oldest-first iteration after wrap");
}

// ----------------------------------------------------------------------
// Property: every event survives the JSONL round trip.
// ----------------------------------------------------------------------

/// Draws one uniformly-kinded event with uniformly random payloads: a
/// template from [`one_of_each`] with every field redrawn through the
/// event's field visitor (the vendored proptest shim has no `prop_oneof`,
/// so this implements [`Strategy`] directly). Unsigned draws stay below
/// 2^53 so the f64-based JSON reader represents them exactly; narrower
/// fields keep the low bits.
struct EventStrategy;

impl Strategy for EventStrategy {
    type Value = TraceEvent;

    fn generate(&self, rng: &mut proptest::TestRng) -> TraceEvent {
        let kinds = one_of_each();
        let template = kinds[rng.below(kinds.len() as u64) as usize];
        template.map_fields(&mut |_, v| match v {
            TraceValue::U64(_) => TraceValue::U64(rng.next_u64() >> 11),
            TraceValue::F64(_) if rng.next_u64() & 1 == 1 => TraceValue::F64(-1.0),
            TraceValue::F64(_) => TraceValue::F64(rng.unit_f64() * 1e12),
            TraceValue::Bool(_) => TraceValue::Bool(rng.next_u64() & 1 == 1),
        })
    }
}

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    EventStrategy
}

/// Field-by-field comparison of a parsed JSONL line against the source
/// event, through the same field visitor the writer uses; the line holds
/// `ev` plus exactly the visited fields.
fn assert_matches(line: &Json, ev: &TraceEvent) {
    assert_eq!(line.get("ev").and_then(Json::as_str), Some(ev.kind()));
    let mut keys = 1;
    ev.map_fields(&mut |k, v| {
        let field = line.get(k);
        match v {
            TraceValue::U64(x) => assert_eq!(field.and_then(Json::as_f64), Some(x as f64), "{k}"),
            TraceValue::F64(x) => assert_eq!(field.and_then(Json::as_f64), Some(x), "{k}"),
            TraceValue::Bool(x) => assert_eq!(field.and_then(Json::as_bool), Some(x), "{k}"),
        }
        keys += 1;
        v
    });
    assert!(matches!(line, Json::Obj(fields) if fields.len() == keys));
}

proptest! {
    #[test]
    fn trace_events_roundtrip_through_json(
        events in proptest::collection::vec(event_strategy(), 1..40)
    ) {
        let mut sink = TraceSink::with_capacity(64);
        for ev in &events {
            sink.record(*ev);
        }
        let text = drain(&sink);
        let mut lines = text.lines();
        let header = Json::parse(lines.next().unwrap()).unwrap();
        prop_assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some("fncc.trace/v1")
        );
        prop_assert_eq!(
            header.get("events").and_then(Json::as_f64),
            Some(events.len() as f64)
        );
        for (line, ev) in lines.zip(&events) {
            let parsed = Json::parse(line).unwrap();
            assert_matches(&parsed, ev);
        }
    }
}

// ----------------------------------------------------------------------
// Report invariance: tracing on vs off.
// ----------------------------------------------------------------------

/// The report with the single wall-clock scalar stripped (same rule as the
/// determinism suite: `events_per_sec` is intentionally non-deterministic).
fn stable_json(sc: &Scenario, backend: SimBackend, trace_out: Option<&std::path::Path>) -> String {
    let mut report = run_scenario_traced(sc, backend, trace_out);
    report.scalars.retain(|(k, _)| k != "events_per_sec");
    report.to_json()
}

fn assert_trace_invariant(scenario_file: &str, backend: SimBackend) {
    let text = std::fs::read_to_string(scenario_file).unwrap();
    let mut sc = Scenario::from_json(&text).unwrap();
    sc.probes.trace = false;
    let off = stable_json(&sc, backend, None);

    let dir = std::env::temp_dir().join(format!("fncc-obs-{}-{}", sc.name, backend.name()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("run.trace.jsonl");
    sc.probes.trace = true;
    let on = stable_json(&sc, backend, Some(&trace_path));

    assert_eq!(off, on, "tracing changed the report artifact");

    // The trace landed in its own artifact and is well-formed JSONL.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let mut lines = trace.lines();
    let header = Json::parse(lines.next().unwrap()).unwrap();
    assert_eq!(
        header.get("schema").and_then(Json::as_str),
        Some("fncc.trace/v1")
    );
    assert_eq!(
        header.get("backend").and_then(Json::as_str),
        Some(backend.name())
    );
    let mut n = 0u64;
    for line in lines {
        let ev = Json::parse(line).unwrap();
        assert!(ev.get("ev").and_then(Json::as_str).is_some());
        assert!(ev.get("t_ps").and_then(Json::as_f64).is_some());
        n += 1;
    }
    assert!(n > 0, "armed trace recorded nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn packet_report_identical_with_tracing_on() {
    assert_trace_invariant("scenarios/fattree_des_smoke.json", SimBackend::Packet);
}

#[test]
fn fluid_report_identical_with_tracing_on() {
    assert_trace_invariant("scenarios/websearch_fluid_smoke.json", SimBackend::Fluid);
}

/// FNV-1a hashes of the `fncc.trace/v1` file the packet smoke scenario
/// writes, per `threads` value (recorded at PR 14's head, commit 6fea562).
const PACKET_TRACE_GOLDEN: [(u32, u64); 2] = [(0, 0x2ef198fddc5d3fb7), (2, 0x8ae2dc4c5f74ae7f)];

/// FNV-1a hash of the `fncc.trace/v1` file one traced run of `sc` writes.
fn trace_hash(sc: &Scenario, backend: SimBackend, dir: &std::path::Path, tag: &str) -> u64 {
    let path = dir.join(format!("{tag}.trace.jsonl"));
    run_scenario_traced(sc, backend, Some(&path));
    std::fs::read(&path)
        .unwrap()
        .iter()
        .fold(0xcbf29ce484222325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
}

#[test]
fn packet_trace_artifact_is_byte_pinned() {
    let text = std::fs::read_to_string("scenarios/fattree_des_smoke.json").unwrap();
    let mut sc = Scenario::from_json(&text).unwrap();
    sc.probes.trace = true;
    let dir = std::env::temp_dir().join("fncc-obs-trace-pin");
    std::fs::create_dir_all(&dir).unwrap();
    for (threads, want) in PACKET_TRACE_GOLDEN {
        sc.threads = threads;
        let got = trace_hash(&sc, SimBackend::Packet, &dir, &format!("t{threads}"));
        assert_eq!(
            got, want,
            "threads {threads}: trace artifact drifted (got 0x{got:016x}, want 0x{want:016x})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a hashes of the fluid smoke scenario's trace file and of a k=4
/// two-wave incast on the hybrid backend (first wave at packet fidelity),
/// recorded before the event table derived the JSONL writer.
const FLUID_TRACE_GOLDEN: u64 = 0x30c7a35641d90ecf;
const HYBRID_TRACE_GOLDEN: u64 = 0x007ec39fac1803ea;

#[test]
fn fluid_and_hybrid_trace_artifacts_are_byte_pinned() {
    // Every event is a copy of plain scalars; the ring's memory budget
    // (`TraceSink::DEFAULT_CAPACITY` events) assumes this size.
    assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
    let text = std::fs::read_to_string("scenarios/websearch_fluid_smoke.json").unwrap();
    let mut fluid = Scenario::from_json(&text).unwrap();
    fluid.probes.trace = true;
    let mut hybrid = Scenario::new(
        "obs-hybrid-pin",
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
    hybrid.stop = StopCondition::Drain { cap_ms: 50 };
    hybrid.seeds = vec![5];
    hybrid.foreground = Some(ForegroundSpec {
        rules: vec![PartitionRule::FirstFlows { n: 8 }],
    });
    hybrid.probes.trace = true;
    let dir = std::env::temp_dir().join("fncc-obs-trace-pin-fh");
    std::fs::create_dir_all(&dir).unwrap();
    for (sc, backend, want) in [
        (&fluid, SimBackend::Fluid, FLUID_TRACE_GOLDEN),
        (&hybrid, SimBackend::Hybrid, HYBRID_TRACE_GOLDEN),
    ] {
        let got = trace_hash(sc, backend, &dir, backend.name());
        assert_eq!(
            got,
            want,
            "{}: trace artifact drifted (got 0x{got:016x}, want 0x{want:016x})",
            backend.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
