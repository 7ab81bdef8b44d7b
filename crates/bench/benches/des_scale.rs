//! DES scale sweep: packet-backend events/sec across topology size and
//! flow count. (The wheel-vs-heap scheduler churn comparison is the repo
//! benchmark's `des.wheel_churn_ns` vs `des.heap_churn_ns`,
//! `perfbench/src/micro.rs`.)
//!
//! `fncc-repro bench-des` is the recording harness (it writes
//! `BENCH_des.json`); this criterion bench is for interactive A/B work on
//! the same points at reduced sizes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fncc_cc::CcKind;
use fncc_core::{
    run_scenario, Scenario, SimBackend, StopCondition, TopologySpec, TrafficSpec, Workload,
};

fn point(k: u32, flows: u32) -> Scenario {
    let mut sc = Scenario::new(
        format!("des-scale-k{k}-{flows}f"),
        TopologySpec::FatTree { k },
        TrafficSpec::Poisson {
            workload: Workload::WebSearch,
            load: 0.5,
            flows,
        },
        CcKind::Fncc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 100 };
    sc.seeds = vec![1];
    sc
}

fn bench_des_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_scale");
    g.sample_size(10);
    for (k, flows) in [(4u32, 200u32), (4, 1000), (8, 200), (8, 1000)] {
        let sc = point(k, flows);
        // Pre-measure the event count so criterion reports events/sec.
        let events = run_scenario(&sc, SimBackend::Packet).events;
        g.throughput(Throughput::Elements(events));
        g.bench_function(format!("k{k}_flows{flows}"), |b| {
            b.iter(|| run_scenario(&sc, SimBackend::Packet).events)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_des_scale);
criterion_main!(benches);
