//! Fluid-backend scale benchmarks: allocator throughput (cold from-scratch
//! vs warm incremental) and end-to-end flows-per-second on the paper's
//! fat-tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fncc_cc::CcKind;
use fncc_des::time::{SimTime, TimeDelta};
use fncc_fluid::{Demand, FluidSim, LinkMap, RateModel, WaterFiller};
use fncc_net::ids::{FlowId, HostId};
use fncc_net::topology::Topology;
use fncc_net::units::Bandwidth;
use fncc_workloads::patterns::{incast_storm, permutation_waves};
use fncc_workloads::{poisson_flows, web_search, PoissonConfig};

fn fat_tree() -> Topology {
    Topology::fat_tree(8, Bandwidth::gbps(100), TimeDelta::from_ns(1500))
}

/// A deterministic Poisson-like churn trace over the fat-tree: per event
/// one flow leaves and one arrives (the steady-state shape the warm start
/// exists for), over a standing population of `standing` random pairs.
fn churn_trace(standing: usize, events: usize) -> (Vec<f64>, Vec<Vec<u32>>, Vec<usize>) {
    let topo = fat_tree();
    let lm = LinkMap::new(&topo);
    let caps: Vec<f64> = lm.capacities().iter().map(|&c| c * 0.95).collect();
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let n_hosts = topo.n_hosts as u64;
    let mut paths = Vec::with_capacity(standing + events);
    for i in 0..standing + events {
        let src = (next() % n_hosts) as u32;
        let mut dst = (next() % (n_hosts - 1)) as u32;
        if dst >= src {
            dst += 1;
        }
        paths.push(lm.path_links(&topo, HostId(src), HostId(dst), FlowId(i as u32)));
    }
    let removals = (0..events)
        .map(|_| (next() % standing as u64) as usize)
        .collect();
    (caps, paths, removals)
}

fn bench_allocator(c: &mut Criterion) {
    let mut g = c.benchmark_group("fluid_allocator");
    // A synthetic incast: n flows over (n host uplinks + 1 receiver link).
    for n in [64usize, 1024, 16384] {
        let caps: Vec<f64> = (0..n + 1).map(|_| 100e9).collect();
        let paths: Vec<[u32; 2]> = (0..n).map(|i| [i as u32, n as u32]).collect();
        let demands: Vec<Demand<'_>> = paths
            .iter()
            .map(|p| Demand {
                cap: f64::INFINITY,
                path: p,
            })
            .collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("incast_waterfill", n), &n, |b, _| {
            let mut wf = WaterFiller::new(caps.len());
            let mut rates = Vec::new();
            b.iter(|| {
                wf.allocate(&caps, &demands, &mut rates);
                rates[0]
            })
        });
    }
    g.finish();
}

/// Cold vs warm: the same single-flow churn sequence solved from scratch
/// every event (the old per-event cost) vs through the incremental
/// `add_flow`/`remove_flow`/`rebalance` path. The ratio is the warm-start
/// payoff the ROADMAP item asked for; regressions here are hot-path
/// regressions in the fluid backend.
fn bench_churn_cold_vs_warm(c: &mut Criterion) {
    const STANDING: usize = 500;
    const EVENTS: usize = 200;
    let (caps, paths, removals) = churn_trace(STANDING, EVENTS);
    let mut g = c.benchmark_group("fluid_allocator_churn");
    g.throughput(Throughput::Elements(EVENTS as u64));

    g.bench_function("cold_full_solve", |b| {
        let mut wf = WaterFiller::new(caps.len());
        let mut rates = Vec::new();
        b.iter(|| {
            let mut alive: Vec<usize> = (0..STANDING).collect();
            let mut acc = 0.0;
            for (ev, &gone) in removals.iter().enumerate() {
                alive[gone] = STANDING + ev;
                let demands: Vec<Demand<'_>> = alive
                    .iter()
                    .map(|&ix| Demand {
                        cap: f64::INFINITY,
                        path: &paths[ix],
                    })
                    .collect();
                wf.allocate(&caps, &demands, &mut rates);
                acc += rates[gone];
            }
            acc
        })
    });

    g.bench_function("warm_incremental", |b| {
        let mut wf = WaterFiller::new(caps.len());
        b.iter(|| {
            wf.begin_incremental(&caps);
            let mut alive: Vec<u32> = paths[..STANDING].iter().map(|p| wf.add_flow(p)).collect();
            wf.rebalance();
            let mut acc = 0.0;
            for (ev, &gone) in removals.iter().enumerate() {
                wf.remove_flow(alive[gone]);
                alive[gone] = wf.add_flow(&paths[STANDING + ev]);
                wf.rebalance();
                acc += wf.rate(alive[gone]);
            }
            acc
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("fluid_end_to_end");
    g.sample_size(10);

    let topo = fat_tree();
    const N_PERM: u64 = 10_048; // 78.5 waves × 128 hosts
    g.throughput(Throughput::Elements(N_PERM));
    g.bench_function("permutation_10k_flows", |b| {
        b.iter(|| {
            let flows = permutation_waves(topo.n_hosts, 100_000, 79, TimeDelta::from_us(50), 1);
            let r = FluidSim::new(topo.clone(), RateModel::paper_default(CcKind::Fncc))
                .flows(flows)
                .run()
                .unwrap();
            assert!(r.telemetry.all_flows_finished());
            r.reallocations
        })
    });

    const N_STORM: u64 = 10_000;
    g.throughput(Throughput::Elements(N_STORM));
    g.bench_function("incast_storm_10k_flows", |b| {
        b.iter(|| {
            let flows = incast_storm(
                topo.n_hosts,
                HostId(0),
                100,
                100_000,
                100,
                TimeDelta::from_us(200),
            );
            let r = FluidSim::new(topo.clone(), RateModel::paper_default(CcKind::Fncc))
                .flows(flows)
                .run()
                .unwrap();
            assert!(r.telemetry.all_flows_finished());
            r.reallocations
        })
    });

    const N_POISSON: u64 = 5_000;
    g.throughput(Throughput::Elements(N_POISSON));
    g.bench_function("websearch_poisson_5k_flows", |b| {
        b.iter(|| {
            let flows = poisson_flows(
                &PoissonConfig {
                    n_hosts: topo.n_hosts,
                    line: Bandwidth::gbps(100),
                    load: 0.5,
                    n_flows: N_POISSON as u32,
                    first_id: 0,
                    start: SimTime::ZERO,
                    seed: 1,
                },
                &web_search(),
            );
            let r = FluidSim::new(topo.clone(), RateModel::paper_default(CcKind::Fncc))
                .flows(flows)
                .run()
                .unwrap();
            assert!(r.telemetry.all_flows_finished());
            r.reallocations
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_allocator,
    bench_churn_cold_vs_warm,
    bench_end_to_end
);
criterion_main!(benches);
