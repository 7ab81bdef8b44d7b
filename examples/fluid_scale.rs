//! The fluid backend at scale: 100k+ flows on the paper's k=8 fat-tree
//! (128 hosts, 100 Gb/s), completing in seconds — five to six orders of
//! magnitude beyond what the packet DES backend can touch.
//!
//! ```text
//! cargo run --release --example fluid_scale
//! ```

use fncc::cc::CcKind;
use fncc::des::{SimTime, TimeDelta};
use fncc::net::ids::HostId;
use fncc::net::topology::Topology;
use fncc::net::units::Bandwidth;
use fncc::transport::FlowSpec;
use fncc::workloads::patterns::{incast_storm, permutation_waves};
use fncc::workloads::{poisson_flows, web_search, PoissonConfig};
use fncc_fluid::{FluidSim, Framing, RateModel};
use std::time::Instant;

fn run(name: &str, topo: &Topology, flows: Vec<FlowSpec>) {
    let n = flows.len();
    let t0 = Instant::now();
    let result = FluidSim::new(topo.clone(), RateModel::paper_default(CcKind::Fncc))
        .flows(flows)
        .run()
        .expect("scenario has no zero-capacity links");
    let wall = t0.elapsed().as_secs_f64();
    assert!(
        result.records().all(|rec| rec.finish.is_some()),
        "{name}: flows left unfinished"
    );
    println!(
        "{name:<28} {n:>8} flows  {wall:>6.2}s wall  {:>8.0} flows/s  peak {:>6} active  \
         sim horizon {:.1} ms  mean slowdown {:.2}  ({} warm / {} full solves)",
        n as f64 / wall,
        result.peak_active,
        result.horizon.as_secs_f64() * 1e3,
        result.mean_slowdown(topo, Framing::default()),
        result.incremental_solves,
        result.full_solves,
    );
}

fn main() {
    let line = Bandwidth::gbps(100);
    let topo = Topology::fat_tree(8, line, TimeDelta::from_ns(1500));
    println!(
        "fluid backend on fat-tree k=8 ({} hosts, {} switches), FNCC rate model\n",
        topo.n_hosts,
        topo.n_switches()
    );

    // 1. 100k flows of random-permutation waves (wave events invalidate
    //    most of the solution, so this exercises the full-solve fallback).
    run(
        "permutation x782 waves",
        &topo,
        permutation_waves(topo.n_hosts, 100_000, 782, TimeDelta::from_us(50), 1),
    );

    // 2. Incast storms: 100 senders slam one host, 1000 waves (100k flows).
    run(
        "incast storm 100-to-1",
        &topo,
        incast_storm(
            topo.n_hosts,
            HostId(0),
            100,
            100_000,
            1000,
            TimeDelta::from_us(200),
        ),
    );

    // 3. Heavy-tailed Poisson arrivals (the §5.5 workload, fluid scale) —
    //    the warm-start acceptance run: single-flow churn events where the
    //    incremental allocator re-freezes only the affected residual.
    run(
        "web-search poisson 50%",
        &topo,
        poisson_flows(
            &PoissonConfig {
                n_hosts: topo.n_hosts,
                line,
                load: 0.5,
                n_flows: 100_000,
                first_id: 0,
                start: SimTime::ZERO,
                seed: 1,
            },
            &web_search(),
        ),
    );

    println!("\n(the packet DES backend runs ~400 such flows per seed in comparable wall time)");
}
