//! A small fat-tree datacenter under the paper's WebSearch workload:
//! Poisson arrivals at 50% load, symmetric ECMP, FCT-slowdown report
//! (a pocket version of Fig. 14) — executed through the unified
//! `Scenario` → `Backend` → `RunReport` path, once per engine.
//!
//! ```sh
//! cargo run --release --example fattree_workload
//! ```

use fncc::prelude::*;

fn main() {
    println!("Fat-tree (k=4, 16 hosts) — WebSearch at 50% load, 150 flows/scheme\n");
    let scenario = |cc| {
        let mut sc = fattree_workload(cc, Workload::WebSearch);
        sc.topology = TopologySpec::FatTree { k: 4 };
        sc.traffic = TrafficSpec::Poisson {
            workload: Workload::WebSearch,
            load: 0.5,
            flows: 150,
        };
        sc.seeds = vec![7];
        sc
    };

    let mut rows: Vec<(CcKind, RunReport)> = Vec::new();
    for cc in [CcKind::Dcqcn, CcKind::Hpcc, CcKind::Fncc] {
        let r = run_scenario(&scenario(cc), SimBackend::Packet);
        assert_eq!(r.unfinished, vec![0], "{cc:?} left flows unfinished");
        rows.push((cc, r));
    }

    println!(
        "{:<10} {:>10} {:>10} {:>10}   (average FCT slowdown per size bucket)",
        "flow_size", "DCQCN", "HPCC", "FNCC"
    );
    let buckets = Workload::WebSearch.buckets();
    for (b, upper) in buckets.iter().enumerate() {
        if rows.iter().all(|(_, r)| r.slowdowns[b].count == 0) {
            continue;
        }
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2}",
            fncc::workloads::distributions::bucket_label(*upper),
            rows[0].1.slowdowns[b].avg,
            rows[1].1.slowdowns[b].avg,
            rows[2].1.slowdowns[b].avg,
        );
    }
    println!("\nFNCC ≤ HPCC ≪ DCQCN across buckets is the Fig. 14 shape.");

    // The same description on the fluid fast path: identical flow sets,
    // a fraction of the events.
    let fncc_fluid = run_scenario(&scenario(CcKind::Fncc), SimBackend::Fluid);
    println!(
        "fluid cross-check: FNCC mean slowdown {:.2} (packet {:.2}) in {} events (packet {})",
        fncc_fluid.mean_slowdown().unwrap(),
        rows[2].1.mean_slowdown().unwrap(),
        fncc_fluid.events,
        rows[2].1.events,
    );
}
