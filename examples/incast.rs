//! Incast: N senders dump a burst at one receiver — the classic last-hop
//! congestion workload that motivates FNCC's LHCS (Algorithm 2).
//!
//! Senders sit on a star, so the receiver link is the flows' *last hop*.
//! With LHCS the receiver's concurrent-flow count N lets every sender jump
//! straight to `B·RTT·β/N`; without it they converge step by step.
//!
//! ```sh
//! cargo run --release --example incast
//! ```

use fncc::cc::{CcAlgo, FnccConfig};
use fncc::core::sim::SimBuilder;
use fncc::net::config::FabricConfig;
use fncc::prelude::*;

fn run(n_senders: u32, lhcs: bool) -> (f64, f64, f64, u64, bool) {
    let line = Bandwidth::gbps(100);
    let topo = Topology::star(n_senders + 1, line, TimeDelta::from_ns(1500));
    let receiver = HostId(n_senders);
    let frames = FabricConfig::paper_default();
    let base_rtt = topo.base_rtt(frames.mtu, frames.ack_base);
    let algo = if lhcs {
        CcAlgo::Fncc(FnccConfig::paper_default(line, base_rtt))
    } else {
        CcAlgo::Fncc(FnccConfig::without_lhcs(line, base_rtt))
    };

    let size = 2_000_000u64; // 2 MB per sender
    let flows: Vec<FlowSpec> = (0..n_senders)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId(i),
            dst: receiver,
            size,
            start: SimTime::ZERO,
        })
        .collect();

    let (sw, port) = (SwitchId(0), n_senders as u8); // the receiver's port on the star
    let horizon = SimTime::from_ms(10);
    let mut sim = SimBuilder::with_algo(topo, algo)
        .flows(flows)
        .sample(TimeDelta::from_us(1), horizon)
        .watch(Probe::Queue { sw, port }, "queue_kb")
        .build();
    let all_done = sim.run_to_completion(TimeDelta::from_us(100), horizon);

    let telem = sim.telemetry();
    let q = telem.series("queue_kb").unwrap();
    let peak_kb = q.max();
    let last_fct_us = telem
        .flow_records()
        .filter_map(|r| r.fct())
        .map(|d| d.as_us_f64())
        .fold(0.0, f64::max);
    // Standing queue once the initial synchronized burst has passed — this
    // is what LHCS drains (β < 1 under-utilises until the queue empties).
    let standing_kb = q.mean_in(SimTime::from_us(150), SimTime::from_us(last_fct_us as u64));
    let triggers: u64 = (0..n_senders)
        .map(|i| sim.host(HostId(i)).lhcs_triggers(FlowId(i)).unwrap_or(0))
        .sum();
    (peak_kb, standing_kb, last_fct_us, triggers, all_done)
}

fn main() {
    println!("Incast: N x 2MB -> one receiver (star, 100 Gb/s)\n");
    println!(
        "{:<4} {:<10} {:>14} {:>17} {:>12} {:>14} {:>6}",
        "N", "LHCS", "peak_queue_KB", "standing_queue_KB", "last_FCT_us", "lhcs_triggers", "done"
    );
    for n in [4u32, 8, 16] {
        for lhcs in [false, true] {
            let (peak, standing, fct, trig, done) = run(n, lhcs);
            println!(
                "{:<4} {:<10} {:>14.1} {:>17.1} {:>12.1} {:>14} {:>6}",
                n,
                if lhcs { "with" } else { "without" },
                peak,
                standing,
                fct,
                trig,
                done
            );
        }
    }
    println!(
        "\nThe initial synchronized burst sets the peak (all windows start at one\n\
         BDP), but LHCS drains the *standing* queue by pinning every sender at\n\
         the fair share B*RTT*beta/N with beta < 1."
    );
}
