//! Fairness staircase (Fig. 13e): four senders join a shared 100 Gb/s
//! bottleneck one interval apart and leave in join order. A fair CC gives
//! every active flow an equal share in every period.
//!
//! ```sh
//! cargo run --release --example fairness
//! ```

use fncc::prelude::*;

fn main() {
    println!("Fairness staircase — 4 staggered flows on a shared bottleneck\n");
    let staircase =
        |cc| PacketBackend::default().run(&staircase_scenario(cc, 4, TimeDelta::from_ms(1), 1));
    for cc in [CcKind::Fncc, CcKind::Hpcc] {
        let r = staircase(cc);
        print!("{:<6} Jain per period:", cc.name());
        for j in r.indexed_scalars("jain_p") {
            print!(" {j:.3}");
        }
        println!(
            "  (all flows drained: {})",
            r.scalar("all_finished") == Some(1.0)
        );
    }

    // Show the staircase itself: mean rate of each flow per period (FNCC).
    // The staircase probes only the `flow{i}` rates.
    let r = staircase(CcKind::Fncc);
    println!("\nFNCC mean rate (Gb/s) per flow per 1 ms period:");
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "period", "flow0", "flow1", "flow2", "flow3"
    );
    for p in 0..7u64 {
        let lo = SimTime::from_ms(p);
        let hi = SimTime::from_ms(p + 1);
        print!("{p:<8}");
        for f in &r.series {
            print!(" {:>8.1}", f.mean_in(lo, hi));
        }
        println!();
    }
    println!(
        "\nExpected staircase: 100 -> 50 -> 33 -> 25 Gb/s as flows join, reversed as they leave."
    );
}
