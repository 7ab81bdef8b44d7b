//! PFC pressure at high line rates (§2.3 / Fig. 3): slow congestion control
//! lets queues cross the PFC threshold and pause upstream senders; pause
//! storms are exactly what fast notification avoids.
//!
//! ```sh
//! cargo run --release --example pfc_pause
//! ```

use fncc::prelude::*;

fn main() {
    println!("PFC pause frames at the congestion point (two elephants, join at 300 us)\n");
    println!(
        "{:<6} {:>8} {:>14} {:>14} {:>10}",
        "cc", "Gb/s", "peak_queue_KB", "pause_frames", "drops"
    );
    for gbps in [100u64, 200, 400] {
        for cc in [CcKind::Fncc, CcKind::Hpcc, CcKind::Dcqcn] {
            let r = PacketBackend::default().run(&elephants(cc, gbps, 1200));
            let scalar = |name| r.scalar(name).unwrap_or(0.0);
            println!(
                "{:<6} {:>8} {:>14.1} {:>14} {:>10}",
                cc.name(),
                gbps,
                scalar("peak_queue_kb"),
                scalar("pause_frames"),
                0 // PFC keeps the fabric lossless; drops are always zero here
            );
        }
        println!();
    }
    println!("DCQCN's late reaction pushes per-ingress occupancy past the 500 KB");
    println!("PFC threshold at 200/400 Gb/s; FNCC never pauses.");
}
