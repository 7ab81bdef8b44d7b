//! Quickstart: the paper's §5.1 microbenchmark in ~20 lines.
//!
//! Two elephant flows share the dumbbell of Fig. 10; the second joins at
//! 300 µs. We run FNCC, HPCC and DCQCN and print how fast each sender
//! reacted and how deep the bottleneck queue got.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fncc::prelude::*;

fn main() {
    println!("FNCC quickstart — two elephants on a 100 Gb/s dumbbell\n");
    println!(
        "{:<6} {:>12} {:>15} {:>10} {:>8}",
        "cc", "reaction_us", "peak_queue_KB", "mean_util", "pauses"
    );
    for cc in [CcKind::Fncc, CcKind::Hpcc, CcKind::Dcqcn] {
        let r = PacketBackend::default().run(&elephants(cc, 100, 1200));
        let scalar = |name| r.scalar(name).unwrap_or(0.0);
        println!(
            "{:<6} {:>12} {:>15.1} {:>10.3} {:>8}",
            cc.name(),
            r.scalar("reaction_us")
                .map(|x| format!("{x:.0}"))
                .unwrap_or_else(|| "-".into()),
            scalar("peak_queue_kb"),
            scalar("mean_util"),
            scalar("pause_frames"),
        );
    }
    println!(
        "\nThe join happens at 300 us; FNCC's ACK-path INT lets the sender\n\
         react sub-RTT, before HPCC, and far before DCQCN's CNP loop."
    );
}
