//! Notification latency (Figs. 2 & 12): how stale is the INT a sender acts
//! on, per hop, under HPCC (data-path insertion) vs FNCC (ACK-path
//! insertion)? Compares the closed-form model with live measurement.
//!
//! ```sh
//! cargo run --release --example notification_latency
//! ```

use fncc::prelude::*;

fn main() {
    let model =
        notification_gain_model(3, Bandwidth::gbps(100), TimeDelta::from_ns(1500), 1518, 70);

    let fncc = elephants(CcKind::Fncc, 100, 1200);
    let TrafficSpec::Elephants { join_at_us } = fncc.traffic else {
        unreachable!("the elephant preset is elephant traffic")
    };
    let f = PacketBackend::default().run(&fncc);
    let h = PacketBackend::default().run(&elephants(CcKind::Hpcc, 100, 1200));
    let (fa, ha) = (
        f.indexed_scalars("int_age_us_hop"),
        h.indexed_scalars("int_age_us_hop"),
    );

    println!("INT staleness when the sender consumes it (100 Gb/s dumbbell, 3 switches)\n");
    println!(
        "{:<6} {:>14} {:>14} {:>16} {:>16}",
        "hop", "model_HPCC_us", "model_FNCC_us", "measured_HPCC_us", "measured_FNCC_us"
    );
    for g in &model {
        println!(
            "{:<6} {:>14.2} {:>14.2} {:>16.2} {:>16.2}",
            format!("sw{}", g.hop + 1),
            g.hpcc_age.as_us_f64(),
            g.fncc_age.as_us_f64(),
            ha.get(g.hop).copied().unwrap_or(f64::NAN),
            fa.get(g.hop).copied().unwrap_or(f64::NAN),
        );
    }
    println!(
        "\nFNCC's gain shrinks towards the last hop — exactly why the paper\n\
         adds the Last-Hop Congestion Speedup (Algorithm 2) there."
    );
    let after_join = |r: &RunReport| {
        r.scalar("reaction_us")
            .map(|x| format!("{:.0}", x - join_at_us as f64))
            .unwrap_or_else(|| "-".into())
    };
    println!(
        "\nMeasured sender reaction after the {join_at_us} us join: FNCC {} us, HPCC {} us.",
        after_join(&f),
        after_join(&h),
    );
}
