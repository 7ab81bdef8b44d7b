//! Figures 1, 2, 3, 5/6, 9, 12, 13 — microbenchmarks, models and the
//! routing-symmetry check.

use crate::report::{emit_series, emit_table, f2, f3, num, opt_us, relabel};
use crate::RunOpts;
use fncc_cc::CcKind;
use fncc_core::prelude::*;
use fncc_core::sweep::run_parallel;
use fncc_des::output::Table;
use fncc_des::time::TimeDelta;
use fncc_net::ids::{FlowId, HostId};

/// The elephant dumbbell of `cc` at `gbps` over the scale's horizon.
fn micro(cc: CcKind, gbps: u64, opts: &RunOpts) -> Scenario {
    elephants(cc, gbps, opts.micro_horizon_us())
}

/// Run `ccs`' elephant dumbbells at `gbps` in parallel.
fn micro_all(ccs: &[CcKind], gbps: u64, opts: &RunOpts) -> Vec<RunReport> {
    let jobs: Vec<_> = ccs
        .iter()
        .map(|&cc| {
            let sc = micro(cc, gbps, opts);
            move || PacketBackend::default().run(&sc)
        })
        .collect();
    run_parallel(jobs, opts.threads)
}

/// Fig. 1a: NVIDIA Spectrum buffer/capacity trend (static data).
pub fn fig1a(opts: &RunOpts) {
    let mut t = Table::new([
        "switch",
        "released",
        "capacity_tbps",
        "buffer_mb",
        "buffer/capacity_us",
    ]);
    for g in hardware_trends() {
        t.row([
            g.name.to_string(),
            g.released.to_string(),
            f2(g.capacity_tbps),
            f2(g.buffer_mb),
            f2(g.burst_absorption_us()),
        ]);
    }
    emit_table(
        &opts.out,
        "fig1a_hardware_trends",
        "Fig. 1a — switch buffer vs capacity",
        &t,
    );
}

/// Figs. 1b–d: bottleneck queue length over time at 100/200/400 Gb/s for
/// FNCC/HPCC/DCQCN (two elephants, second joins at 300 µs).
pub fn fig1_queues(opts: &RunOpts) {
    let ccs = [CcKind::Fncc, CcKind::Hpcc, CcKind::Dcqcn];
    for gbps in [100u64, 200, 400] {
        let mut t = Table::new(["cc", "peak_queue_KB", "mean_queue_KB", "pause_frames"]);
        let mut named: Vec<TimeSeries> = Vec::new();
        for r in &micro_all(&ccs, gbps, opts) {
            let q = relabel(r, "queue_kb", r.cc.clone());
            t.row([
                r.cc.clone(),
                f2(num(r, "peak_queue_kb")),
                f2(q.mean()),
                num(r, "pause_frames").to_string(),
            ]);
            named.push(q);
        }
        let refs: Vec<&TimeSeries> = named.iter().collect();
        emit_series(&opts.out, &format!("fig1_queue_{gbps}g"), &refs);
        emit_table(
            &opts.out,
            &format!("fig1_summary_{gbps}g"),
            &format!("Fig. 1 — queue length at {gbps} Gb/s"),
            &t,
        );
    }
}

/// Fig. 2: notification latency, measured. The INT a sender consumes is
/// `age` µs old; FNCC's must be fresher than HPCC's on every hop, and the
/// sender's first reaction after the join must come earlier.
pub fn fig2(opts: &RunOpts) {
    let fncc = micro(CcKind::Fncc, 100, opts);
    let TrafficSpec::Elephants { join_at_us } = fncc.traffic else {
        unreachable!("the elephant preset is elephant traffic")
    };
    let f = PacketBackend::default().run(&fncc);
    let h = PacketBackend::default().run(&micro(CcKind::Hpcc, 100, opts));
    let after_join = |r: &RunReport| opt_us(r.scalar("reaction_us").map(|x| x - join_at_us as f64));
    let mut t = Table::new(["quantity", "HPCC", "FNCC"]);
    t.row([
        "reaction after join (us)".to_string(),
        after_join(&h),
        after_join(&f),
    ]);
    let (fa, ha) = (
        f.indexed_scalars("int_age_us_hop"),
        h.indexed_scalars("int_age_us_hop"),
    );
    for hop in 0..ha.len().max(fa.len()) {
        t.row([
            format!("mean INT age, hop {hop} (us)"),
            ha.get(hop).map(|&x| f2(x)).unwrap_or("-".into()),
            fa.get(hop).map(|&x| f2(x)).unwrap_or("-".into()),
        ]);
    }
    emit_table(
        &opts.out,
        "fig2_notification",
        "Fig. 2 — sub-RTT notification (measured)",
        &t,
    );
}

/// Fig. 3: PFC pause frames at the congestion point, 200 and 400 Gb/s.
pub fn fig3(opts: &RunOpts) {
    let ccs = [CcKind::Dcqcn, CcKind::Hpcc, CcKind::Fncc];
    let mut t = Table::new(["cc", "pauses_200G", "pauses_400G"]);
    for &cc in &ccs {
        let pauses = |gbps| {
            let r = PacketBackend::default().run(&micro(cc, gbps, opts));
            num(&r, "pause_frames").to_string()
        };
        t.row([cc.name().to_string(), pauses(200), pauses(400)]);
    }
    emit_table(
        &opts.out,
        "fig3_pause_frames",
        "Fig. 3 — pause frames at the congestion point",
        &t,
    );
}

/// Figs. 5/6: path symmetry under symmetric ECMP and under spanning-tree
/// routing, verified over many flows on the k=8 fat-tree.
pub fn paths(opts: &RunOpts) {
    let line = Bandwidth::gbps(100);
    let prop = TimeDelta::from_ns(1500);
    let mut t = Table::new([
        "routing",
        "pairs_checked",
        "symmetric",
        "distinct_paths_h0_h127",
    ]);
    for (name, topo) in [
        ("symmetric-ECMP", Topology::fat_tree(8, line, prop)),
        (
            "spanning-trees(8)",
            Topology::fat_tree(8, line, prop).with_spanning_trees(8),
        ),
    ] {
        let mut checked = 0u32;
        let mut symmetric = 0u32;
        let mut distinct = std::collections::HashSet::new();
        for f in 0..500u32 {
            let src = HostId((f * 37) % 128);
            let dst = HostId((f * 91 + 17) % 128);
            if src == dst {
                continue;
            }
            checked += 1;
            let fwd = topo.path_switches(src, dst, FlowId(f));
            let mut rev = topo.path_switches(dst, src, FlowId(f));
            rev.reverse();
            if fwd == rev {
                symmetric += 1;
            }
            distinct.insert(topo.path_switches(HostId(0), HostId(127), FlowId(f)));
        }
        t.row([
            name.to_string(),
            checked.to_string(),
            format!("{symmetric}/{checked}"),
            distinct.len().to_string(),
        ]);
    }
    emit_table(
        &opts.out,
        "fig5_6_path_symmetry",
        "Figs. 5–6 — data/ACK path symmetry (FNCC's Observation 2)",
        &t,
    );
}

/// Fig. 9: queue, per-flow rates and utilization for RoCC/DCQCN/HPCC/FNCC at
/// 100/200/400 Gb/s.
pub fn fig9(opts: &RunOpts) {
    let ccs = [CcKind::Fncc, CcKind::Hpcc, CcKind::Dcqcn, CcKind::Rocc];
    let mut summary = Table::new([
        "line",
        "cc",
        "reaction_us",
        "fair_conv_us",
        "peak_queue_KB",
        "mean_util",
        "pauses",
    ]);
    for gbps in [100u64, 200, 400] {
        let mut queues: Vec<TimeSeries> = Vec::new();
        let mut utils: Vec<TimeSeries> = Vec::new();
        let mut rates: Vec<TimeSeries> = Vec::new();
        for r in &micro_all(&ccs, gbps, opts) {
            summary.row([
                format!("{gbps}G"),
                r.cc.clone(),
                opt_us(r.scalar("reaction_us")),
                opt_us(r.scalar("fair_convergence_us")),
                f2(num(r, "peak_queue_kb")),
                f3(num(r, "mean_util")),
                num(r, "pause_frames").to_string(),
            ]);
            queues.push(relabel(r, "queue_kb", r.cc.clone()));
            utils.push(relabel(r, "util", r.cc.clone()));
            for s in ["flow0", "flow1", "cc0", "cc1"] {
                rates.push(relabel(r, s, format!("{}-{s}", r.cc)));
            }
        }
        emit_series(
            &opts.out,
            &format!("fig9_queue_{gbps}g"),
            &queues.iter().collect::<Vec<_>>(),
        );
        emit_series(
            &opts.out,
            &format!("fig9_util_{gbps}g"),
            &utils.iter().collect::<Vec<_>>(),
        );
        emit_series(
            &opts.out,
            &format!("fig9_rates_{gbps}g"),
            &rates.iter().collect::<Vec<_>>(),
        );
    }
    emit_table(
        &opts.out,
        "fig9_summary",
        "Fig. 9 — response-speed microbenchmark",
        &summary,
    );
}

/// Fig. 12: the notification-latency model vs measurement.
pub fn fig12(opts: &RunOpts) {
    let model =
        notification_gain_model(3, Bandwidth::gbps(100), TimeDelta::from_ns(1500), 1518, 70);
    let ages = |cc| {
        PacketBackend::default()
            .run(&micro(cc, 100, opts))
            .indexed_scalars("int_age_us_hop")
    };
    let (fa, ha) = (ages(CcKind::Fncc), ages(CcKind::Hpcc));
    let mut t = Table::new([
        "hop",
        "model_HPCC_age_us",
        "model_FNCC_age_us",
        "model_gain_us",
        "measured_HPCC_age_us",
        "measured_FNCC_age_us",
    ]);
    for g in &model {
        t.row([
            format!("sw{}", g.hop + 1),
            f2(g.hpcc_age.as_us_f64()),
            f2(g.fncc_age.as_us_f64()),
            f2(g.gain().as_us_f64()),
            ha.get(g.hop).map(|&x| f2(x)).unwrap_or("-".into()),
            fa.get(g.hop).map(|&x| f2(x)).unwrap_or("-".into()),
        ]);
    }
    emit_table(
        &opts.out,
        "fig12_notification_model",
        "Fig. 12 — INT freshness by congestion hop",
        &t,
    );
}

/// Figs. 13a–d: congestion location study with the LHCS ablation.
pub fn fig13(opts: &RunOpts) {
    let mut t = Table::new([
        "location",
        "scheme",
        "peak_queue_KB",
        "mean_queue_KB",
        "mean_util",
        "queue_reduction_vs_HPCC_%",
        "lhcs_triggers",
    ]);
    for loc in [HopLocation::First, HopLocation::Middle, HopLocation::Last] {
        let run = |cc: CcKind, disable_lhcs: bool| {
            let mut sc = hop_location(cc, loc, opts.micro_horizon_us().max(800));
            sc.overrides.disable_lhcs = disable_lhcs;
            PacketBackend::default().run(&sc)
        };
        let hpcc = run(CcKind::Hpcc, false);
        let hpcc_peak = num(&hpcc, "peak_queue_kb");
        let mut rows = vec![("HPCC", hpcc)];
        if loc == HopLocation::Last {
            rows.push(("FNCC w/o LHCS", run(CcKind::Fncc, true)));
            rows.push(("FNCC with LHCS", run(CcKind::Fncc, false)));
        } else {
            rows.push(("FNCC", run(CcKind::Fncc, false)));
        }
        for (name, r) in &rows {
            // The paper's reduction percentages refer to queue depth at the
            // congestion point; peak depth is the robust analogue here (the
            // post-join *mean* is near zero for all schemes and noisy).
            let reduction = if *name == "HPCC" {
                "-".to_string()
            } else {
                f2(100.0 * (1.0 - num(r, "peak_queue_kb") / hpcc_peak.max(1e-9)))
            };
            t.row([
                loc.name().to_string(),
                name.to_string(),
                f2(num(r, "peak_queue_kb")),
                f2(num(r, "mean_queue_kb")),
                f3(num(r, "mean_util")),
                reduction,
                num(r, "lhcs_triggers").to_string(),
            ]);
            // Per-variant series for 13a-c plots.
            let tag = format!("fig13_{}_{}", loc.name(), name.replace([' ', '/'], "_"));
            let probes = ["queue_kb", "util"].map(|s| relabel(r, s, s));
            emit_series(&opts.out, &tag, &probes.iter().collect::<Vec<_>>());
        }
        // Fig. 13d: last-hop flow rates.
        if loc == HopLocation::Last {
            let mut all: Vec<TimeSeries> = Vec::new();
            for (name, r) in &rows {
                for s in ["flow0", "flow1"] {
                    all.push(relabel(r, s, format!("{name}-{s}")));
                }
            }
            emit_series(
                &opts.out,
                "fig13d_lasthop_rates",
                &all.iter().collect::<Vec<_>>(),
            );
        }
    }
    emit_table(
        &opts.out,
        "fig13_summary",
        "Fig. 13 — gains by congestion location",
        &t,
    );
}

/// Fig. 13e: the fairness staircase.
pub fn fig13e(opts: &RunOpts) {
    let interval = match opts.scale {
        crate::Scale::Quick => TimeDelta::from_us(300),
        _ => TimeDelta::from_ms(1),
    };
    let r = PacketBackend::default().run(&staircase_scenario(CcKind::Fncc, 4, interval, 1));
    let mut t = Table::new(["period", "jain_index"]);
    for (p, j) in r.indexed_scalars("jain_p").iter().enumerate() {
        t.row([p.to_string(), f3(*j)]);
    }
    emit_table(
        &opts.out,
        "fig13e_fairness",
        "Fig. 13e — fairness over staggered flows",
        &t,
    );
    // The staircase probes only the `flow{i}` rates.
    emit_series(
        &opts.out,
        "fig13e_rates",
        &r.series.iter().collect::<Vec<_>>(),
    );
    println!(
        "all flows drained: {}",
        r.scalar("all_finished") == Some(1.0)
    );
}
