//! Sharded-DES equivalence: the conservative-synchronization runtime
//! (`Scenario::threads >= 1`) must produce the same `RunReport` as the
//! one-replica run (`threads: 0`), for every scheme, at every thread count.
//!
//! Two strengths of "the same":
//!
//! * **Across thread counts** the stable report (`RunReport::stable`, no
//!   wall-clock readings) is byte-identical: the number of shards is fixed
//!   by the topology and threads only choose which worker runs which
//!   shard, so 1, 2 and 4 workers execute the identical event schedule.
//! * **Against the one-replica run** the comparison additionally strips the
//!   sharding bookkeeping scalars (`shards`, `epochs`,
//!   `cross_shard_frames`, `causality_violations`, `lookahead_ns`,
//!   `shard_fallback`) and the
//!   *structurally* per-shard diagnostics — `peak_queue_len` (one queue
//!   vs k per-shard queues), `pool_hit_rate` (one packet pool vs k),
//!   `wheel_cascades_l*` (one wheel vs k) — none of which describe
//!   simulated behaviour. Everything observable (event totals, FCT
//!   slowdowns, counters, series, fault scalars) must match byte-for-byte.

use fncc::core::{
    run_scenario, ProbeSpec, RunReport, Scenario, SimBackend, StopCondition, TopologySpec,
    TrafficSpec, Workload,
};
use fncc_cc::CcKind;

/// Sharding bookkeeping — the scalars a `threads ≥ 1` report adds, even
/// when the run is one replica.
const SHARD_BOOKKEEPING: &[&str] = &[
    "shards",
    "epochs",
    "cross_shard_frames",
    "causality_violations",
    "lookahead_ns",
    "shard_fallback",
];

/// Structurally per-shard diagnostics (plus the `wheel_cascades_l*`
/// family): single-engine-shaped in one-replica reports, so stripped along
/// with the bookkeeping for the one-replica-vs-pod-shards comparison.
const PER_SHARD_DIAGNOSTICS: &[&str] = &["peak_queue_len", "pool_hit_rate"];

/// What [`report_json`] removes from the stable report.
#[derive(Clone, Copy, PartialEq)]
enum Strip {
    Nothing,
    Bookkeeping,
    ShardShape,
}

fn report_json(sc: &Scenario, threads: u32, strip: Strip) -> String {
    let mut sc = sc.clone();
    sc.threads = threads;
    stripped_json(run_scenario(&sc, SimBackend::Packet), strip)
}

fn stripped_json(report: RunReport, strip: Strip) -> String {
    let mut report = report.stable();
    report.scalars.retain(|(k, _)| {
        let k = k.as_str();
        let stripped = (strip != Strip::Nothing && SHARD_BOOKKEEPING.contains(&k))
            || (strip == Strip::ShardShape
                && (PER_SHARD_DIAGNOSTICS.contains(&k) || k.starts_with("wheel_cascades_")));
        !stripped
    });
    report.to_json()
}

/// Cross-pod incast on the k=4 fat-tree: INT, ECN/CNP and PFC all fire,
/// and most traffic crosses shard boundaries.
fn incast_scenario(cc: CcKind) -> Scenario {
    let mut sc = Scenario::new(
        "sharded-equiv-incast",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Incast {
            receiver: 0,
            fan_in: 6,
            size: 150_000,
            waves: 1,
            gap_us: 50,
        },
        cc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 50 };
    sc.seeds = vec![7];
    sc
}

/// Poisson web-search cell — randomized sizes and start times spread
/// flows over every pod pair.
fn poisson_scenario(cc: CcKind) -> Scenario {
    let mut sc = Scenario::new(
        "sharded-equiv-poisson",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Poisson {
            workload: Workload::WebSearch,
            load: 0.5,
            flows: 60,
        },
        cc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 200 };
    sc.seeds = vec![3];
    sc
}

fn assert_equivalence(sc: &Scenario, label: &str) {
    // One replica, with the shard-shape scalars it shares stripped.
    let legacy = report_json(sc, 0, Strip::ShardShape);
    // Sharded runtime at 1, 2 and 4 workers.
    let sharded: Vec<String> = [1u32, 2, 4]
        .iter()
        .map(|&t| report_json(sc, t, Strip::Nothing))
        .collect();
    for (t, json) in [1, 2, 4].iter().zip(&sharded) {
        assert_eq!(
            &sharded[0], json,
            "{label}: sharded report at {t} threads differs from 1 thread"
        );
    }
    // Same run once more with the shard-shape scalars stripped: must equal
    // the legacy engine's bytes.
    let neutral = report_json(sc, 1, Strip::ShardShape);
    assert_eq!(
        legacy, neutral,
        "{label}: sharded report differs from the legacy engine"
    );
}

/// Every registered scheme, incast and Poisson, threads {0, 1, 2, 4}.
#[test]
fn all_schemes_all_thread_counts_match_legacy() {
    for &cc in CcKind::ALL.iter() {
        assert_equivalence(&incast_scenario(cc), &format!("{}/incast", cc.name()));
        assert_equivalence(&poisson_scenario(cc), &format!("{}/poisson", cc.name()));
    }
}

/// The periodic ticks where they decide what the senders see. A pod shard
/// sweeps only the switches it owns: with the `All_INT_Table` refreshed
/// every 3 µs every ACK carries a record up to two epochs old, so a switch
/// swept late, twice or not at all shows in the FCTs; with no refresh at
/// all (0) there is no tick to get wrong. RoCC's fair rate is nothing but
/// its tick's output, and sampling adds the third tick kind and its series
/// to the bytes compared.
#[test]
fn periodic_ticks_match_legacy() {
    for us in [0, 3] {
        let mut sc = poisson_scenario(CcKind::Fncc);
        sc.overrides.int_refresh_us = us;
        assert_equivalence(&sc, &format!("fncc/int_refresh_us={us}"));
    }
    let mut sc = poisson_scenario(CcKind::Rocc);
    sc.probes = ProbeSpec::micro(1_000, 2);
    assert_equivalence(&sc, "rocc/sampled");
}

/// The faulted cell: a link flap on a fat-tree Poisson mix (the shipped
/// `linkflap_fattree.json` scenario, scaled down for test time). Fault
/// pause/release and the cross-shard teardown of the peer side of the
/// downed link must serialize identically on every runtime.
#[test]
fn faulted_scenario_matches_legacy() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/linkflap_fattree.json"
    ))
    .expect("shipped scenario file");
    let mut sc = Scenario::from_json(&text).expect("shipped scenario parses");
    if let TrafficSpec::Poisson { ref mut flows, .. } = sc.traffic {
        *flows = 60;
    }
    sc.seeds = vec![1];
    assert_equivalence(&sc, "linkflap/poisson");
}

/// The shipped packet smoke cell at a tenth of its load: arrivals leave
/// idle gaps longer than the 1 ms drain chunk, and the run still goes on
/// to every flow behind them. Each flow is in a slowdown bucket or counted
/// unfinished, as many finish as on the fluid backend, and one replica and
/// pod shards report the same bytes.
#[test]
fn flows_behind_an_idle_gap_are_all_reported() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/fattree_des_smoke.json"
    ))
    .expect("shipped scenario file");
    let mut sc = Scenario::from_json(&text).expect("shipped scenario parses");
    let TrafficSpec::Poisson {
        ref mut load,
        ref mut flows,
        ..
    } = sc.traffic
    else {
        panic!("the smoke cell is a Poisson mix");
    };
    (*load, *flows) = (0.05, 200);
    let packet = run_scenario(&sc, SimBackend::Packet);
    let bucketed: usize = packet.slowdowns.iter().map(|b| b.count).sum();
    let unfinished: usize = packet.unfinished.iter().sum();
    assert_eq!(bucketed + unfinished, 200);
    let fluid = run_scenario(&sc, SimBackend::Fluid);
    assert_eq!(packet.scalar("fct_us_count"), fluid.scalar("fct_us_count"));
    assert_eq!(
        stripped_json(packet, Strip::ShardShape),
        report_json(&sc, 1, Strip::ShardShape),
    );
}

/// The distribution scalars a report builds on its first seed read the
/// same from pod shards as from one replica: `fct_us_*` from the flow
/// records (each shard holds its receivers' records) and
/// `queue_depth_bytes_*` from the congestion point's `queue_kb` series
/// (held by the shard that owns the switch).
#[test]
fn pod_shards_report_the_same_histograms() {
    let mut sc = incast_scenario(CcKind::Fncc);
    sc.probes = ProbeSpec::micro(1000, 0);
    let histograms = |threads: u32| {
        let mut sc = sc.clone();
        sc.threads = threads;
        let mut scalars = run_scenario(&sc, SimBackend::Packet).scalars;
        scalars.retain(|(k, _)| k.starts_with("fct_us_") || k.starts_with("queue_depth_bytes_"));
        scalars
    };
    let one = histograms(0);
    assert_eq!(one.len(), 10, "{one:?}");
    assert_eq!(
        one[5],
        ("fct_us_count".to_string(), 6.0),
        "the six incast flows"
    );
    assert!(one[4].1 > 0.0, "the incast queued: {one:?}");
    assert_eq!(one, histograms(2));
}

/// The sharded report carries the partition's bookkeeping scalars.
#[test]
fn sharded_report_exposes_partition_scalars() {
    let mut sc = incast_scenario(CcKind::Fncc);
    sc.threads = 2;
    let report = run_scenario(&sc, SimBackend::Packet);
    assert_eq!(report.scalar("shards"), Some(4.0));
    assert_eq!(report.scalar("lookahead_ns"), Some(1500.0));
    assert!(report.scalar("epochs").unwrap_or(0.0) > 0.0);
    assert!(report.scalar("cross_shard_frames").unwrap_or(0.0) > 0.0);
    assert_eq!(report.scalar("causality_violations"), Some(0.0));
    assert_eq!(report.scalar("shard_fallback"), None);
}

/// An unpartitionable topology is one replica at every thread count:
/// `threads: 0` and `threads: 2` on a dumbbell differ only in the
/// bookkeeping scalars — queue high-water mark, pool hit rate and wheel
/// cascades included, since it is the same engine doing the same work.
#[test]
fn dumbbell_is_one_replica_at_any_thread_count() {
    let mut sc = Scenario::new(
        "sharded-equiv-dumbbell",
        TopologySpec::Dumbbell {
            senders: 4,
            switches: 3,
        },
        TrafficSpec::Incast {
            receiver: 4,
            fan_in: 4,
            size: 150_000,
            waves: 2,
            gap_us: 50,
        },
        CcKind::Hpcc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 50 };
    sc.seeds = vec![7, 8];
    assert_eq!(
        report_json(&sc, 0, Strip::Bookkeeping),
        report_json(&sc, 2, Strip::Bookkeeping),
    );
    let report = run_scenario(&sc, SimBackend::Packet);
    for key in SHARD_BOOKKEEPING {
        assert_eq!(report.scalar(key), None, "threads: 0 carries '{key}'");
    }
}

/// Non-fat-tree topologies run sharded requests on the single-engine
/// path and say so in the report.
#[test]
fn non_fat_tree_reports_fallback_reason() {
    let mut sc = Scenario::new(
        "sharded-equiv-fallback",
        TopologySpec::LeafSpine {
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 4,
        },
        TrafficSpec::Incast {
            receiver: 0,
            fan_in: 4,
            size: 100_000,
            waves: 1,
            gap_us: 50,
        },
        CcKind::Fncc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 50 };
    sc.seeds = vec![1];
    sc.threads = 4;
    let report = run_scenario(&sc, SimBackend::Packet);
    assert_eq!(report.scalar("shards"), Some(1.0));
    assert_eq!(report.scalar("shard_fallback"), Some(1.0));
    assert_eq!(report.scalar("epochs"), Some(0.0));
    assert_eq!(report.scalar("cross_shard_frames"), Some(0.0));
}
