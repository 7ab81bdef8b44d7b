//! `fncc-repro bench-des` / `bench-hybrid` — engine throughput harnesses.
//!
//! `bench-des` runs the fat-tree workload benchmark points on the packet
//! backend and writes `BENCH_des.json` (events/sec, wall time, peak
//! event-queue length, heap allocations from the counting allocator), so
//! the engine's perf trajectory is recorded run over run. `--quick`
//! shrinks to the CI smoke point; `--full` adds the binary-heap reference
//! scheduler for a wheel-vs-heap comparison on identical work.
//! `--threads N` appends a core-scaling series: the headline point on the
//! sharded runtime at 1, 2, 4, … up to N workers (reports byte-identical
//! at every width, so the series isolates pure synchronization cost).
//!
//! `bench-hybrid` sweeps the co-simulation backend over growing
//! *background* flow populations (a fixed packet-fidelity foreground of
//! the first flows, the rest in the fluid model) and writes
//! `BENCH_hybrid.json` — the scaling story behind the hybrid engine's
//! headline: fleet-scale background at a wall-clock the pure DES only
//! reaches with orders of magnitude fewer flows.

use crate::{RunOpts, Scale};
use fncc_cc::CcKind;
use fncc_core::json::{num_u64, obj, Json};
use fncc_core::{
    run_scenario, run_scenario_traced, ForegroundSpec, PartitionRule, Scenario, SimBackend,
    TopologySpec, TrafficSpec, Workload,
};
use std::time::Instant;

/// Artifact schema identifier.
pub const BENCH_DES_SCHEMA: &str = "fncc.bench_des/v1";

/// One measured benchmark point.
struct Point {
    name: String,
    scheduler: &'static str,
    flows: u32,
    /// Packet-engine worker count (0 = one replica, no sharding).
    threads: u32,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    peak_queue_len: f64,
    clamped_schedules: f64,
    allocations: u64,
}

fn workload_point(k: u32, flows: u32, cap_ms: u64) -> Scenario {
    let mut sc = Scenario::new(
        format!("bench-des-k{k}-{flows}f"),
        TopologySpec::FatTree { k },
        TrafficSpec::Poisson {
            workload: Workload::WebSearch,
            load: 0.5,
            flows,
        },
        CcKind::Fncc,
    );
    sc.stop = fncc_core::StopCondition::Drain { cap_ms };
    sc.seeds = vec![1];
    sc
}

fn measure(sc: &Scenario, scheduler: &'static str) -> Point {
    std::env::set_var("FNCC_DES_SCHED", scheduler);
    let allocs_before = crate::alloc_count();
    let t0 = Instant::now();
    let report = run_scenario(sc, SimBackend::Packet);
    let wall = t0.elapsed().as_secs_f64();
    let allocations = crate::alloc_count() - allocs_before;
    std::env::remove_var("FNCC_DES_SCHED");
    let flows = match sc.traffic {
        TrafficSpec::Poisson { flows, .. } => flows,
        _ => 0,
    };
    Point {
        name: sc.name.clone(),
        scheduler,
        flows,
        threads: sc.threads,
        events: report.events,
        wall_s: wall,
        events_per_sec: report.events as f64 / wall.max(1e-9),
        peak_queue_len: report.scalar("peak_queue_len").unwrap_or(0.0),
        clamped_schedules: report.scalar("clamped_schedules").unwrap_or(0.0),
        allocations,
    }
}

/// Run the benchmark points and write `BENCH_des.json` under `opts.out`.
pub fn bench_des(opts: &RunOpts) {
    let points: Vec<Scenario> = match opts.scale {
        // CI smoke: one reduced point, seconds-long.
        Scale::Quick => vec![workload_point(4, 400, 200)],
        // The headline point: the fat-tree workload at 10⁴ flows.
        Scale::Default => vec![
            workload_point(8, 2_000, 200),
            workload_point(8, 10_000, 200),
        ],
        Scale::Full => vec![
            workload_point(8, 2_000, 200),
            workload_point(8, 10_000, 200),
            workload_point(8, 30_000, 200),
        ],
    };
    let schedulers: &[&'static str] = match opts.scale {
        // Full mode measures the reference heap on identical work too.
        Scale::Full => &["wheel", "heap"],
        _ => &["wheel"],
    };

    let mut measured = Vec::new();
    for sc in &points {
        for sched in schedulers {
            let p = measure(sc, sched);
            println!(
                "[bench-des] {} [{}]: {} events in {:.1}s = {:.2}M events/s \
                 (peak queue {}, {} allocs)",
                p.name,
                p.scheduler,
                p.events,
                p.wall_s,
                p.events_per_sec / 1e6,
                p.peak_queue_len,
                p.allocations,
            );
            measured.push(p);
        }
    }

    // Core-scaling series (`--threads N`): the headline point re-run on
    // the sharded runtime at 1, 2, 4, … workers up to N. The threads=1
    // sharded run doubles as the overhead baseline against the one-replica
    // measurement of the same point (identical reports, so events match).
    if let Some(max_t) = opts.sim_threads {
        let base = points.last().expect("bench-des has at least one point");
        let mut ladder: Vec<u32> = [1u32, 2, 4, 8, 16]
            .into_iter()
            .filter(|&t| t < max_t.max(1))
            .collect();
        ladder.push(max_t.max(1));
        let mut one_thread_eps = None;
        for t in ladder {
            let mut sc = base.clone();
            sc.name = format!("{}-t{t}", base.name);
            sc.threads = t;
            let p = measure(&sc, "wheel");
            let speedup = one_thread_eps.map(|base: f64| p.events_per_sec / base);
            one_thread_eps.get_or_insert(p.events_per_sec);
            println!(
                "[bench-des] {} [wheel, {t} threads]: {} events in {:.1}s = \
                 {:.2}M events/s{}",
                p.name,
                p.events,
                p.wall_s,
                p.events_per_sec / 1e6,
                speedup.map_or(String::new(), |s| format!(" ({s:.2}x vs 1 thread)")),
            );
            measured.push(p);
        }
    }

    // Flight-recorder cost check: re-run the first point with the trace
    // sink armed and record the throughput delta against the untraced
    // measurement of the same point, so the recorder's price is tracked
    // run over run next to the engine's own trajectory.
    let mut traced_sc = points[0].clone();
    traced_sc.probes.trace = true;
    let trace_path = opts.out.join("bench-des.trace.jsonl");
    if let Some(dir) = trace_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::env::set_var("FNCC_DES_SCHED", "wheel");
    let t0 = Instant::now();
    let traced_report = run_scenario_traced(&traced_sc, SimBackend::Packet, Some(&trace_path));
    let traced_wall = t0.elapsed().as_secs_f64();
    std::env::remove_var("FNCC_DES_SCHED");
    let traced_eps = traced_report.events as f64 / traced_wall.max(1e-9);
    let base_eps = measured[0].events_per_sec;
    let overhead_pct = (base_eps - traced_eps) / base_eps.max(1e-9) * 100.0;
    println!(
        "[bench-des] {} [wheel+trace]: {:.2}M events/s ({overhead_pct:+.1}% vs untraced)",
        traced_sc.name,
        traced_eps / 1e6,
    );

    let artifact = obj([
        ("schema", Json::Str(BENCH_DES_SCHEMA.into())),
        (
            "points",
            Json::Arr(
                measured
                    .iter()
                    .map(|p| {
                        obj([
                            ("name", Json::Str(p.name.clone())),
                            ("scheduler", Json::Str(p.scheduler.into())),
                            ("flows", Json::Num(p.flows as f64)),
                            ("threads", Json::Num(p.threads as f64)),
                            ("events", num_u64(p.events)),
                            ("wall_s", Json::Num(p.wall_s)),
                            ("events_per_sec", Json::Num(p.events_per_sec)),
                            ("peak_queue_len", Json::Num(p.peak_queue_len)),
                            ("clamped_schedules", Json::Num(p.clamped_schedules)),
                            ("allocations", num_u64(p.allocations)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "trace",
            obj([
                ("point", Json::Str(traced_sc.name.clone())),
                ("events_per_sec_traced", Json::Num(traced_eps)),
                ("overhead_pct", Json::Num(overhead_pct)),
            ]),
        ),
    ]);
    let path = opts.out.join("BENCH_des.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, artifact.to_string_pretty()) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Artifact schema identifier for the hybrid scaling sweep.
pub const BENCH_HYBRID_SCHEMA: &str = "fncc.bench_hybrid/v1";

/// Foreground size of every hybrid benchmark point: the first flows by id
/// run at packet fidelity, everything behind them is fluid background.
const HYBRID_FG_FLOWS: u32 = 64;

fn hybrid_point(k: u32, flows: u32, cap_ms: u64) -> Scenario {
    let mut sc = workload_point(k, flows, cap_ms);
    sc.name = format!("bench-hybrid-k{k}-{flows}f");
    sc.foreground = Some(ForegroundSpec {
        rules: vec![PartitionRule::FirstFlows { n: HYBRID_FG_FLOWS }],
    });
    sc
}

/// Run the hybrid co-simulation scaling sweep and write
/// `BENCH_hybrid.json` under `opts.out`.
pub fn bench_hybrid(opts: &RunOpts) {
    let points: Vec<Scenario> = match opts.scale {
        // CI smoke: small fabric, 10⁴ background flows, seconds-long.
        Scale::Quick => vec![hybrid_point(4, 10_000, 200)],
        // The acceptance point: 10⁶ background flows on the paper fabric.
        Scale::Default => vec![
            hybrid_point(8, 100_000, 200),
            hybrid_point(8, 1_000_000, 200),
        ],
        Scale::Full => vec![
            hybrid_point(8, 10_000, 200),
            hybrid_point(8, 100_000, 200),
            hybrid_point(8, 1_000_000, 200),
        ],
    };

    let mut rows = Vec::new();
    for sc in &points {
        let allocs_before = crate::alloc_count();
        let t0 = Instant::now();
        let report = run_scenario(sc, SimBackend::Hybrid);
        let wall = t0.elapsed().as_secs_f64();
        let allocations = crate::alloc_count() - allocs_before;
        let flows = match sc.traffic {
            TrafficSpec::Poisson { flows, .. } => flows,
            _ => 0,
        };
        let syncs = report.scalar("hybrid_syncs").unwrap_or(0.0);
        println!(
            "[bench-hybrid] {}: {} flows ({} fg) in {:.1}s — {} events, \
             {syncs} syncs, {:.0} flows/s",
            report.scenario,
            flows,
            HYBRID_FG_FLOWS,
            wall,
            report.events,
            flows as f64 / wall.max(1e-9),
        );
        rows.push(obj([
            ("name", Json::Str(sc.name.clone())),
            ("flows", Json::Num(flows as f64)),
            ("foreground_flows", Json::Num(HYBRID_FG_FLOWS as f64)),
            ("events", num_u64(report.events)),
            ("wall_s", Json::Num(wall)),
            ("flows_per_sec", Json::Num(flows as f64 / wall.max(1e-9))),
            ("hybrid_syncs", Json::Num(syncs)),
            (
                "hybrid_reservations",
                Json::Num(report.scalar("hybrid_reservations").unwrap_or(0.0)),
            ),
            (
                "hybrid_residual_pushes",
                Json::Num(report.scalar("hybrid_residual_pushes").unwrap_or(0.0)),
            ),
            (
                "hybrid_backlog_pushes",
                Json::Num(report.scalar("hybrid_backlog_pushes").unwrap_or(0.0)),
            ),
            (
                "single_bottleneck_solves",
                Json::Num(report.scalar("single_bottleneck_solves").unwrap_or(0.0)),
            ),
            (
                "peak_bg_active",
                Json::Num(report.scalar("peak_bg_active").unwrap_or(0.0)),
            ),
            (
                "mean_slowdown",
                Json::Num(report.scalar("mean_slowdown").unwrap_or(0.0)),
            ),
            ("allocations", num_u64(allocations)),
        ]));
    }

    let artifact = obj([
        ("schema", Json::Str(BENCH_HYBRID_SCHEMA.into())),
        ("points", Json::Arr(rows)),
    ]);
    let path = opts.out.join("BENCH_hybrid.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, artifact.to_string_pretty()) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
