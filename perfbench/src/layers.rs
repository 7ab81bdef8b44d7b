//! The traced invocation: the per-layer metrics of [`crate::spec::per_layer`].
//!
//! Two sources, both outside the program under test: counts and scalars
//! read off the `RunReport`s the repetitions returned (including the
//! `span_*_ns` phases, which the traced run switches on for itself through
//! `FNCC_PROFILE`), and the [`crate::micro`] drivers. Every call into a
//! layer runs inside a [`Tracer`] span.

use crate::clock::Clock;
use crate::harness::{
    max_scalar, mean_scalar, measure, scalar, setup_batch, sum_scalar, Measured, Metric, Options,
    Outcome, Rep, Runner, Signature,
};
use crate::micro::{self, Drivers};
use crate::spec::per_layer;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Scale, Workload};
use fncc_cc::CcKind;
use fncc_core::obs::profile::PROFILE_ENV;
use fncc_core::{
    make_algo, ForegroundSpec, PartitionRule, ProbeSpec, RunReport, Scenario, SimBackend,
    SimBuilder, StopCondition, TopologySpec, TrafficSpec, Workload as Trace,
};
use fncc_des::engine::QueueKind;
use fncc_des::{SimTime, TimeDelta};
use fncc_net::config::FabricConfig;
use std::collections::BTreeMap;
use std::path::Path;

/// Backlog for the scheduler churn drivers on workloads whose reports
/// carry no `peak_queue_len` (fluid, hybrid): the k=8 packet cell's depth.
const DEFAULT_BACKLOG: u64 = 5_800;

/// Sum over reports of every scalar whose name starts with `prefix`; an
/// error if a report has none.
fn sum_prefixed(reports: &[RunReport], prefix: &str) -> Result<f64, String> {
    let mut sum = 0.0;
    for r in reports {
        let mut found = false;
        for (k, v) in &r.scalars {
            if k.starts_with(prefix) {
                sum += v;
                found = true;
            }
        }
        if !found {
            return Err(format!(
                "{} report of '{}' has no scalar '{prefix}*'",
                r.backend, r.scenario
            ));
        }
    }
    Ok(sum)
}

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat` in `USER_HZ` = 100 ticks per second.
fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |ix: usize| -> Result<f64, String> {
        fields
            .get(ix)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// One run of `sc` on `backend`, inside a span called `span`.
fn run_once(
    tracer: &mut Tracer,
    clock: &Clock,
    span: &str,
    sc: &Scenario,
    backend: SimBackend,
) -> Rep {
    let (report, timed) = clock.time(|| tracer.span(span, |_| backend.resolve().run(sc)).0);
    Rep {
        reports: vec![report],
        calls: vec![timed],
    }
}

/// Fluid vs packet `mean_slowdown` on a matched k=4 / 400-flow cell, as a
/// percentage of the packet value.
fn fluid_xval_err_pct(tracer: &mut Tracer, clock: &Clock, seed: u64) -> Result<f64, String> {
    let mut sc = Scenario::new(
        "bench-xval-fluid",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Poisson {
            workload: Trace::WebSearch,
            load: 0.5,
            flows: 400,
        },
        CcKind::Fncc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 200 };
    sc.seeds = vec![seed];
    let packet = run_once(tracer, clock, "xval.fluid.packet", &sc, SimBackend::Packet);
    let fluid = run_once(tracer, clock, "xval.fluid.fluid", &sc, SimBackend::Fluid);
    let p = scalar(&packet.reports[0], "mean_slowdown")?;
    let f = scalar(&fluid.reports[0], "mean_slowdown")?;
    Ok((f - p).abs() / p * 100.0)
}

/// Hybrid vs pure-packet mean foreground FCT on the k=4 incast conformance
/// cell (`tests/hybrid_conformance.rs`: first wave at packet fidelity, the
/// overlapping second wave in the fluid model), as a percentage of the
/// packet value.
fn hybrid_xval_err_pct(tracer: &mut Tracer, clock: &Clock) -> Result<f64, String> {
    const FOREGROUND: u32 = 8;
    let mut sc = Scenario::new(
        "bench-xval-hybrid",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Incast {
            receiver: 0,
            fan_in: FOREGROUND,
            size: 100_000,
            waves: 2,
            gap_us: 30,
        },
        CcKind::Fncc,
    );
    sc.stop = StopCondition::Drain { cap_ms: 50 };
    sc.seeds = vec![1];
    sc.foreground = Some(ForegroundSpec {
        rules: vec![PartitionRule::FirstFlows { n: FOREGROUND }],
    });
    let hybrid = run_once(tracer, clock, "xval.hybrid.hybrid", &sc, SimBackend::Hybrid);
    let h = scalar(&hybrid.reports[0], "fct_us_mean")?;

    let (topo, flows) = sc.instance(1);
    let frames = FabricConfig::paper_default();
    let algo = make_algo(
        sc.cc,
        sc.link.bandwidth(),
        topo.base_rtt(frames.mtu, frames.ack_base),
    );
    let horizon =
        flows.iter().map(|f| f.start).max().unwrap_or(SimTime::ZERO) + TimeDelta::from_ms(50);
    let fg: Vec<_> = flows
        .iter()
        .take(FOREGROUND as usize)
        .map(|f| f.id)
        .collect();
    let (sim, _) = tracer.span("xval.hybrid.packet", |_| {
        let mut sim = SimBuilder::with_algo(topo, algo)
            .fabric(|f| f.seed = 1)
            .flows(flows)
            .build();
        sim.run_to_completion(TimeDelta::from_ms(1), horizon);
        sim
    });
    let mut sum_us = 0.0;
    for id in &fg {
        let fct = sim
            .telemetry()
            .flow_record(*id)
            .and_then(|r| r.fct())
            .ok_or_else(|| format!("xval: packet flow {id:?} unfinished"))?;
        sum_us += fct.as_secs_f64() * 1e6;
    }
    let p = sum_us / fg.len() as f64;
    Ok((h - p).abs() / p * 100.0)
}

/// Median duration in seconds of the recorded spans called `name`.
fn median_span_s(tracer: &Tracer, name: &str) -> f64 {
    let secs: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect();
    stats::median(&secs)
}

/// Metric values and check failures collected by the traced run.
#[derive(Default)]
struct Table {
    values: BTreeMap<String, f64>,
    errors: Vec<String>,
}

impl Table {
    fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record `value`, or the reason it could not be read.
    fn try_put(&mut self, name: &str, value: Result<f64, String>) {
        match value {
            Ok(v) => self.put(name, v),
            Err(e) => self.errors.push(format!("{name}: {e}")),
        }
    }
}

/// Source (b): counts and scalars off the reports of the last traced
/// repetition (`wall_s` long), by the backend that produced them. `base_s`
/// is the untraced `run_s`.
fn report_metrics(
    tab: &mut Table,
    runner: &Runner,
    reports: &[RunReport],
    wall_s: f64,
    base_s: f64,
) {
    let events: u64 = reports.iter().map(|r| r.events).sum();
    // A phase's share of the traced repetition's wall time, in percent
    // (summed over workers, so a sharded run can exceed 100).
    let share = |phase: &str| -> Result<f64, String> {
        Ok(sum_scalar(reports, &format!("span_{phase}_ns"))? / (wall_s * 1e9) * 100.0)
    };
    let sum = |name: &str| sum_scalar(reports, name);
    let mean = |name: &str| mean_scalar(reports, name);

    tab.put("des.events", events as f64);
    tab.put("des.ns_per_event", base_s * 1e9 / events as f64);
    tab.put("des.events_per_s", events as f64 / base_s);
    tab.try_put("core.span_report_build_share", share("report_build"));
    tab.try_put("core.fct_p50_us", mean("fct_us_p50"));
    tab.try_put("core.fct_p99_us", max_scalar(reports, "fct_us_p99"));
    let backend = runner.workload.backend;
    if backend == SimBackend::Packet {
        tab.try_put("des.peak_queue_len", mean("peak_queue_len"));
        tab.try_put(
            "des.wheel_cascades",
            sum_prefixed(reports, "wheel_cascades_l"),
        );
        tab.try_put("des.clamped_schedules", sum("clamped_schedules"));
        tab.try_put("net.pool_hit_rate", mean("pool_hit_rate"));
        tab.try_put("des.span_sched_pop_share", share("sched_pop"));
        tab.try_put("des.span_dispatch_share", share("dispatch"));
        tab.try_put("cc.span_cc_update_share", share("cc_update"));
    }
    if runner.prepared.scenario.threads >= 1 {
        let epochs = sum("epochs");
        tab.try_put(
            "core.us_per_epoch",
            epochs.clone().map(|e| base_s * 1e6 / e),
        );
        tab.try_put("core.epochs", epochs);
        tab.try_put("core.cross_shard_frames", sum("cross_shard_frames"));
    }
    if backend != SimBackend::Packet {
        tab.try_put("fluid.full_solves", sum("full_solves"));
        tab.try_put("fluid.incremental_solves", sum("incremental_solves"));
        tab.try_put("fluid.rate_updates", sum("rate_updates"));
    }
    if backend == SimBackend::Fluid {
        tab.try_put("fluid.resolve_set_mean", mean("resolve_set_size_mean"));
        tab.put("fluid.flows_per_s", runner.flows_per_rep() as f64 / base_s);
        tab.try_put("fluid.span_solve_share", share("fluid_solve"));
    }
    if backend == SimBackend::Hybrid {
        let syncs = sum("hybrid_syncs");
        tab.try_put(
            "hybrid.us_per_sync",
            syncs.clone().map(|s| base_s * 1e6 / s),
        );
        tab.try_put("hybrid.syncs", syncs);
        tab.try_put("hybrid.reservations", sum("hybrid_reservations"));
        tab.try_put("hybrid.backlog_pushes", sum("hybrid_backlog_pushes"));
        tab.try_put("hybrid.fg_flows", sum("foreground_flows"));
        tab.try_put(
            "hybrid.bg_flows_per_s",
            sum("background_flows").map(|n| n / base_s),
        );
        // The hybrid report carries the foreground's CC phase and the
        // background's solve phase, but not the foreground's engine phases.
        tab.try_put("cc.span_cc_update_share", share("cc_update"));
        tab.try_put("fluid.span_solve_share", share("bg_fluid_solve"));
    }
}

/// Source (a): every micro-driver, on every workload. `backlog` shapes the
/// scheduler churn like the workload's own event queue; `report` is what
/// the serialisation driver writes out.
fn micro_metrics(tab: &mut Table, d: &mut Drivers<'_>, backlog: u64, report: &RunReport) {
    let topo = micro::fat_tree_k8();
    type Driver<'a> = &'a dyn Fn(&mut Drivers<'_>, &str) -> f64;
    // (metric, nanoseconds per unit of the metric, driver)
    let table: [(&str, f64, Driver<'_>); 18] = [
        ("des.wheel_churn_ns", 1.0, &|d, n| {
            d.queue_churn_ns(n, QueueKind::Wheel, backlog)
        }),
        ("des.heap_churn_ns", 1.0, &|d, n| {
            d.queue_churn_ns(n, QueueKind::Heap, backlog)
        }),
        ("net.switch_forward_ns", 1.0, &|d, n| {
            d.switch_forward_ns(n, false)
        }),
        ("net.switch_forward_int_ns", 1.0, &|d, n| {
            d.switch_forward_ns(n, true)
        }),
        ("net.pool_cycle_ns", 1.0, &|d, n| d.pool_cycle_ns(n)),
        ("net.route_lookup_ns", 1.0, &|d, n| {
            d.route_lookup_ns(n, &topo)
        }),
        ("net.topology_build_ms", 1e6, &|d, n| d.topology_build_ns(n)),
        ("net.partition_build_us", 1e3, &|d, n| {
            d.partition_build_ns(n, &topo)
        }),
        ("transport.two_host_ns_per_pkt", 1.0, &|d, n| {
            d.two_host_ns_per_pkt(n)
        }),
        ("workloads.poisson_flow_ns", 1.0, &|d, n| {
            d.poisson_flow_ns(n)
        }),
        ("fluid.delta_solve_ns", 1.0, &|d, n| {
            d.delta_solve_ns(n, &topo)
        }),
        ("fluid.cold_allocate_us", 1e3, &|d, n| {
            d.cold_allocate_ns(n, &topo)
        }),
        ("fluid.coupler_advance_ns", 1.0, &|d, n| {
            d.coupler_advance_ns(n, &topo)
        }),
        ("fluid.coupler_reserve_ns", 1.0, &|d, n| {
            d.coupler_reserve_ns(n, &topo)
        }),
        ("core.report_json_us", 1e3, &|d, n| {
            d.call_ns(n, || report.to_json().len())
        }),
        ("obs.trace_record_ns", 1.0, &|d, n| {
            d.trace_record_ns(n, true)
        }),
        ("obs.trace_off_ns", 1.0, &|d, n| d.trace_record_ns(n, false)),
        ("obs.hist_record_ns", 1.0, &|d, n| d.hist_record_ns(n)),
    ];
    for (name, ns_per_unit, driver) in table {
        tab.put(name, driver(d, name) / ns_per_unit);
    }
    for kind in CcKind::ALL {
        let name = format!("cc.on_ack_ns.{}", kind.name().to_lowercase());
        tab.put(&name, d.on_ack_ns(&name, kind));
    }
}

/// The sharded workload's cross-check: the same scenario on the legacy
/// engine and on two workers. The simulated statistics must be identical;
/// the ratios say what the sharded runtime costs and what a second worker
/// buys on this box. The two-worker run needs both CPUs, so it runs
/// unpinned and is compared wall time to wall time.
fn sharded_cross_check(
    tab: &mut Table,
    tracer: &mut Tracer,
    clock: &Clock,
    sc: &Scenario,
    want: &Result<Signature, String>,
    base: &Measured,
) -> Result<(), String> {
    let mut run = |threads: u32| {
        let other = Scenario {
            threads,
            ..sc.clone()
        };
        let span = format!("rep.threads{threads}_run");
        run_once(tracer, clock, &span, &other, SimBackend::Packet)
    };
    let legacy = run(0);
    let cpu_before = process_cpu_s()?;
    let two_workers = clock.unpinned(|| run(2));
    let cpu_s = process_cpu_s()? - cpu_before;
    for (threads, rep) in [(0, &legacy), (2, &two_workers)] {
        let got = Signature::of(&rep.reports[0]);
        if got != *want {
            tab.errors.push(format!(
                "threads={threads} and threads={} disagree: {got:?} vs {want:?}",
                sc.threads
            ));
        }
    }
    tab.put(
        "core.sharded_overhead_pct",
        (base.run_s() / legacy.nominal_s() - 1.0) * 100.0,
    );
    tab.put(
        "core.sharded_speedup_t2",
        stats::min(&base.walls()) / two_workers.wall_s(),
    );
    tab.put("core.sharded_cpu_over_wall", cpu_s / two_workers.wall_s());
    Ok(())
}

/// One run of `sc` with the flight recorder armed (ring, drain and JSONL
/// write included, as `fncc-repro run --trace` pays them), in seconds at
/// the nominal clock.
fn armed_run_s(tracer: &mut Tracer, clock: &Clock, sc: &Scenario) -> Result<f64, String> {
    let armed = Scenario {
        probes: ProbeSpec {
            trace: true,
            ..sc.probes
        },
        ..sc.clone()
    };
    std::fs::create_dir_all(results_dir()).map_err(|e| e.to_string())?;
    let sidecar = results_dir().join("armed.trace.jsonl");
    let (_, armed) = clock.time(|| {
        tracer.span("rep.armed_run", |_| {
            SimBackend::Packet
                .resolve()
                .run_traced(&armed, Some(&sidecar))
        })
    });
    // ~90 MB of recorder output nobody reads; only its cost is wanted.
    std::fs::remove_file(&sidecar).map_err(|e| e.to_string())?;
    Ok(armed.nominal_s)
}

/// Switches the engines' own phase spans (`FNCC_PROFILE`) off and on for
/// the traced run, and puts back what the user had set when it goes.
struct ProfileSwitch(Option<std::ffi::OsString>);

impl ProfileSwitch {
    fn take() -> Self {
        ProfileSwitch(std::env::var_os(PROFILE_ENV))
    }

    fn set(&self, on: bool) {
        if on {
            std::env::set_var(PROFILE_ENV, "1");
        } else {
            std::env::remove_var(PROFILE_ENV);
        }
    }
}

impl Drop for ProfileSwitch {
    fn drop(&mut self) {
        match &self.0 {
            Some(v) => std::env::set_var(PROFILE_ENV, v),
            None => std::env::remove_var(PROFILE_ENV),
        }
    }
}

/// The traced invocation. Returns the outcome and the tracer holding every
/// span, for the caller to write out.
pub fn traced(workload: &'static Workload, opts: &Options) -> Result<(Outcome, Tracer), String> {
    let mut tracer = Tracer::enabled(workload.name);
    let clock = Clock::start();
    let mut tab = Table::default();

    let (prepared, _) = setup_batch(workload, opts, &mut tracer)?;
    let runner = Runner::new(workload, prepared);
    let sc = &runner.prepared.scenario;
    let (untraced_reps, traced_reps) = match opts.reps {
        Some(n) => (n, n),
        None => (2, 3),
    };

    // Untraced repetitions first (the first doubles as warm-up): the base
    // the tracing overhead is measured against.
    let profile = ProfileSwitch::take();
    profile.set(false);
    let untraced = measure(
        &runner,
        &mut Tracer::disabled(),
        &clock,
        |_| (),
        |reps, _| reps >= untraced_reps,
    );
    let base_s = untraced.run_s();

    // Traced repetitions: harness spans on, the engines' own phase spans on.
    profile.set(true);
    let allocs_before = fncc_experiments::alloc_count();
    let mut m = measure(
        &runner,
        &mut tracer,
        &clock,
        |_| (),
        |reps, _| reps >= traced_reps,
    );
    let allocs = fncc_experiments::alloc_count() - allocs_before;
    profile.set(false);
    tab.errors.extend(untraced.errors.iter().cloned());
    tab.errors.append(&mut m.errors);

    let reports = &m.last.reports;
    report_metrics(&mut tab, &runner, reports, m.last.wall_s(), base_s);
    let events = tab.values["des.events"];
    tab.put(
        "net.allocs_per_kevent",
        allocs as f64 / (events * m.calls.len() as f64) * 1e3,
    );

    let backlog = tab
        .values
        .get("des.peak_queue_len")
        .map_or(DEFAULT_BACKLOG, |&q| q as u64);
    let mut drivers = Drivers {
        tracer: &mut tracer,
        shrink: match opts.scale {
            Scale::Full => 1,
            Scale::Tiny => 50,
        },
    };
    micro_metrics(&mut tab, &mut drivers, backlog, &reports[0]);

    tab.put(
        "core.scenario_parse_us",
        median_span_s(&tracer, "setup.parse") * 1e6,
    );
    tab.put(
        "core.instance_ms",
        median_span_s(&tracer, "setup.instance") * 1e3,
    );

    // The cross-run comparisons, each on the workload that owns it.
    match workload.backend {
        SimBackend::Packet if sc.threads >= 1 => {
            let want = Signature::of(&reports[0]);
            sharded_cross_check(&mut tab, &mut tracer, &clock, sc, &want, &untraced)?;
        }
        SimBackend::Packet if !workload.all_schemes => {
            let armed_s = armed_run_s(&mut tracer, &clock, sc)?;
            tab.put("obs.armed_overhead_pct", (armed_s / base_s - 1.0) * 100.0);
        }
        SimBackend::Packet => {}
        SimBackend::Fluid => tab.try_put(
            "fluid.xval_err_pct",
            fluid_xval_err_pct(&mut tracer, &clock, opts.seed),
        ),
        SimBackend::Hybrid => tab.try_put(
            "hybrid.xval_err_pct",
            hybrid_xval_err_pct(&mut tracer, &clock),
        ),
    }

    let (walls, nominals) = (m.walls(), m.nominals());
    let iqr = stats::iqr_share(&nominals);
    tab.put("harness.reps", walls.len() as f64);
    tab.put("harness.rep_median_s", stats::median(&walls));
    tab.put(
        "harness.cycles_per_tick",
        nominals.iter().sum::<f64>() / walls.iter().sum::<f64>(),
    );
    tab.put(
        "harness.rep_iqr_pct",
        if iqr.is_nan() { 0.0 } else { iqr * 100.0 },
    );
    tab.put(
        "harness.trace_overhead_pct",
        (m.run_s() / base_s - 1.0) * 100.0,
    );

    // A layer that did no work on this workload, or a comparison another
    // workload owns, reads 0.
    let metrics = per_layer()
        .into_iter()
        .map(|spec| Metric {
            value: tab.values.remove(&spec.name).unwrap_or(0.0),
            name: spec.name,
            unit: spec.unit,
        })
        .collect();
    if let Some(extra) = tab.values.keys().next() {
        tab.errors
            .push(format!("metric '{extra}' is measured but not in the spec"));
    }
    let outcome = Outcome {
        workload: workload.name,
        attempted: untraced.attempted + m.attempted,
        failed: untraced.failed + m.failed,
        errors: tab.errors,
        walls,
        nominals,
        metrics,
        simulated: Vec::new(),
    };
    Ok((outcome, tracer))
}

/// Where the traced run writes its files: `results/` beside this package's
/// manifest (git-ignored).
pub fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
}
