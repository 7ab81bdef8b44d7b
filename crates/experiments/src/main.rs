//! `fncc-repro` — regenerate the FNCC paper's tables and figures, or run
//! any declarative scenario file on any backend.
//!
//! ```text
//! fncc-repro [EXPERIMENT…] [--out DIR] [--quick|--full] [--threads N]
//!            [--seeds N] [--flows N] [--backend packet|fluid|hybrid] [--progress]
//! fncc-repro run SCENARIO.json… [--backend packet|fluid|hybrid] [--out DIR]
//!            [--trace] [--threads N] [--progress]
//! fncc-repro inspect ARTIFACT… [--flow N] [--top K]
//!
//! experiments: fig1a fig1 fig2 fig3 paths fig9 fig12 fig13 fig13e fig14
//!              fig15 ablate storm load-sweep extra-cc calibrate check all
//!              (default: all; `all` runs each paper experiment once —
//!              `storm` is already part of `ablate`, and the maintenance
//!              verb `calibrate` only runs when named)
//!
//! `--backend fluid` swaps the packet DES for the flow-level fast path in
//! the workload experiments (fig14, fig15, load-sweep) and in `run` —
//! same flow sets, orders of magnitude faster, slowdowns within the
//! cross-validated band. `--backend hybrid` co-simulates: the scenario's
//! `foreground` partition runs at packet fidelity while the background
//! drains in the fluid model (fleet-scale load, packet-level victims). `run` executes a `Scenario` JSON file through the
//! unified Backend path and writes a `*.report.json` artifact. `calibrate`
//! measures every scheme's fluid RateModel parameters against the packet
//! DES and writes a `fncc.calibration/v1` artifact (`CALIBRATION.json`).
//!
//! `--trace` arms the flight recorder on `run`: the first seed's typed
//! event stream is drained to a `*.trace.jsonl` (`fncc.trace/v1`) artifact
//! next to the report, which `inspect` can interrogate (per-flow timelines,
//! queue hotspots, PFC bursts). `--progress` (or `FNCC_PROGRESS=1`) prints
//! a once-per-second heartbeat to stderr on long packet-DES runs.
//! ```

use fncc_experiments::{
    ablation, calibrate, figs, inspect, scorecard, workload_figs, RunOpts, Scale,
};
use std::path::PathBuf;
use std::time::Instant;

// The allocator the repo benchmark (`perfbench/`) installs to read
// `net.allocs_per_kevent`, so what it times is built the way this binary
// ships; library consumers of fncc-experiments are not affected.
#[global_allocator]
static GLOBAL: fncc_experiments::CountingAlloc = fncc_experiments::CountingAlloc;

fn usage() -> ! {
    // Enumerated from `CcKind::ALL` so a newly registered scheme shows up
    // here (and in scenario-file `cc` parsing) without touching this file.
    let schemes: Vec<&str> = fncc_cc::CcKind::ALL.iter().map(|k| k.name()).collect();
    eprintln!(
        "usage: fncc-repro [EXPERIMENT...] [--out DIR] [--quick|--full] \
         [--threads N] [--seeds N] [--flows N] [--backend packet|fluid|hybrid] \
         [--progress]\n\
         \x20      fncc-repro run SCENARIO.json... [--backend packet|fluid|hybrid] [--out DIR] \
         [--trace] [--threads N] [--progress]\n\
         \x20      fncc-repro inspect ARTIFACT... [--flow N] [--top K]\n\
         experiments: fig1a fig1 fig2 fig3 paths fig9 fig12 fig13 fig13e \
         fig14 fig15 ablate storm load-sweep extra-cc calibrate check all\n\
         schemes (scenario `cc` field, case-insensitive): {}",
        schemes.join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let mut opts = RunOpts::default();
    let mut experiments: Vec<String> = Vec::new();
    let mut inspect_opts = inspect::InspectOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => opts.out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--quick" => opts.scale = Scale::Quick,
            "--full" => opts.scale = Scale::Full,
            "--threads" => {
                // One flag, two consumers: job-pool width for multi-run
                // experiments, and the sharded-DES worker count for `run`.
                let n: usize = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                opts.threads = n;
                opts.sim_threads = Some(n as u32);
            }
            // Zero seeds or flows would run nothing and leave empty tables.
            "--seeds" => {
                opts.seeds = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--flows" => {
                opts.flows = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--backend" => {
                opts.backend = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--trace" => opts.trace = true,
            // The heartbeat is read by the DES engine deep below the
            // backend API; an env var reaches it without threading a flag
            // through every layer (and doubles as the non-CLI switch).
            "--progress" => std::env::set_var("FNCC_PROGRESS", "1"),
            "--flow" => {
                inspect_opts.flow = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--top" => {
                inspect_opts.top = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "-h" | "--help" => usage(),
            exp if !exp.starts_with('-') => experiments.push(exp.to_string()),
            _ => usage(),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }

    let t0 = Instant::now();
    if experiments[0] == "run" {
        if experiments.len() < 2 {
            eprintln!("'run' needs at least one scenario file");
            usage();
        }
        for path in &experiments[1..] {
            run_scenario_file(path, &opts);
        }
    } else if experiments[0] == "inspect" {
        if experiments.len() < 2 {
            eprintln!("'inspect' needs at least one artifact file");
            usage();
        }
        for path in &experiments[1..] {
            if let Err(e) = inspect::inspect(path, inspect_opts) {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    } else {
        for exp in &experiments {
            run_one(exp, &opts);
        }
    }
    println!("\ntotal wall time: {:.1}s", t0.elapsed().as_secs_f64());
}

/// Execute one scenario JSON file on the selected backend and persist the
/// unified report artifact next to the CSVs.
fn run_scenario_file(path: &str, opts: &RunOpts) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let mut scenario = match fncc_core::Scenario::from_json(&text) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = opts.apply_run_overrides(&mut scenario) {
        eprintln!("cannot run {path}: {e}");
        std::process::exit(2);
    }
    let t0 = Instant::now();
    let trace_path = scenario.probes.trace.then(|| {
        let _ = std::fs::create_dir_all(&opts.out);
        opts.out.join(
            fncc_core::RunReport::new(&scenario.name, opts.backend.name(), scenario.cc.name())
                .trace_file_name(),
        )
    });
    let report = fncc_core::run_scenario_traced(&scenario, opts.backend, trace_path.as_deref());
    report.print_summary();
    let artifact = opts.out.join(report.artifact_file_name());
    match report.write_json(&artifact) {
        Ok(()) => println!("[json] {}", artifact.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", artifact.display()),
    }
    println!(
        "[run {}] done in {:.1}s",
        scenario.name,
        t0.elapsed().as_secs_f64()
    );
}

/// Exit 2 with the reason when an experiment rejected its flags before
/// running anything.
fn exit_if_rejected(outcome: Result<(), String>) {
    if let Err(e) = outcome {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

fn run_one(exp: &str, opts: &RunOpts) {
    let t0 = Instant::now();
    match exp {
        "fig1a" => figs::fig1a(opts),
        "fig1" => figs::fig1_queues(opts),
        "fig2" => figs::fig2(opts),
        "fig3" => figs::fig3(opts),
        "paths" => figs::paths(opts),
        "fig9" => figs::fig9(opts),
        "fig12" => figs::fig12(opts),
        "fig13" => figs::fig13(opts),
        "fig13e" => figs::fig13e(opts),
        "fig14" => exit_if_rejected(workload_figs::fig14(opts)),
        "fig15" => exit_if_rejected(workload_figs::fig15(opts)),
        "ablate" => {
            ablation::lhcs_sweep(opts);
            ablation::int_refresh_sweep(opts);
            ablation::ack_coalescing_sweep(opts);
            ablation::pause_storm(opts);
        }
        "storm" => ablation::pause_storm(opts),
        "calibrate" => {
            calibrate::calibrate(opts);
        }
        "load-sweep" => exit_if_rejected(workload_figs::load_sweep(opts)),
        "check" => {
            let failed = scorecard::check(opts);
            if failed > 0 {
                std::process::exit(1);
            }
        }
        "extra-cc" => ablation::extra_cc(opts),
        "all" => {
            for e in [
                "fig1a",
                "fig1",
                "fig2",
                "fig3",
                "paths",
                "fig9",
                "fig12",
                "fig13",
                "fig13e",
                "fig14",
                "fig15",
                // `ablate` already includes the pause-storm injection, so
                // `storm` is not repeated here.
                "ablate",
                "load-sweep",
                "extra-cc",
                "check",
            ] {
                run_one(e, opts);
            }
            return;
        }
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    }
    println!("[{exp}] done in {:.1}s", t0.elapsed().as_secs_f64());
}
