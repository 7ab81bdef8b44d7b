//! `fncc-bench` — run the repo benchmark.
//!
//! ```text
//! fncc-bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!            [--reps R] [--scale full|tiny] [--out FILE]
//! fncc-bench compare A.jsonl B.jsonl
//! fncc-bench manifest
//! ```
//!
//! Each workload prints a table of its metrics and then, as one line, the
//! result object `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 1 when any invocation was not correct, 2 on a usage error.

use fncc_core::json::{num_u64, obj, Json};
use fncc_perfbench::compare::{compare, parse_set, MIN_RUNS};
use fncc_perfbench::harness::{end_to_end, metrics_json, Options, Outcome};
use fncc_perfbench::layers::{results_dir, traced};
use fncc_perfbench::spec::{manifest, RUN_SECONDS};
use fncc_perfbench::workloads::{by_name, Scale, Workload, WORKLOADS};
use std::io::Write;
use std::process::ExitCode;

// Counts allocations so the traced run can report `net.allocs_per_kevent`;
// `fncc-repro` installs the same allocator, so the program under test runs
// here as it ships.
#[global_allocator]
static GLOBAL: fncc_experiments::CountingAlloc = fncc_experiments::CountingAlloc;

const USAGE: &str = "usage: fncc-bench [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--reps R] [--scale full|tiny] [--out FILE]\n       \
fncc-bench compare A.jsonl B.jsonl\n       fncc-bench manifest";

struct Cli {
    workloads: Vec<&'static Workload>,
    opts: Options,
    trace: bool,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.iter().collect(),
        opts: Options {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            reps: None,
            scale: Scale::Full,
        },
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // `--trace 0|1` (the benchmark contract) or a bare `--trace`.
            cli.trace = match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    false
                }
                Some("1") => {
                    it.next();
                    true
                }
                _ => true,
            };
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                cli.workloads = vec![by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}' (have: {})", names.join(", "))
                })?]
            }
            "--seed" => cli.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.opts.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.opts.seconds > 0.0 && cli.opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--reps" => {
                let n: usize = value.parse().map_err(|_| bad())?;
                if n == 0 {
                    return Err(bad());
                }
                cli.opts.reps = Some(n);
            }
            "--scale" => {
                cli.opts.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--out" => cli.out = Some(value.clone()),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in &cli.workloads {
        let outcome: Outcome = if cli.trace {
            let (outcome, tracer) = traced(workload, &cli.opts)?;
            let spans: String = (0..tracer.spans().len())
                .map(|ix| tracer.span_json(ix).to_string_compact() + "\n")
                .collect();
            // One pair of files per workload, so that one invocation per
            // workload (as the driver makes them) keeps every workload's.
            let dir = results_dir();
            let write = |name: String, text: &str| {
                std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(dir.join(&name), text))
                    .map_err(|e| format!("{}: {e}", dir.join(&name).display()))
            };
            write(format!("bench-trace.{}.jsonl", workload.name), &spans)?;
            write(
                format!("bench-layers.{}.json", workload.name),
                &outcome.to_json().to_string_pretty(),
            )?;
            eprintln!("spans and layer table written under {}", dir.display());
            outcome
        } else {
            end_to_end(workload, &cli.opts)?
        };
        all_correct &= outcome.correct();
        let result = outcome.to_json();
        if let Some(path) = &cli.out {
            let record = obj([
                ("workload", Json::Str(workload.name.into())),
                ("seed", num_u64(cli.opts.seed)),
                ("trace", Json::Bool(cli.trace)),
                ("result", result.clone()),
                ("simulated", metrics_json(&outcome.simulated)),
            ]);
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            writeln!(f, "{}", record.to_string_compact()).map_err(|e| format!("{path}: {e}"))?;
        }
        print!("{}", outcome.table());
        println!("{}", result.to_string_compact());
    }
    Ok(all_correct)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse_set(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, ok) = compare(&read(a)?, &read(b)?, MIN_RUNS);
    print!("{table}");
    println!(
        "{}",
        if ok {
            "every end-to-end metric is within its bound"
        } else {
            "NOT within bounds"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("manifest") if args.len() == 1 => {
            println!("{}", manifest().to_string_pretty());
            Ok(true)
        }
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some("manifest" | "compare" | "--help" | "-h") => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => match parse_cli(&args) {
            Ok(cli) => run(&cli),
            Err(e) => {
                eprintln!("fncc-bench: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fncc-bench: {e}");
            ExitCode::from(1)
        }
    }
}
