//! One benchmark invocation: timed set-up → one untimed warm-up repetition
//! → timed in-process repetitions of the *same* scenario and seed →
//! correctness checks → metrics. Host times are taken by [`crate::clock`]
//! and reported at the nominal clock.
//!
//! Load comes from this one process in a closed loop (the next repetition
//! starts when the previous one returns); no workload uses more than two
//! threads. The scenario goes through `Scenario::from_json` →
//! `SimBackend::resolve().run` → `RunReport` exactly as `fncc-repro run`
//! drives it.

use crate::clock::{time_short, Clock, Timed};
use crate::spec::END_TO_END;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Prepared, Scale, Workload};
use fncc_cc::CcKind;
use fncc_core::json::{num_u64, obj, Json};
use fncc_core::{Backend, RunReport, Scenario};
use std::time::Instant;

/// What one invocation was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Workload seed (`Scenario::seeds`).
    pub seed: u64,
    /// Keep starting timed repetitions until this many seconds have passed.
    pub seconds: f64,
    /// Run exactly this many timed repetitions instead (tests).
    pub reps: Option<usize>,
    /// Input size.
    pub scale: Scale,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`crate::spec`].
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit from [`crate::spec`].
    pub unit: &'static str,
}

/// `{name: {"value", "unit"}}` for each metric, in order.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result of one invocation.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Flows attempted over all timed repetitions.
    pub attempted: u64,
    /// Flows left unfinished, plus every flow of a repetition whose
    /// simulated results differ from the first repetition's.
    pub failed: u64,
    /// Why the run is not correct (empty = correct).
    pub errors: Vec<String>,
    /// Wall seconds of each timed repetition, in order.
    pub walls: Vec<f64>,
    /// The same at the nominal clock (what `run_s` is the minimum of).
    pub nominals: Vec<f64>,
    /// The metrics, in [`crate::spec`] order.
    pub metrics: Vec<Metric>,
    /// What the simulation computed, which repeats exactly for a seed:
    /// events, `fct_slowdown_mean`, `fct_p99_us`. Not part of the result
    /// object; `--out` records it and `compare` holds it per seed.
    pub simulated: Vec<Metric>,
}

impl Outcome {
    /// No flow failed and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", num_u64(self.attempted)),
            ("failed", num_u64(self.failed)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }

    /// Look a metric's value up by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable table of the metrics.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{}: {} reps, {} flows attempted, {} failed, {}\n",
            self.workload,
            self.walls.len(),
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "NOT CORRECT"
            }
        );
        for e in &self.errors {
            out.push_str(&format!("  error: {e}\n"));
        }
        let seconds = |v: &[f64]| -> String {
            let cells: Vec<String> = v.iter().map(|s| format!("{s:.3}")).collect();
            cells.join(" ")
        };
        out.push_str(&format!(
            "  repetitions, wall s:    {}\n  at the nominal clock:   {}\n",
            seconds(&self.walls),
            seconds(&self.nominals)
        ));
        let row = |m: &Metric| format!("  {:<34} {:>16.6} {}\n", m.name, m.value, m.unit);
        self.metrics.iter().for_each(|m| out.push_str(&row(m)));
        if !self.simulated.is_empty() {
            out.push_str("  simulated (repeats exactly for a seed):\n");
            self.simulated.iter().for_each(|m| out.push_str(&row(m)));
        }
        out
    }
}

/// A scalar the harness reads must exist: a missing one is an error, never
/// a silent 0.
pub fn scalar(report: &RunReport, name: &str) -> Result<f64, String> {
    report.scalar(name).ok_or_else(|| {
        format!(
            "{} report of '{}' has no scalar '{name}'",
            report.backend, report.scenario
        )
    })
}

/// The simulated results of one `Backend::run` that every repetition must
/// reproduce bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Engine events processed.
    pub events: u64,
    /// `mean_slowdown`, as bits.
    pub mean_slowdown: u64,
    /// `fct_us_p99`, as bits.
    pub fct_p99_us: u64,
    /// Flows that did not finish.
    pub unfinished: usize,
}

impl Signature {
    /// Read the signature off a report.
    pub fn of(report: &RunReport) -> Result<Signature, String> {
        Ok(Signature {
            events: report.events,
            mean_slowdown: scalar(report, "mean_slowdown")?.to_bits(),
            fct_p99_us: scalar(report, "fct_us_p99")?.to_bits(),
            unfinished: report.unfinished.iter().sum(),
        })
    }
}

/// One repetition: the reports `Backend::run` returned (one, or one per
/// scheme) and the host time each call took.
pub struct Rep {
    /// The reports, in `CcKind::ALL` order on the all-schemes workload.
    pub reports: Vec<RunReport>,
    /// Host time inside each `Backend::run` call.
    pub calls: Vec<Timed>,
}

impl Rep {
    /// The repetition's signatures, one per report.
    pub fn signatures(&self) -> Result<Vec<Signature>, String> {
        self.reports.iter().map(Signature::of).collect()
    }

    /// Wall seconds inside `Backend::run`, all calls together.
    pub fn wall_s(&self) -> f64 {
        self.calls.iter().map(|c| c.wall_s).sum()
    }

    /// The same at the nominal clock.
    pub fn nominal_s(&self) -> f64 {
        self.calls.iter().map(|c| c.nominal_s).sum()
    }
}

/// A prepared workload with its backend: everything a repetition needs.
pub struct Runner {
    /// The workload.
    pub workload: &'static Workload,
    /// The scenario and its size.
    pub prepared: Prepared,
    scenarios: Vec<Scenario>,
    backend: Box<dyn Backend>,
}

impl Runner {
    /// Resolve the backend and lay out the scenario(s) a repetition runs.
    pub fn new(workload: &'static Workload, prepared: Prepared) -> Runner {
        let scenarios = if workload.all_schemes {
            CcKind::ALL
                .iter()
                .map(|&cc| Scenario {
                    cc,
                    ..prepared.scenario.clone()
                })
                .collect()
        } else {
            vec![prepared.scenario.clone()]
        };
        Runner {
            backend: workload.backend.resolve(),
            workload,
            prepared,
            scenarios,
        }
    }

    /// Flows one repetition attempts.
    pub fn flows_per_rep(&self) -> u64 {
        (self.prepared.flows * self.scenarios.len()) as u64
    }

    /// Run one repetition: each `Backend::run` call inside its own
    /// `rep.backend_run` span, timed by `clock`.
    pub fn rep(&self, tracer: &mut Tracer, clock: &Clock) -> Rep {
        let (reports, calls) = self
            .scenarios
            .iter()
            .map(|sc| clock.time(|| tracer.span("rep.backend_run", |_| self.backend.run(sc)).0))
            .unzip();
        Rep { reports, calls }
    }
}

/// Set-ups timed per batch.
const SETUP_BATCH: usize = 9;

/// Time the set-up (read + parse + validate, then instantiate) nine times
/// in a row. Returns the prepared scenario and the **fastest** of the nine
/// in seconds at the nominal clock: a batch sits in one short window, so
/// its minimum is that window's reading with bursts filtered out.
pub fn setup_batch(
    workload: &'static Workload,
    opts: &Options,
    tracer: &mut Tracer,
) -> Result<(Prepared, f64), String> {
    let mut fastest = f64::INFINITY;
    let mut last = None;
    for _ in 0..SETUP_BATCH {
        let (prepared, timed) = time_short(|| {
            tracer
                .span("setup", |t| {
                    let (sc, _) = t.span("setup.parse", |_| workload.parse(opts.scale));
                    t.span("setup.instance", |_| {
                        workload.instantiate(sc?, opts.seed, opts.scale)
                    })
                    .0
                })
                .0
        });
        last = Some(prepared?);
        fastest = fastest.min(timed.nominal_s);
    }
    Ok((last.expect("SETUP_BATCH is not 0"), fastest))
}

/// Timed repetitions plus the checks every invocation makes on them.
pub struct Measured {
    /// Per timed repetition, the host time of each `Backend::run` call.
    pub calls: Vec<Vec<Timed>>,
    /// The last repetition (its reports feed the simulated metrics).
    pub last: Rep,
    /// Flows attempted.
    pub attempted: u64,
    /// Flows failed.
    pub failed: u64,
    /// Check failures.
    pub errors: Vec<String>,
}

impl Measured {
    /// Wall seconds of each timed repetition.
    pub fn walls(&self) -> Vec<f64> {
        let wall = |rep: &Vec<Timed>| rep.iter().map(|c| c.wall_s).sum();
        self.calls.iter().map(wall).collect()
    }

    /// Seconds at the nominal clock of each timed repetition.
    pub fn nominals(&self) -> Vec<f64> {
        let nominal = |rep: &Vec<Timed>| rep.iter().map(|c| c.nominal_s).sum();
        self.calls.iter().map(nominal).collect()
    }

    /// `run_s`: for each `Backend::run` call of a repetition, its minimum
    /// over the repetitions, at the nominal clock; summed over the calls.
    /// With one call per repetition this is the fastest repetition; with
    /// eight (one per scheme) each call finds its own quiet moment, which a
    /// whole repetition seldom does on a shared box.
    pub fn run_s(&self) -> f64 {
        (0..self.calls[0].len())
            .map(|k| {
                stats::min(
                    &self
                        .calls
                        .iter()
                        .map(|c| c[k].nominal_s)
                        .collect::<Vec<_>>(),
                )
            })
            .sum()
    }
}

/// Run timed repetitions until `stop(reps_done, seconds_elapsed)` says so,
/// calling `before_rep` ahead of each, and holding each against the first:
/// identical events, `mean_slowdown` and `fct_us_p99`, and no unfinished
/// flow.
pub fn measure(
    runner: &Runner,
    tracer: &mut Tracer,
    clock: &Clock,
    mut before_rep: impl FnMut(&mut Tracer),
    stop: impl Fn(usize, f64) -> bool,
) -> Measured {
    let started = Instant::now();
    let mut calls = Vec::new();
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let mut first: Option<Vec<Signature>> = None;
    loop {
        before_rep(tracer);
        let rep = runner.rep(tracer, clock);
        calls.push(rep.calls.clone());
        match rep.signatures() {
            Err(e) => {
                errors.push(e);
                failed += runner.flows_per_rep();
            }
            Ok(sigs) => {
                let unfinished: usize = sigs.iter().map(|s| s.unfinished).sum();
                if unfinished > 0 {
                    errors.push(format!(
                        "rep {}: {unfinished} flows unfinished",
                        calls.len()
                    ));
                }
                match &first {
                    None => {
                        failed += unfinished as u64;
                        first = Some(sigs);
                    }
                    Some(f) if *f != sigs => {
                        errors.push(format!(
                            "rep {} differs from rep 1: {sigs:?} vs {f:?}",
                            calls.len()
                        ));
                        failed += runner.flows_per_rep();
                    }
                    Some(_) => failed += unfinished as u64,
                }
            }
        }
        if stop(calls.len(), started.elapsed().as_secs_f64()) {
            return Measured {
                attempted: runner.flows_per_rep() * calls.len() as u64,
                calls,
                last: rep,
                failed,
                errors,
            };
        }
    }
}

/// `VmHWM` of this process in MB (peak resident set size).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Sum of a scalar over the reports of one repetition.
pub fn sum_scalar(reports: &[RunReport], name: &str) -> Result<f64, String> {
    reports.iter().map(|r| scalar(r, name)).sum()
}

/// Mean of a scalar over the reports of one repetition.
pub fn mean_scalar(reports: &[RunReport], name: &str) -> Result<f64, String> {
    Ok(sum_scalar(reports, name)? / reports.len() as f64)
}

/// Largest value of a scalar over the reports of one repetition.
pub fn max_scalar(reports: &[RunReport], name: &str) -> Result<f64, String> {
    reports
        .iter()
        .try_fold(f64::NEG_INFINITY, |acc, r| Ok(acc.max(scalar(r, name)?)))
}

/// What the simulation computed in one repetition: events (summed over the
/// reports), `fct_slowdown_mean` (their mean `mean_slowdown`) and
/// `fct_p99_us` (their largest `fct_us_p99`).
pub fn simulated(reports: &[RunReport]) -> Result<Vec<Metric>, String> {
    let metric = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    Ok(vec![
        metric(
            "events",
            reports.iter().map(|r| r.events).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "fct_slowdown_mean",
            mean_scalar(reports, "mean_slowdown")?,
            "ratio",
        ),
        metric("fct_p99_us", max_scalar(reports, "fct_us_p99")?, "us"),
    ])
}

/// The end-to-end invocation (tracing off).
pub fn end_to_end(workload: &'static Workload, opts: &Options) -> Result<Outcome, String> {
    let mut tracer = Tracer::disabled();
    let clock = Clock::start();
    let (prepared, first_setup) = setup_batch(workload, opts, &mut tracer)?;
    let runner = Runner::new(workload, prepared);
    // Warm-up: page in the binary, size the allocator's arenas, fill caches.
    runner.rep(&mut tracer, &clock);
    // Memory is read here, after exactly one repetition: what one
    // `fncc-repro run` of the scenario peaks at. Read after the last
    // repetition it would grow with the number of repetitions the box
    // happened to fit in (ShardedSim's per-run worker threads leave arenas
    // behind: 95–140 MB for 5–7 repetitions of one scenario).
    let rss_mb = peak_rss_mb();
    // One set-up batch ahead of every repetition spreads the set-up
    // timings over the whole run instead of its first milliseconds.
    let mut setups = vec![first_setup];
    let mut setup_errors = Vec::new();
    let mut m = measure(
        &runner,
        &mut tracer,
        &clock,
        |t| match setup_batch(workload, opts, t) {
            Ok((_, secs)) => setups.push(secs),
            Err(e) => setup_errors.push(e),
        },
        |reps, secs| match opts.reps {
            Some(n) => reps >= n,
            None => reps >= 3 && secs >= opts.seconds,
        },
    );
    let mut errors = setup_errors;
    errors.append(&mut m.errors);
    let mut value = |name: &str| -> f64 {
        let v = match name {
            "setup_s" => Ok(stats::median(&setups)),
            "run_s" => Ok(m.run_s()),
            "peak_rss_mb" => rss_mb.clone(),
            "fct_slowdown_mean" => mean_scalar(&m.last.reports, "mean_slowdown"),
            other => Err(format!("end-to-end metric '{other}' has no definition")),
        };
        v.unwrap_or_else(|e| {
            errors.push(e);
            f64::NAN
        })
    };
    let metrics = END_TO_END
        .iter()
        .map(|spec| Metric {
            name: spec.name.to_string(),
            value: value(spec.name),
            unit: spec.unit,
        })
        .collect();
    let simulated = simulated(&m.last.reports).unwrap_or_else(|e| {
        errors.push(e);
        Vec::new()
    });
    Ok(Outcome {
        workload: workload.name,
        attempted: m.attempted,
        failed: m.failed,
        errors,
        walls: m.walls(),
        nominals: m.nominals(),
        metrics,
        simulated,
    })
}
