//! `fncc-bench compare A B`: hold two sets of invocations against the
//! benchmark's own bounds.
//!
//! Each file is what `--out FILE` appends: one JSON line per invocation,
//! `{"workload", "seed", "trace", "result", "simulated"}`. For every workload
//! and every end-to-end metric the per-file **median** over the invocations
//! is compared; the check fails when B is worse than A by more than the
//! metric's bound, when a set has fewer invocations of a workload than
//! asked for, or when any invocation was not correct.
//!
//! The bounds of `BENCHMARK.json` have to hold the spread between
//! *different* seeds, so they are wide for a simulated metric. For one seed
//! the simulation is deterministic, so wherever both sets ran a workload on
//! the same seed, its `simulated` values (events, `fct_slowdown_mean`,
//! `fct_p99_us`) must also agree to within [`SIMULATED_TOLERANCE`]: two sets
//! of the same commit agree exactly, and a model change shows as one.

use crate::spec::{Better, END_TO_END};
use crate::stats;
use fncc_core::json::Json;
use std::collections::BTreeMap;

/// Invocations per workload each set must hold for the CLI check.
pub const MIN_RUNS: usize = 5;

/// Relative difference allowed between two sets' simulated values for the
/// same workload and seed.
pub const SIMULATED_TOLERANCE: f64 = 0.001;

/// One set of invocations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Set {
    /// Per workload, per end-to-end metric: the values of the invocations.
    pub metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Per (workload, seed): the invocation's simulated values by name.
    pub simulated: BTreeMap<(String, u64), BTreeMap<String, f64>>,
}

/// Parse the JSON lines of one `--out` file (end-to-end invocations only).
pub fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let v = Json::parse(line).map_err(|e| bad(&e))?;
        if v.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let result = v.get("result").ok_or_else(|| bad("no result"))?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(bad(&format!("{workload} invocation is not correct")));
        }
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(bad("no metrics"));
        };
        let value_of = |name: &str, m: &Json| {
            m.get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("metric {name} has no value")))
        };
        let per_metric = set.metrics.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            per_metric
                .entry(name.clone())
                .or_default()
                .push(value_of(name, m)?);
        }
        if let (Some(seed), Some(Json::Obj(simulated))) =
            (v.get("seed").and_then(Json::as_f64), v.get("simulated"))
        {
            let per_seed = set
                .simulated
                .entry((workload.to_string(), seed as u64))
                .or_default();
            for (name, m) in simulated {
                per_seed.insert(name.clone(), value_of(name, m)?);
            }
        }
    }
    Ok(set)
}

/// Compare set `b` against set `a`. Returns the report table and whether
/// every end-to-end metric of every workload stayed within its bound.
pub fn compare(a: &Set, b: &Set, min_runs: usize) -> (String, bool) {
    let mut ok = true;
    let mut out = format!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for (workload, metrics_a) in &a.metrics {
        for spec in &END_TO_END {
            let va = metrics_a.get(spec.name).map(Vec::as_slice).unwrap_or(&[]);
            let vb = b
                .metrics
                .get(workload)
                .and_then(|m| m.get(spec.name))
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            if va.len() < min_runs || vb.len() < min_runs {
                ok = false;
                out.push_str(&format!(
                    "{workload:<22} {:<18} needs {min_runs} invocations per set, has {} and {}\n",
                    spec.name,
                    va.len(),
                    vb.len()
                ));
                continue;
            }
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let worse = match spec.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let within = worse <= spec.bound;
            ok &= within;
            out.push_str(&format!(
                "{workload:<22} {:<18} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>6.1}%{}\n",
                spec.name,
                worse * 100.0,
                spec.bound * 100.0,
                if within { "" } else { "  <-- out of bound" }
            ));
        }
    }
    for workload in b.metrics.keys().filter(|w| !a.metrics.contains_key(*w)) {
        ok = false;
        out.push_str(&format!("{workload:<22} only in B\n"));
    }
    let mut same_seed = 0;
    for ((workload, seed), sim_a) in &a.simulated {
        let Some(sim_b) = b.simulated.get(&(workload.clone(), *seed)) else {
            continue;
        };
        same_seed += 1;
        for (name, va) in sim_a {
            // A value only A has reads as NaN, which is not within anything.
            let vb = sim_b.get(name).copied().unwrap_or(f64::NAN);
            let within = (vb - va).abs() <= SIMULATED_TOLERANCE * va.abs();
            if !within {
                ok = false;
                out.push_str(&format!(
                    "{workload:<22} seed {seed}: simulated {name} {va} vs {vb}  <-- differs\n"
                ));
            }
        }
    }
    out.push_str(&format!(
        "{same_seed} (workload, seed) pairs are in both sets; their simulated values must agree within {SIMULATED_TOLERANCE}\n"
    ));
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, run_s: f64, correct: bool) -> String {
        format!(
            r#"{{"workload":"{workload}","seed":1,"trace":false,"result":{{"correct":{correct},"attempted":10,"failed":0,"metrics":{{"setup_s":{{"value":0.01,"unit":"s"}},"run_s":{{"value":{run_s},"unit":"s"}},"peak_rss_mb":{{"value":50,"unit":"MB"}},"fct_slowdown_mean":{{"value":1.5,"unit":"ratio"}}}}}},"simulated":{{"fct_p99_us":{{"value":3392,"unit":"us"}}}}}}"#
        )
    }

    fn set(workload: &str, run_s: &[f64]) -> Set {
        let text: Vec<String> = run_s.iter().map(|&s| line(workload, s, true)).collect();
        parse_set(&text.join("\n")).unwrap()
    }

    #[test]
    fn medians_within_bound_pass_and_beyond_fail() {
        let a = set("w", &[1.0, 1.02, 0.98]);
        let bound = END_TO_END.iter().find(|m| m.name == "run_s").unwrap().bound;
        let near = set("w", &[1.0 + bound * 0.5; 3]);
        let far = set("w", &[1.0 + bound * 1.5; 3]);
        assert!(compare(&a, &near, 3).1);
        let (table, ok) = compare(&a, &far, 3);
        assert!(!ok && table.contains("out of bound"), "{table}");
        // Better is never a failure.
        assert!(compare(&far, &a, 3).1);
    }

    #[test]
    fn too_few_runs_missing_workloads_and_incorrect_runs_fail() {
        let a = set("w", &[1.0, 1.0]);
        assert!(!compare(&a, &a, 3).1);
        assert!(compare(&a, &a, 2).1);
        assert!(!compare(&a, &set("other", &[1.0, 1.0]), 2).1);
        assert!(parse_set(&line("w", 1.0, false)).is_err());
    }

    #[test]
    fn traced_invocations_are_left_out() {
        let traced = line("w", 9.0, true).replace("\"trace\":false", "\"trace\":true");
        let text = format!("{}\n{traced}\n", line("w", 1.0, true));
        assert_eq!(parse_set(&text).unwrap().metrics["w"]["run_s"], vec![1.0]);
    }

    #[test]
    fn simulated_values_of_one_seed_must_agree() {
        let a = set("w", &[1.0, 1.0]);
        let shifted = line("w", 1.0, true).replace("3392", "3520");
        let b = parse_set(&format!("{shifted}\n{shifted}")).unwrap();
        let (table, ok) = compare(&a, &b, 2);
        assert!(!ok && table.contains("fct_p99_us 3392 vs 3520"), "{table}");
        // Another seed is another input: nothing to hold it against.
        let other = shifted.replace("\"seed\":1", "\"seed\":2");
        let c = parse_set(&format!("{other}\n{other}")).unwrap();
        assert!(compare(&a, &c, 2).1);
    }
}
