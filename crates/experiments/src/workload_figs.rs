//! Figures 14 and 15 — large-scale fat-tree workload runs, executed
//! through the unified `Scenario` → `Backend` → `RunReport` path (so
//! `--backend fluid` swaps engines without touching this code).

use crate::report::{emit_table, f2};
use crate::RunOpts;
use fncc_cc::CcKind;
use fncc_core::scenarios::{fattree_workload, Workload};
use fncc_core::sweep::run_parallel;
use fncc_core::{run_scenario, RunReport, Scenario, TopologySpec, TrafficSpec};
use fncc_des::output::Table;

const CCS: [CcKind; 3] = [CcKind::Dcqcn, CcKind::Hpcc, CcKind::Fncc];

/// The §5.5 cell of `cc` at `load`, with the scale's flows and seeds
/// (on a k = 4 fat-tree under `--quick`).
fn cell(cc: CcKind, workload: Workload, load: f64, opts: &RunOpts) -> Scenario {
    let mut sc = fattree_workload(cc, workload);
    sc.traffic = TrafficSpec::Poisson {
        workload,
        load,
        flows: opts.workload_flows(),
    };
    sc.seeds = opts.workload_seeds();
    if opts.scale == crate::Scale::Quick {
        sc.topology = TopologySpec::FatTree { k: 4 };
    }
    sc
}

/// Run `cells` in parallel on `--backend`, or none of them if the backend
/// cannot run one.
fn run_cells(cells: [Scenario; 3], opts: &RunOpts) -> Result<Vec<RunReport>, String> {
    for sc in &cells {
        opts.check_backend(sc)?;
    }
    let backend = opts.backend;
    let jobs: Vec<_> = cells
        .into_iter()
        .map(|sc| move || run_scenario(&sc, backend))
        .collect();
    Ok(run_parallel(jobs, opts.threads))
}

fn run(workload: Workload, fig: &str, opts: &RunOpts) -> Result<(), String> {
    let results = run_cells(CCS.map(|cc| cell(cc, workload, 0.5, opts)), opts)?;

    for (stat, pick) in [("average", 0usize), ("median", 1), ("95th", 2), ("99th", 3)] {
        let mut t = Table::new([
            "flow_size",
            "DCQCN",
            "HPCC",
            "FNCC",
            "FNCC_vs_HPCC_%",
            "FNCC_vs_DCQCN_%",
        ]);
        let buckets = workload.buckets();
        for (b, &upper) in buckets.iter().enumerate() {
            let val = |r: &RunReport| -> f64 {
                let row = &r.slowdowns[b];
                match pick {
                    0 => row.avg,
                    1 => row.p50,
                    2 => row.p95,
                    _ => row.p99,
                }
            };
            let (d, h, f) = (val(&results[0]), val(&results[1]), val(&results[2]));
            if results.iter().all(|r| r.slowdowns[b].count == 0) {
                continue;
            }
            let pct = |base: f64| {
                if base > 0.0 {
                    f2(100.0 * (1.0 - f / base))
                } else {
                    "-".to_string()
                }
            };
            t.row([
                fncc_workloads::distributions::bucket_label(upper),
                f2(d),
                f2(h),
                f2(f),
                pct(h),
                pct(d),
            ]);
        }
        emit_table(
            &opts.out,
            &format!("{fig}_{stat}"),
            &format!(
                "{fig} — {} FCT slowdown, {} (50% load)",
                stat,
                workload.name()
            ),
            &t,
        );
    }

    let mut meta = Table::new([
        "cc",
        "backend",
        "flows_per_seed",
        "seeds",
        "unfinished",
        "events",
    ]);
    for r in &results {
        meta.row([
            r.cc.clone(),
            r.backend.clone(),
            opts.workload_flows().to_string(),
            r.seeds.len().to_string(),
            format!("{:?}", r.unfinished),
            r.events.to_string(),
        ]);
        // Persist the unified artifact alongside the CSVs.
        let path = opts.out.join(r.artifact_file_name());
        if let Err(e) = r.write_json(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    emit_table(
        &opts.out,
        &format!("{fig}_meta"),
        &format!("{fig} run metadata"),
        &meta,
    );
    Ok(())
}

/// Fig. 14: WebSearch at 50% load on the k=8 fat-tree.
pub fn fig14(opts: &RunOpts) -> Result<(), String> {
    run(Workload::WebSearch, "fig14", opts)
}

/// Fig. 15: FB_Hadoop at 50% load on the k=8 fat-tree.
pub fn fig15(opts: &RunOpts) -> Result<(), String> {
    run(Workload::FbHadoop, "fig15", opts)
}

/// Extension: overall FCT slowdown vs offered load (30/50/70%) — the
/// classic CC sensitivity sweep the paper fixes at 50%.
pub fn load_sweep(opts: &RunOpts) -> Result<(), String> {
    let mut t = Table::new(["load", "cc", "avg_slowdown", "p99_slowdown", "unfinished"]);
    for &load in &[0.3f64, 0.5, 0.7] {
        let cells = CCS.map(|cc| {
            let mut sc = cell(cc, Workload::FbHadoop, load, opts);
            sc.topology = TopologySpec::FatTree { k: 4 }; // pocket fabric keeps the sweep cheap
            sc
        });
        for r in run_cells(cells, opts)? {
            let p99max = r.slowdowns.iter().map(|b| b.p99).fold(0.0f64, f64::max);
            t.row([
                format!("{:.0}%", load * 100.0),
                r.cc.clone(),
                f2(r.mean_slowdown().unwrap_or(f64::NAN)),
                f2(p99max),
                format!("{:?}", r.unfinished),
            ]);
        }
    }
    emit_table(
        &opts.out,
        "ablation_load_sweep",
        "Extension — FCT slowdown vs offered load",
        &t,
    );
    Ok(())
}
