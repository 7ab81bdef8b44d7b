//! The reproduction scorecard: every headline claim of the paper checked
//! live, with a PASS/FAIL verdict. `fncc-repro check` prints it and the
//! tier-1 test `tests/paper_claims.rs` asserts it: [`run`] simulates each
//! cell once, and [`verdicts`] is the one place a claim's condition lives.

use crate::report::f2;
use crate::RunOpts;
use fncc_cc::CcKind;
use fncc_core::prelude::*;
use fncc_des::output::Table;

/// One headline claim and its verdict.
pub struct Check {
    /// Claim id and the figure or section it reproduces.
    pub id: &'static str,
    /// The claim in words.
    pub claim: &'static str,
    /// The numbers the verdict read.
    pub measured: String,
    /// Whether the claim holds.
    pub pass: bool,
}

/// The elephant-dumbbell cells, as (scheme, Gb/s), in the order
/// [`dumbbell_verdicts`] reads them.
const ELEPHANTS: [(CcKind, u64); 9] = [
    (CcKind::Fncc, 100),
    (CcKind::Hpcc, 100),
    (CcKind::Dcqcn, 100),
    (CcKind::Rocc, 100),
    (CcKind::Fncc, 200),
    (CcKind::Hpcc, 200),
    (CcKind::Fncc, 400),
    (CcKind::Hpcc, 400),
    (CcKind::Dcqcn, 400),
];

/// Every simulation the claims read, each distinct cell run once.
pub struct Runs {
    /// One result per [`ELEPHANTS`] cell.
    elephants: [ElephantResult; 9],
    /// First hop FNCC, HPCC; last hop FNCC, HPCC, FNCC without LHCS.
    hops: [HopCongestionResult; 5],
    /// FNCC staircases at seeds 1 and 3.
    staircase: [FairnessResult; 2],
    /// DCQCN, HPCC, FNCC at 200 flows × seed 11 and 150 flows × seeds 1–3
    /// (one 150-flow draw can flip the DCQCN/FNCC ordering).
    workloads: [[WorkloadResult; 3]; 2],
    /// C11's incast `incomplete_flows` on the packet and fluid backends.
    incomplete: [f64; 2],
}

fn quick(cc: CcKind, gbps: u64) -> MicrobenchSpec {
    MicrobenchSpec {
        cc,
        line_gbps: gbps,
        horizon_us: 800,
        ..Default::default()
    }
}

/// Simulate every cell the claims read. The scale is fixed: `--quick`
/// and `--full` do not change the claim table.
pub fn run() -> Runs {
    let no_lhcs = MicrobenchSpec {
        disable_lhcs: true,
        ..quick(CcKind::Fncc, 100)
    };
    let hops = [
        (HopLocation::First, quick(CcKind::Fncc, 100)),
        (HopLocation::First, quick(CcKind::Hpcc, 100)),
        (HopLocation::Last, quick(CcKind::Fncc, 100)),
        (HopLocation::Last, quick(CcKind::Hpcc, 100)),
        (HopLocation::Last, no_lhcs),
    ];
    let workload = |n_flows, seeds: &[u64]| {
        [CcKind::Dcqcn, CcKind::Hpcc, CcKind::Fncc].map(|cc| {
            fattree_workload(&WorkloadSpec {
                cc,
                workload: Workload::FbHadoop,
                load: 0.5,
                n_flows,
                seeds: seeds.to_vec(),
                k: 4,
                line_gbps: 100,
            })
        })
    };

    // Lossless completion: a buffer-exhaustion drop on a fault-free run
    // stalls a flow silently until the drain cap truncates it, which an
    // average would hide.
    let mut incast = Scenario::new(
        "lossless-completion-probe",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Incast {
            receiver: 0,
            fan_in: 6,
            size: 150_000,
            waves: 2,
            gap_us: 50,
        },
        CcKind::Fncc,
    );
    incast.stop = StopCondition::Drain { cap_ms: 50 };
    incast.seeds = vec![1];

    Runs {
        elephants: ELEPHANTS.map(|(cc, gbps)| elephant_dumbbell(&quick(cc, gbps))),
        hops: hops.map(|(loc, spec)| hop_congestion(loc, &spec)),
        staircase: [1, 3]
            .map(|seed| fairness_staircase(CcKind::Fncc, 4, TimeDelta::from_ms(1), seed)),
        workloads: [workload(200, &[11]), workload(150, &[1, 2, 3])],
        incomplete: [SimBackend::Packet, SimBackend::Fluid].map(|b| {
            run_scenario(&incast, b)
                .scalar("incomplete_flows")
                .unwrap_or(0.0)
        }),
    }
}

/// Judge claims C1–C11 on `runs`.
pub fn verdicts(runs: &Runs) -> Vec<Check> {
    let mut checks = dumbbell_verdicts(&runs.elephants);

    let [hf, hh, lf, lh, ln] = &runs.hops;
    let gain =
        |f: &HopCongestionResult, h: &HopCongestionResult| 1.0 - f.peak_queue_kb / h.peak_queue_kb;
    let (first, last_no, last_with) = (gain(hf, hh), gain(ln, lh), gain(lf, lh));
    checks.push(Check {
        id: "C7 (Fig.13a-c)",
        claim: "queue gain larger at first hop than at last hop (w/o LHCS)",
        measured: format!(
            "first {:.1}% vs last {:.1}% (with LHCS {:.1}%)",
            100.0 * first,
            100.0 * last_no,
            100.0 * last_with
        ),
        pass: first > last_no && first > last_with - 0.01,
    });
    checks.push(Check {
        id: "C8 (Fig.13c-d)",
        claim: "LHCS fires only at the last hop and cuts the standing queue",
        measured: format!(
            "triggers last={} first={} off={}; mean queue {} -> {} KB; peak {} vs HPCC {} KB",
            lf.lhcs_triggers,
            hf.lhcs_triggers,
            ln.lhcs_triggers,
            f2(ln.mean_queue_kb),
            f2(lf.mean_queue_kb),
            f2(lf.peak_queue_kb),
            f2(lh.peak_queue_kb)
        ),
        pass: lf.lhcs_triggers > 0
            && hf.lhcs_triggers == 0
            && ln.lhcs_triggers == 0
            && lf.mean_queue_kb < ln.mean_queue_kb
            && lf.peak_queue_kb < lh.peak_queue_kb,
    });

    let min_jain = |r: &FairnessResult| r.jain_per_period.iter().copied().fold(1.0, f64::min);
    let [s1, s3] = &runs.staircase;
    checks.push(Check {
        id: "C9 (Fig.13e)",
        claim: "good fairness at short time scales (min Jain > 0.9)",
        measured: format!(
            "min Jain seed 1 {:.3}, seed 3 {:.3}; drained: {}",
            min_jain(s1),
            min_jain(s3),
            s1.all_finished && s3.all_finished
        ),
        pass: [s1, s3].iter().all(|r| min_jain(r) > 0.9 && r.all_finished),
    });

    // Weighted mean FCT slowdown over all size buckets, per scheme.
    let slowdowns = |cell: &[WorkloadResult; 3]| {
        cell.each_ref().map(|r| {
            let n: usize = r.rows.iter().map(|b| b.count).sum();
            r.rows.iter().map(|b| b.avg * b.count as f64).sum::<f64>() / n as f64
        })
    };
    let [w1, w3] = runs.workloads.each_ref().map(slowdowns);
    let show = |[d, h, f]: [f64; 3]| format!("{}/{}/{}", f2(d), f2(h), f2(f));
    let beats = |[d, h, f]: [f64; 3]| f < d && f < h * 1.1;
    let unfinished: usize = runs
        .workloads
        .iter()
        .flatten()
        .flat_map(|r| &r.unfinished)
        .sum();
    checks.push(Check {
        id: "C10 (Fig.15)",
        claim: "workload FCT slowdown: FNCC < DCQCN and FNCC <~ HPCC",
        measured: format!(
            "avg slowdown DCQCN/HPCC/FNCC: 200x1 {}, 150x3 {}; unfinished {unfinished}",
            show(w1),
            show(w3)
        ),
        pass: beats(w1) && beats(w3) && unfinished == 0,
    });

    let [des, fluid] = runs.incomplete;
    checks.push(Check {
        id: "C11 (lossless)",
        claim: "fault-free scenarios complete every flow (no silent stalls)",
        measured: format!("incomplete flows: packet {des:.0}, fluid {fluid:.0}"),
        pass: des == 0.0 && fluid == 0.0,
    });
    checks
}

/// C1–C6, on the elephant dumbbells.
fn dumbbell_verdicts(cells: &[ElephantResult; 9]) -> Vec<Check> {
    let [f100, h100, d100, r100, f200, h200, f400, h400, d400] = cells;
    // A scheme that never reacts reads as reacting at +∞.
    let rt = |e: &ElephantResult| e.reaction_us.unwrap_or(f64::INFINITY);
    let reacted = |es: &[&ElephantResult]| es.iter().all(|e| e.reaction_us.is_some());
    let show = |es: &[&ElephantResult]| {
        es.iter()
            .map(|e| {
                let us = e
                    .reaction_us
                    .map_or("never".into(), |x| format!("{x:.0}us"));
                format!("{} {us} {}KB", e.cc.name(), f2(e.peak_queue_kb))
            })
            .collect::<Vec<_>>()
            .join(", ")
    };

    let (fa, ha) = (&f100.mean_int_age_us, &h100.mean_int_age_us);
    let gain: Vec<f64> = fa.iter().zip(ha).map(|(f, h)| h - f).collect();
    vec![
        Check {
            id: "C1 (Fig.9b)",
            claim: "FNCC is the first to slow down, then HPCC, then DCQCN/RoCC",
            measured: show(&[f100, h100, d100, r100]),
            pass: reacted(&[f100, h100, d100, r100])
                && rt(f100) < rt(h100)
                && rt(h100) < rt(d100)
                && rt(h100) < rt(r100),
        },
        Check {
            id: "C2 (Fig.9a)",
            claim: "FNCC keeps the shallowest congestion-point queue",
            measured: show(&[f100, h100, d100]),
            pass: f100.peak_queue_kb < h100.peak_queue_kb
                && h100.peak_queue_kb < d100.peak_queue_kb,
        },
        Check {
            id: "C3 (Fig.9g-h)",
            claim: "FNCC keeps utilization above 0.9 and at least as high as HPCC",
            measured: format!(
                "FNCC {} vs HPCC {}",
                f2(f100.mean_util_after_join),
                f2(h100.mean_util_after_join)
            ),
            pass: f100.mean_util_after_join >= h100.mean_util_after_join - 0.01
                && f100.mean_util_after_join > 0.9,
        },
        Check {
            id: "C4 (§5.2)",
            claim: "orderings robust at 200 and 400 Gb/s",
            measured: format!(
                "200G {}; 400G {}",
                show(&[f200, h200]),
                show(&[f400, h400, d400])
            ),
            pass: reacted(&[f200, h200, f400, h400])
                && rt(f200) <= rt(h200)
                && f200.peak_queue_kb < h200.peak_queue_kb
                && rt(f400) <= rt(h400)
                && rt(h400) < rt(d400)
                && f400.peak_queue_kb < h400.peak_queue_kb
                && h400.peak_queue_kb < d400.peak_queue_kb,
        },
        Check {
            id: "C5 (Fig.3)",
            claim: "pause frames ordered FNCC <= HPCC <= DCQCN, DCQCN > 0 at 400G",
            measured: format!(
                "FNCC {} HPCC {} DCQCN {}",
                f400.pause_frames, h400.pause_frames, d400.pause_frames
            ),
            pass: f400.pause_frames <= h400.pause_frames
                && h400.pause_frames <= d400.pause_frames
                && d400.pause_frames > 0,
        },
        Check {
            id: "C6 (Fig.2/12)",
            claim: "ACK-path INT fresher at every hop; gain shrinks with hop index",
            measured: format!("ages us FNCC {fa:.1?} vs HPCC {ha:.1?}"),
            pass: fa.len() == 3
                && ha.len() == 3
                && gain.iter().all(|&g| g > 0.0)
                && gain.windows(2).all(|w| w[0] > w[1]),
        },
    ]
}

/// The claim table as `fncc-repro check` prints it.
pub fn table(checks: &[Check]) -> Table {
    let mut t = Table::new(["check", "claim", "measured", "verdict"]);
    for c in checks {
        let verdict = if c.pass { "PASS" } else { "FAIL" };
        t.row([c.id, c.claim, c.measured.as_str(), verdict]);
    }
    t
}

/// Run the full claim checklist. Returns the number of failed checks.
pub fn check(opts: &RunOpts) -> usize {
    let checks = verdicts(&run());
    let failed = checks.iter().filter(|c| !c.pass).count();
    let t = table(&checks);
    crate::report::emit_table(&opts.out, "scorecard", "Reproduction scorecard", &t);

    // The machine-readable verdict, in the same dependency-free JSON the
    // RunReport artifacts use — CI and dashboards consume one format.
    use fncc_core::json::{obj, Json};
    let artifact = obj([
        ("schema", Json::Str("fncc.scorecard/v1".into())),
        ("passed", Json::Num((checks.len() - failed) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        obj([
                            ("id", Json::Str(c.id.into())),
                            ("claim", Json::Str(c.claim.into())),
                            ("measured", Json::Str(c.measured.clone())),
                            ("pass", Json::Bool(c.pass)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = opts.out.join("scorecard.json");
    let write = std::fs::create_dir_all(&opts.out)
        .and_then(|()| std::fs::write(&path, artifact.to_string_pretty()));
    match write {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

    println!(
        "\n{}/{} claims reproduced",
        checks.len() - failed,
        checks.len()
    );
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic dumbbells ranked FNCC, HPCC, then the rest, in every
    /// ordering C1–C6 read: on these, all six claims hold.
    fn elephants() -> [ElephantResult; 9] {
        ELEPHANTS.map(|(cc, gbps)| {
            let rank = match cc {
                CcKind::Fncc => 0.0,
                CcKind::Hpcc => 1.0,
                _ => 2.0,
            };
            ElephantResult {
                cc,
                line: Bandwidth::gbps(gbps),
                queue_kb: TimeSeries::default(),
                util: TimeSeries::default(),
                flow_rates_gbps: Vec::new(),
                cc_rates_gbps: Vec::new(),
                pause_frames: rank as u64,
                reaction_us: Some(100.0 + rank),
                fair_convergence_us: None,
                mean_int_age_us: vec![1.0 + 3.0 * rank, 1.0 + 2.0 * rank, 1.0 + rank],
                peak_queue_kb: 100.0 + rank,
                mean_util_after_join: 0.95,
                events: 0,
            }
        })
    }

    /// The synthetic cells, with `edit` applied to the `targets` cells.
    fn edited(targets: &[(CcKind, u64)], edit: fn(&mut ElephantResult)) -> [ElephantResult; 9] {
        let mut cells = elephants();
        for (e, key) in cells.iter_mut().zip(ELEPHANTS) {
            if targets.contains(&key) {
                edit(e);
            }
        }
        cells
    }

    /// The verdict of claim `id` (`"C1"`, …) on `cells`.
    fn passes(cells: &[ElephantResult; 9], id: &str) -> bool {
        let checks = dumbbell_verdicts(cells);
        let prefix = format!("{id} ");
        checks
            .iter()
            .find(|c| c.id.starts_with(&prefix))
            .unwrap()
            .pass
    }

    #[test]
    fn synthetic_dumbbells_pass_c1_to_c6() {
        let checks = dumbbell_verdicts(&elephants());
        assert!(checks.iter().all(|c| c.pass), "{}", table(&checks).render());
    }

    #[test]
    fn dcqcn_that_never_reacts_fails_c1() {
        let cells = edited(&[(CcKind::Dcqcn, 100)], |e| e.reaction_us = None);
        assert!(!passes(&cells, "C1"));
    }

    #[test]
    fn fncc_and_hpcc_that_never_react_fail_c4() {
        for gbps in [200, 400] {
            let both = [(CcKind::Fncc, gbps), (CcKind::Hpcc, gbps)];
            let cells = edited(&both, |e| e.reaction_us = None);
            assert!(!passes(&cells, "C4"), "{gbps}G");
        }
    }

    #[test]
    fn hpcc_with_two_hops_fails_c6_instead_of_panicking() {
        let cells = edited(&[(CcKind::Hpcc, 100)], |e| {
            e.mean_int_age_us.pop();
        });
        assert!(!passes(&cells, "C6"));
    }
}
