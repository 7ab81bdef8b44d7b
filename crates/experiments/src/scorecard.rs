//! The reproduction scorecard: every headline claim of the paper checked
//! live, with a PASS/FAIL verdict. `fncc-repro check` prints it and the
//! tier-1 test `crates/experiments/tests/paper_claims.rs` asserts it: [`run`] simulates each
//! cell once, and [`verdicts`] is the one place a claim's condition lives.

use crate::report::{f2, num};
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
    /// One report per [`ELEPHANTS`] cell.
    elephants: [RunReport; 9],
    /// First hop FNCC, HPCC; last hop FNCC, HPCC, FNCC without LHCS.
    hops: [RunReport; 5],
    /// FNCC staircases at seeds 1 and 3.
    staircase: [RunReport; 2],
    /// DCQCN, HPCC, FNCC at 200 flows × seed 11 and 150 flows × seeds 1–3
    /// (one 150-flow draw can flip the DCQCN/FNCC ordering).
    workloads: [[RunReport; 3]; 2],
    /// C11's incast `incomplete_flows` on the packet and fluid backends.
    incomplete: [f64; 2],
}

/// Simulate every cell the claims read. The scale is fixed: `--quick`
/// and `--full` do not change the claim table.
pub fn run() -> Runs {
    let packet = |sc: Scenario| PacketBackend::default().run(&sc);
    let hop = |loc, cc, disable_lhcs| {
        let mut sc = hop_location(cc, loc, 800);
        sc.overrides.disable_lhcs = disable_lhcs;
        packet(sc)
    };
    let workload = |flows, seeds: &[u64]| {
        [CcKind::Dcqcn, CcKind::Hpcc, CcKind::Fncc].map(|cc| {
            let mut sc = fattree_workload(cc, Workload::FbHadoop);
            sc.topology = TopologySpec::FatTree { k: 4 };
            sc.traffic = TrafficSpec::Poisson {
                workload: Workload::FbHadoop,
                load: 0.5,
                flows,
            };
            sc.seeds = seeds.to_vec();
            packet(sc)
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
        elephants: ELEPHANTS.map(|(cc, gbps)| packet(elephants(cc, gbps, 800))),
        hops: [
            hop(HopLocation::First, CcKind::Fncc, false),
            hop(HopLocation::First, CcKind::Hpcc, false),
            hop(HopLocation::Last, CcKind::Fncc, false),
            hop(HopLocation::Last, CcKind::Hpcc, false),
            hop(HopLocation::Last, CcKind::Fncc, true),
        ],
        staircase: [1, 3].map(|seed| {
            packet(staircase_scenario(
                CcKind::Fncc,
                4,
                TimeDelta::from_ms(1),
                seed,
            ))
        }),
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
    let peak = |r: &RunReport| num(r, "peak_queue_kb");
    let gain = |f, h| 1.0 - peak(f) / peak(h);
    let (first, last_no, last_with) = (gain(hf, hh), gain(ln, lh), gain(lf, lh));
    let triggers = |r: &RunReport| num(r, "lhcs_triggers");
    let mean_queue = |r: &RunReport| num(r, "mean_queue_kb");
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
            triggers(lf),
            triggers(hf),
            triggers(ln),
            f2(mean_queue(ln)),
            f2(mean_queue(lf)),
            f2(peak(lf)),
            f2(peak(lh))
        ),
        pass: triggers(lf) > 0.0
            && triggers(hf) == 0.0
            && triggers(ln) == 0.0
            && mean_queue(lf) < mean_queue(ln)
            && peak(lf) < peak(lh),
    });

    let min_jain = |r: &RunReport| r.indexed_scalars("jain_p").into_iter().fold(1.0, f64::min);
    let drained = |r: &RunReport| r.scalar("all_finished") == Some(1.0);
    let [s1, s3] = &runs.staircase;
    checks.push(Check {
        id: "C9 (Fig.13e)",
        claim: "good fairness at short time scales (min Jain > 0.9)",
        measured: format!(
            "min Jain seed 1 {:.3}, seed 3 {:.3}; drained: {}",
            min_jain(s1),
            min_jain(s3),
            drained(s1) && drained(s3)
        ),
        pass: [s1, s3].iter().all(|r| min_jain(r) > 0.9 && drained(r)),
    });

    // Weighted mean FCT slowdown over all size buckets, per scheme.
    let slowdowns = |cell: &[RunReport; 3]| {
        cell.each_ref()
            .map(|r| r.mean_slowdown().unwrap_or(f64::NAN))
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
fn dumbbell_verdicts(cells: &[RunReport; 9]) -> Vec<Check> {
    let [f100, h100, d100, r100, f200, h200, f400, h400, d400] = cells;
    let reaction = |e: &RunReport| e.scalar("reaction_us");
    // A scheme that never reacts reads as reacting at +∞.
    let rt = |e| reaction(e).unwrap_or(f64::INFINITY);
    let reacted = |es: &[&RunReport]| es.iter().all(|e| reaction(e).is_some());
    let peak = |e: &RunReport| num(e, "peak_queue_kb");
    let util = |e: &RunReport| num(e, "mean_util");
    let pauses = |e: &RunReport| num(e, "pause_frames");
    let show = |es: &[&RunReport]| {
        es.iter()
            .map(|e| {
                let us = reaction(e).map_or("never".into(), |x| format!("{x:.0}us"));
                format!("{} {us} {}KB", e.cc, f2(peak(e)))
            })
            .collect::<Vec<_>>()
            .join(", ")
    };

    let (fa, ha) = (
        f100.indexed_scalars("int_age_us_hop"),
        h100.indexed_scalars("int_age_us_hop"),
    );
    let gain: Vec<f64> = fa.iter().zip(&ha).map(|(f, h)| h - f).collect();
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
            pass: peak(f100) < peak(h100) && peak(h100) < peak(d100),
        },
        Check {
            id: "C3 (Fig.9g-h)",
            claim: "FNCC keeps utilization above 0.9 and at least as high as HPCC",
            measured: format!("FNCC {} vs HPCC {}", f2(util(f100)), f2(util(h100))),
            pass: util(f100) >= util(h100) - 0.01 && util(f100) > 0.9,
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
                && peak(f200) < peak(h200)
                && rt(f400) <= rt(h400)
                && rt(h400) < rt(d400)
                && peak(f400) < peak(h400)
                && peak(h400) < peak(d400),
        },
        Check {
            id: "C5 (Fig.3)",
            claim: "pause frames ordered FNCC <= HPCC <= DCQCN, DCQCN > 0 at 400G",
            measured: format!(
                "FNCC {} HPCC {} DCQCN {}",
                pauses(f400),
                pauses(h400),
                pauses(d400)
            ),
            pass: pauses(f400) <= pauses(h400)
                && pauses(h400) <= pauses(d400)
                && pauses(d400) > 0.0,
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
    fn elephants() -> [RunReport; 9] {
        ELEPHANTS.map(|(cc, gbps)| {
            let rank = match cc {
                CcKind::Fncc => 0.0,
                CcKind::Hpcc => 1.0,
                _ => 2.0,
            };
            let mut r = RunReport::new(format!("synthetic-{gbps}g"), "packet", cc.name());
            r.put_scalar("pause_frames", rank);
            r.put_scalar("reaction_us", 100.0 + rank);
            for (hop, age) in [1.0 + 3.0 * rank, 1.0 + 2.0 * rank, 1.0 + rank]
                .into_iter()
                .enumerate()
            {
                r.put_scalar(format!("int_age_us_hop{hop}"), age);
            }
            r.put_scalar("peak_queue_kb", 100.0 + rank);
            r.put_scalar("mean_util", 0.95);
            r
        })
    }

    /// Drop scalar `name` from a synthetic report, as a run that never
    /// measured it would.
    fn drop_scalar(r: &mut RunReport, name: &str) {
        r.scalars.retain(|(k, _)| k != name);
    }

    /// The synthetic cells, with `edit` applied to the `targets` cells.
    fn edited(targets: &[(CcKind, u64)], edit: fn(&mut RunReport)) -> [RunReport; 9] {
        let mut cells = elephants();
        for (e, key) in cells.iter_mut().zip(ELEPHANTS) {
            if targets.contains(&key) {
                edit(e);
            }
        }
        cells
    }

    /// The verdict of claim `id` (`"C1"`, …) on `cells`.
    fn passes(cells: &[RunReport; 9], id: &str) -> bool {
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
        let cells = edited(&[(CcKind::Dcqcn, 100)], |e| drop_scalar(e, "reaction_us"));
        assert!(!passes(&cells, "C1"));
    }

    #[test]
    fn fncc_and_hpcc_that_never_react_fail_c4() {
        for gbps in [200, 400] {
            let both = [(CcKind::Fncc, gbps), (CcKind::Hpcc, gbps)];
            let cells = edited(&both, |e| drop_scalar(e, "reaction_us"));
            assert!(!passes(&cells, "C4"), "{gbps}G");
        }
    }

    #[test]
    fn hpcc_with_two_hops_fails_c6_instead_of_panicking() {
        let cells = edited(&[(CcKind::Hpcc, 100)], |e| {
            drop_scalar(e, "int_age_us_hop2")
        });
        assert!(!passes(&cells, "C6"));
    }
}
