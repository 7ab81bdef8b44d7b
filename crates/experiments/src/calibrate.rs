//! `fncc-repro calibrate` — derive and police the fluid backend's
//! [`RateModel`] parameters against the packet DES instead of hand-tuning
//! them.
//!
//! The fluid model reduces a congestion-control scheme to two steady-state
//! numbers (see `fncc_fluid::model`): the link fraction it sustains
//! (`utilization`) and the standing-queue delay a contended flow pays in
//! base RTTs (`queue_rtts`). For **every** scheme in [`CcKind::ALL`] this
//! module runs three stages:
//!
//! 1. **Bank measurement** (interpretable raw numbers). The calibration
//!    bank is the §5.1 dumbbell with two elephants holding the bottleneck
//!    while a stream of 10 KB mice arrives behind them
//!    ([`TrafficSpec::MiceBehindElephants`]). The elephant bucket measures
//!    the capacity fraction the scheme actually extracts over a contended
//!    multi-MB drain (solved from two fluid evaluations — the fluid
//!    elephant slowdown is affine in `1/η`); the mice bucket measures the
//!    standing-queue delay mice pay behind the elephants (solved the same
//!    way — the fluid penalty is affine in `queue_rtts`).
//!
//! 2. **Conformance check** (the gate). The shipped calibration is run
//!    against the packet engine on *held-out* §5.5 workload cells — k = 4
//!    fat-tree, FbHadoop and WebSearch, seeds disjoint from the
//!    cross-validation suite's — and its mean-slowdown error recorded.
//!
//! 3. **Re-fit on failure** (the correction). Only when a scheme's shipped
//!    parameters fall outside the 15% band on a held-out cell are they
//!    replaced: `utilization` is re-solved on the held-out cells' big-flow
//!    buckets (affine in `1/η`), then `queue_rtts` on their overall mean
//!    slowdown (affine in `q`), both snapped to the grid (η to 0.05,
//!    `queue_rtts` to 0.1) — see `refit_on_holdout` for why the solves
//!    are decoupled.
//!
//! The re-fit is deliberately *not* taken from the bank solves: the bank
//! isolates each mechanism at one flow scale, and for ramp-dominated
//! schemes those numbers do not transfer (DCQCN needs ~15 ms of continuous
//! saturation before it converges, so its effective utilization over a
//! 4 MB drain is ~0.57 while its workload cells conform at η = 1.0). The
//! bank numbers are reported and recorded as provenance; the held-out
//! cells — the same *population* the model is used on, different seeds —
//! are what the fit must reproduce.
//!
//! Convergence-by-construction: a conformant scheme keeps its shipped
//! parameters, so re-running `calibrate` at the same scale reproduces the
//! checked-in `CALIBRATION.json` bit for bit (the DES is deterministic),
//! and the artifact only changes when conformance actually broke — a
//! deliberate, reviewed event. `tests/calibration.rs` pins the artifact
//! to [`CalibrationSet::paper`]; `tests/fluid_cross_validation.rs` holds
//! the full 6-scheme × 2-workload matrix to the band on the validation
//! seeds.

use crate::{RunOpts, Scale};
use fncc_core::calibration::CalibrationArtifact;
use fncc_core::prelude::*;

/// Conformance band on the held-out cells at the default/full scales —
/// same width as the cross-validation suite's.
const BAND: f64 = 0.15;

/// Conformance band at `--quick` scale. The quick gate sees a quarter of
/// the flows (4 seeds × 60 instead of 8 × 120), roughly doubling the
/// standard error of the mean cross-backend error (per-seed σ ≈ 10%), so
/// the same 15% gate would trip on sampling noise. Quick runs are smoke:
/// the checked-in artifact always comes from the default scale.
const BAND_QUICK: f64 = 0.25;

/// The gate width at `scale`.
fn band(scale: Scale) -> f64 {
    match scale {
        Scale::Quick => BAND_QUICK,
        _ => BAND,
    }
}

/// Held-out seeds, disjoint from the cross-validation suite's `{1, 2}`.
/// Eight seeds because the per-seed modeling error is noisy (σ ≈ 10% of
/// the mean slowdown at 120 heavy-tailed flows, with occasional
/// pathological draws near −45%): the gate must see the mean, not one
/// draw.
const HOLDOUT_SEEDS: [u64; 8] = [3, 4, 5, 6, 7, 8, 9, 10];

/// Mice bucket: the generic 10 KB split of fixed-size patterns.
const MICE_BUCKET: u64 = 10_000;
/// Elephant bucket: everything above 1 MB in the generic split.
const ELEPHANT_BUCKET: u64 = 1_000_000_000;

/// One scheme's calibration record: raw bank measurements, held-out
/// conformance of the shipped parameters, and the accepted result.
#[derive(Clone, Copy, Debug)]
pub struct SchemeMeasurement {
    /// Scheme.
    pub cc: CcKind,
    /// DES elephant-bucket slowdown on the bank run.
    pub bank_elephant_slowdown: f64,
    /// DES mice-bucket slowdown on the bank run.
    pub bank_mice_slowdown: f64,
    /// Capacity fraction extracted over the bank's contended drain.
    pub bank_utilization: f64,
    /// Standing-queue delay (base RTTs) the bank's mice paid.
    pub bank_queue_rtts: f64,
    /// Shipped-parameter error on the held-out FbHadoop cell.
    pub holdout_err_hadoop: f64,
    /// Shipped-parameter error on the held-out WebSearch cell.
    pub holdout_err_websearch: f64,
    /// Did the shipped parameters conform on both held-out cells?
    pub conformant: bool,
    /// The re-solved parameters (populated only on conformance failure).
    pub refit: Option<Calibration>,
    /// What the artifact records: shipped if conformant, refit otherwise.
    pub accepted: Calibration,
}

/// Bank geometry at one scale.
struct Bank {
    /// Elephant size (bytes) — sized so the elephants outlive the whole
    /// mouse stream at their bottleneck fair share.
    elephant_size: u64,
    /// Mouse count.
    mice: u32,
    /// Mouse spacing (µs).
    gap_us: u64,
}

impl Bank {
    fn for_scale(scale: Scale) -> Bank {
        match scale {
            // CI-sized smoke; the checked-in artifact comes from the
            // default scale.
            Scale::Quick => Bank {
                elephant_size: 2_500_000,
                mice: 8,
                gap_us: 30,
            },
            _ => Bank {
                elephant_size: 4_000_000,
                mice: 16,
                gap_us: 25,
            },
        }
    }

    /// The bank scenario: two elephants hold the §5.1 dumbbell bottleneck
    /// while 10 KB mice arrive behind them from separate sender hosts.
    fn scenario(&self, cc: CcKind) -> Scenario {
        Scenario {
            name: format!("calibrate-bank-{}", cc.name()),
            stop: StopCondition::Drain { cap_ms: 50 },
            ..Scenario::new(
                "calibrate-bank",
                TopologySpec::Dumbbell {
                    senders: 4,
                    switches: 3,
                },
                TrafficSpec::MiceBehindElephants {
                    elephants: 2,
                    elephant_size: self.elephant_size,
                    mice: self.mice,
                    mouse_size: 10_000,
                    warmup_us: 60,
                    gap_us: self.gap_us,
                },
                cc,
            )
        }
    }
}

/// The held-out workload cell for `(cc, workload)` at `scale`.
fn holdout_scenario(cc: CcKind, workload: Workload, scale: Scale) -> Scenario {
    let (flows, seeds) = match scale {
        Scale::Quick => (60, &HOLDOUT_SEEDS[..4]),
        _ => (120, &HOLDOUT_SEEDS[..]),
    };
    let mut sc = fattree_workload(cc, workload);
    sc.topology = TopologySpec::FatTree { k: 4 };
    sc.traffic = TrafficSpec::Poisson {
        workload,
        load: 0.5,
        flows,
    };
    sc.seeds = seeds.to_vec();
    sc
}

/// Quantize `x` to the nearest `1/per` — the fit's grid (`per` = 20 for
/// the 0.05 utilization grid, 10 for the 0.1 queue grid). Dividing by an
/// exactly-representable integer keeps grid points bit-identical to their
/// literals (`19.0 / 20.0 == 0.95`), where multiplying by `0.05` would
/// leave float dust in the artifact.
fn quantize(x: f64, per: f64) -> f64 {
    (x * per).round() / per
}

/// The average slowdown of the bucket with upper edge `upper` bytes.
fn bucket_slowdown(report: &fncc_core::RunReport, upper: u64, what: &str) -> f64 {
    let row = report
        .slowdowns
        .iter()
        .find(|r| r.bucket_upper == upper)
        .unwrap_or_else(|| panic!("{what}: no {upper}-byte bucket in slowdown rows"));
    assert!(row.count > 0, "{what}: empty {upper}-byte bucket");
    row.avg
}

/// Run `sc` on the fluid backend under explicit candidate parameters.
fn fluid_report(sc: &Scenario, cand: Calibration) -> fncc_core::RunReport {
    let mut cal = CalibrationSet::paper();
    cal.set(sc.cc, cand).expect("candidate parameters in range");
    let mut sc = sc.clone();
    sc.overrides.calibration = Some(cal);
    run_scenario(&sc, SimBackend::Fluid)
}

fn cand(utilization: f64, queue_rtts: f64) -> Calibration {
    Calibration {
        utilization,
        queue_rtts,
    }
}

/// Bank stage: solve the two interpretable raw measurements.
fn measure_bank(cc: CcKind, scale: Scale) -> (f64, f64, f64, f64) {
    let sc = Bank::for_scale(scale).scenario(cc);
    let packet = run_scenario(&sc, SimBackend::Packet);
    let eleph_p = bucket_slowdown(&packet, ELEPHANT_BUCKET, "packet bank run");
    let mice_p = bucket_slowdown(&packet, MICE_BUCKET, "packet bank run");

    // Elephant bucket is affine in 1/η: two evaluations pin the line.
    let e_full = bucket_slowdown(&fluid_report(&sc, cand(1.0, 0.0)), ELEPHANT_BUCKET, "fluid");
    let e_half = bucket_slowdown(&fluid_report(&sc, cand(0.5, 0.0)), ELEPHANT_BUCKET, "fluid");
    let b = e_half - e_full;
    let a = 2.0 * e_full - e_half;
    assert!(
        b > 0.0,
        "{cc:?}: elephant bucket insensitive to utilization (e(1.0) {e_full}, e(0.5) {e_half})"
    );
    let bank_util = (b / (eleph_p - a).max(b)).min(1.0);

    // Mice bucket is affine in queue_rtts at fixed η.
    let s0 = bucket_slowdown(
        &fluid_report(&sc, cand(bank_util, 0.0)),
        MICE_BUCKET,
        "fluid",
    );
    let s1 = bucket_slowdown(
        &fluid_report(&sc, cand(bank_util, 1.0)),
        MICE_BUCKET,
        "fluid",
    );
    assert!(
        s1 > s0,
        "{cc:?}: queue penalty had no effect on the mice bucket (s0 {s0}, s1 {s1}) — \
         bank geometry left the mice uncontended"
    );
    let bank_queue = ((mice_p - s0) / (s1 - s0)).max(0.0);
    (eleph_p, mice_p, bank_util, bank_queue)
}

/// Count-weighted `(Σ avg·count, Σ count)` of the slowdown rows above
/// 1 MB — the big-flow observable the η re-fit matches.
fn big_flow_stats(report: &fncc_core::RunReport) -> (f64, usize) {
    report
        .slowdowns
        .iter()
        .filter(|r| r.bucket_upper > 1_000_000)
        .fold((0.0, 0), |(s, n), r| {
            (s + r.avg * r.count as f64, n + r.count)
        })
}

/// Re-fit stage: solve `(utilization, queue_rtts)` so the fluid backend
/// reproduces the DES on the held-out cells, as two decoupled
/// well-conditioned 1-D solves:
///
/// 1. `utilization` from the big-flow observable (count-weighted mean
///    slowdown of all > 1 MB buckets across both workloads) — affine in
///    `1/η`, pinned by evaluations at η ∈ {1.0, 0.5}. Skipped (shipped η
///    kept) when the held-out draws produced no big flows.
/// 2. `queue_rtts` from the overall mean slowdown (averaged over the two
///    workloads) at the solved η — affine in `queue_rtts`, pinned by
///    evaluations at q ∈ {0, 1}.
///
/// Both are snapped to the grid (η to 0.05, `queue_rtts` to 0.1). An
/// earlier joint 2×2 solve on the two workload means was abandoned: the
/// two equations are nearly collinear (both workloads respond to the two
/// parameters in almost the same ratio), so the solution exploded under
/// seed noise.
fn refit_on_holdout(
    cc: CcKind,
    scale: Scale,
    packet: &[fncc_core::RunReport],
    shipped: Calibration,
) -> Calibration {
    let cells: Vec<Scenario> = [Workload::FbHadoop, Workload::WebSearch]
        .into_iter()
        .map(|w| holdout_scenario(cc, w, scale))
        .collect();

    // Big-flow observable from the DES.
    let (p_sum, p_n) = packet
        .iter()
        .map(big_flow_stats)
        .fold((0.0, 0), |(s, n), (s2, n2)| (s + s2, n + n2));
    let fluid_big = |c: Calibration| -> f64 {
        let (s, n) = cells
            .iter()
            .map(|sc| big_flow_stats(&fluid_report(sc, c)))
            .fold((0.0, 0), |(s, n), (s2, n2)| (s + s2, n + n2));
        s / n.max(1) as f64
    };
    let utilization = if p_n == 0 {
        shipped.utilization
    } else {
        let packet_big = p_sum / p_n as f64;
        let e_full = fluid_big(cand(1.0, 0.0));
        let e_half = fluid_big(cand(0.5, 0.0));
        let b = e_half - e_full;
        let a = 2.0 * e_full - e_half;
        if b <= 0.0 {
            shipped.utilization
        } else {
            quantize((b / (packet_big - a).max(b)).min(1.0), 20.0).clamp(0.05, 1.0)
        }
    };

    // Overall-mean observable at the solved η.
    let packet_mean = packet
        .iter()
        .map(|r| r.mean_slowdown().expect("packet slowdowns"))
        .sum::<f64>()
        / packet.len() as f64;
    let fluid_mean = |c: Calibration| -> f64 {
        cells
            .iter()
            .map(|sc| {
                fluid_report(sc, c)
                    .mean_slowdown()
                    .expect("fluid slowdowns")
            })
            .sum::<f64>()
            / cells.len() as f64
    };
    let s0 = fluid_mean(cand(utilization, 0.0));
    let s1 = fluid_mean(cand(utilization, 1.0));
    let queue_rtts = if s1 > s0 {
        quantize(((packet_mean - s0) / (s1 - s0)).max(0.0), 10.0)
    } else {
        shipped.queue_rtts
    };
    Calibration {
        utilization,
        queue_rtts,
    }
}

/// Mean-slowdown errors of candidate parameters against the packet engine
/// on the two held-out cells (`[FbHadoop, WebSearch]`), plus the packet
/// reports themselves (the re-fit reads their big-flow buckets). The one
/// definition of "held-out error": the public gate, the re-fit tests and
/// `measure_scheme_from` all go through here.
fn holdout_errors_and_reports(
    cc: CcKind,
    scale: Scale,
    candidate: Calibration,
) -> ([f64; 2], Vec<fncc_core::RunReport>) {
    let mut packet_reports = Vec::with_capacity(2);
    let mut errs = [0.0f64; 2];
    for (i, workload) in [Workload::FbHadoop, Workload::WebSearch]
        .into_iter()
        .enumerate()
    {
        let sc = holdout_scenario(cc, workload, scale);
        let packet = run_scenario(&sc, SimBackend::Packet);
        let p = packet.mean_slowdown().expect("packet slowdowns");
        let f = fluid_report(&sc, candidate)
            .mean_slowdown()
            .expect("fluid slowdowns");
        errs[i] = (f - p) / p;
        packet_reports.push(packet);
    }
    (errs, packet_reports)
}

/// Mean-slowdown error of candidate parameters against the packet engine
/// on the two held-out cells (`[FbHadoop, WebSearch]`).
pub fn holdout_errors(cc: CcKind, scale: Scale, candidate: Calibration) -> [f64; 2] {
    holdout_errors_and_reports(cc, scale, candidate).0
}

/// Measure one scheme: bank numbers, held-out conformance of `shipped`,
/// re-fit if non-conformant.
pub fn measure_scheme_from(cc: CcKind, scale: Scale, shipped: Calibration) -> SchemeMeasurement {
    let (bank_elephant_slowdown, bank_mice_slowdown, bank_utilization, bank_queue_rtts) =
        measure_bank(cc, scale);

    let (errs, packet_reports) = holdout_errors_and_reports(cc, scale, shipped);
    let conformant = errs.iter().all(|e| e.abs() < band(scale));
    let refit = if conformant {
        None
    } else {
        Some(refit_on_holdout(cc, scale, &packet_reports, shipped))
    };
    SchemeMeasurement {
        cc,
        bank_elephant_slowdown,
        bank_mice_slowdown,
        bank_utilization,
        bank_queue_rtts,
        holdout_err_hadoop: errs[0],
        holdout_err_websearch: errs[1],
        conformant,
        refit,
        accepted: refit.unwrap_or(shipped),
    }
}

/// [`measure_scheme_from`] starting from the shipped (paper) calibration.
pub fn measure_scheme(cc: CcKind, scale: Scale) -> SchemeMeasurement {
    measure_scheme_from(cc, scale, CalibrationSet::paper().get(cc))
}

/// Run all three stages for every scheme and assemble the artifact set.
pub fn measure_all(scale: Scale) -> (CalibrationSet, Vec<SchemeMeasurement>) {
    let mut set = CalibrationSet::paper();
    let mut measurements = Vec::with_capacity(CcKind::ALL.len());
    for cc in CcKind::ALL {
        let m = measure_scheme(cc, scale);
        set.set(cc, m.accepted)
            .unwrap_or_else(|e| panic!("accepted parameters out of range: {e}"));
        measurements.push(m);
    }
    (set, measurements)
}

/// The `calibrate` verb: measure all schemes, print the report, and write
/// `<out>/CALIBRATION.json` (`fncc.calibration/v1`).
pub fn calibrate(opts: &RunOpts) -> CalibrationArtifact {
    let scale = match opts.scale {
        Scale::Quick => "quick",
        Scale::Default => "default",
        Scale::Full => "full",
    };
    println!("== calibrating fluid RateModels against the packet DES ({scale} scale) ==");
    let (set, measurements) = measure_all(opts.scale);

    println!(
        "  {:<8} | {:>7} {:>7} | {:>8} {:>8} | {:>6} {:>6} | {:>13}",
        "scheme", "bank_u", "bank_q", "hadoop", "websrch", "util", "q_rtts", "status"
    );
    for m in &measurements {
        println!(
            "  {:<8} | {:>7.3} {:>7.3} | {:>+7.1}% {:>+7.1}% | {:>6.2} {:>6.2} | {:>13}",
            m.cc.name(),
            m.bank_utilization,
            m.bank_queue_rtts,
            m.holdout_err_hadoop * 100.0,
            m.holdout_err_websearch * 100.0,
            m.accepted.utilization,
            m.accepted.queue_rtts,
            if m.conformant { "conformant" } else { "REFIT" },
        );
    }

    let artifact = CalibrationArtifact {
        set,
        scale: scale.to_string(),
    };
    let path = opts.out.join("CALIBRATION.json");
    match artifact.write(&path) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    if set == CalibrationSet::paper() {
        println!("calibration conformant: artifact matches the checked-in paper defaults");
    } else {
        println!(
            "calibration REFIT some schemes — review, then regenerate \
             RateModel::paper_default and the repo-root CALIBRATION.json \
             (see DESIGN.md §RateModel calibration)"
        );
    }
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_snaps_to_grid_without_float_dust() {
        assert_eq!(quantize(0.948, 20.0), 0.95);
        assert_eq!(quantize(0.374, 10.0), 0.4);
        assert_eq!(quantize(3.24, 10.0), 3.2);
        assert_eq!(quantize(0.0, 10.0), 0.0);
        // Grid points are bit-identical to the literals paper_default uses.
        for (kind_q, per) in [(0.95, 20.0), (0.6, 10.0), (3.2, 10.0), (2.4, 10.0)] {
            assert_eq!(quantize(kind_q, per), kind_q);
        }
    }

    #[test]
    fn bank_scenarios_cover_all_schemes() {
        for scale in [Scale::Quick, Scale::Default] {
            let bank = Bank::for_scale(scale);
            for cc in CcKind::ALL {
                let sc = bank.scenario(cc);
                assert_eq!(sc.cc, cc);
                assert!(matches!(sc.stop, StopCondition::Drain { .. }));
                let (_, flows) = sc.instance(1);
                assert_eq!(flows.len(), 2 + bank.mice as usize);
                // Elephants must outlive the whole mouse stream even at
                // their bottleneck fair share, or the late mice see an
                // uncontended path and the queue fit loses its signal.
                let elephant_drain_us = bank.elephant_size as f64 * 8.0 / (100e9 / 2.0) * 1e6;
                let last_mouse_us = (60 + bank.mice as u64 * bank.gap_us) as f64;
                assert!(
                    elephant_drain_us > last_mouse_us,
                    "{scale:?}: elephants drain at {elephant_drain_us}us, \
                     last mouse at {last_mouse_us}us"
                );
            }
        }
    }

    #[test]
    fn shipped_bank_scenario_file_matches_default_geometry() {
        // scenarios/calibration_bank.json documents the geometry this
        // module sweeps per scheme; it must track Bank::for_scale exactly
        // or the shipped file silently stops describing what `calibrate`
        // actually runs.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios/calibration_bank.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let shipped = Scenario::from_json(&text).expect("parse calibration_bank.json");
        let generated = Bank::for_scale(Scale::Default).scenario(shipped.cc);
        assert_eq!(shipped.traffic, generated.traffic);
        assert_eq!(shipped.topology, generated.topology);
        assert_eq!(shipped.stop, generated.stop);
    }

    #[test]
    fn holdout_seeds_are_disjoint_from_validation() {
        // The cross-validation suite pins seeds {1, 2}; fitting on them
        // would validate on the training set.
        for s in HOLDOUT_SEEDS {
            assert!(
                !(1..=2).contains(&s),
                "held-out seed {s} overlaps validation"
            );
        }
        let sc = holdout_scenario(CcKind::Fncc, Workload::WebSearch, Scale::Default);
        assert_eq!(sc.seeds, HOLDOUT_SEEDS.to_vec());
        assert_eq!(sc.topology, TopologySpec::FatTree { k: 4 });
    }

    #[test]
    fn bucket_extraction_panics_without_rows() {
        let report = fncc_core::RunReport::new("empty", "fluid", "FNCC");
        let r = std::panic::catch_unwind(|| bucket_slowdown(&report, MICE_BUCKET, "test"));
        assert!(r.is_err());
    }
}
