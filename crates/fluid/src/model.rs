//! Per-scheme steady-state rate models.
//!
//! The fluid backend abstracts a congestion-control scheme into two
//! steady-state parameters, the standard reduction used by flow-level CC
//! studies (e.g. the inter-DC fluid models in Zeng's survey and FairQ's
//! fair-share analysis):
//!
//! * `utilization` — the fraction of a saturated link the scheme actually
//!   sustains. Window-law schemes with an explicit target (HPCC's η, which
//!   FNCC inherits) leave `1 − η` headroom by design; rate-based schemes
//!   (DCQCN, RoCC) fill the link and absorb the error in queues instead.
//! * `queue_rtts` — the standing-queue delay a flow crossing a *contended*
//!   path pays, in units of the network base RTT. The packet backend shows
//!   this is where scheme differences actually land for short flows: every
//!   scheme starts senders at line rate, so mice on idle paths finish at
//!   ideal speed regardless of scheme, while mice sharing a bottleneck
//!   with elephants queue behind the scheme's standing buffer — shallow
//!   for FNCC/HPCC (INT-driven, early reaction), deep for DCQCN (ECN
//!   threshold + CNP delay). The simulator scales this penalty by how
//!   contended each flow's path actually was (see `FluidSim`), so it
//!   vanishes on idle paths.
//!
//! These are deliberately coarse: the fluid backend trades per-packet
//! effects (PFC pauses, INT staleness, ECN marking noise) for five to six
//! orders of magnitude in speed. The cross-validation suite in `tests/`
//! pins the resulting FCT-slowdown error against the packet DES backend.

use fncc_cc::CcKind;

/// Duration-dependent utilization decay for schemes whose control law
/// degrades under *contended sustained* saturation (Timely: competing
/// RTT-gradient controllers synchronize into a deep oscillation once a
/// shared bottleneck stays saturated for many RTTs, sustaining far less
/// than the short-horizon utilization; a solo drain settles fine). Short
/// flows never reach the regime and keep the headline `utilization`; long
/// drains decay linearly toward `eta_sustained` between `onset_rtts` and
/// `ramp_rtts` of drain duration, scaled by how contended the drain was
/// (`eta_sustained` is the fully-contended asymptote).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DurationEta {
    /// Utilization a drain converges to once fully in the oscillating
    /// regime, in `(0, 1]` (below the headline `utilization`).
    pub eta_sustained: f64,
    /// Drain duration (in base RTTs) below which the decay has no effect.
    pub onset_rtts: f64,
    /// Drain duration (in base RTTs) at which the decay is complete.
    pub ramp_rtts: f64,
}

/// Steady-state fluid model of one congestion-control scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateModel {
    /// Scheme this model stands in for.
    pub kind: CcKind,
    /// Sustained fraction of bottleneck capacity in `(0, 1]`.
    pub utilization: f64,
    /// Standing-queue delay on a fully-contended path, in base RTTs.
    pub queue_rtts: f64,
    /// Duration→effective-η hook for schemes that cannot hold their
    /// short-horizon utilization under sustained saturation (`None` for
    /// every scheme but Timely). A per-scheme structural property, not a
    /// calibrated knob: [`RateModel::from_calibration`] keeps the
    /// [`RateModel::paper_default`] one.
    pub duration_eta: Option<DurationEta>,
    /// Fraction of the standing queue a flow born into a saturated link
    /// pays (the hybrid backend's shadow-queue depth): how fast the
    /// scheme's incumbents yield to a newcomer. Structural like
    /// `duration_eta`; see [`RateModel::paper_default`].
    pub newcomer_queue_scale: f64,
}

/// Measured steady-state parameters of one scheme — the two [`RateModel`]
/// knobs, without the scheme tag. Produced by `fncc-repro calibrate` (see
/// `fncc_experiments::calibrate`), persisted in the `fncc.calibration/v1`
/// artifact, and consumed through [`CalibrationSet`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibration {
    /// Sustained fraction of bottleneck capacity in `(0, 1]`.
    pub utilization: f64,
    /// Standing-queue delay on a fully-contended path, in base RTTs.
    pub queue_rtts: f64,
}

impl Calibration {
    /// Check the model invariants: `utilization ∈ (0, 1]`, `queue_rtts`
    /// finite and non-negative.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.utilization > 0.0 && self.utilization <= 1.0) {
            return Err(format!(
                "utilization must be in (0,1], got {}",
                self.utilization
            ));
        }
        if !(self.queue_rtts >= 0.0 && self.queue_rtts.is_finite()) {
            return Err(format!(
                "queue_rtts must be finite and >= 0, got {}",
                self.queue_rtts
            ));
        }
        Ok(())
    }
}

/// A complete calibration: one [`Calibration`] per scheme in
/// [`CcKind::ALL`], stored densely in that order. `Copy` on purpose — a
/// set is two floats per scheme, so scenario overrides and backends can
/// carry one by value. The array is sized by `CcKind::ALL.len()`, so a
/// newly listed scheme extends every set automatically.
///
/// Construction goes through [`CalibrationSet::new`]/[`CalibrationSet::set`],
/// which enforce the per-scheme invariants, so a loaded set is always safe
/// to feed to [`RateModel::from_calibration`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CalibrationSet {
    entries: [Calibration; CcKind::ALL.len()],
}

impl CalibrationSet {
    /// A set from per-scheme entries in [`CcKind::ALL`] order. Errors when
    /// any entry violates the model invariants.
    pub fn new(entries: [Calibration; CcKind::ALL.len()]) -> Result<Self, String> {
        for (kind, e) in CcKind::ALL.iter().zip(&entries) {
            e.validate().map_err(|m| format!("{kind}: {m}"))?;
        }
        Ok(CalibrationSet { entries })
    }

    /// The calibration that reproduces [`RateModel::paper_default`] for
    /// every scheme — the zero-IO default, regenerated from the checked-in
    /// `CALIBRATION.json` artifact (the sync is pinned by
    /// `tests/calibration.rs`).
    pub fn paper() -> Self {
        let mut entries = [Calibration {
            utilization: 1.0,
            queue_rtts: 0.0,
        }; CcKind::ALL.len()];
        for kind in CcKind::ALL {
            let m = RateModel::paper_default(kind);
            entries[kind.index()] = Calibration {
                utilization: m.utilization,
                queue_rtts: m.queue_rtts,
            };
        }
        CalibrationSet { entries }
    }

    /// The entry for `kind`.
    pub fn get(&self, kind: CcKind) -> Calibration {
        self.entries[kind.index()]
    }

    /// Replace the entry for `kind`, enforcing the invariants.
    pub fn set(&mut self, kind: CcKind, entry: Calibration) -> Result<(), String> {
        entry.validate().map_err(|m| format!("{kind}: {m}"))?;
        self.entries[kind.index()] = entry;
        Ok(())
    }

    /// Iterate `(kind, entry)` pairs in [`CcKind::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (CcKind, Calibration)> + '_ {
        CcKind::ALL.iter().map(|&k| (k, self.get(k)))
    }
}

impl RateModel {
    /// The calibrated model for `kind`.
    ///
    /// The `utilization` and `queue_rtts` constants are **regenerated from
    /// the checked-in `CALIBRATION.json`** (produced by `fncc-repro
    /// calibrate`, which measures each scheme against the packet DES on the
    /// calibration scenario bank — see `DESIGN.md` §RateModel
    /// calibration). They are kept inline so the fluid backend needs no IO;
    /// `tests/calibration.rs` pins the two representations together.
    ///
    /// The measured shape matches the schemes' designs: window-law schemes
    /// with an explicit target (HPCC's η, which FNCC inherits) sustain
    /// ~0.95 of the link, the delay-based schemes ~0.97, and the rate-based
    /// ones fill it. FNCC's return-path INT holds the shallowest standing
    /// queue, HPCC's one-RTT-stale INT slightly deeper, the RTT-gradient
    /// schemes deeper still, and DCQCN's ECN threshold + CNP pipeline the
    /// deepest (the ordering of the paper's Figs. 9/13 queue plots).
    ///
    /// `newcomer_queue_scale`, the share of that standing depth a flow
    /// joining a saturated link pays, follows how fast the incumbents
    /// yield, measured against the packet DES on the hybrid conformance
    /// cells (`tests/hybrid_conformance.rs`): HPCC's INT window law and
    /// FairQ's echoed flow count shed load within a round (0.35); FNCC,
    /// Swift and DCQCN pay the standing depth (1); Timely also eats the
    /// gradient's settling overshoot (1.4), Throttle its restore-lag
    /// overshoot (1.8) and RoCC its fair-rate recovery lag (2.8).
    ///
    /// Only Timely carries a [`DurationEta`]: the packet DES shows its
    /// gradient control sustaining ~0.6 of the bottleneck on multi-MB
    /// drains while every other scheme holds its headline utilization.
    pub fn paper_default(kind: CcKind) -> Self {
        const TIMELY_DECAY: DurationEta = DurationEta {
            eta_sustained: 0.41,
            onset_rtts: 4.0,
            ramp_rtts: 16.0,
        };
        let (utilization, queue_rtts, newcomer_queue_scale, duration_eta) = match kind {
            CcKind::Fncc => (0.95, 0.4, 1.0, None),
            CcKind::Hpcc => (0.95, 0.6, 0.35, None),
            CcKind::FairQ => (0.95, 0.8, 0.35, None),
            CcKind::Swift => (0.97, 1.2, 1.0, None),
            CcKind::Timely => (0.97, 1.6, 1.4, Some(TIMELY_DECAY)),
            CcKind::Rocc => (1.0, 2.4, 2.8, None),
            CcKind::Dcqcn => (1.0, 3.2, 1.0, None),
            CcKind::Throttle => (1.0, 3.6, 1.8, None),
        };
        RateModel {
            kind,
            utilization,
            queue_rtts,
            duration_eta,
            newcomer_queue_scale,
        }
    }

    /// The model for `kind` from a measured [`CalibrationSet`] — how the
    /// fluid backend runs with `fncc-repro calibrate` output instead of the
    /// baked-in defaults. Only the two calibrated knobs move; the
    /// structural ones stay [`RateModel::paper_default`]'s.
    pub fn from_calibration(kind: CcKind, cal: &CalibrationSet) -> Self {
        let e = cal.get(kind);
        RateModel {
            utilization: e.utilization,
            queue_rtts: e.queue_rtts,
            ..Self::paper_default(kind)
        }
    }

    /// An idealized transport: full utilization, no queueing delay.
    /// Useful as the "speed-of-light" baseline in capacity-planning sweeps.
    pub fn ideal() -> Self {
        RateModel {
            kind: CcKind::Fncc,
            utilization: 1.0,
            queue_rtts: 0.0,
            duration_eta: None,
            newcomer_queue_scale: 1.0,
        }
    }

    /// Effective utilization of a drain that lasted `duration` seconds at
    /// contention level `contention ∈ [0, 1]` (the fraction by which the
    /// flow's mean rate fell below the scheme's uncontended drain rate):
    /// the headline `utilization` for short or uncontended flows, decaying
    /// linearly toward the scheme's fully-contended sustained value
    /// between `onset_rtts` and `ramp_rtts` of drain duration (identity
    /// for schemes without a [`DurationEta`]).
    pub fn effective_eta(&self, duration: f64, base_rtt: f64, contention: f64) -> f64 {
        let Some(d) = self.duration_eta else {
            return self.utilization;
        };
        if base_rtt <= 0.0 || d.ramp_rtts <= d.onset_rtts {
            return self.utilization;
        }
        let rtts = duration / base_rtt;
        let w = ((rtts - d.onset_rtts) / (d.ramp_rtts - d.onset_rtts)).clamp(0.0, 1.0)
            * contention.clamp(0.0, 1.0);
        self.utilization + (d.eta_sustained - self.utilization) * w
    }

    /// Override the utilization (clamped to `(0, 1]`).
    #[cfg(test)]
    fn with_utilization(mut self, eta: f64) -> Self {
        assert!(
            eta > 0.0 && eta <= 1.0,
            "utilization must be in (0,1], got {eta}"
        );
        self.utilization = eta;
        self
    }

    /// Override the standing-queue delay.
    #[cfg(test)]
    fn with_queue_rtts(mut self, rtts: f64) -> Self {
        assert!(rtts >= 0.0 && rtts.is_finite());
        self.queue_rtts = rtts;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_schemes() {
        for kind in CcKind::ALL {
            let m = RateModel::paper_default(kind);
            assert_eq!(m.kind, kind);
            assert!(m.utilization > 0.0 && m.utilization <= 1.0);
            assert!(m.queue_rtts >= 0.0);
        }
    }

    #[test]
    fn fncc_keeps_the_shallowest_queue() {
        let f = RateModel::paper_default(CcKind::Fncc);
        for other in CcKind::ALL.into_iter().filter(|&k| k != CcKind::Fncc) {
            assert!(
                f.queue_rtts < RateModel::paper_default(other).queue_rtts,
                "{other:?}"
            );
        }
    }

    #[test]
    fn paper_calibration_reproduces_paper_default() {
        let cal = CalibrationSet::paper();
        for kind in CcKind::ALL {
            assert_eq!(
                RateModel::from_calibration(kind, &cal),
                RateModel::paper_default(kind),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn calibration_set_rejects_invalid_entries() {
        let mut cal = CalibrationSet::paper();
        let bad_util = Calibration {
            utilization: 0.0,
            queue_rtts: 1.0,
        };
        assert!(cal.set(CcKind::Hpcc, bad_util).is_err());
        let bad_queue = Calibration {
            utilization: 0.9,
            queue_rtts: -0.1,
        };
        assert!(cal.set(CcKind::Hpcc, bad_queue).is_err());
        let nan_queue = Calibration {
            utilization: 0.9,
            queue_rtts: f64::NAN,
        };
        assert!(cal.set(CcKind::Hpcc, nan_queue).is_err());
        // The failed sets left the entry untouched.
        assert_eq!(cal, CalibrationSet::paper());
        // A valid replacement goes through and round-trips via get.
        let ok = Calibration {
            utilization: 0.9,
            queue_rtts: 0.7,
        };
        cal.set(CcKind::Hpcc, ok).unwrap();
        assert_eq!(cal.get(CcKind::Hpcc), ok);
        assert_eq!(
            RateModel::from_calibration(CcKind::Hpcc, &cal).queue_rtts,
            0.7
        );
    }

    #[test]
    fn calibration_set_iterates_in_all_order() {
        let cal = CalibrationSet::paper();
        let kinds: Vec<CcKind> = cal.iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, CcKind::ALL.to_vec());
    }

    #[test]
    fn duration_eta_decays_only_for_timely() {
        let base_rtt = 13e-6;
        for kind in CcKind::ALL {
            let m = RateModel::paper_default(kind);
            assert_eq!(
                m.effective_eta(0.0, base_rtt, 1.0),
                m.utilization,
                "{kind:?}"
            );
            let sustained = m.effective_eta(1.0, base_rtt, 1.0);
            if kind == CcKind::Timely {
                let d = m.duration_eta.unwrap();
                assert!((sustained - d.eta_sustained).abs() < 1e-12);
                // Midway through the ramp sits strictly between the bounds.
                let mid =
                    m.effective_eta(base_rtt * (d.onset_rtts + d.ramp_rtts) / 2.0, base_rtt, 1.0);
                assert!(sustained < mid && mid < m.utilization);
                // An uncontended drain never decays, however long it runs.
                assert_eq!(m.effective_eta(1.0, base_rtt, 0.0), m.utilization);
                // Half contention decays halfway to the sustained value.
                let half = m.effective_eta(1.0, base_rtt, 0.5);
                assert!((half - (m.utilization + d.eta_sustained) / 2.0).abs() < 1e-12);
            } else {
                assert_eq!(m.duration_eta, None, "{kind:?}");
                assert_eq!(sustained, m.utilization, "{kind:?}");
            }
        }
        // Degenerate base RTT: the hook is inert, not a division by zero.
        let t = RateModel::paper_default(CcKind::Timely);
        assert_eq!(t.effective_eta(1.0, 0.0, 1.0), t.utilization);
    }

    #[test]
    fn builders_validate() {
        let m = RateModel::ideal()
            .with_utilization(0.9)
            .with_queue_rtts(2.5);
        assert_eq!(m.utilization, 0.9);
        assert_eq!(m.queue_rtts, 2.5);
    }

    #[test]
    #[should_panic]
    fn zero_utilization_rejected() {
        let _ = RateModel::ideal().with_utilization(0.0);
    }
}
