//! FNCC — the paper's contribution.
//!
//! The sender-side window law is HPCC's (Algorithm 3), but the INT arrives
//! via ACKs of the *return path* (fresher by up to one RTT — the fabric
//! implements that part, see `fncc_net::switch`), and the Last-Hop
//! Congestion Speedup (LHCS, Algorithm 2) jumps the reference window
//! straight to the fair share when the bottleneck is the last hop:
//!
//! ```text
//! if hop(max U_j) == last hop and max U_j > α:
//!     Wc ← B_last · RTT · β / ack.N
//! ```
//!
//! with α slightly above 1 (1.05) to avoid over-triggering and β slightly
//! below 1 (0.9) to drain the congested queue.

use crate::ack::AckView;
use crate::datapath::{CcPolicy, Datapath, IntNeed, Measurements, Registration, Transmit};
use crate::hpcc::{HpccConfig, HpccPolicy};
use fncc_des::time::TimeDelta;
use fncc_net::units::Bandwidth;

/// Last-Hop Congestion Speedup parameters (Algorithm 2).
#[derive(Clone, Debug)]
pub struct LhcsConfig {
    /// Enable the speedup (`FNCC without LHCS` in Fig. 13 disables it).
    pub enabled: bool,
    /// Trigger threshold α on the last hop's `U` (slightly above 1).
    pub alpha: f64,
    /// Fair-share scaling β (slightly below 1, drains the queue).
    pub beta: f64,
}

impl LhcsConfig {
    /// The paper's values: α = 1.05, β = 0.9.
    pub fn paper_default() -> Self {
        LhcsConfig {
            enabled: true,
            alpha: 1.05,
            beta: 0.9,
        }
    }

    /// LHCS disabled (the Fig. 13 ablation).
    pub fn disabled() -> Self {
        LhcsConfig {
            enabled: false,
            ..Self::paper_default()
        }
    }
}

/// FNCC parameters: HPCC's window law plus LHCS.
#[derive(Clone, Debug)]
pub struct FnccConfig {
    /// The inherited HPCC window-law parameters.
    pub hpcc: HpccConfig,
    /// Last-hop speedup parameters.
    pub lhcs: LhcsConfig,
}

impl FnccConfig {
    /// Paper defaults for both parts.
    pub fn paper_default(line: Bandwidth, base_rtt: TimeDelta) -> Self {
        FnccConfig {
            hpcc: HpccConfig::paper_default(line, base_rtt),
            lhcs: LhcsConfig::paper_default(),
        }
    }

    /// Paper defaults with LHCS off (`FNCC without LHCS`).
    pub fn without_lhcs(line: Bandwidth, base_rtt: TimeDelta) -> Self {
        FnccConfig {
            hpcc: HpccConfig::paper_default(line, base_rtt),
            lhcs: LhcsConfig::disabled(),
        }
    }
}

/// FNCC's law state: HPCC's law plus the LHCS trigger.
#[derive(Clone, Debug)]
pub struct FnccPolicy {
    inner: HpccPolicy,
    lhcs: LhcsConfig,
    /// How many times LHCS fired (diagnostics / tests).
    pub lhcs_triggers: u64,
}

/// Per-flow FNCC state: the policy mounted on the shared datapath.
pub type FnccFlow = Datapath<FnccPolicy>;

impl FnccPolicy {
    /// Law state for a fresh flow.
    pub fn new(cfg: FnccConfig) -> Self {
        FnccPolicy {
            inner: HpccPolicy::new(cfg.hpcc),
            lhcs: cfg.lhcs,
            lhcs_triggers: 0,
        }
    }

    /// Reference window (diagnostics).
    #[inline]
    pub fn wc(&self) -> f64 {
        self.inner.wc()
    }

    /// Smoothed utilisation estimate.
    #[inline]
    pub fn u(&self) -> f64 {
        self.inner.u()
    }

    /// Process an ACK whose INT has been normalised to request-path order.
    fn on_ack(&mut self, xmit: &mut Transmit, ack: &AckView<'_>) {
        let lhcs = self.lhcs.clone();
        let triggers = &mut self.lhcs_triggers;
        self.inner.on_ack_with(xmit, ack, |hpcc, ack| {
            if !lhcs.enabled {
                return;
            }
            // Algorithm 2 Hop_Detection: locate the most congested hop from
            // the per-link U just measured.
            let n = hpcc.n_hops;
            if n == 0 {
                return;
            }
            let (mut hop, mut umax) = (0usize, 0.0f64);
            for j in 0..n {
                if hpcc.link_u[j] > umax {
                    umax = hpcc.link_u[j];
                    hop = j;
                }
            }
            // Lines 11–14: last hop congested beyond α → jump Wc to the fair
            // share B·RTT·β / N.
            if hop == n - 1 && umax > lhcs.alpha {
                let n_flows = ack.concurrent_flows.max(1) as f64;
                let b_last = ack.int[n - 1].bandwidth.as_f64() / 8.0; // bytes/s
                let t = hpcc.config().t.as_secs_f64();
                hpcc.set_wc(b_last * t * lhcs.beta / n_flows);
                *triggers += 1;
            }
        });
    }
}

impl CcPolicy for FnccPolicy {
    /// FNCC needs return-path INT on ACKs, snapshotted every 1 µs: Fig. 8's
    /// periodic All_INT_Table is load-bearing — live reads phase-quantise
    /// txBytes deltas against ACK pass times, biasing the sender's U
    /// estimate high (see DESIGN.md / the `ablation_int_refresh`
    /// experiment). Return-path INT arrives in reverse hop order.
    const REGISTRATION: Registration = Registration {
        int: IntNeed::OnAck {
            refresh_us: Some(1),
        },
        ..Registration::NONE
    };

    fn initial(&self) -> Transmit {
        self.inner.initial()
    }

    fn on_signal(&mut self, xmit: &mut Transmit, m: &Measurements<'_>) {
        if let Measurements::Ack(ack) = m {
            self.on_ack(xmit, ack);
        }
    }

    fn lhcs_triggers(&self) -> Option<u64> {
        Some(self.lhcs_triggers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpcc::testutil::{ack_at, rec};

    fn cfg() -> FnccConfig {
        FnccConfig::paper_default(Bandwidth::gbps(100), TimeDelta::from_us(12))
    }

    fn flow() -> FnccFlow {
        Datapath::new(FnccPolicy::new(cfg()))
    }

    fn window(f: &FnccFlow) -> f64 {
        f.window_bytes().expect("FNCC is window-based")
    }

    #[test]
    fn lhcs_jumps_to_fair_share() {
        let mut f = flow();
        let mut tx = 0u64;
        for k in 0..10u64 {
            tx += 12_500;
            let t = k as f64;
            let int = [rec(100, t, tx / 4, 0), rec(100, t, tx, 450_000)];
            let mut ack = ack_at(t, 1456 * (k + 1), 1456 * (k + 2), &int);
            ack.concurrent_flows = 4;
            f.on_ack(&ack);
        }
        assert!(f.lhcs_triggers > 0, "LHCS never fired");
        // Fair share: B·T·β/N = 12.5e9 · 12e-6 · 0.9 / 4 = 33 750 bytes.
        let fair = 12.5e9 * 12e-6 * 0.9 / 4.0;
        assert!(
            (f.wc() - fair).abs() / fair < 0.05,
            "Wc {} not at fair share {fair}",
            f.wc()
        );
    }

    #[test]
    fn lhcs_ignores_middle_hop_congestion() {
        let mut f = flow();
        let mut tx = 0u64;
        for k in 0..10u64 {
            tx += 12_500;
            let t = k as f64;
            // Congestion at hop 0 of 2 — not the last hop.
            let int = [rec(100, t, tx, 450_000), rec(100, t, tx / 4, 0)];
            let mut ack = ack_at(t, 1456 * (k + 1), 1456 * (k + 2), &int);
            ack.concurrent_flows = 4;
            f.on_ack(&ack);
        }
        assert_eq!(f.lhcs_triggers, 0);
        // But the normal HPCC law still reacts to the congestion.
        assert!(window(&f) < 0.5 * 150_000.0);
    }

    #[test]
    fn lhcs_requires_umax_above_alpha() {
        let mut f = flow();
        let mut tx = 0u64;
        for k in 0..10u64 {
            // Lightly loaded last hop: txRate = 40% line, tiny queue →
            // U ≈ 0.4 < α.
            tx += 5_000;
            let t = k as f64;
            let int = [rec(100, t, tx / 4, 0), rec(100, t, tx, 1_000)];
            let mut ack = ack_at(t, 1456 * (k + 1), 1456 * (k + 2), &int);
            ack.concurrent_flows = 4;
            f.on_ack(&ack);
        }
        assert_eq!(f.lhcs_triggers, 0);
    }

    #[test]
    fn disabled_lhcs_never_fires() {
        let mut f = Datapath::new(FnccPolicy::new(FnccConfig::without_lhcs(
            Bandwidth::gbps(100),
            TimeDelta::from_us(12),
        )));
        let mut tx = 0u64;
        for k in 0..10u64 {
            tx += 12_500;
            let t = k as f64;
            let int = [rec(100, t, tx / 4, 0), rec(100, t, tx, 450_000)];
            let mut ack = ack_at(t, 1456 * (k + 1), 1456 * (k + 2), &int);
            ack.concurrent_flows = 4;
            f.on_ack(&ack);
        }
        assert_eq!(f.lhcs_triggers, 0);
        // Still congestion-controlled the HPCC way.
        assert!(window(&f) < 150_000.0);
    }

    #[test]
    fn zero_n_is_treated_as_one() {
        let mut f = flow();
        let mut tx = 0u64;
        for k in 0..10u64 {
            tx += 12_500;
            let t = k as f64;
            let int = [rec(100, t, tx, 450_000)];
            let ack = ack_at(t, 1456 * (k + 1), 1456 * (k + 2), &int);
            // concurrent_flows left at 0 → divide-by-one, not by zero.
            f.on_ack(&ack);
        }
        assert!(f.wc().is_finite() && f.wc() > 0.0);
    }

    #[test]
    fn converged_fair_rate_scales_with_n() {
        let run = |n: u16| {
            let mut f = flow();
            let mut tx = 0u64;
            for k in 0..10u64 {
                tx += 12_500;
                let t = k as f64;
                let int = [rec(100, t, tx, 450_000)];
                let mut ack = ack_at(t, 1456 * (k + 1), 1456 * (k + 2), &int);
                ack.concurrent_flows = n;
                f.on_ack(&ack);
            }
            f.wc()
        };
        let wc2 = run(2);
        let wc8 = run(8);
        assert!((wc2 / wc8 - 4.0).abs() < 0.2, "wc2 {wc2} wc8 {wc8}");
    }
}
