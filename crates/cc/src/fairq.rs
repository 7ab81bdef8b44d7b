//! FairQ — receiver-count fair-share window control (after arXiv:2401.04850).
//!
//! Window-based, INT-driven. Each ACK's per-hop telemetry gives the hop
//! bandwidth `B_j` and instantaneous queue `q_j`; combined with the
//! receiver-echoed concurrent-flow count `N` (the same 16-bit field FNCC's
//! LHCS uses, §3.2.3) the sender computes every hop's fair window share
//!
//! ```text
//! w_j = (B_j · T · β − q_j · γ) / N
//! ```
//!
//! and adopts the path minimum once per RTT. β (slightly below 1) leaves
//! utilisation headroom; γ (above 1) over-subtracts standing queue so it
//! drains rather than persists. When every queue on the path is empty the
//! window instead probes additively by `W_probe / N` — the 1/N scaling keeps
//! aggregate probe pressure constant as fan-in grows.
//!
//! Unlike HPCC there is no per-hop delta state: the law reads each INT
//! snapshot directly, so the policy is a couple of scalars.

use crate::datapath::{CcPolicy, Datapath, IntNeed, Measurements, Registration, Transmit};
use fncc_des::time::TimeDelta;
use fncc_net::units::Bandwidth;

/// FairQ parameters.
#[derive(Clone, Debug)]
pub struct FairQConfig {
    /// Host line rate.
    pub line: Bandwidth,
    /// Network base RTT `T` — the window normalisation constant.
    pub t: TimeDelta,
    /// Fair-share utilisation target β (slightly below 1).
    pub beta: f64,
    /// Queue drain gain γ (above 1 drains standing queues).
    pub gamma: f64,
    /// Additive probe `W_probe` in bytes, applied as `W_probe / N` per RTT
    /// when the path is queue-free.
    pub probe: f64,
    /// A hop counts as queue-free below this backlog (bytes).
    pub empty_q: u64,
    /// Lower clamp on the window (one MTU keeps flows self-clocked).
    pub min_window: f64,
}

impl FairQConfig {
    /// Defaults: β = 0.95, γ = 1.5, probe = 4 MTU, empty below 3 KB.
    pub fn paper_default(line: Bandwidth, base_rtt: TimeDelta) -> Self {
        FairQConfig {
            line,
            t: base_rtt,
            beta: 0.95,
            gamma: 1.5,
            probe: 4.0 * 1518.0,
            empty_q: 3_000,
            min_window: 1518.0,
        }
    }

    /// Line-rate bandwidth–delay product in bytes (the initial window).
    pub fn bdp(&self) -> f64 {
        self.line.as_f64() / 8.0 * self.t.as_secs_f64()
    }
}

/// FairQ's law state: the once-per-RTT adoption guard.
#[derive(Clone, Debug)]
pub struct FairQPolicy {
    cfg: FairQConfig,
    last_update_seq: u64,
    /// How many fair-share adoptions have run (diagnostics / tests).
    pub updates: u64,
}

/// Per-flow FairQ state: the policy mounted on the shared datapath.
pub type FairQFlow = Datapath<FairQPolicy>;

impl FairQPolicy {
    /// Law state for a fresh flow.
    pub fn new(cfg: FairQConfig) -> Self {
        FairQPolicy {
            cfg,
            last_update_seq: 0,
            updates: 0,
        }
    }

    /// Configuration (tests).
    #[inline]
    pub fn config(&self) -> &FairQConfig {
        &self.cfg
    }
}

impl CcPolicy for FairQPolicy {
    /// FairQ reads request-path INT from data frames, like HPCC.
    const REGISTRATION: Registration = Registration {
        int: IntNeed::OnData,
        ..Registration::NONE
    };

    fn initial(&self) -> Transmit {
        Transmit::windowed(self.cfg.bdp(), self.cfg.t, self.cfg.line)
    }

    fn on_signal(&mut self, xmit: &mut Transmit, m: &Measurements<'_>) {
        let Measurements::Ack(ack) = m else {
            return;
        };
        if ack.int.is_empty() || ack.seq <= self.last_update_seq {
            return; // no telemetry, or still inside the current round
        }
        self.last_update_seq = ack.snd_nxt;
        self.updates += 1;
        let cfg = &self.cfg;
        let n = ack.concurrent_flows.max(1) as f64;
        let t = cfg.t.as_secs_f64();
        let mut w_fair = f64::INFINITY;
        let mut q_max = 0u64;
        for r in ack.int {
            let b_bytes = r.bandwidth.as_f64() / 8.0;
            let w_j = (b_bytes * t * cfg.beta - r.qlen as f64 * cfg.gamma) / n;
            w_fair = w_fair.min(w_j);
            q_max = q_max.max(r.qlen);
        }
        let cur = xmit.window().expect("FairQ is window-based");
        let w = if q_max <= cfg.empty_q {
            // Path is drained: probe above the fair estimate.
            cur.max(w_fair) + cfg.probe / n
        } else {
            w_fair
        };
        xmit.set_window(w.clamp(cfg.min_window, cfg.bdp()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpcc::testutil::{ack_at, rec};

    fn cfg() -> FairQConfig {
        FairQConfig::paper_default(Bandwidth::gbps(100), TimeDelta::from_us(12))
    }

    fn flow() -> FairQFlow {
        Datapath::new(FairQPolicy::new(cfg()))
    }

    fn window(f: &FairQFlow) -> f64 {
        f.window_bytes().expect("FairQ is window-based")
    }

    #[test]
    fn starts_at_bdp() {
        let f = flow();
        assert!((window(&f) - 150_000.0).abs() < 1.0);
    }

    #[test]
    fn adopts_fair_share_under_congestion() {
        let mut f = flow();
        // 100G last hop, 200 KB standing queue, N = 4.
        let int = [rec(100, 1.0, 12_500, 200_000)];
        let mut ack = ack_at(1.0, 1456, 100_000, &int);
        ack.concurrent_flows = 4;
        f.on_ack(&ack);
        // (12.5e9·12e-6·0.95 − 200000·1.5)/4 = (142500 − 300000)/4 < 0 →
        // clamped to min_window.
        assert_eq!(window(&f), 1518.0);
        assert_eq!(f.updates, 1);
    }

    #[test]
    fn fair_share_scales_inversely_with_n() {
        let run = |n: u16| {
            let mut f = flow();
            let int = [rec(100, 1.0, 12_500, 50_000)];
            let mut ack = ack_at(1.0, 1456, 100_000, &int);
            ack.concurrent_flows = n;
            f.on_ack(&ack);
            window(&f)
        };
        let w2 = run(2);
        let w8 = run(8);
        assert!((w2 / w8 - 4.0).abs() < 0.05, "w2 {w2} w8 {w8}");
    }

    #[test]
    fn min_hop_dominates() {
        let mut f = flow();
        // A 25G middle hop bounds the share even if edges are 100G.
        let int = [
            rec(100, 1.0, 12_500, 0),
            rec(25, 1.0, 3_125, 40_000),
            rec(100, 1.0, 12_500, 0),
        ];
        let mut ack = ack_at(1.0, 1456, 100_000, &int);
        ack.concurrent_flows = 2;
        f.on_ack(&ack);
        let expect: f64 = (25e9 / 8.0 * 12e-6 * 0.95 - 40_000.0 * 1.5) / 2.0;
        assert!(
            (window(&f) - expect.max(1518.0)).abs() < 1.0,
            "window {} expect {expect}",
            window(&f)
        );
    }

    #[test]
    fn empty_path_probes_additively() {
        let mut f = flow();
        // Congest first so the window sits below BDP.
        let int = [rec(100, 1.0, 12_500, 100_000)];
        let mut ack = ack_at(1.0, 1456, 10_000, &int);
        ack.concurrent_flows = 4;
        f.on_ack(&ack);
        let low = window(&f);
        assert!(low < 150_000.0);
        // Drained path: probe upward once per round.
        for k in 2..6u64 {
            let int = [rec(100, k as f64, 12_500 * k, 0)];
            let mut ack = ack_at(k as f64, 10_000 * k, 10_000 * (k + 1), &int);
            ack.concurrent_flows = 4;
            f.on_ack(&ack);
        }
        assert!(window(&f) > low, "no probe: {low} -> {}", window(&f));
    }

    #[test]
    fn updates_once_per_round() {
        let mut f = flow();
        let int = [rec(100, 1.0, 12_500, 50_000)];
        let mut ack = ack_at(1.0, 1456, 100_000, &int);
        ack.concurrent_flows = 2;
        f.on_ack(&ack);
        let w1 = window(&f);
        // seq below snd_nxt of the adoption: same round, no change even with
        // different telemetry.
        let int2 = [rec(100, 2.0, 25_000, 300_000)];
        let mut ack2 = ack_at(2.0, 2_912, 100_000, &int2);
        ack2.concurrent_flows = 2;
        f.on_ack(&ack2);
        assert_eq!(window(&f), w1);
        assert_eq!(f.updates, 1);
        // Crossing the round boundary re-enables adoption.
        let mut ack3 = ack_at(3.0, 100_001, 200_000, &int2);
        ack3.concurrent_flows = 2;
        f.on_ack(&ack3);
        assert!(window(&f) < w1);
        assert_eq!(f.updates, 2);
    }

    #[test]
    fn window_bounds_hold() {
        let mut f = flow();
        for k in 1..100u64 {
            let q = if k % 2 == 0 { 5_000_000 } else { 0 };
            let int = [rec(100, k as f64, 12_500 * k, q)];
            let mut ack = ack_at(k as f64, 10_000 * k, 10_000 * (k + 1), &int);
            ack.concurrent_flows = 1;
            f.on_ack(&ack);
            assert!(window(&f) >= 1518.0);
            assert!(window(&f) <= 150_000.0 + 1.0);
        }
    }
}
