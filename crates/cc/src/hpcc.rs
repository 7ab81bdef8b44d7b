//! HPCC (SIGCOMM'19) — re-implemented from Algorithm 3 of the FNCC paper.
//!
//! Window-based: the sender keeps a window `W` (bytes in flight) and a
//! reference window `Wc` updated once per RTT. Every ACK carries per-hop INT
//! `{B, TS, txBytes, qLen}`; the sender computes each link's normalised
//! in-flight bytes
//!
//! ```text
//! u'_j = min(qlen, qlen_prev) / (B_j · T)  +  txRate_j / B_j
//! ```
//!
//! filters the maximum through an EWMA (`U`), and sets
//! `W = Wc / (U/η) + W_AI` (multiplicative) or `W = Wc + W_AI` (additive
//! probing for at most `maxStage` stages).
//!
//! The policy holds only the law state (`Wc`, stages, EWMA, previous INT);
//! the published window lives in the shared [`Transmit`] and pacing follows
//! `W·8/T` there.

use crate::ack::AckView;
use crate::datapath::{CcPolicy, Datapath, IntNeed, Measurements, Registration, Transmit};
use fncc_des::time::TimeDelta;
use fncc_net::packet::{IntRecord, MAX_HOPS};
use fncc_net::units::Bandwidth;

/// HPCC parameters (defaults follow the papers: η = 0.95, maxStage = 5).
#[derive(Clone, Debug)]
pub struct HpccConfig {
    /// Target utilisation η (≈ 0.95).
    pub eta: f64,
    /// Maximum additive-increase stages per RTT round (5).
    pub max_stage: u32,
    /// Network base RTT `T` — the window normalisation constant.
    pub t: TimeDelta,
    /// Additive-increase increment `W_AI` in bytes (small, ensures fairness).
    pub wai: f64,
    /// Host line rate (initial window = line-rate BDP).
    pub line: Bandwidth,
    /// Lower clamp on the window (one MTU keeps flows self-clocked).
    pub min_window: f64,
}

impl HpccConfig {
    /// Paper-style defaults. `W_AI` is sized as `BDP·(1−η)/N` with `N = 4`
    /// expected concurrent flows per HPCC's guidance — `W_AI` is the only
    /// fairness driver (the multiplicative law preserves rate ratios), so
    /// undersizing it stretches convergence to fair shares by the same
    /// factor.
    pub fn paper_default(line: Bandwidth, base_rtt: TimeDelta) -> Self {
        let bdp = line.as_f64() / 8.0 * base_rtt.as_secs_f64();
        HpccConfig {
            eta: 0.95,
            max_stage: 5,
            t: base_rtt,
            wai: bdp * 0.05 / 4.0,
            line,
            min_window: 1518.0,
        }
    }

    /// Line-rate bandwidth–delay product in bytes (the initial window).
    pub fn bdp(&self) -> f64 {
        self.line.as_f64() / 8.0 * self.t.as_secs_f64()
    }
}

/// HPCC's law state. Also the base of [`crate::fncc::FnccPolicy`].
#[derive(Clone, Debug)]
pub struct HpccPolicy {
    cfg: HpccConfig,
    wc: f64,
    inc_stage: u32,
    last_update_seq: u64,
    /// EWMA-filtered max normalised in-flight bytes.
    u: f64,
    /// Previous INT records per hop (Algorithm 3's `L`).
    prev: [IntRecord; MAX_HOPS],
    prev_hops: usize,
    have_prev: bool,
    /// Per-link u' from the latest ACK (Algorithm 2's `U[j]`, LHCS input).
    pub link_u: [f64; MAX_HOPS],
    /// Hop count of the latest ACK.
    pub n_hops: usize,
}

/// Per-flow HPCC state: the policy mounted on the shared datapath.
pub type HpccFlow = Datapath<HpccPolicy>;

const EMPTY: IntRecord = IntRecord {
    bandwidth: Bandwidth::bps(1),
    ts: fncc_des::SimTime::ZERO,
    tx_bytes: 0,
    qlen: 0,
};

impl HpccPolicy {
    /// Law state for a fresh flow (window starts at one BDP, set by
    /// [`CcPolicy::initial`]).
    pub fn new(cfg: HpccConfig) -> Self {
        let bdp = cfg.bdp();
        HpccPolicy {
            cfg,
            wc: bdp,
            inc_stage: 0,
            last_update_seq: 0,
            u: 0.0,
            prev: [EMPTY; MAX_HOPS],
            prev_hops: 0,
            have_prev: false,
            link_u: [0.0; MAX_HOPS],
            n_hops: 0,
        }
    }

    /// Reference window `Wc` in bytes (exposed for LHCS and tests).
    #[inline]
    pub fn wc(&self) -> f64 {
        self.wc
    }

    /// Directly overwrite `Wc` (used by FNCC's last-hop speedup).
    #[inline]
    pub fn set_wc(&mut self, wc: f64) {
        self.wc = wc.max(self.cfg.min_window);
    }

    /// Smoothed utilisation estimate `U` (diagnostics).
    #[inline]
    pub fn u(&self) -> f64 {
        self.u
    }

    /// Configuration (shared with the FNCC wrapper).
    #[inline]
    pub fn config(&self) -> &HpccConfig {
        &self.cfg
    }

    /// Algorithm 3 `NewACK`, with an optional pre-window hook (FNCC's
    /// `UpdateWc` runs there).
    pub fn on_ack_with(
        &mut self,
        xmit: &mut Transmit,
        ack: &AckView<'_>,
        pre_window: impl FnOnce(&mut Self, &AckView<'_>),
    ) {
        let update_wc = ack.seq > self.last_update_seq;
        let u = self.measure_inflight(ack);
        pre_window(self, ack);
        let w = self.compute_wind(u, update_wc);
        if update_wc {
            self.last_update_seq = ack.snd_nxt;
        }
        xmit.set_window(w);
    }

    /// Algorithm 3 `MeasureInFlight`: returns the updated EWMA `U` and fills
    /// `link_u`.
    fn measure_inflight(&mut self, ack: &AckView<'_>) -> f64 {
        let n = ack.int.len();
        if n == 0 {
            return self.u;
        }
        if !self.have_prev || self.prev_hops != n {
            // First ACK (or path change): just record the reference state.
            self.store_prev(ack.int);
            return self.u;
        }
        let t_secs = self.cfg.t.as_secs_f64();
        let mut u_max = 0.0_f64;
        let mut tau = TimeDelta::ZERO;
        for i in 0..n {
            let cur = &ack.int[i];
            let prev = &self.prev[i];
            let dt = cur.ts.since(prev.ts);
            if dt.is_zero() {
                // Same telemetry snapshot (periodic All_INT_Table between
                // refreshes): no new information for this hop.
                continue;
            }
            let b_bytes = cur.bandwidth.as_f64() / 8.0;
            let tx_rate = cur.tx_bytes.saturating_sub(prev.tx_bytes) as f64 / dt.as_secs_f64();
            let min_qlen = cur.qlen.min(prev.qlen) as f64;
            let u_prime = min_qlen / (b_bytes * t_secs) + tx_rate / b_bytes;
            // Per-link state for Hop_Detection (Algorithm 2): smoothed with
            // the same τ/T law as the global U — raw u' is quantised by the
            // per-ACK sampling window (a window covering two frame
            // completions reads as 2× line rate) and would trip LHCS's
            // α-threshold spuriously.
            let frac_i = (dt.min(self.cfg.t).as_secs_f64() / t_secs).clamp(0.0, 1.0);
            self.link_u[i] = (1.0 - frac_i) * self.link_u[i] + frac_i * u_prime;
            if u_prime > u_max {
                u_max = u_prime;
                tau = dt;
            }
        }
        self.n_hops = n;
        self.store_prev(ack.int);
        if tau.is_zero() {
            return self.u;
        }
        let tau = tau.min(self.cfg.t);
        let frac = tau.as_secs_f64() / t_secs;
        self.u = (1.0 - frac) * self.u + frac * u_max;
        self.u
    }

    fn store_prev(&mut self, int: &[IntRecord]) {
        let n = int.len().min(MAX_HOPS);
        self.prev[..n].copy_from_slice(&int[..n]);
        self.prev_hops = n;
        self.have_prev = true;
    }

    /// Algorithm 3 `ComputeWind` (without the FNCC hook, which has already
    /// run via [`Self::on_ack_with`]).
    fn compute_wind(&mut self, u: f64, update_wc: bool) -> f64 {
        let cfg = &self.cfg;
        let w = if u >= cfg.eta || self.inc_stage >= cfg.max_stage {
            let w = self.wc / (u / cfg.eta).max(f64::MIN_POSITIVE) + cfg.wai;
            if update_wc {
                self.inc_stage = 0;
                self.wc = w.clamp(cfg.min_window, cfg.bdp());
            }
            w
        } else {
            let w = self.wc + cfg.wai;
            if update_wc {
                self.inc_stage += 1;
                self.wc = w.clamp(cfg.min_window, cfg.bdp());
            }
            w
        };
        w.clamp(cfg.min_window, cfg.bdp())
    }
}

impl CcPolicy for HpccPolicy {
    /// HPCC needs request-path INT on data frames.
    const REGISTRATION: Registration = Registration {
        int: IntNeed::OnData,
        ..Registration::NONE
    };

    fn initial(&self) -> Transmit {
        Transmit::windowed(self.cfg.bdp(), self.cfg.t, self.cfg.line)
    }

    fn on_signal(&mut self, xmit: &mut Transmit, m: &Measurements<'_>) {
        if let Measurements::Ack(ack) = m {
            self.on_ack_with(xmit, ack, |_, _| {});
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use fncc_des::time::SimTime;

    /// Build a synthetic per-hop INT record.
    pub fn rec(gbps: u64, ts_us: f64, tx_bytes: u64, qlen: u64) -> IntRecord {
        IntRecord {
            bandwidth: Bandwidth::gbps(gbps),
            ts: SimTime::from_ps((ts_us * 1e6) as u64),
            tx_bytes,
            qlen,
        }
    }

    /// A canonical ACK view over `int` at time `us`.
    pub fn ack_at<'a>(us: f64, seq: u64, snd_nxt: u64, int: &'a [IntRecord]) -> AckView<'a> {
        AckView {
            now: SimTime::from_ps((us * 1e6) as u64),
            seq,
            snd_nxt,
            newly_acked: 1456,
            int,
            concurrent_flows: 0,
            rocc_rate: f64::INFINITY,
            rtt: TimeDelta::from_us(12),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{ack_at, rec};
    use super::*;

    fn cfg() -> HpccConfig {
        HpccConfig::paper_default(Bandwidth::gbps(100), TimeDelta::from_us(12))
    }

    fn flow() -> HpccFlow {
        Datapath::new(HpccPolicy::new(cfg()))
    }

    fn window(f: &HpccFlow) -> f64 {
        f.window_bytes().expect("HPCC is window-based")
    }

    /// 100G, T=12us → BDP = 150 KB.
    #[test]
    fn initial_window_is_bdp() {
        let f = flow();
        assert!((window(&f) - 150_000.0).abs() < 1.0);
        assert!((f.pacing_rate_bps() - 100e9).abs() / 100e9 < 1e-9);
    }

    /// Feed INT showing a saturated, deeply queued link: the window must
    /// collapse well below BDP within a few ACKs.
    #[test]
    fn congestion_shrinks_window() {
        let mut f = flow();
        // 100G link: 12.5e9 bytes/s. Over 1us, line rate = 12500 bytes.
        let mut tx = 0u64;
        for k in 0..40 {
            let t = k as f64; // one ACK per us
            tx += 12_500;
            let int = [rec(100, t, tx, 400_000)]; // 400KB standing queue
            f.on_ack(&ack_at(t, 1456 * (k + 1), 1456 * (k + 10), &int));
        }
        // U ≈ qlen/BDP + txRate/B ≈ 400000/150000 + 1.0 ≈ 3.67 ≫ η.
        assert!(f.u() > 2.0, "U = {}", f.u());
        assert!(
            window(&f) < 0.5 * f.config().bdp(),
            "window {} did not shrink (BDP {})",
            window(&f),
            f.config().bdp()
        );
    }

    /// An idle link (no queue, low rate) lets the window recover to BDP.
    #[test]
    fn idle_link_recovers_to_bdp() {
        let mut f = flow();
        // First congest…
        let mut tx = 0u64;
        for k in 0..20 {
            tx += 12_500;
            let int = [rec(100, k as f64, tx, 400_000)];
            f.on_ack(&ack_at(k as f64, 1456 * (k + 1), 1456 * (k + 2), &int));
        }
        let low = window(&f);
        assert!(low < 100_000.0);
        // …then drain: queue zero, txRate 10% of line.
        for k in 20..400 {
            tx += 1_250;
            let int = [rec(100, k as f64, tx, 0)];
            f.on_ack(&ack_at(k as f64, 1456 * (k + 1), 1456 * (k + 2), &int));
        }
        assert!(
            window(&f) > 0.9 * f.config().bdp(),
            "window {} failed to recover",
            window(&f)
        );
    }

    /// Per-RTT guard: `Wc` only moves when the ACK passes `lastUpdateSeq`.
    /// INT timestamps are spaced a full T apart so the EWMA adopts u'
    /// directly and U ≫ η from the second ACK on.
    #[test]
    fn wc_updates_once_per_round() {
        let mut f = flow();
        // Line-rate over T=12us is 150_000 bytes.
        let tx = |k: u64| 150_000 * k;
        let ts = |k: u64| 12.0 * k as f64;
        // Prime (stores L) — update round 1 pins lastUpdateSeq to 100_000.
        f.on_ack(&ack_at(
            ts(1),
            1456,
            100_000,
            &[rec(100, ts(1), tx(1), 300_000)],
        ));
        // Second ACK: measurement live (U≈3 ≥ η) and seq < 100_000 → W moves,
        // Wc frozen.
        f.on_ack(&ack_at(
            ts(2),
            2912,
            100_000,
            &[rec(100, ts(2), tx(2), 300_000)],
        ));
        let wc_frozen = f.wc();
        f.on_ack(&ack_at(
            ts(3),
            4368,
            100_000,
            &[rec(100, ts(3), tx(3), 300_000)],
        ));
        f.on_ack(&ack_at(
            ts(4),
            5824,
            100_000,
            &[rec(100, ts(4), tx(4), 300_000)],
        ));
        assert_eq!(f.wc(), wc_frozen, "Wc must not move within the round");
        // An ACK beyond 100_000 opens the next round and moves Wc
        // multiplicatively (U ≈ 3 ≥ η and Wc is well below the BDP clamp
        // after the collapse... it is still at BDP here, so check the
        // direction instead: with U≈3 the new Wc is Wc/(U/η)+wai < Wc).
        f.on_ack(&ack_at(
            ts(5),
            100_001,
            200_000,
            &[rec(100, ts(5), tx(5), 300_000)],
        ));
        assert!(
            f.wc() < wc_frozen,
            "round boundary must re-enable Wc updates"
        );
    }

    /// Additive probing: with U below η, W grows by WAI per round for at
    /// most max_stage rounds before a multiplicative step.
    #[test]
    fn additive_increase_stages() {
        let mut f = flow();
        let wai = f.config().wai;
        // Half-utilised link, no queue: U ≈ 0.5.
        let mut tx = 0u64;
        let mut seq = 0u64;
        // Prime.
        f.on_ack(&ack_at(0.0, seq, seq + 1, &[rec(100, 0.0, tx, 0)]));
        let w0 = window(&f);
        for k in 1..=3 {
            tx += 6_250;
            seq += 1456;
            f.on_ack(&ack_at(
                k as f64,
                seq,
                seq + 1,
                &[rec(100, k as f64, tx, 0)],
            ));
        }
        // Window grew, bounded by a few WAI increments (BDP-clamped).
        let grown = window(&f) - w0;
        assert!(grown >= 0.0 && grown <= 4.0 * wai + 1.0, "grew by {grown}");
    }

    /// The most-congested hop dominates: a congested middle hop must push U
    /// above a lightly loaded first hop.
    #[test]
    fn max_link_dominates() {
        let mut f = flow();
        let mut tx = 0u64;
        for k in 0..10 {
            let t = k as f64;
            tx += 12_500;
            let int = [
                rec(100, t, tx / 10, 0),  // idle first hop
                rec(100, t, tx, 300_000), // congested middle hop
                rec(100, t, tx / 10, 0),  // idle last hop
            ];
            f.on_ack(&ack_at(t, 1456 * (k + 1), 1456 * (k + 2), &int));
        }
        assert!(f.link_u[1] > f.link_u[0]);
        assert!(f.link_u[1] > f.link_u[2]);
        assert!(f.u() > 1.0);
        assert_eq!(f.n_hops, 3);
    }

    /// Duplicate telemetry (identical timestamps, FNCC periodic table) must
    /// not poison the estimate with division-by-zero artifacts.
    #[test]
    fn duplicate_timestamps_are_ignored() {
        let mut f = flow();
        let int = [rec(100, 5.0, 1000, 10_000)];
        f.on_ack(&ack_at(5.0, 1456, 3000, &int));
        let u_before = f.u();
        // Same snapshot again.
        f.on_ack(&ack_at(6.0, 2912, 4000, &int));
        assert_eq!(f.u(), u_before);
        assert!(window(&f).is_finite());
    }

    /// Empty INT (e.g. ACK raced ahead of table setup) leaves state sane.
    #[test]
    fn empty_int_is_noop_for_measurement() {
        let mut f = flow();
        f.on_ack(&ack_at(1.0, 1456, 3000, &[]));
        assert!(window(&f).is_finite());
        assert!(window(&f) <= f.config().bdp());
    }

    /// Window never leaves [min_window, BDP].
    #[test]
    fn window_bounds_hold_under_extreme_int() {
        let mut f = flow();
        let mut tx = 0u64;
        for k in 0..100 {
            let t = k as f64;
            tx += 12_500;
            let q = if k % 2 == 0 { 10_000_000 } else { 0 };
            let int = [rec(100, t, tx, q)];
            f.on_ack(&ack_at(t, 1456 * (k + 1), 1456 * (k + 2), &int));
            assert!(window(&f) >= f.config().min_window);
            assert!(window(&f) <= f.config().bdp() + 1.0);
        }
    }
}
