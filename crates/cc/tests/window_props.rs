//! Property tests: congestion-control state machines stay within their
//! invariant envelopes for *arbitrary* feedback sequences.
//!
//! Two layers: per-scheme law invariants (window/rate clamps specific to
//! each algorithm) and generic datapath invariants that every entry of
//! `CcKind::ALL` must satisfy under arbitrary interleavings of ACKs, CNPs,
//! ticks, and transmissions — a new scheme is covered the moment it is
//! listed in `ALL`.

use fncc_cc::ack::AckView;
use fncc_cc::{
    make_algo, CcKind, Datapath, DcqcnConfig, DcqcnPolicy, FairQConfig, FairQPolicy, FnccConfig,
    FnccPolicy, HpccConfig, HpccPolicy, SwiftConfig, SwiftPolicy, TimelyConfig, TimelyPolicy,
    Transmit,
};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::packet::IntRecord;
use fncc_net::units::Bandwidth;
use proptest::prelude::*;

const LINE: Bandwidth = Bandwidth::gbps(100);
const RTT: TimeDelta = TimeDelta::from_us(12);
const MTU: f64 = 1518.0;

fn view<'a>(k: u64, int: &'a [IntRecord], n: u16, rtt_us: f64) -> AckView<'a> {
    AckView {
        now: SimTime::from_us(k),
        seq: k * 1456,
        snd_nxt: (k + 20) * 1456,
        newly_acked: 1456,
        int,
        concurrent_flows: n,
        rocc_rate: f64::INFINITY,
        rtt: TimeDelta::from_ps((rtt_us * 1e6) as u64),
    }
}

/// Arbitrary INT for one hop: any queue depth up to 10 MB, any tx counter
/// progress, strictly advancing timestamps.
fn arb_int_sequence() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..10_000_000, 0u64..2_000_000), 1..80)
}

/// One arbitrary datapath stimulus: ((op selector, qlen, Δtx), (N, RTT µs,
/// RoCC rate share)) — nested because the proptest tuple impls stop at 5.
type Op = ((u8, u64, u64), (u16, f64, f64));

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            (0u8..4, 0u64..10_000_000, 0u64..2_000_000),
            (0u16..512, 1.0f64..500.0, 0.0f64..1.5),
        ),
        1..150,
    )
}

proptest! {
    /// Generic datapath invariants, one property over every scheme in
    /// `CcKind::ALL`: for arbitrary interleavings of ACK / CNP / tick /
    /// sent events the published pacing rate stays positive and at most
    /// line rate, and window-based schemes never publish a window below
    /// one MTU.
    #[test]
    fn datapath_envelope_holds_for_all_kinds(ops in arb_ops()) {
        for algo in CcKind::ALL.map(|k| make_algo(k, LINE, RTT)) {
            let kind = algo.kind();
            let mut f = algo.new_flow();
            let mut now = SimTime::ZERO;
            let mut tx = 0u64;
            for (k, ((op, qlen, dtx), (n, rtt_us, rshare))) in ops.iter().enumerate() {
                now += TimeDelta::from_us(1);
                match op {
                    0 => {
                        tx += dtx;
                        let int = [IntRecord {
                            bandwidth: LINE,
                            ts: SimTime::from_us(k as u64 + 1),
                            tx_bytes: tx,
                            qlen: *qlen,
                        }];
                        let mut v = view(k as u64 + 1, &int, *n, *rtt_us);
                        v.rocc_rate = LINE.as_f64() * rshare;
                        f.on_ack(&v);
                    }
                    1 => f.on_cnp(now),
                    2 => {
                        if let Some(d) = f.tick(now) {
                            now += d;
                        }
                    }
                    _ => f.on_sent(1_000_000),
                }
                let r = f.pacing_rate_bps();
                prop_assert!(r.is_finite() && r > 0.0, "{kind:?}: rate {r}");
                prop_assert!(r <= LINE.as_f64() * 1.001, "{kind:?}: rate {r} above line");
                if let Some(w) = f.window_bytes() {
                    prop_assert!(w.is_finite() && w >= MTU - 1e-9,
                        "{kind:?}: window {w} below one MTU");
                }
            }
        }
    }

    /// The shared pacing law: for any window sequence, the derived rate is
    /// monotone in the window and never exceeds line rate.
    #[test]
    fn pacing_is_monotone_in_window(ws in proptest::collection::vec(1.0f64..1e7, 2..100)) {
        let mut t = Transmit::windowed(ws[0], RTT, LINE);
        let mut sorted = ws.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev_rate = 0.0;
        for w in sorted {
            t.set_window(w);
            prop_assert!(t.rate_bps() >= prev_rate, "pacing dropped as W grew");
            prop_assert!(t.rate_bps() <= LINE.as_f64() + 1e-6);
            prev_rate = t.rate_bps();
        }
    }

    /// HPCC's window stays in [min_window, BDP] for any telemetry.
    #[test]
    fn hpcc_window_bounded(seq in arb_int_sequence()) {
        let cfg = HpccConfig::paper_default(LINE, RTT);
        let (min_w, bdp) = (cfg.min_window, cfg.bdp());
        let mut f = Datapath::new(HpccPolicy::new(cfg));
        let mut tx = 0u64;
        for (k, (qlen, dtx)) in seq.into_iter().enumerate() {
            tx += dtx;
            let int = [IntRecord {
                bandwidth: LINE,
                ts: SimTime::from_us(k as u64 + 1),
                tx_bytes: tx,
                qlen,
            }];
            f.on_ack(&view(k as u64 + 1, &int, 0, 13.0));
            let w = f.window_bytes().unwrap();
            prop_assert!(w.is_finite());
            prop_assert!(w >= min_w - 1e-9, "window {w} below min");
            prop_assert!(w <= bdp + 1.0, "window {w} above BDP");
            prop_assert!(f.pacing_rate_bps() <= LINE.as_f64() * 1.001);
        }
    }

    /// FNCC inherits the bounds and LHCS never produces non-finite Wc for
    /// any N (including 0, which must be treated as 1).
    #[test]
    fn fncc_window_bounded_any_n(seq in arb_int_sequence(), n in 0u16..512) {
        let cfg = FnccConfig::paper_default(LINE, RTT);
        let mut f = Datapath::new(FnccPolicy::new(cfg));
        let mut tx = 0u64;
        for (k, (qlen, dtx)) in seq.into_iter().enumerate() {
            tx += dtx;
            let int = [IntRecord {
                bandwidth: LINE,
                ts: SimTime::from_us(k as u64 + 1),
                tx_bytes: tx,
                qlen,
            }];
            f.on_ack(&view(k as u64 + 1, &int, n, 13.0));
            let w = f.window_bytes().unwrap();
            prop_assert!(w.is_finite() && w > 0.0);
            prop_assert!(f.wc().is_finite() && f.wc() > 0.0);
        }
    }

    /// FairQ's window stays in [min_window, BDP] for any telemetry and N.
    #[test]
    fn fairq_window_bounded_any_n(seq in arb_int_sequence(), n in 0u16..512) {
        let cfg = FairQConfig::paper_default(LINE, RTT);
        let (min_w, bdp) = (cfg.min_window, cfg.bdp());
        let mut f = Datapath::new(FairQPolicy::new(cfg));
        let mut tx = 0u64;
        for (k, (qlen, dtx)) in seq.into_iter().enumerate() {
            tx += dtx;
            let int = [IntRecord {
                bandwidth: LINE,
                ts: SimTime::from_us(k as u64 + 1),
                tx_bytes: tx,
                qlen,
            }];
            f.on_ack(&view(k as u64 + 1, &int, n, 13.0));
            let w = f.window_bytes().unwrap();
            prop_assert!(w >= min_w - 1e-9 && w <= bdp + 1.0, "window {w}");
        }
    }

    /// DCQCN's rate stays in [min_rate, line] under any interleaving of
    /// CNPs, ticks and transmissions.
    #[test]
    fn dcqcn_rate_bounded(ops in proptest::collection::vec(0u8..3, 1..300)) {
        let cfg = DcqcnConfig::paper_default(LINE);
        let (lo, hi) = (cfg.min_rate, LINE.as_f64());
        let mut f = Datapath::new(DcqcnPolicy::new(cfg));
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                0 => f.on_cnp(now),
                1 => now = now + f.tick(now).unwrap(),
                _ => f.on_sent(1_000_000),
            }
            prop_assert!(f.pacing_rate_bps() >= lo - 1e-6 && f.pacing_rate_bps() <= hi + 1e-6,
                "rate {} out of [{lo}, {hi}]", f.pacing_rate_bps());
            prop_assert!(f.alpha() >= 0.0 && f.alpha() <= 1.0 + 1e-12);
        }
    }

    /// Timely's rate stays within its clamp for any RTT sequence.
    #[test]
    fn timely_rate_bounded(rtts in proptest::collection::vec(1.0f64..500.0, 1..200)) {
        let mut f = Datapath::new(TimelyPolicy::new(TimelyConfig::paper_default(LINE, RTT)));
        for (k, rtt) in rtts.into_iter().enumerate() {
            f.on_ack(&view(k as u64, &[], 0, rtt));
            prop_assert!(f.pacing_rate_bps() >= LINE.as_f64() / 1000.0 - 1.0);
            prop_assert!(f.pacing_rate_bps() <= LINE.as_f64() + 1.0);
        }
    }

    /// Swift's window respects [min_cwnd, 2·BDP] for any delay sequence.
    #[test]
    fn swift_window_bounded(rtts in proptest::collection::vec(1.0f64..500.0, 1..200)) {
        let cfg = SwiftConfig::paper_default(LINE, RTT);
        let (lo, hi) = (cfg.min_cwnd, cfg.bdp() * 2.0);
        let mut f = Datapath::new(SwiftPolicy::new(cfg));
        for (k, rtt) in rtts.into_iter().enumerate() {
            f.on_ack(&view(k as u64 * 20, &[], 0, rtt));
            let w = f.window_bytes().unwrap();
            prop_assert!(w >= lo - 1e-9 && w <= hi + 1e-9,
                "cwnd {w} out of [{lo}, {hi}]");
        }
    }

    /// Monotone-congestion property: strictly worse telemetry (deeper queue
    /// at the same throughput) never yields a *larger* HPCC window after
    /// the same number of ACKs.
    #[test]
    fn hpcc_monotone_in_queue_depth(q_small in 0u64..100_000, extra in 1u64..400_000) {
        let run = |q: u64| {
            let mut f = Datapath::new(HpccPolicy::new(HpccConfig::paper_default(LINE, RTT)));
            let mut tx = 0u64;
            for k in 0..30u64 {
                tx += 150_000; // line rate over one T
                let int = [IntRecord {
                    bandwidth: LINE,
                    ts: SimTime::from_us(12 * (k + 1)),
                    tx_bytes: tx,
                    qlen: q,
                }];
                f.on_ack(&view(12 * (k + 1), &int, 0, 13.0));
            }
            f.window_bytes().unwrap()
        };
        let w_small = run(q_small);
        let w_big = run(q_small + extra);
        prop_assert!(w_big <= w_small + 1.0, "deeper queue grew the window: {w_small} -> {w_big}");
    }
}
