//! Deterministic traffic patterns: incast (one wave or a storm of them),
//! permutation (one wave or several), and the staggered join/leave pattern
//! of Fig. 13e.
//!
//! All of them produce plain [`FlowSpec`] sets, so the same generator feeds
//! the packet backend at small scale and the fluid backend at 10k–1M flows
//! — which is exactly what the cross-validation suite relies on.

use fncc_des::rng::DetRng;
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::ids::{FlowId, HostId};
use fncc_net::units::Bandwidth;
use fncc_transport::FlowSpec;

/// `n` senders (hosts `0..n`) each send `size` bytes to `receiver` at
/// `start` — the classic incast microbenchmark.
pub fn incast(n: u32, receiver: HostId, size: u64, start: SimTime) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId(i),
            dst: receiver,
            size,
            start,
        })
        .collect()
}

/// Incast storm: `fan_in` senders (cycling over hosts ≠ receiver) each fire
/// `size` bytes at `receiver`, a new storm wave every `gap`, `waves` times.
/// Total flows = `waves · fan_in`.
pub fn incast_storm(
    n_hosts: u32,
    receiver: HostId,
    fan_in: u32,
    size: u64,
    waves: u32,
    gap: TimeDelta,
) -> Vec<FlowSpec> {
    assert!(n_hosts >= 2 && receiver.0 < n_hosts);
    let mut flows = Vec::with_capacity((waves * fan_in) as usize);
    let senders: Vec<u32> = (0..n_hosts).filter(|&h| h != receiver.0).collect();
    for w in 0..waves {
        let start = SimTime::ZERO + gap * w as u64;
        for i in 0..fan_in {
            let src = senders[(i as usize + w as usize) % senders.len()];
            flows.push(FlowSpec {
                id: FlowId(w * fan_in + i),
                src: HostId(src),
                dst: receiver,
                size,
                start,
            });
        }
    }
    flows
}

/// A random permutation workload: every host sends `size` bytes to a
/// distinct peer (no host receives twice), all starting at `start`.
pub fn permutation(n_hosts: u32, size: u64, start: SimTime, seed: u64) -> Vec<FlowSpec> {
    assert!(n_hosts >= 2);
    let mut rng = DetRng::new(seed, 0x9E37);
    // Random derangement by rejection (fast for any practical n).
    let mut dst: Vec<u32> = (0..n_hosts).collect();
    loop {
        rng.shuffle(&mut dst);
        if dst.iter().enumerate().all(|(i, &d)| i as u32 != d) {
            break;
        }
    }
    (0..n_hosts)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId(i),
            dst: HostId(dst[i as usize]),
            size,
            start,
        })
        .collect()
}

/// Repeated random-permutation waves: every host sends `size` bytes to a
/// distinct peer, a fresh derangement every `gap`, `waves` times over.
/// Total flows = `waves · n_hosts`.
pub fn permutation_waves(
    n_hosts: u32,
    size: u64,
    waves: u32,
    gap: TimeDelta,
    seed: u64,
) -> Vec<FlowSpec> {
    let mut flows = Vec::with_capacity((waves * n_hosts) as usize);
    for w in 0..waves {
        let start = SimTime::ZERO + gap * w as u64;
        let wave = permutation(n_hosts, size, start, seed.wrapping_add(w as u64));
        flows.extend(wave.into_iter().map(|mut f| {
            f.id = FlowId(w * n_hosts + f.id.0);
            f
        }));
    }
    flows
}

/// Fig. 13e: `n` senders join a shared bottleneck one after another, every
/// `interval`, and exit in join order — the classic fairness staircase.
///
/// The exit schedule is realised through flow *sizes*: sender `i` is sized
/// to its ideal fair-share integral — `Σ_k interval · line/k` over the
/// periods it is active — so under a fair CC it drains right at its exit
/// time. `n=4`, `interval=100 ms`, 100 Gb/s reproduces the paper's plot
/// (we default to a compressed interval for simulation cost; the shape is
/// interval-invariant).
pub fn staggered_fairness(
    n: u32,
    receiver: HostId,
    line: Bandwidth,
    interval: TimeDelta,
) -> Vec<FlowSpec> {
    assert!(n >= 1);
    let bytes_per_interval = line.as_f64() / 8.0 * interval.as_secs_f64();
    // Flow i is active during periods i..(i+n) (half-open), sharing with
    // the set of concurrently active flows. With joins at i·T and exits in
    // join order at (n+i)·T, the number of active flows during period p
    // (p = 0 .. 2n−1) is min(p+1, n, 2n−p−1)… computed directly below.
    let active_in_period = |p: u32| -> u32 {
        // joined: flows with i ≤ p and not yet exited: exit period of flow i
        // is n + i, so active iff i ≤ p < n + i  ⇔  p − n < i ≤ p.
        (0..n).filter(|&i| i <= p && p < n + i).count() as u32
    };
    (0..n)
        .map(|i| {
            let size: f64 = (i..n + i)
                .map(|p| bytes_per_interval / active_in_period(p) as f64)
                .sum();
            FlowSpec {
                id: FlowId(i),
                src: HostId(i),
                dst: receiver,
                size: size.max(1.0) as u64,
                start: SimTime::ZERO + interval * i as u64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_targets_one_receiver() {
        let flows = incast(8, HostId(8), 1_000_000, SimTime::from_us(5));
        assert_eq!(flows.len(), 8);
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.src, HostId(i as u32));
            assert_eq!(f.dst, HostId(8));
            assert_eq!(f.start, SimTime::from_us(5));
        }
    }

    #[test]
    fn permutation_is_a_derangement() {
        for seed in 0..10 {
            let flows = permutation(16, 1000, SimTime::ZERO, seed);
            let mut dst_seen = [false; 16];
            for f in &flows {
                assert_ne!(f.src, f.dst, "self-flow with seed {seed}");
                assert!(!dst_seen[f.dst.ix()], "duplicate receiver, seed {seed}");
                dst_seen[f.dst.ix()] = true;
            }
        }
    }

    #[test]
    fn permutation_waves_count_and_ids() {
        let flows = permutation_waves(16, 1000, 5, TimeDelta::from_us(10), 1);
        assert_eq!(flows.len(), 80);
        let mut ids: Vec<u32> = flows.iter().map(|f| f.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..80).collect::<Vec<_>>());
        for f in &flows {
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn incast_storm_targets_receiver() {
        let flows = incast_storm(16, HostId(3), 10, 5000, 4, TimeDelta::from_us(50));
        assert_eq!(flows.len(), 40);
        for f in &flows {
            assert_eq!(f.dst, HostId(3));
            assert_ne!(f.src, HostId(3));
        }
        // Waves are spaced by the gap.
        assert_eq!(flows[0].start, SimTime::ZERO);
        assert_eq!(flows[39].start, SimTime::ZERO + TimeDelta::from_us(150));
    }

    #[test]
    fn staggered_joins_are_spaced_by_interval() {
        let flows = staggered_fairness(4, HostId(4), Bandwidth::gbps(100), TimeDelta::from_ms(1));
        assert_eq!(flows.len(), 4);
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.start, SimTime::from_ms(i as u64));
        }
    }

    #[test]
    fn staggered_sizes_follow_fair_share_integral() {
        // n=2, T=1ms, 100G: bytes/interval = 12.5 MB.
        // flow0 active periods 0 (alone) and 1 (shared): 12.5M + 6.25M.
        // flow1 active periods 1 (shared) and 2 (alone): 6.25M + 12.5M.
        let flows = staggered_fairness(2, HostId(2), Bandwidth::gbps(100), TimeDelta::from_ms(1));
        let expect = 12.5e6 + 6.25e6;
        assert!((flows[0].size as f64 - expect).abs() / expect < 1e-9);
        assert!((flows[1].size as f64 - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn staggered_four_flow_sizes_are_symmetric() {
        let flows = staggered_fairness(4, HostId(4), Bandwidth::gbps(100), TimeDelta::from_ms(1));
        // Join/leave symmetry: flow i and flow n-1-i see mirrored shares.
        assert_eq!(flows[0].size, flows[3].size);
        assert_eq!(flows[1].size, flows[2].size);
        // Later middle flows share more → smaller than edge flows? Flow 0:
        // 1, 1/2, 1/3, 1/4 of an interval; flow 1: 1/2, 1/3, 1/4, 1/3 …
        assert!(flows[1].size < flows[0].size);
    }
}
