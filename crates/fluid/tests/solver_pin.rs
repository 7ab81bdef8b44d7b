//! Bit-exact pin of the incremental water-filler. A deterministic churn
//! trace on the k=8 fat-tree link set — adds, removes, slot reuse, equal
//! capacities everywhere (so ties are the common case) and batches of
//! `set_capacity` on several links per event, the hybrid driver's delta
//! shape — is hashed after every rebalance: every alive slot's rate bits,
//! every active link's residual bits, the rebalance outcome and the
//! solver counters. A refactor is held to these bits (tie order included),
//! not to a tolerance. They were last re-recorded when the closed-form
//! single-bottleneck re-level was deleted: its two solves in the trace
//! became incremental ones, every step still matches the one-shot oracle,
//! and the hash no longer folds in that solver's counter, so every
//! checkpoint moved while `rate_updates` did not.
//!
//! The same trace also checks every alive rate after every rebalance
//! against a one-shot `allocate` over the current capacities, within 1e-9
//! relative: a change that moves the hashes on purpose (tie order) must
//! still land on the unique max-min solution at every step.

use fncc_des::time::TimeDelta;
use fncc_fluid::{Demand, LinkMap, Rebalance, WaterFiller};
use fncc_net::ids::{FlowId, HostId};
use fncc_net::topology::Topology;
use fncc_net::units::Bandwidth;

/// Flows alive before the first churn event.
const STANDING: usize = 300;
const EVENTS: usize = 4000;

/// `(events done, running hash)` checkpoints; the last entry is the pin
/// the issue asks for, the earlier ones localize a divergence.
const PINNED: [(usize, u64); 4] = [
    (250, 3683087692455312396),
    (1000, 2774295224482187241),
    (2500, 16905069799813559783),
    (EVENTS, 6604393021406423048),
];
/// `(full, incremental)` solves over the whole trace.
const PINNED_SOLVES: (u64, u64) = (44, 3825);
/// Σ `changed().len()` over the whole trace (the run's `rate_updates`).
const PINNED_RATE_UPDATES: u64 = 88447;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[test]
fn churn_trace_on_k8_fat_tree_is_bit_identical() {
    let topo = Topology::fat_tree(8, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
    let lm = LinkMap::new(&topo);
    let line: Vec<f64> = lm.capacities().iter().map(|&c| c * 0.95).collect();
    let n_links = line.len() as u64;
    let hosts = topo.n_hosts as u64;

    let mut state = 0x5EED_CAFE_F00D_0020u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut flow_id = 0u32;
    let mut path = Vec::new();

    let mut wf = WaterFiller::new(line.len());
    wf.begin_incremental(&line);
    let mut alive: Vec<u32> = Vec::new();
    // The oracle's view of the same state: each alive slot's path (aligned
    // with `alive`) and every link's current capacity.
    let mut paths: Vec<Vec<u32>> = Vec::new();
    let mut caps = line.clone();
    let (mut oracle, mut want) = (WaterFiller::new(line.len()), Vec::new());
    macro_rules! add {
        () => {{
            let src = (next() % hosts) as u32;
            let mut dst = (next() % (hosts - 1)) as u32;
            if dst >= src {
                dst += 1;
            }
            lm.path_links_into(&topo, HostId(src), HostId(dst), FlowId(flow_id), &mut path);
            flow_id += 1;
            alive.push(wf.add_flow(&path));
            paths.push(path.clone());
        }};
    }
    macro_rules! remove {
        () => {{
            if !alive.is_empty() {
                let ix = (next() % alive.len() as u64) as usize;
                wf.remove_flow(alive.swap_remove(ix));
                paths.swap_remove(ix);
            }
        }};
    }
    // A reservation push: the link's capacity drops to line rate minus one
    // of a few discrete loads, so equal cut capacities tie as well.
    macro_rules! recap {
        ($n:expr) => {{
            for _ in 0..$n {
                let l = (next() % n_links) as usize;
                let cut = (next() % 5) as f64 * 0.2;
                caps[l] = line[l] * (1.0 - cut).max(0.02);
                wf.set_capacity(l as u32, caps[l]);
            }
        }};
    }

    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let mut rate_updates = 0u64;
    let mut checkpoints = Vec::new();
    for ev in 0..=EVENTS {
        if ev == 0 {
            for _ in 0..STANDING {
                add!();
            }
        } else {
            match next() % 10 {
                // One leaves, one arrives: the fluid workload's usual event.
                0..=2 => {
                    remove!();
                    add!();
                }
                3 => add!(),
                4 => remove!(),
                // A batch of adds and removes at one instant.
                5 => {
                    for _ in 0..1 + next() % 4 {
                        if next() % 2 == 0 {
                            remove!();
                        } else {
                            add!();
                        }
                    }
                }
                // The hybrid's delta shape: several capacities move at
                // once, alone or together with an arrival and a departure.
                6 => recap!(2 + next() % 11),
                7 => {
                    recap!(2 + next() % 11);
                    remove!();
                    add!();
                }
                // A lone reservation push.
                8 => recap!(1),
                // Now and then a wave large enough to force a full solve.
                _ if next() % 8 == 0 => {
                    for _ in 0..120 {
                        if alive.len() > STANDING {
                            remove!();
                        } else {
                            add!();
                        }
                    }
                }
                _ => {
                    remove!();
                    add!();
                }
            }
        }
        let kind = wf.rebalance();
        rate_updates += wf.changed().len() as u64;
        let demands: Vec<Demand<'_>> = paths
            .iter()
            .map(|p| Demand {
                cap: f64::INFINITY,
                path: p,
            })
            .collect();
        oracle.allocate(&caps, &demands, &mut want);
        for (&s, &w) in alive.iter().zip(&want) {
            let got = wf.rate(s);
            let rel = (got - w).abs() / w.max(f64::MIN_POSITIVE);
            assert!(
                rel <= 1e-9,
                "event {ev}: slot {s} rate {got} vs one-shot {w} (rel {rel:.3e})"
            );
        }
        h.word(match kind {
            Rebalance::Noop => 0,
            Rebalance::Incremental => 1,
            Rebalance::Full => 2,
        });
        h.word(wf.changed().len() as u64);
        for &s in &alive {
            h.word(wf.rate(s).to_bits());
        }
        for l in 0..n_links as u32 {
            if wf.is_active(l) {
                h.word(l as u64);
                h.word(wf.link_residual(l).to_bits());
            }
        }
        let (full, inc) = wf.solve_stats();
        h.word(full);
        h.word(inc);
        if PINNED.iter().any(|&(at, _)| at == ev) {
            checkpoints.push((ev, h.0));
        }
    }
    assert_eq!(
        (checkpoints.as_slice(), wf.solve_stats(), rate_updates),
        (&PINNED[..], PINNED_SOLVES, PINNED_RATE_UPDATES),
        "solver bits moved (hashes printed in hex: {:x?})",
        checkpoints
    );
}
