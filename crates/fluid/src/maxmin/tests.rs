use super::*;

const G: f64 = 1e9;

#[test]
fn single_flow_gets_line_rate() {
    let caps = [100.0 * G, 100.0 * G];
    let path = [0u32, 1];
    let flows = [Demand {
        cap: f64::INFINITY,
        path: &path,
    }];
    let r = water_fill(&caps, &flows);
    assert!((r[0] - 100.0 * G).abs() < 1.0);
}

#[test]
fn two_flows_share_bottleneck_equally() {
    let caps = [100.0 * G, 100.0 * G, 100.0 * G];
    let (pa, pb) = ([0u32, 2], [1u32, 2]);
    let flows = [
        Demand {
            cap: f64::INFINITY,
            path: &pa,
        },
        Demand {
            cap: f64::INFINITY,
            path: &pb,
        },
    ];
    let r = water_fill(&caps, &flows);
    assert!((r[0] - 50.0 * G).abs() < 1.0, "{r:?}");
    assert!((r[1] - 50.0 * G).abs() < 1.0, "{r:?}");
}

#[test]
fn capped_flow_releases_share() {
    // Two flows on one 100G link; one capped at 20G → other gets 80G.
    let caps = [100.0 * G];
    let p = [0u32];
    let flows = [
        Demand {
            cap: 20.0 * G,
            path: &p,
        },
        Demand {
            cap: f64::INFINITY,
            path: &p,
        },
    ];
    let r = water_fill(&caps, &flows);
    assert!((r[0] - 20.0 * G).abs() < 1.0, "{r:?}");
    assert!((r[1] - 80.0 * G).abs() < 1.0, "{r:?}");
}

#[test]
fn classic_maxmin_example() {
    // Three links a(10) b(10) c(4); flows: f0 over a+c, f1 over b+c,
    // f2 over a, f3 over b. Max-min: f0=f1=2 (c saturates), f2=f3=8.
    let caps = [10.0, 10.0, 4.0];
    let (p0, p1, p2, p3) = ([0u32, 2], [1u32, 2], [0u32], [1u32]);
    let flows = [
        Demand {
            cap: f64::INFINITY,
            path: &p0,
        },
        Demand {
            cap: f64::INFINITY,
            path: &p1,
        },
        Demand {
            cap: f64::INFINITY,
            path: &p2,
        },
        Demand {
            cap: f64::INFINITY,
            path: &p3,
        },
    ];
    let r = water_fill(&caps, &flows);
    assert!(
        (r[0] - 2.0).abs() < 1e-9 && (r[1] - 2.0).abs() < 1e-9,
        "{r:?}"
    );
    assert!(
        (r[2] - 8.0).abs() < 1e-9 && (r[3] - 8.0).abs() < 1e-9,
        "{r:?}"
    );
    assert!(worst_oversubscription(&caps, &flows, &r) < 1e-9);
    assert_eq!(find_non_pareto_flow(&caps, &flows, &r, 1e-9), None);
}

#[test]
fn incast_divides_receiver_link() {
    let n = 64usize;
    let caps: Vec<f64> = (0..n + 1).map(|_| 100.0 * G).collect();
    let paths: Vec<[u32; 2]> = (0..n).map(|i| [i as u32, n as u32]).collect();
    let flows: Vec<Demand<'_>> = paths
        .iter()
        .map(|p| Demand {
            cap: f64::INFINITY,
            path: p,
        })
        .collect();
    let r = water_fill(&caps, &flows);
    for &x in &r {
        assert!((x - 100.0 * G / n as f64).abs() < 1.0, "{x}");
    }
}

#[test]
fn cascade_of_bottlenecks_resolves_in_order() {
    // Chain where freeing one bottleneck reveals the next: link 0 has
    // 4 flows (25 each), link 1 has flows {3} plus two private flows
    // at higher shares.
    let caps = [100.0, 90.0];
    let (p_a, p_b, p_ab) = ([0u32], [1u32], [0u32, 1]);
    let flows = [
        Demand {
            cap: f64::INFINITY,
            path: &p_a,
        },
        Demand {
            cap: f64::INFINITY,
            path: &p_a,
        },
        Demand {
            cap: f64::INFINITY,
            path: &p_a,
        },
        Demand {
            cap: f64::INFINITY,
            path: &p_ab,
        },
        Demand {
            cap: f64::INFINITY,
            path: &p_b,
        },
        Demand {
            cap: f64::INFINITY,
            path: &p_b,
        },
    ];
    let r = water_fill(&caps, &flows);
    // Link 0 saturates at 25 for its four flows; link 1 then has
    // 90 − 25 = 65 left for two flows → 32.5 each.
    for i in 0..4 {
        assert!((r[i] - 25.0).abs() < 1e-9, "{r:?}");
    }
    assert!((r[4] - 32.5).abs() < 1e-9, "{r:?}");
    assert!((r[5] - 32.5).abs() < 1e-9, "{r:?}");
    assert!(worst_oversubscription(&caps, &flows, &r) < 1e-9);
    assert_eq!(find_non_pareto_flow(&caps, &flows, &r, 1e-9), None);
}

#[test]
fn filler_reuse_is_consistent() {
    let caps = [10.0, 10.0, 4.0];
    let mut wf = WaterFiller::new(3);
    let mut rates = Vec::new();
    // First run with one shape…
    let p_all = [0u32, 1, 2];
    let flows = [Demand {
        cap: f64::INFINITY,
        path: &p_all,
    }];
    wf.allocate(&caps, &flows, &mut rates);
    assert!((rates[0] - 4.0).abs() < 1e-9);
    // …then a different shape reusing the scratch state.
    let (p0, p1) = ([0u32], [0u32, 1]);
    let flows = [
        Demand {
            cap: f64::INFINITY,
            path: &p0,
        },
        Demand {
            cap: 3.0,
            path: &p1,
        },
    ];
    wf.allocate(&caps, &flows, &mut rates);
    assert!((rates[1] - 3.0).abs() < 1e-9, "{rates:?}");
    assert!((rates[0] - 7.0).abs() < 1e-9, "{rates:?}");
}

#[test]
fn empty_and_degenerate_inputs() {
    assert!(water_fill(&[1.0 * G], &[]).is_empty());
    let flows = [Demand {
        cap: 5.0 * G,
        path: &[][..],
    }];
    let r = water_fill(&[1.0 * G], &flows);
    assert!(
        (r[0] - 5.0 * G).abs() < 1.0,
        "empty-path flow takes its cap: {r:?}"
    );
}

#[test]
fn detectors_flag_bad_allocations() {
    let caps = [10.0];
    let p = [0u32];
    let flows = [
        Demand {
            cap: f64::INFINITY,
            path: &p,
        },
        Demand {
            cap: f64::INFINITY,
            path: &p,
        },
    ];
    // Oversubscribed by 50%.
    assert!(worst_oversubscription(&caps, &flows, &[7.5, 7.5]) > 0.49);
    // Feasible but not Pareto-optimal (link only half full).
    assert_eq!(
        find_non_pareto_flow(&caps, &flows, &[2.5, 2.5], 1e-9),
        Some(0)
    );
}

/// Compare every alive incremental rate against a from-scratch
/// `allocate` oracle over the same flow set.
fn assert_matches_oracle(wf: &WaterFiller, caps: &[f64], alive: &[(u32, Vec<u32>)], ctx: &str) {
    let demands: Vec<Demand<'_>> = alive
        .iter()
        .map(|(_, p)| Demand {
            cap: f64::INFINITY,
            path: p,
        })
        .collect();
    let oracle = water_fill(caps, &demands);
    for ((slot, _), &want) in alive.iter().zip(&oracle) {
        let got = wf.rate(*slot);
        let rel = (got - want).abs() / want.max(f64::MIN_POSITIVE);
        assert!(
            rel <= 1e-9,
            "{ctx}: slot {slot} rate {got} vs oracle {want} (rel {rel:.3e})"
        );
    }
    // The incremental solution must be feasible and Pareto on its own.
    let rates: Vec<f64> = alive.iter().map(|(s, _)| wf.rate(*s)).collect();
    assert!(
        worst_oversubscription(caps, &demands, &rates) < 1e-6,
        "{ctx}: oversubscribed"
    );
    assert_eq!(
        find_non_pareto_flow(caps, &demands, &rates, 1e-6),
        None,
        "{ctx}: not Pareto-optimal"
    );
}

#[test]
fn incremental_single_add_and_remove_match_oracle() {
    let caps = [10.0, 10.0, 4.0];
    let mut wf = WaterFiller::new(3);
    wf.begin_incremental(&caps);
    let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
    for path in [vec![0u32, 2], vec![1u32, 2], vec![0u32], vec![1u32]] {
        let s = wf.add_flow(&path);
        alive.push((s, path));
        wf.rebalance();
        assert_matches_oracle(&wf, &caps, &alive, "add");
    }
    // Classic max-min example state: f0=f1=2, f2=f3=8.
    assert!((wf.rate(alive[0].0) - 2.0).abs() < 1e-9);
    assert!((wf.rate(alive[2].0) - 8.0).abs() < 1e-9);
    // Remove the shared-bottleneck flow f0: f1 takes all of link 2.
    let (s0, _) = alive.remove(0);
    wf.remove_flow(s0);
    wf.rebalance();
    assert_matches_oracle(&wf, &caps, &alive, "remove");
    assert!((wf.rate(alive[0].0) - 4.0).abs() < 1e-9);
}

#[test]
fn incremental_pure_removal_without_binding_changes_nothing() {
    // Two flows on disjoint halves of a 2-link net; removing one must
    // not touch the other (empty changed set).
    let caps = [10.0, 10.0];
    let mut wf = WaterFiller::new(2);
    wf.begin_incremental(&caps);
    let a = wf.add_flow(&[0]);
    let b = wf.add_flow(&[1]);
    wf.rebalance();
    wf.remove_flow(a);
    let kind = wf.rebalance();
    assert_eq!(kind, Rebalance::Incremental);
    assert!(wf.changed().is_empty(), "{:?}", wf.changed());
    assert!((wf.rate(b) - 10.0).abs() < 1e-9);
}

#[test]
fn incremental_removal_of_bottlenecked_peer_raises_share() {
    // The case the divergence cap exists for: the departing flow's
    // link was binding, so its peers must be re-frozen even though the
    // link's *new* saturation level sits above their old rates. Six
    // bystanders on link 1 keep the delta under the full-solve
    // threshold, so the warm start takes it.
    let caps = [9.0, 60.0];
    let mut wf = WaterFiller::new(2);
    wf.begin_incremental(&caps);
    let s: Vec<u32> = (0..3).map(|_| wf.add_flow(&[0])).collect();
    for _ in 0..6 {
        wf.add_flow(&[1]);
    }
    wf.rebalance();
    for &x in &s {
        assert!((wf.rate(x) - 3.0).abs() < 1e-9);
    }
    wf.remove_flow(s[0]);
    assert_eq!(wf.rebalance(), Rebalance::Incremental);
    assert!((wf.rate(s[1]) - 4.5).abs() < 1e-9, "{}", wf.rate(s[1]));
    assert!((wf.rate(s[2]) - 4.5).abs() < 1e-9);
    assert_eq!(wf.changed().len(), 2, "the bystanders keep their rates");
}

#[test]
fn set_capacity_reservation_takes_warm_start() {
    // Incast: 8 sources through one receiver link (id 8), beside a
    // second incast (links 9..17) that stays out of the delta. A
    // foreground demand reservation shrinks the receiver link; the warm
    // start re-levels its incast alone, both down and back up.
    let n = 8usize;
    let caps: Vec<f64> = vec![100.0; 2 * (n + 1)];
    let mut wf = WaterFiller::new(caps.len());
    wf.begin_incremental(&caps);
    let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
    for base in [0, n + 1] {
        for i in 0..n {
            let p = vec![(base + i) as u32, (base + n) as u32];
            alive.push((wf.add_flow(&p), p));
        }
    }
    wf.rebalance();
    assert_matches_oracle(&wf, &caps, &alive, "initial");
    let mut caps2 = caps.clone();
    caps2[n] = 40.0;
    wf.set_capacity(n as u32, 40.0);
    assert_eq!(wf.rebalance(), Rebalance::Incremental);
    assert_matches_oracle(&wf, &caps2, &alive, "reserve");
    assert_eq!(wf.changed().len(), n);
    assert!(wf.touched_links().contains(&(n as u32)));
    // Releasing part of the reservation re-levels upward the same way
    // (the per-source side links keep ample headroom).
    caps2[n] = 80.0;
    wf.set_capacity(n as u32, 80.0);
    assert_eq!(wf.rebalance(), Rebalance::Incremental);
    assert_matches_oracle(&wf, &caps2, &alive, "release");
    for (s, _) in &alive[..n] {
        assert!((wf.rate(*s) - 10.0).abs() < 1e-9);
    }
    // No-op capacity write: nothing dirtied, nothing solved.
    wf.set_capacity(n as u32, 80.0);
    assert_eq!(wf.rebalance(), Rebalance::Noop);
}

#[test]
fn set_capacity_falls_back_when_freeze_order_changes() {
    // Sources 0 (5 Gb/s), 1, 2 through receiver link 3: flow 0 is
    // frozen below the receiver level by its own narrow source link.
    // Six bystanders on link 4 keep each cut under the full-solve
    // threshold.
    let caps = [5.0, 100.0, 100.0, 30.0, 60.0];
    let mut wf = WaterFiller::new(5);
    wf.begin_incremental(&caps);
    let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
    for i in 0..3u32 {
        let p = vec![i, 3];
        let s = wf.add_flow(&p);
        alive.push((s, p));
    }
    for _ in 0..6 {
        alive.push((wf.add_flow(&[4]), vec![4]));
    }
    wf.rebalance();
    assert!((wf.rate(alive[0].0) - 5.0).abs() < 1e-9);
    assert!((wf.rate(alive[1].0) - 12.5).abs() < 1e-9);
    // A cut that keeps the new level above the frozen flow's rate
    // preserves the freeze order.
    let mut caps2 = caps.to_vec();
    caps2[3] = 21.0;
    wf.set_capacity(3, 21.0);
    assert_eq!(wf.rebalance(), Rebalance::Incremental);
    assert_matches_oracle(&wf, &caps2, &alive, "valid cut");
    assert!((wf.rate(alive[1].0) - 8.0).abs() < 1e-9);
    // A cut below the frozen rate reorders the freeze: the divergence
    // level drops under flow 0's rate and recruits it too.
    caps2[3] = 12.0;
    wf.set_capacity(3, 12.0);
    assert_eq!(wf.rebalance(), Rebalance::Incremental);
    assert_matches_oracle(&wf, &caps2, &alive, "deep cut");
    assert!((wf.rate(alive[0].0) - 4.0).abs() < 1e-9);
}

#[test]
fn capacity_raise_beyond_side_headroom_falls_back() {
    // Flow a crosses links {0, 2}, flow b crosses {0, 1}; link 1 binds
    // b, link 2 binds a, link 0 binds nobody. Raising link 2 far above
    // link 0's headroom makes link 0 binding: the re-solve must carry
    // the new bottleneck to both flows.
    let caps = [100.0, 4.0, 10.0];
    let mut wf = WaterFiller::new(3);
    wf.begin_incremental(&caps);
    let a = wf.add_flow(&[0, 2]);
    let b = wf.add_flow(&[0, 1]);
    wf.rebalance();
    assert!((wf.rate(a) - 10.0).abs() < 1e-9);
    assert!((wf.rate(b) - 4.0).abs() < 1e-9);
    wf.set_capacity(2, 200.0);
    assert_eq!(wf.rebalance(), Rebalance::Incremental);
    let caps2 = [100.0, 4.0, 200.0];
    let alive = vec![(a, vec![0u32, 2]), (b, vec![0u32, 1])];
    assert_matches_oracle(&wf, &caps2, &alive, "raise");
    assert!((wf.rate(a) - 96.0).abs() < 1e-9);
}

#[test]
fn incremental_batches_and_slot_reuse_match_oracle() {
    let caps = [8.0, 12.0, 20.0, 5.0];
    let mut wf = WaterFiller::new(4);
    wf.begin_incremental(&caps);
    let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
    // Batch add (forces a full solve on first rebalance).
    for path in [vec![0u32, 2], vec![1u32, 2], vec![2u32, 3], vec![3u32]] {
        let s = wf.add_flow(&path);
        alive.push((s, path));
    }
    wf.rebalance();
    assert_matches_oracle(&wf, &caps, &alive, "batch add");
    // Same-event add + remove, exercising slot reuse.
    let (dead, _) = alive.remove(1);
    wf.remove_flow(dead);
    let p = vec![0u32, 3];
    let s = wf.add_flow(&p);
    assert_eq!(s, dead, "freed slot is reused");
    alive.push((s, p));
    wf.rebalance();
    assert_matches_oracle(&wf, &caps, &alive, "add+remove batch");
    // Add-then-remove before any rebalance is a clean no-op flow.
    let ghost = wf.add_flow(&[1]);
    wf.remove_flow(ghost);
    wf.rebalance();
    assert_matches_oracle(&wf, &caps, &alive, "ghost flow");
}

#[test]
fn path_longer_than_the_hop_stride_widens_the_tables() {
    // Six short flows fill the tables at the initial stride, then a
    // 20-link path arrives mid-session: every earlier slot's path and
    // back-pointers must survive the re-layout (removal uses them).
    let caps: Vec<f64> = (0..24).map(|l| 10.0 + l as f64).collect();
    let mut wf = WaterFiller::new(caps.len());
    wf.begin_incremental(&caps);
    let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
    for i in 0..6u32 {
        let p = vec![i, i + 1, 23];
        alive.push((wf.add_flow(&p), p));
    }
    wf.rebalance();
    let long: Vec<u32> = (2..22).collect();
    alive.push((wf.add_flow(&long), long));
    wf.rebalance();
    assert_matches_oracle(&wf, &caps, &alive, "long path");
    for (s, p) in &alive {
        assert_eq!(wf.path(*s), p.as_slice());
    }
    while alive.len() > 1 {
        let (s, _) = alive.remove(0);
        wf.remove_flow(s);
        wf.rebalance();
        assert_matches_oracle(&wf, &caps, &alive, "drain");
    }
}

#[test]
fn incremental_empty_path_flow_gets_uncapped_rate() {
    // Degenerate but defensive, matching the oracle's uncapped
    // fallback: an empty-path flow dirties no links yet must still be
    // rated by the next rebalance (not left pending at 0).
    let mut wf = WaterFiller::new(2);
    wf.begin_incremental(&[10.0, 10.0]);
    let a = wf.add_flow(&[]);
    assert_ne!(wf.rebalance(), Rebalance::Noop);
    assert_eq!(wf.rate(a), f64::MAX);
    assert_eq!(wf.rebalance(), Rebalance::Noop);
    // begin_incremental starts a fresh session, counters included.
    wf.begin_incremental(&[10.0, 10.0]);
    assert_eq!(wf.solve_stats(), (0, 0));
}

/// The tentpole property test: random arrival/departure sequences over
/// random link sets, every rebalance pinned to the from-scratch oracle
/// within 1e-9 relative rate error (plus feasibility + Pareto checks).
#[test]
fn incremental_matches_oracle_over_random_sequences() {
    let mut seed = 0xD1CE_F00D_5EED_1234u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let (mut n_inc, mut n_full) = (0u64, 0u64);
    let (mut n_fleet_inc, mut n_fleet_full) = (0u64, 0u64);
    for trial in 0..16 {
        // The last four trials have the hybrid driver's shape: a link
        // set wide enough that a dozen dirty links stay under the
        // full-solve threshold, a standing population (thin in the
        // last trial, so the same batches trip the threshold there),
        // and events that re-set several capacities together with
        // adds/removes.
        let fleet = trial >= 12;
        let nl = if fleet {
            160 + (next() % 64) as usize
        } else {
            8 + (next() % 24) as usize
        };
        // A mix of equal capacities (tie-heavy, like uniform fabrics)
        // and random ones (many distinct bottleneck levels).
        let mut caps: Vec<f64> = (0..nl)
            .map(|_| {
                if trial % 2 == 0 {
                    100.0
                } else {
                    (1 + next() % 100) as f64
                }
            })
            .collect();
        let mut wf = WaterFiller::new(nl);
        wf.begin_incremental(&caps);
        let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
        for event in 0..120 {
            let reservations = fleet && event > 0 && next() % 2 == 0;
            if reservations {
                for _ in 0..2 + next() % 11 {
                    let l = (next() % nl as u64) as usize;
                    caps[l] = (1 + next() % 100) as f64;
                    wf.set_capacity(l as u32, caps[l]);
                }
            }
            if !fleet && next() % 8 == 0 {
                // Capacity perturbation (a reservation push): a lone
                // single-link delta.
                let l = (next() % nl as u64) as usize;
                caps[l] = (1 + next() % 100) as f64;
                wf.set_capacity(l as u32, caps[l]);
            } else {
                // Batched events now and then; removals at ~40%.
                let batch = if fleet && event == 0 {
                    if trial == 15 {
                        12
                    } else {
                        200
                    }
                } else {
                    1 + (next() % 3) as usize
                };
                for _ in 0..batch {
                    if !alive.is_empty() && next() % 5 < 2 {
                        let ix = (next() % alive.len() as u64) as usize;
                        let (slot, _) = alive.swap_remove(ix);
                        wf.remove_flow(slot);
                    } else {
                        let len = 1 + (next() % 4) as usize;
                        let mut p: Vec<u32> =
                            (0..len).map(|_| (next() % nl as u64) as u32).collect();
                        p.sort_unstable();
                        p.dedup();
                        let s = wf.add_flow(&p);
                        alive.push((s, p));
                    }
                }
            }
            let kind = wf.rebalance();
            if reservations {
                n_fleet_inc += (kind == Rebalance::Incremental) as u64;
                n_fleet_full += (kind == Rebalance::Full) as u64;
            }
            assert_matches_oracle(&wf, &caps, &alive, &format!("trial {trial} ev {event}"));
        }
        let (f, i) = wf.solve_stats();
        n_full += f;
        n_inc += i;
    }
    // The sequences must exercise every path, or the test is vacuous.
    assert!(n_inc > 100, "incremental path barely exercised: {n_inc}");
    assert!(n_full > 10, "full fallback never exercised: {n_full}");
    // Multi-link capacity batches must reach the warm start, not only
    // the full fallback.
    assert!(
        n_fleet_inc > 100 && n_fleet_full > 0,
        "capacity batches: {n_fleet_inc} warm starts, {n_fleet_full} full solves"
    );
}

#[test]
fn random_demands_stay_feasible_and_pareto() {
    // Deterministic pseudo-random stress over a 3-tier-ish link set.
    let mut seed = 0x0123_4567_89AB_CDEFu64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for trial in 0..50 {
        let nl = 20 + (next() % 30) as usize;
        let caps: Vec<f64> = (0..nl).map(|_| (1 + next() % 100) as f64).collect();
        let nf = 1 + (next() % 200) as usize;
        let paths: Vec<Vec<u32>> = (0..nf)
            .map(|_| {
                let len = 1 + (next() % 5) as usize;
                let mut p: Vec<u32> = (0..len).map(|_| (next() % nl as u64) as u32).collect();
                p.sort_unstable();
                p.dedup();
                p
            })
            .collect();
        let flows: Vec<Demand<'_>> = paths
            .iter()
            .map(|p| {
                let cap = if next() % 3 == 0 {
                    (1 + next() % 50) as f64
                } else {
                    f64::INFINITY
                };
                Demand { cap, path: p }
            })
            .collect();
        let r = water_fill(&caps, &flows);
        assert!(
            worst_oversubscription(&caps, &flows, &r) < 1e-6,
            "trial {trial} oversubscribed"
        );
        assert_eq!(
            find_non_pareto_flow(&caps, &flows, &r, 1e-6),
            None,
            "trial {trial} not Pareto-optimal"
        );
    }
}

/// Alive `(slot, path)` pairs for `paths`, added in order; one rebalance.
fn incremental(caps: &[f64], paths: &[&[u32]]) -> (WaterFiller, Vec<(u32, Vec<u32>)>) {
    let mut wf = WaterFiller::new(caps.len());
    wf.begin_incremental(caps);
    let alive = paths.iter().map(|p| (wf.add_flow(p), p.to_vec())).collect();
    wf.rebalance();
    (wf, alive)
}

#[test]
fn one_user_link_binds_as_a_cap_and_records_its_level() {
    // Flow a crosses its private link 0 (3) and link 1 (10), shared with
    // b: link 0 caps a at 3 below link 1's level of 5, then b takes 7.
    // Six flows on link 2 keep the later delta under the full fallback.
    let caps = [3.0, 10.0, 60.0];
    let (mut wf, mut alive) =
        incremental(&caps, &[&[0, 1], &[1], &[2], &[2], &[2], &[2], &[2], &[2]]);
    assert_matches_oracle(&wf, &caps, &alive, "cap binds");
    assert_eq!(wf.rate(alive[0].0), 3.0);
    assert_eq!(wf.rate(alive[1].0), 7.0);
    assert_eq!(wf.link_state[0].level, 3.0, "the cap's link binds a");
    assert_eq!(wf.link_state[1].level, 7.0);
    // A second flow on link 0 turns the cap into a shared link: the warm
    // start re-solves a, and b through link 1's recorded level.
    let p = vec![0u32];
    alive.push((wf.add_flow(&p), p));
    assert_eq!(wf.rebalance(), Rebalance::Incremental);
    assert_matches_oracle(&wf, &caps, &alive, "cap link shared");
    assert_eq!(wf.rate(alive[1].0), 8.5);
    assert_eq!(wf.rate(alive[8].0), 1.5);
}

#[test]
fn one_user_link_tied_with_a_shared_link_freezes_once_at_the_level() {
    // Link 0 (5) is a's alone; link 1 (10) is shared by a and b, so both
    // bind at exactly 5. On an exact tie the shared link records the
    // round and the cap, whose flow is frozen by then, records nothing.
    let caps = [5.0, 10.0];
    let (mut wf, mut alive) = incremental(&caps, &[&[0, 1], &[1]]);
    assert_matches_oracle(&wf, &caps, &alive, "tie");
    assert_eq!(wf.rate(alive[0].0), 5.0);
    assert_eq!(wf.rate(alive[1].0), 5.0);
    assert_eq!(wf.link_state[1].level, 5.0);
    assert_eq!(wf.link_state[0].level, f64::INFINITY);
    // b leaves: a stays capped at 5 by link 0.
    let (b, _) = alive.pop().unwrap();
    wf.remove_flow(b);
    wf.rebalance();
    assert_matches_oracle(&wf, &caps, &alive, "tie partner left");
    assert_eq!(wf.rate(alive[0].0), 5.0);
    // Raising link 0 lets a climb to link 1's capacity.
    let caps = [8.0, 10.0];
    wf.set_capacity(0, 8.0);
    wf.rebalance();
    assert_matches_oracle(&wf, &caps, &alive, "cap raised");
    assert_eq!(wf.rate(alive[0].0), 8.0);
}

#[test]
fn equal_one_user_links_cap_the_flow_once() {
    // a crosses private links 0 and 1 (both 4) and link 2 (10), shared
    // with b. The first of the equal caps on a's path records the level.
    let caps = [4.0, 4.0, 10.0];
    let (mut wf, alive) = incremental(&caps, &[&[0, 1, 2], &[2]]);
    assert_matches_oracle(&wf, &caps, &alive, "equal caps");
    assert_eq!(wf.rate(alive[0].0), 4.0);
    assert_eq!(wf.rate(alive[1].0), 6.0);
    assert_eq!(wf.link_state[0].level, 4.0);
    assert_eq!(wf.link_state[1].level, f64::INFINITY);
    // Raising the recorded link leaves the other one binding a at 4.
    let caps = [6.0, 4.0, 10.0];
    wf.set_capacity(0, 6.0);
    wf.rebalance();
    assert_matches_oracle(&wf, &caps, &alive, "recorded cap raised");
    assert_eq!(wf.rate(alive[0].0), 4.0);
    assert_eq!(wf.link_state[1].level, 4.0);
}

#[test]
fn cap_heavy_full_solves_match_oracle() {
    // Every flow has its own source and destination links (the fleet's
    // host links: one user each, so every flow carries a cap) and crosses
    // one of a few shared core links. Host capacities spread around the
    // core shares, so caps and core links both bind, in every order.
    let mut seed = 0xCA95_0F10_5EED_0042u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let (n, cores) = (120usize, 6usize);
    let mut caps: Vec<f64> = (0..cores).map(|_| (200 + next() % 400) as f64).collect();
    caps.extend((0..2 * n).map(|_| (5 + next() % 60) as f64));
    let mut wf = WaterFiller::new(caps.len());
    wf.begin_incremental(&caps);
    let mut alive: Vec<(u32, Vec<u32>)> = (0..n)
        .map(|i| {
            let p = vec![
                (cores + i) as u32,
                (i % cores) as u32,
                (cores + n + i) as u32,
            ];
            (wf.add_flow(&p), p)
        })
        .collect();
    assert_eq!(wf.rebalance(), Rebalance::Full);
    assert_matches_oracle(&wf, &caps, &alive, "cold");
    let host_bound = (cores..caps.len())
        .filter(|&l| wf.link_state[l].level.is_finite())
        .count();
    let core_bound = (0..cores)
        .filter(|&l| wf.link_state[l].level.is_finite())
        .count();
    assert!(
        host_bound > 10 && core_bound > 0,
        "{host_bound} caps, {core_bound} cores bound"
    );
    // Churn: every tenth event re-sets every core link, which trips the
    // full fallback; the rest move a few links and take the warm start.
    for ev in 0..60 {
        let moved: Vec<usize> = if ev % 10 == 0 {
            (0..cores).collect()
        } else {
            (0..1 + next() % 3)
                .map(|_| (next() % caps.len() as u64) as usize)
                .collect()
        };
        for l in moved {
            caps[l] = (5 + next() % 400) as f64;
            wf.set_capacity(l as u32, caps[l]);
        }
        if next() % 2 == 0 {
            let (s, p) = alive.swap_remove((next() % alive.len() as u64) as usize);
            wf.remove_flow(s);
            alive.push((wf.add_flow(&p), p));
        }
        wf.rebalance();
        assert_matches_oracle(&wf, &caps, &alive, &format!("event {ev}"));
    }
    let (full, inc) = wf.solve_stats();
    assert!(full > 1 && inc > 10, "{full} full, {inc} incremental");
}
