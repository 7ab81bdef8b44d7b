//! Routing: per-destination tables with symmetric ECMP (Fig. 5) and
//! spanning-tree unique paths (Fig. 6).
//!
//! **Symmetry** (Observation 2 of the paper): an ACK must traverse exactly
//! the reverse of its data packet's path so that FNCC's return-path INT
//! describes the request path. Two mechanisms guarantee this:
//!
//! 1. The ECMP hash is computed over the *direction-normalised* five-tuple
//!    (`min(src,dst), max(src,dst), flow`), so a flow's data and ACK frames
//!    hash identically.
//! 2. Next-hop lists are built in a canonical order and indexed by a fixed
//!    *digit* of the hash per topology level (`level`), mirroring the
//!    "symmetric routing table" of Fig. 5. With the canonical fat-tree
//!    wiring in [`crate::topology`], the up-path choices made by the data
//!    packet are exactly reproduced (in reverse) by the ACK.

use crate::ids::{FlowId, HostId};
use fncc_des::rng::splitmix64;
use std::sync::Arc;

/// Bits of the path hash consumed per ECMP level.
const LEVEL_DIGIT_BITS: u32 = 8;

/// Direction-normalised flow hash: identical for a data packet
/// (`src → dst`) and its ACK (`dst → src`).
#[inline]
pub fn flow_hash(a: HostId, b: HostId, flow: FlowId) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    splitmix64(((lo as u64) << 40) ^ ((hi as u64) << 16) ^ (flow.0 as u64) ^ 0x5bd1_e995)
}

/// How a switch forwards towards one destination host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteEntry {
    /// Destination unreachable (configuration error if ever hit).
    Unreachable,
    /// Single next hop.
    Single(u8),
    /// Equal-cost set; `level` selects which hash digit picks the member.
    Ecmp {
        /// Candidate egress ports in canonical (symmetric) order.
        ports: Vec<u8>,
        /// Topology level of this choice point (0 = first up-hop, …).
        level: u8,
    },
}

/// Routing state of one switch.
#[derive(Clone, Debug)]
pub enum RoutingTable {
    /// Classic per-destination table (dumbbell, line, fat-tree).
    PerDst(Vec<RouteEntry>),
    /// Spanning-tree routing: `trees[t][dst]` = egress port within tree `t`;
    /// the flow hash picks the tree (Fig. 6 / TCP-Bolt style).
    Trees(Vec<Vec<u8>>),
}

impl RoutingTable {
    /// Like [`RoutingTable::egress`], but `None` for unreachable
    /// destinations — link faults can legitimately sever a destination at
    /// runtime, which must drop the frame rather than panic.
    #[inline]
    pub fn try_egress(&self, dst: HostId, h: u64) -> Option<u8> {
        match self {
            RoutingTable::PerDst(entries) => match &entries[dst.ix()] {
                RouteEntry::Unreachable => None,
                RouteEntry::Single(p) => Some(*p),
                RouteEntry::Ecmp { ports, level } => {
                    let digit =
                        (h >> (LEVEL_DIGIT_BITS * *level as u32)) & ((1 << LEVEL_DIGIT_BITS) - 1);
                    Some(ports[(digit as usize) % ports.len()])
                }
            },
            RoutingTable::Trees(trees) => {
                let t = (h as usize) % trees.len();
                Some(trees[t][dst.ix()])
            }
        }
    }

    /// Select the egress port towards `dst` for a frame with path hash `h`.
    ///
    /// Panics on unreachable destinations — that is a topology-construction
    /// bug, not a runtime condition.
    #[inline]
    pub fn egress(&self, dst: HostId, h: u64) -> u8 {
        match self {
            RoutingTable::PerDst(entries) => match &entries[dst.ix()] {
                RouteEntry::Unreachable => panic!("no route to {dst:?}"),
                RouteEntry::Single(p) => *p,
                RouteEntry::Ecmp { ports, level } => {
                    let digit =
                        (h >> (LEVEL_DIGIT_BITS * *level as u32)) & ((1 << LEVEL_DIGIT_BITS) - 1);
                    ports[(digit as usize) % ports.len()]
                }
            },
            RoutingTable::Trees(trees) => {
                let t = (h as usize) % trees.len();
                trees[t][dst.ix()]
            }
        }
    }
}

/// `rt` with every route steered around the `dead` egress ports: ECMP
/// member lists shrink to the survivors (hash digits then re-index the
/// smaller canonical list), single or fully-emptied routes become
/// [`RouteEntry::Unreachable`]. `Trees` routing has no alternate paths
/// within a tree and is returned unchanged — spanning-tree topologies do
/// not support link faults.
pub fn without_ports(rt: &RoutingTable, dead: &[bool]) -> RoutingTable {
    let is_dead = |p: u8| dead.get(p as usize).copied().unwrap_or(false);
    match rt {
        RoutingTable::PerDst(entries) => RoutingTable::PerDst(
            entries
                .iter()
                .map(|e| match e {
                    RouteEntry::Unreachable => RouteEntry::Unreachable,
                    RouteEntry::Single(p) if is_dead(*p) => RouteEntry::Unreachable,
                    RouteEntry::Single(p) => RouteEntry::Single(*p),
                    RouteEntry::Ecmp { ports, level } => {
                        let live: Vec<u8> =
                            ports.iter().copied().filter(|p| !is_dead(*p)).collect();
                        match live.len() {
                            0 => RouteEntry::Unreachable,
                            1 => RouteEntry::Single(live[0]),
                            _ => RouteEntry::Ecmp {
                                ports: live,
                                level: *level,
                            },
                        }
                    }
                })
                .collect(),
        ),
        RoutingTable::Trees(_) => rt.clone(),
    }
}

/// One egress lookup under a set of dead ports, without materializing the
/// filtered table: exactly what [`without_ports`] + [`RoutingTable::try_egress`]
/// would return, hop by hop. The fluid backend walks paths with this so its
/// failure-aware rerouting picks the *same* surviving ECMP member as the
/// packet engine's recompiled tables (the hash digit re-indexes the shrunken
/// canonical list), keeping the two backends' post-fault paths identical.
pub fn egress_avoiding(
    rt: &RoutingTable,
    dst: HostId,
    h: u64,
    is_dead: impl Fn(u8) -> bool,
) -> Option<u8> {
    match rt {
        RoutingTable::PerDst(entries) => match &entries[dst.ix()] {
            RouteEntry::Unreachable => None,
            RouteEntry::Single(p) => (!is_dead(*p)).then_some(*p),
            RouteEntry::Ecmp { ports, level } => {
                let live = ports.iter().filter(|&&p| !is_dead(p)).count();
                if live == 0 {
                    return None;
                }
                let digit =
                    (h >> (LEVEL_DIGIT_BITS * *level as u32)) & ((1 << LEVEL_DIGIT_BITS) - 1);
                ports
                    .iter()
                    .filter(|&&p| !is_dead(p))
                    .nth(digit as usize % live)
                    .copied()
            }
        },
        // Trees routing has no alternates within a tree; faults don't
        // steer it (mirrors `without_ports`).
        RoutingTable::Trees(_) => Some(rt.egress(dst, h)),
    }
}

/// A [`RoutingTable`] compiled for the hot path.
///
/// `PerDst` tables resolve to one load pair per lookup: per destination a
/// packed `(level, table)` word, then a 256-entry digit→port byte table
/// shared between destinations with the same choice set (`Single` entries
/// compile to a constant table). This replaces two pointer chases and a
/// hardware division per forwarded frame with two dependent loads.
/// `Trees` tables keep the original lookup (full-hash modulo over the tree
/// count does not digit-compile); they are off the workload hot path.
///
/// The compiled tables are immutable and sit behind `Arc`s, so a clone
/// shares them: the replicas of a sharded run forward through one copy.
#[derive(Clone, Debug)]
pub enum CompiledRoutes {
    /// Digit-compiled per-destination tables.
    PerDst {
        /// Per destination: `level << 16 | table index`, or `u32::MAX` for
        /// unreachable.
        dst: Arc<[u32]>,
        /// Digit→port tables, 256 bytes each, deduplicated.
        tables: Arc<[[u8; 256]]>,
    },
    /// Uncompiled fallback (spanning-tree routing).
    Raw(RoutingTable),
}

impl CompiledRoutes {
    /// Compile a routing table. Lookup results are bit-identical to
    /// [`RoutingTable::egress`] for every `(dst, h)`.
    pub fn compile(rt: &RoutingTable) -> CompiledRoutes {
        let RoutingTable::PerDst(entries) = rt else {
            return CompiledRoutes::Raw(rt.clone());
        };
        let mut tables: Vec<[u8; 256]> = Vec::new();
        let mut dst = Vec::with_capacity(entries.len());
        let intern = |t: [u8; 256], tables: &mut Vec<[u8; 256]>| -> u32 {
            match tables.iter().position(|x| x == &t) {
                Some(ix) => ix as u32,
                None => {
                    tables.push(t);
                    tables.len() as u32 - 1
                }
            }
        };
        for e in entries {
            dst.push(match e {
                RouteEntry::Unreachable => u32::MAX,
                RouteEntry::Single(p) => intern([*p; 256], &mut tables),
                RouteEntry::Ecmp { ports, level } => {
                    let mut t = [0u8; 256];
                    for (digit, slot) in t.iter_mut().enumerate() {
                        *slot = ports[digit % ports.len()];
                    }
                    ((*level as u32) << 16) | intern(t, &mut tables)
                }
            });
        }
        assert!(
            tables.len() <= 0xFFFF,
            "too many distinct ECMP tables to digit-compile ({})",
            tables.len()
        );
        CompiledRoutes::PerDst {
            dst: dst.into(),
            tables: tables.into(),
        }
    }

    /// Like [`CompiledRoutes::egress`], but `None` for unreachable
    /// destinations (a destination severed by link faults).
    #[inline]
    pub fn try_egress(&self, dst: HostId, h: u64) -> Option<u8> {
        match self {
            CompiledRoutes::PerDst { dst: d, tables } => {
                let packed = d[dst.ix()];
                if packed == u32::MAX {
                    return None;
                }
                let level = packed >> 16;
                let digit = (h >> (LEVEL_DIGIT_BITS * level)) & 0xFF;
                Some(tables[(packed & 0xFFFF) as usize][digit as usize])
            }
            CompiledRoutes::Raw(rt) => rt.try_egress(dst, h),
        }
    }

    /// Select the egress port towards `dst` for a frame with path hash `h`.
    /// Panics on unreachable destinations, like [`RoutingTable::egress`].
    #[inline]
    pub fn egress(&self, dst: HostId, h: u64) -> u8 {
        match self {
            CompiledRoutes::PerDst { dst: d, tables } => {
                let packed = d[dst.ix()];
                assert_ne!(packed, u32::MAX, "no route to {dst:?}");
                let level = packed >> 16;
                let digit = (h >> (LEVEL_DIGIT_BITS * level)) & 0xFF;
                tables[(packed & 0xFFFF) as usize][digit as usize]
            }
            CompiledRoutes::Raw(rt) => rt.egress(dst, h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_hash_is_direction_symmetric() {
        for s in 0..20u32 {
            for d in 0..20u32 {
                for f in 0..5u32 {
                    assert_eq!(
                        flow_hash(HostId(s), HostId(d), FlowId(f)),
                        flow_hash(HostId(d), HostId(s), FlowId(f)),
                    );
                }
            }
        }
    }

    #[test]
    fn flow_hash_differs_across_flows() {
        let h0 = flow_hash(HostId(0), HostId(1), FlowId(0));
        let h1 = flow_hash(HostId(0), HostId(1), FlowId(1));
        assert_ne!(h0, h1);
    }

    #[test]
    fn flow_hash_differs_across_pairs() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..10u32 {
            for d in (s + 1)..10u32 {
                seen.insert(flow_hash(HostId(s), HostId(d), FlowId(0)));
            }
        }
        assert_eq!(seen.len(), 45, "hash collisions across 45 distinct pairs");
    }

    #[test]
    fn single_route_ignores_hash() {
        let rt = RoutingTable::PerDst(vec![RouteEntry::Single(3)]);
        assert_eq!(rt.egress(HostId(0), 0), 3);
        assert_eq!(rt.egress(HostId(0), u64::MAX), 3);
    }

    #[test]
    fn ecmp_uses_level_digit() {
        let rt = RoutingTable::PerDst(vec![RouteEntry::Ecmp {
            ports: vec![10, 11, 12, 13],
            level: 1,
        }]);
        // Digit 1 = bits 8..16 of the hash.
        let h = 0x0000_0200u64; // digit0 = 0, digit1 = 2
        assert_eq!(rt.egress(HostId(0), h), 12);
        let h = 0x0000_0501u64; // digit1 = 5 → 5 % 4 = 1
        assert_eq!(rt.egress(HostId(0), h), 11);
    }

    #[test]
    fn ecmp_spreads_over_all_members() {
        let rt = RoutingTable::PerDst(vec![RouteEntry::Ecmp {
            ports: vec![0, 1, 2, 3],
            level: 0,
        }]);
        let mut hit = [false; 4];
        for f in 0..200u32 {
            let h = flow_hash(HostId(0), HostId(1), FlowId(f));
            hit[rt.egress(HostId(0), h) as usize] = true;
        }
        assert!(
            hit.iter().all(|&b| b),
            "ECMP never chose some member: {hit:?}"
        );
    }

    #[test]
    #[should_panic]
    fn unreachable_panics() {
        let rt = RoutingTable::PerDst(vec![RouteEntry::Unreachable]);
        rt.egress(HostId(0), 0);
    }

    #[test]
    fn compiled_routes_match_interpreted_lookup() {
        let rt = RoutingTable::PerDst(vec![
            RouteEntry::Single(3),
            RouteEntry::Ecmp {
                ports: vec![10, 11, 12],
                level: 1,
            },
            RouteEntry::Ecmp {
                ports: vec![4, 5, 6, 7],
                level: 0,
            },
            RouteEntry::Single(3), // dedups with entry 0
        ]);
        let c = CompiledRoutes::compile(&rt);
        for dst in 0..4u32 {
            for f in 0..500u32 {
                let h = flow_hash(HostId(dst), HostId(100), FlowId(f));
                assert_eq!(c.egress(HostId(dst), h), rt.egress(HostId(dst), h));
            }
        }
        if let CompiledRoutes::PerDst { tables, .. } = &c {
            assert_eq!(tables.len(), 3, "identical entries share one table");
        } else {
            panic!("PerDst must digit-compile");
        }
    }

    #[test]
    #[should_panic]
    fn compiled_unreachable_panics() {
        let c = CompiledRoutes::compile(&RoutingTable::PerDst(vec![RouteEntry::Unreachable]));
        c.egress(HostId(0), 0);
    }

    #[test]
    fn compiled_trees_fall_back_to_raw() {
        let rt = RoutingTable::Trees(vec![vec![1], vec![2], vec![3]]);
        let c = CompiledRoutes::compile(&rt);
        for f in 0..100u32 {
            let h = flow_hash(HostId(0), HostId(0), FlowId(f));
            assert_eq!(c.egress(HostId(0), h), rt.egress(HostId(0), h));
        }
    }

    #[test]
    fn without_ports_shrinks_ecmp_and_severs_singles() {
        let rt = RoutingTable::PerDst(vec![
            RouteEntry::Single(2),
            RouteEntry::Single(3),
            RouteEntry::Ecmp {
                ports: vec![2, 3],
                level: 0,
            },
            RouteEntry::Ecmp {
                ports: vec![4, 5],
                level: 1,
            },
        ]);
        let mut dead = vec![false; 6];
        dead[2] = true;
        let f = without_ports(&rt, &dead);
        let RoutingTable::PerDst(e) = &f else {
            panic!("PerDst expected")
        };
        assert_eq!(e[0], RouteEntry::Unreachable);
        assert_eq!(e[1], RouteEntry::Single(3));
        assert_eq!(e[2], RouteEntry::Single(3), "one survivor degenerates");
        assert_eq!(
            e[3],
            RouteEntry::Ecmp {
                ports: vec![4, 5],
                level: 1
            },
            "untouched sets survive whole"
        );
        // No dead ports: identity.
        let id = without_ports(&rt, &[false; 6]);
        let RoutingTable::PerDst(e) = &id else {
            panic!("PerDst expected")
        };
        assert_eq!(
            e[2],
            RouteEntry::Ecmp {
                ports: vec![2, 3],
                level: 0
            }
        );
    }

    #[test]
    fn egress_avoiding_matches_recompiled_tables() {
        let rt = RoutingTable::PerDst(vec![
            RouteEntry::Single(2),
            RouteEntry::Unreachable,
            RouteEntry::Ecmp {
                ports: vec![2, 3, 4, 5],
                level: 1,
            },
            RouteEntry::Ecmp {
                ports: vec![4, 5],
                level: 0,
            },
        ]);
        // Every dead-set over ports 2..=5, every dst, many hashes: the
        // per-lookup filter must agree with the recompiled table exactly.
        for mask in 0u8..16 {
            let mut dead = vec![false; 6];
            for p in 0..4 {
                dead[p + 2] = mask & (1 << p) != 0;
            }
            let filtered = without_ports(&rt, &dead);
            for dst in 0..4u32 {
                for f in 0..100u32 {
                    let h = flow_hash(HostId(dst), HostId(50), FlowId(f));
                    assert_eq!(
                        egress_avoiding(&rt, HostId(dst), h, |p| dead[p as usize]),
                        filtered.try_egress(HostId(dst), h),
                        "mask {mask:04b} dst {dst} flow {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn try_egress_is_none_only_when_unreachable() {
        let rt = RoutingTable::PerDst(vec![RouteEntry::Unreachable, RouteEntry::Single(7)]);
        let c = CompiledRoutes::compile(&rt);
        assert_eq!(rt.try_egress(HostId(0), 0), None);
        assert_eq!(c.try_egress(HostId(0), 0), None);
        assert_eq!(rt.try_egress(HostId(1), 0), Some(7));
        assert_eq!(c.try_egress(HostId(1), 0), Some(7));
    }

    #[test]
    fn tree_routing_selects_by_hash() {
        let rt = RoutingTable::Trees(vec![vec![1], vec![2], vec![3]]);
        let mut seen = std::collections::HashSet::new();
        for f in 0..100u32 {
            let h = flow_hash(HostId(0), HostId(0), FlowId(f));
            seen.insert(rt.egress(HostId(0), h));
        }
        assert_eq!(seen, [1u8, 2, 3].into_iter().collect());
    }
}
