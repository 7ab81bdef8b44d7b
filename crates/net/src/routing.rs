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
//!
//! **One table.** A topology builder states each `(switch, destination)`
//! route as a [`RouteEntry`]; [`RoutingTable::per_dst`] digit-compiles
//! them once, into the only form anything forwards through or walks: the
//! live switches of every replica, [`crate::topology::Topology::walk_path`]
//! and the fluid engine share that allocation, and [`without_ports`] maps
//! it to the table a switch uses around dead ports.

use crate::ids::{FlowId, HostId};
use fncc_des::rng::splitmix64;
use std::fmt;
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

/// A [`RoutingTable::PerDst`] destination word for a destination the
/// table does not reach.
const UNREACHABLE: u32 = u32::MAX;

/// How a switch forwards towards one destination host, as a topology
/// builder states it; [`RoutingTable::per_dst`] compiles a list of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteEntry {
    /// Single next hop.
    Single(u8),
    /// Equal-cost set over the ports `first..=last`, in port order (the
    /// canonical, symmetric order); `level` selects which hash digit picks
    /// the member.
    Ecmp {
        /// Lowest member port.
        first: u8,
        /// Highest member port.
        last: u8,
        /// Topology level of this choice point (0 = first up-hop, …).
        level: u8,
    },
}

/// Routing state of one switch. Immutable once built, with its tables
/// behind `Arc`s: a clone shares them, so a topology's clones, the live
/// switches of every replica and the fluid engine all read one copy.
#[derive(Clone)]
pub enum RoutingTable {
    /// Per-destination tables (dumbbell, line, star, fat-tree, leaf–spine),
    /// digit-compiled: a lookup is two dependent loads, a packed word per
    /// destination, then a byte of a 256-entry digit→port table.
    PerDst {
        /// Per destination: `level << 16 | table index`, or `u32::MAX` for
        /// unreachable.
        by_dst: Arc<[u32]>,
        /// Digit→port tables, one per distinct member list (a switch has
        /// at most 32 896 distinct port ranges, so the index fits 16 bits):
        /// digit `d` maps to member `d % n` of the table's `n` members, so
        /// its first `n` bytes are the members in canonical order.
        tables: Arc<[[u8; 256]]>,
        /// Each table's member count `n`.
        members: Arc<[u16]>,
    },
    /// Spanning-tree routing: `trees[t][dst]` = egress port within tree `t`;
    /// the flow hash picks the tree (Fig. 6 / TCP-Bolt style).
    Trees(Arc<[Vec<u8>]>),
}

impl RoutingTable {
    /// Compile each destination's route, in host-id order.
    pub fn per_dst(routes: impl IntoIterator<Item = RouteEntry>) -> RoutingTable {
        let mut b = TableSet::default();
        let by_dst = routes
            .into_iter()
            .map(|e| match e {
                RouteEntry::Single(p) => b.intern(p..=p),
                RouteEntry::Ecmp { first, last, level } => {
                    (level as u32) << 16 | b.intern(first..=last)
                }
            })
            .collect();
        b.finish(by_dst)
    }

    /// The egress port towards `dst` for a frame with path hash `h`, or
    /// `None` when the table does not reach `dst` — link faults can
    /// legitimately sever a destination at runtime, which must drop the
    /// frame rather than panic.
    #[inline]
    pub fn try_egress(&self, dst: HostId, h: u64) -> Option<u8> {
        match self {
            RoutingTable::PerDst { by_dst, tables, .. } => {
                let packed = by_dst[dst.ix()];
                if packed == UNREACHABLE {
                    return None;
                }
                let digit = (h >> (LEVEL_DIGIT_BITS * (packed >> 16))) & 0xFF;
                Some(tables[(packed & 0xFFFF) as usize][digit as usize])
            }
            RoutingTable::Trees(trees) => Some(trees[(h as usize) % trees.len()][dst.ix()]),
        }
    }

    /// [`Self::try_egress`] for a destination that must be reachable.
    ///
    /// Panics on unreachable destinations — that is a topology-construction
    /// bug, not a runtime condition.
    #[inline]
    pub fn egress(&self, dst: HostId, h: u64) -> u8 {
        self.try_egress(dst, h)
            .unwrap_or_else(|| panic!("no route to {dst:?}"))
    }

    /// Destination `dst`'s canonical member list and hash level, `None`
    /// when the table does not reach it (`PerDst` tables only).
    fn route_to(&self, dst: usize) -> Option<(&[u8], u32)> {
        let RoutingTable::PerDst {
            by_dst,
            tables,
            members,
        } = self
        else {
            panic!("spanning-tree routes have no member lists")
        };
        let w = by_dst[dst];
        (w != UNREACHABLE).then(|| {
            let ix = (w & 0xFFFF) as usize;
            (&tables[ix][..members[ix] as usize], w >> 16)
        })
    }
}

/// Each destination's route as a builder states it — `Single(p)`,
/// `Ecmp { ports, level }` or `Unreachable` — not the 256-byte tables.
impl fmt::Debug for RoutingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n_dst = match self {
            RoutingTable::Trees(trees) => return write!(f, "Trees({trees:?})"),
            RoutingTable::PerDst { by_dst, .. } => by_dst.len(),
        };
        f.write_str("PerDst([")?;
        for d in 0..n_dst {
            f.write_str(if d == 0 { "" } else { ", " })?;
            match self.route_to(d) {
                None => write!(f, "Unreachable"),
                Some(([p], _)) => write!(f, "Single({p})"),
                Some((ports, level)) => write!(f, "Ecmp {{ ports: {ports:?}, level: {level} }}"),
            }?;
        }
        f.write_str("])")
    }
}

/// The deduplicated digit→port tables of a [`RoutingTable::PerDst`] being
/// built.
#[derive(Default)]
struct TableSet {
    tables: Vec<[u8; 256]>,
    members: Vec<u16>,
}

impl TableSet {
    /// The index of the table over `ports` (canonical order, non-empty),
    /// added if no table has that member list yet.
    fn intern(&mut self, ports: impl ExactSizeIterator<Item = u8> + Clone) -> u32 {
        let n = ports.len();
        assert!(n > 0, "empty ECMP set");
        let found = (self.tables.iter().zip(&self.members))
            .position(|(t, &m)| m as usize == n && ports.clone().eq(t[..n].iter().copied()));
        let ix = found.unwrap_or_else(|| {
            let mut t = [0u8; 256];
            for (slot, p) in t.iter_mut().zip(ports) {
                *slot = p;
            }
            // Repeat the members over all 256 digits by doubling copies.
            let mut len = n;
            while len < 256 {
                let c = len.min(256 - len);
                t.copy_within(..c, len);
                len += c;
            }
            self.tables.push(t);
            self.members.push(n as u16);
            self.tables.len() - 1
        });
        ix as u32
    }

    fn finish(self, by_dst: Arc<[u32]>) -> RoutingTable {
        RoutingTable::PerDst {
            by_dst,
            tables: self.tables.into(),
            members: self.members.into(),
        }
    }
}

/// `rt` with every route steered around the `dead` egress ports: ECMP
/// member lists shrink to the survivors (hash digits then re-index the
/// smaller canonical list), single or fully-emptied routes become
/// unreachable. `Trees` routing has no alternate paths within a tree and
/// is returned unchanged — spanning-tree topologies do not support link
/// faults.
///
/// This is the one failover rule: a faulted packet switch forwards through
/// the table it returns, and the fluid engine walks the same tables, so
/// both steer a flow onto the same surviving member.
pub fn without_ports(rt: &RoutingTable, dead: &[bool]) -> RoutingTable {
    let RoutingTable::PerDst {
        by_dst,
        tables,
        members,
    } = rt
    else {
        return rt.clone();
    };
    let is_dead = |p: u8| dead.get(p as usize).copied().unwrap_or(false);
    let mut b = TableSet::default();
    // Old table index → the index of its survivors' table, or UNREACHABLE.
    let survivors: Vec<u32> = (tables.iter().zip(members.iter()))
        .map(|(t, &n)| {
            let live: Vec<u8> = t[..n as usize]
                .iter()
                .copied()
                .filter(|&p| !is_dead(p))
                .collect();
            if live.is_empty() {
                UNREACHABLE
            } else {
                b.intern(live.into_iter())
            }
        })
        .collect();
    let by_dst = (by_dst.iter())
        .map(|&w| match w {
            UNREACHABLE => UNREACHABLE,
            w => match survivors[(w & 0xFFFF) as usize] {
                UNREACHABLE => UNREACHABLE,
                ix => (w & !0xFFFF) | ix,
            },
        })
        .collect();
    b.finish(by_dst)
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
        let rt = RoutingTable::per_dst([RouteEntry::Single(3)]);
        assert_eq!(rt.egress(HostId(0), 0), 3);
        assert_eq!(rt.egress(HostId(0), u64::MAX), 3);
    }

    #[test]
    fn ecmp_uses_level_digit() {
        let rt = RoutingTable::per_dst([RouteEntry::Ecmp {
            first: 10,
            last: 13,
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
        let rt = RoutingTable::per_dst([RouteEntry::Ecmp {
            first: 0,
            last: 3,
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
        let rt = RoutingTable::per_dst([RouteEntry::Single(0)]);
        without_ports(&rt, &[true]).egress(HostId(0), 0);
    }

    #[test]
    fn without_ports_shrinks_ecmp_and_severs_singles() {
        let ecmp = |first, last, level| RouteEntry::Ecmp { first, last, level };
        let rt = RoutingTable::per_dst([
            RouteEntry::Single(2),
            RouteEntry::Single(3),
            ecmp(2, 3, 0),
            ecmp(4, 5, 1),
        ]);
        let mut dead = vec![false; 6];
        dead[2] = true;
        let f = without_ports(&rt, &dead);
        assert_eq!(f.route_to(0), None);
        assert_eq!(f.route_to(1), Some((&[3][..], 0)));
        assert_eq!(f.route_to(2).unwrap().0, [3], "one survivor degenerates");
        assert_eq!(
            f.route_to(3),
            Some((&[4, 5][..], 1)),
            "untouched sets survive whole"
        );
        let RoutingTable::PerDst { tables, .. } = &f else {
            unreachable!()
        };
        assert_eq!(tables.len(), 2, "equal survivor lists share one table");
        // No dead ports: identity.
        let id = without_ports(&rt, &[false; 6]);
        assert_eq!(id.route_to(2), Some((&[2, 3][..], 0)));
    }

    /// The failover rule stated per lookup: the hash digit re-indexes the
    /// destination's canonical member list with the dead ports filtered
    /// out; a dead single hop or an emptied set severs the destination.
    /// With no dead port it is the plain modulo lookup over the list.
    fn rule(pristine: &RoutingTable, dst: usize, h: u64, dead: &[bool]) -> Option<u8> {
        let (ports, level) = pristine.route_to(dst)?;
        let live: Vec<u8> = ports
            .iter()
            .copied()
            .filter(|&p| !dead[p as usize])
            .collect();
        let digit = (h >> (8 * level)) & 0xFF;
        (!live.is_empty()).then(|| live[digit as usize % live.len()])
    }

    /// Every lookup of `without_ports(pristine, dead)` (of `pristine`
    /// itself when no port is dead) agrees with [`rule`] for every
    /// destination over many hashes.
    fn check_rule(pristine: &RoutingTable, n_dst: u32, dead: &[bool], what: &str) {
        let rt = if dead.contains(&true) {
            without_ports(pristine, dead)
        } else {
            pristine.clone()
        };
        for dst in 0..n_dst {
            for f in 0..100u32 {
                let h = flow_hash(HostId(dst), HostId(n_dst), FlowId(f));
                assert_eq!(
                    rt.try_egress(HostId(dst), h),
                    rule(pristine, dst as usize, h, dead),
                    "{what}: dst {dst} flow {f}"
                );
            }
        }
    }

    /// Every switch of two built topologies.
    fn built_switches() -> Vec<(String, crate::topology::SwitchSpec, u32)> {
        use crate::topology::Topology;
        use crate::units::Bandwidth;
        use fncc_des::time::TimeDelta;
        let (bw, prop) = (Bandwidth::gbps(100), TimeDelta::from_us(1));
        let mut out = Vec::new();
        for topo in [
            Topology::fat_tree(4, bw, prop),
            Topology::leaf_spine(4, 2, 8, bw, prop),
        ] {
            for (s, sw) in topo.switches.iter().enumerate() {
                out.push((
                    format!("{:?} switch {s}", topo.kind),
                    sw.clone(),
                    topo.n_hosts,
                ));
            }
        }
        out
    }

    /// Healthy case: the compiled digit tables of every built switch give
    /// the plain modulo lookup over each destination's member list, and
    /// identical member lists share one table.
    #[test]
    fn compiled_routes_match_interpreted_lookup() {
        for (what, sw, n_hosts) in built_switches() {
            let RoutingTable::PerDst {
                tables, members, ..
            } = &sw.route
            else {
                panic!("PerDst expected")
            };
            let lists: std::collections::HashSet<&[u8]> = (tables.iter().zip(members.iter()))
                .map(|(t, &n)| &t[..n as usize])
                .collect();
            assert_eq!(lists.len(), tables.len(), "{what}");
            check_rule(&sw.route, n_hosts, &vec![false; sw.ports.len()], &what);
        }
    }

    /// Failover case: the tables `without_ports` rebuilds follow the rule,
    /// for a hand-made table under every dead set and for every built
    /// switch under every single dead port.
    #[test]
    fn egress_avoiding_matches_recompiled_tables() {
        let ecmp = |first, last, level| RouteEntry::Ecmp { first, last, level };
        let rt = RoutingTable::per_dst([RouteEntry::Single(2), ecmp(2, 5, 1), ecmp(4, 5, 0)]);
        // Every dead-set over ports 2..=5.
        for mask in 0u8..16 {
            let mut dead = vec![false; 6];
            for p in 0..4 {
                dead[p + 2] = mask & (1 << p) != 0;
            }
            check_rule(&rt, 3, &dead, &format!("mask {mask:04b}"));
        }
        for (what, sw, n_hosts) in built_switches() {
            let n_ports = sw.ports.len();
            for p in 0..n_ports {
                let mut dead = vec![false; n_ports];
                dead[p] = true;
                check_rule(&sw.route, n_hosts, &dead, &format!("{what} port {p} dead"));
            }
        }
    }

    #[test]
    fn try_egress_is_none_only_when_unreachable() {
        let rt = RoutingTable::per_dst([RouteEntry::Single(6), RouteEntry::Single(7)]);
        let cut = without_ports(&rt, &[false, false, false, false, false, false, true]);
        assert_eq!(cut.try_egress(HostId(0), 0), None);
        assert_eq!(cut.try_egress(HostId(1), 0), Some(7));
        assert_eq!(rt.try_egress(HostId(0), 0), Some(6));
    }

    #[test]
    fn tree_routing_selects_by_hash() {
        let rt = RoutingTable::Trees(vec![vec![1], vec![2], vec![3]].into());
        let mut seen = std::collections::HashSet::new();
        for f in 0..100u32 {
            let h = flow_hash(HostId(0), HostId(0), FlowId(f));
            seen.insert(rt.egress(HostId(0), h));
        }
        assert_eq!(seen, [1u8, 2, 3].into_iter().collect());
    }
}
