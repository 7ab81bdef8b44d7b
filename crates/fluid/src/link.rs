//! Directed-link indexing over a [`Topology`].
//!
//! The fluid model sees the network as a set of *directed* links, each with
//! a capacity; a flow occupies the ordered set of links on its (ECMP-stable)
//! request path. This module flattens a [`Topology`] into dense link ids so
//! the allocator can use plain arrays:
//!
//! * link `h` for `h < n_hosts` is host `h`'s uplink (host → ToR);
//! * link `n_hosts + port_base[s] + p` is switch `s`'s egress port `p`
//!   (which covers both switch→switch links and the final switch→host hop).

use fncc_net::ids::{FlowId, HostId, NodeRef, SwitchId};
use fncc_net::topology::Topology;

/// Dense directed-link index over a topology.
#[derive(Clone, Debug)]
pub struct LinkMap {
    n_hosts: u32,
    /// Prefix sum of switch port counts: switch `s` owns ids
    /// `n_hosts + port_base[s] .. n_hosts + port_base[s+1]`.
    port_base: Vec<u32>,
    /// Capacity of every directed link, bits/s.
    capacity: Vec<f64>,
}

impl LinkMap {
    /// Build the link index for `topo`.
    pub fn new(topo: &Topology) -> Self {
        let n_hosts = topo.n_hosts;
        let mut port_base = Vec::with_capacity(topo.switches.len() + 1);
        let mut total = 0u32;
        for sw in &topo.switches {
            port_base.push(total);
            total += sw.ports.len() as u32;
        }
        port_base.push(total);

        let mut capacity = Vec::with_capacity((n_hosts + total) as usize);
        for hp in &topo.host_ports {
            capacity.push(hp.bw.as_f64());
        }
        for sw in &topo.switches {
            for p in &sw.ports {
                capacity.push(p.bw.as_f64());
            }
        }
        LinkMap {
            n_hosts,
            port_base,
            capacity,
        }
    }

    /// Number of directed links.
    #[inline]
    pub fn len(&self) -> usize {
        self.capacity.len()
    }

    /// True when the topology had no links (never for valid topologies).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.capacity.is_empty()
    }

    /// Capacity of link `id` in bits/s.
    #[inline]
    pub fn capacity(&self, id: u32) -> f64 {
        self.capacity[id as usize]
    }

    /// All capacities, indexed by link id.
    #[inline]
    pub fn capacities(&self) -> &[f64] {
        &self.capacity
    }

    /// Dense id of the egress at `node`, port `port`.
    #[inline]
    pub fn id_of(&self, node: NodeRef, port: u8) -> u32 {
        match node {
            NodeRef::Host(h) => h.0,
            NodeRef::Switch(s) => self.n_hosts + self.port_base[s.ix()] + port as u32,
        }
    }

    /// Reverse of [`Self::id_of`]: the `(node, egress port)` whose link is
    /// `id`. Host uplinks report port 0 (hosts have one port). Used by the
    /// hybrid backend to push fluid residual capacities onto the packet
    /// fabric's ports.
    pub fn node_of(&self, id: u32) -> (NodeRef, u8) {
        if id < self.n_hosts {
            return (NodeRef::Host(HostId(id)), 0);
        }
        let rel = id - self.n_hosts;
        // Last switch whose base is ≤ rel (ties skip port-less switches).
        let s = self.port_base.partition_point(|&b| b <= rel) - 1;
        (
            NodeRef::Switch(SwitchId(s as u32)),
            (rel - self.port_base[s]) as u8,
        )
    }

    /// The directed links on the request path of `(src → dst, flow)`, in
    /// path order (host uplink first, switch→host egress last).
    pub fn path_links(&self, topo: &Topology, src: HostId, dst: HostId, flow: FlowId) -> Vec<u32> {
        let mut out = Vec::new();
        self.path_links_into(topo, src, dst, flow, &mut out);
        out
    }

    /// [`Self::path_links`] into a caller-owned buffer (cleared first), so
    /// per-arrival hot paths reuse one allocation.
    pub fn path_links_into(
        &self,
        topo: &Topology,
        src: HostId,
        dst: HostId,
        flow: FlowId,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        out.extend(
            topo.path_hops(src, dst, flow)
                .map(|(n, p)| self.id_of(n, p)),
        );
    }

    /// The link ids of an already-traced path (`Topology::path_hops`'s
    /// `(node, egress port)` hops) into `out` (cleared first).
    pub fn ids_into(&self, hops: &[(NodeRef, u8)], out: &mut Vec<u32>) {
        out.clear();
        out.extend(hops.iter().map(|&(n, p)| self.id_of(n, p)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fncc_des::time::TimeDelta;
    use fncc_net::ids::SwitchId;
    use fncc_net::units::Bandwidth;

    const BW: Bandwidth = Bandwidth::gbps(100);
    const PROP: TimeDelta = TimeDelta::from_ns(1500);

    #[test]
    fn ids_are_dense_and_disjoint() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let lm = LinkMap::new(&topo);
        // 3 host uplinks + (3 + 2 + 2) switch ports.
        assert_eq!(lm.len(), 3 + 7);
        let mut seen = std::collections::HashSet::new();
        for h in 0..topo.n_hosts {
            assert!(seen.insert(lm.id_of(NodeRef::Host(HostId(h)), 0)));
        }
        for (s, sw) in topo.switches.iter().enumerate() {
            for p in 0..sw.ports.len() as u8 {
                assert!(seen.insert(lm.id_of(NodeRef::Switch(SwitchId(s as u32)), p)));
            }
        }
        assert_eq!(seen.len(), lm.len());
        assert!(seen.iter().all(|&id| (id as usize) < lm.len()));
    }

    #[test]
    fn node_of_inverts_id_of() {
        for topo in [
            Topology::dumbbell(2, 3, BW, PROP),
            Topology::fat_tree(4, BW, PROP),
        ] {
            let lm = LinkMap::new(&topo);
            for h in 0..topo.n_hosts {
                let node = NodeRef::Host(HostId(h));
                assert_eq!(lm.node_of(lm.id_of(node, 0)), (node, 0));
            }
            for (s, sw) in topo.switches.iter().enumerate() {
                for p in 0..sw.ports.len() as u8 {
                    let node = NodeRef::Switch(SwitchId(s as u32));
                    assert_eq!(lm.node_of(lm.id_of(node, p)), (node, p));
                }
            }
        }
    }

    #[test]
    fn path_links_follow_trace() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let lm = LinkMap::new(&topo);
        let links = lm.path_links(&topo, HostId(0), HostId(2), FlowId(0));
        // host uplink + one egress per switch on the 3-switch chain.
        assert_eq!(links.len(), 4);
        assert_eq!(links[0], 0); // host 0's uplink id
        for &l in &links {
            assert!((lm.capacity(l) - BW.as_f64()).abs() < 1.0);
        }
    }

    #[test]
    fn fat_tree_paths_have_expected_length() {
        let topo = Topology::fat_tree(4, BW, PROP);
        let lm = LinkMap::new(&topo);
        // Intra-ToR: host uplink + ToR egress.
        assert_eq!(
            lm.path_links(&topo, HostId(0), HostId(1), FlowId(0)).len(),
            2
        );
        // Inter-pod: host + ToR + Agg + Core + Agg + ToR.
        assert_eq!(
            lm.path_links(&topo, HostId(0), HostId(15), FlowId(0)).len(),
            6
        );
    }
}
