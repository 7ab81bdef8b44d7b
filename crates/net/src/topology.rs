//! Topology construction: the paper's dumbbell (Fig. 10), the hop-location
//! lines of Fig. 11, the three-level fat-tree of §5.5, a two-level
//! leaf–spine, a star, and spanning-tree routing (Fig. 6) over any of them.
//!
//! A [`Topology`] is a pure description — nodes, ports, link parameters and
//! routing tables — consumed by [`crate::fabric::Fabric`] to instantiate the
//! live simulation, and by analysis code (path tracing, ideal FCT, base-RTT
//! computation).

use crate::ids::{FlowId, HostId, NodeRef, SwitchId};
use crate::routing::{flow_hash, CompiledRoutes, RouteEntry, RoutingTable};
use crate::telemetry::FlowRecord;
use crate::units::Bandwidth;
use fncc_des::time::TimeDelta;
use std::collections::VecDeque;
use std::sync::Arc;

/// One side of a link: who is at the other end and the link's parameters.
#[derive(Clone, Debug)]
pub struct PortSpec {
    /// Node at the far end.
    pub peer: NodeRef,
    /// Port index at the far end.
    pub peer_port: u8,
    /// Link bandwidth (both directions run at the same rate).
    pub bw: Bandwidth,
    /// One-way propagation delay.
    pub prop: TimeDelta,
}

/// A switch: its ports and its routing table.
#[derive(Clone, Debug)]
pub struct SwitchSpec {
    /// Ports in index order.
    pub ports: Vec<PortSpec>,
    /// Forwarding state. Shared, not copied, by clones of the topology and
    /// by the live switches built from it: it is read-only once built.
    pub route: Arc<RoutingTable>,
}

/// Which builder produced the topology (used in reports).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Fig. 10: N senders at the first switch of a chain, receiver at the last.
    Dumbbell,
    /// Fig. 11: senders attached at arbitrary switches of a chain.
    Line,
    /// Three-level fat-tree with parameter k.
    FatTree(u32),
    /// Two-level leaf–spine (leaves, spines).
    LeafSpine(u32, u32),
    /// Single switch.
    Star,
}

/// A complete network description.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Builder provenance.
    pub kind: TopologyKind,
    /// Hosts are numbered `0..n_hosts`; each has exactly one port (port 0).
    pub n_hosts: u32,
    /// Host NIC link descriptions, indexed by host id.
    pub host_ports: Vec<PortSpec>,
    /// Switches, indexed by switch id.
    pub switches: Vec<SwitchSpec>,
}

impl Topology {
    /// Number of switches.
    pub fn n_switches(&self) -> usize {
        self.switches.len()
    }

    /// Every switch's forwarding table compiled for the hot path, by switch
    /// id (what [`crate::fabric::Fabric::with_routes`] takes).
    pub fn compile_routes(&self) -> Vec<CompiledRoutes> {
        self.switches
            .iter()
            .map(|s| CompiledRoutes::compile(&s.route))
            .collect()
    }

    /// Check structural invariants: every port's peer points back at it with
    /// matching link parameters. Panics with a description on violation.
    pub fn validate(&self) {
        assert_eq!(self.host_ports.len(), self.n_hosts as usize);
        let peer_spec = |node: NodeRef, port: u8| -> &PortSpec {
            match node {
                NodeRef::Host(h) => {
                    assert_eq!(port, 0, "host {h:?} has a single port");
                    &self.host_ports[h.ix()]
                }
                NodeRef::Switch(s) => &self.switches[s.ix()].ports[port as usize],
            }
        };
        let check = |me: NodeRef, my_port: u8, spec: &PortSpec| {
            let back = peer_spec(spec.peer, spec.peer_port);
            assert!(
                matches!((back.peer, me), (NodeRef::Host(a), NodeRef::Host(b)) if a == b)
                    || matches!((back.peer, me), (NodeRef::Switch(a), NodeRef::Switch(b)) if a == b),
                "{me:?}:{my_port} -> {:?}:{} does not point back",
                spec.peer,
                spec.peer_port
            );
            assert_eq!(
                back.peer_port, my_port,
                "{me:?}:{my_port} peer-port mismatch"
            );
            assert_eq!(back.bw, spec.bw, "{me:?}:{my_port} asymmetric bandwidth");
            assert_eq!(back.prop, spec.prop, "{me:?}:{my_port} asymmetric delay");
        };
        for (h, spec) in self.host_ports.iter().enumerate() {
            check(NodeRef::Host(HostId(h as u32)), 0, spec);
        }
        for (s, sw) in self.switches.iter().enumerate() {
            for (p, spec) in sw.ports.iter().enumerate() {
                check(NodeRef::Switch(SwitchId(s as u32)), p as u8, spec);
            }
        }
    }

    /// The request path of a flow through the forwarding tables `route`
    /// hands out per switch, walked lazily: `(node, egress port)` pairs
    /// starting at the source host and ending when the destination host is
    /// reached (the destination itself is not included). A switch whose
    /// table has no route to `dst` yields `Err` with its id and ends the
    /// walk: link faults severed the destination. Every path walk goes
    /// through here, the pristine one ([`Self::path_hops`]) and the fluid
    /// engine's around dead links alike.
    pub fn walk_path<'a>(
        &'a self,
        route: impl Fn(SwitchId) -> &'a RoutingTable + 'a,
        src: HostId,
        dst: HostId,
        flow: FlowId,
    ) -> impl Iterator<Item = Result<(NodeRef, u8), SwitchId>> + 'a {
        assert_ne!(src, dst, "flow to self");
        let h = flow_hash(src, dst, flow);
        let mut next = Some(Ok((NodeRef::Host(src), 0u8)));
        let mut hops = 0;
        std::iter::from_fn(move || {
            let hop = next.take()?;
            if let Ok((node, port)) = hop {
                hops += 1;
                assert!(hops < 64, "routing loop tracing {src:?}->{dst:?}");
                next = match self.port_spec(node, port).peer {
                    NodeRef::Host(hh) => {
                        assert_eq!(hh, dst, "path reached wrong host");
                        None
                    }
                    sw @ NodeRef::Switch(s) => {
                        Some(route(s).try_egress(dst, h).map(|p| (sw, p)).ok_or(s))
                    }
                };
            }
            Some(hop)
        })
    }

    /// The request path of a flow through the pristine tables:
    /// [`Self::walk_path`] over every switch's built route. Panics on a
    /// destination the tables do not reach (a topology-construction bug).
    pub fn path_hops(
        &self,
        src: HostId,
        dst: HostId,
        flow: FlowId,
    ) -> impl Iterator<Item = (NodeRef, u8)> + '_ {
        self.walk_path(|s| &*self.switches[s.ix()].route, src, dst, flow)
            .map(move |hop| hop.unwrap_or_else(|s| panic!("no route from {s:?} to {dst:?}")))
    }

    /// [`Self::path_hops`] into a caller-owned buffer (cleared first), for
    /// a caller that reads the path more than once.
    pub fn trace_path_into(
        &self,
        src: HostId,
        dst: HostId,
        flow: FlowId,
        path: &mut Vec<(NodeRef, u8)>,
    ) {
        path.clear();
        path.extend(self.path_hops(src, dst, flow));
    }

    /// The switches on a flow's request path, in order.
    pub fn path_switches(&self, src: HostId, dst: HostId, flow: FlowId) -> Vec<SwitchId> {
        self.path_hops(src, dst, flow)
            .filter_map(|(n, _)| match n {
                NodeRef::Switch(s) => Some(s),
                NodeRef::Host(_) => None,
            })
            .collect()
    }

    /// Bandwidth of the link out of `node` port `port`.
    fn port_spec(&self, node: NodeRef, port: u8) -> &PortSpec {
        match node {
            NodeRef::Host(h) => &self.host_ports[h.ix()],
            NodeRef::Switch(s) => &self.switches[s.ix()].ports[port as usize],
        }
    }

    /// One-way latency of a single full-size frame of `bytes` along the
    /// request path (store-and-forward: serialize at every hop + propagate).
    pub fn one_way_latency(&self, src: HostId, dst: HostId, flow: FlowId, bytes: u32) -> TimeDelta {
        let mut total = TimeDelta::ZERO;
        for (node, port) in self.path_hops(src, dst, flow) {
            let spec = self.port_spec(node, port);
            total += spec.bw.tx_time(bytes as u64) + spec.prop;
        }
        total
    }

    /// Base round-trip time for a flow: a full MTU frame out plus an ACK of
    /// `ack_bytes` back, on an idle network.
    pub fn flow_base_rtt(
        &self,
        src: HostId,
        dst: HostId,
        flow: FlowId,
        mtu: u32,
        ack_bytes: u32,
    ) -> TimeDelta {
        self.one_way_latency(src, dst, flow, mtu) + self.one_way_latency(dst, src, flow, ack_bytes)
    }

    /// Network-wide base RTT: the maximum [`Self::flow_base_rtt`] over all
    /// (or, for big networks, a diameter-covering sample of) host pairs.
    /// HPCC/FNCC use this as the window normalisation constant `T`.
    pub fn base_rtt(&self, mtu: u32, ack_bytes: u32) -> TimeDelta {
        let n = self.n_hosts;
        let mut max = TimeDelta::ZERO;
        let pairs: Vec<(u32, u32)> = if n <= 64 {
            (0..n)
                .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
                .collect()
        } else {
            // Sample host 0 against everyone plus a diagonal sweep; in the
            // regular topologies we build, the diameter is hit by host 0 vs
            // the farthest pod already.
            (1..n)
                .map(|b| (0, b))
                .chain((1..n).map(|a| (a, n - 1)).filter(|&(a, b)| a != b))
                .collect()
        };
        for (a, b) in pairs {
            let r = self.flow_base_rtt(HostId(a), HostId(b), FlowId(0), mtu, ack_bytes);
            if r > max {
                max = r;
            }
        }
        max
    }

    /// Minimum link bandwidth along an already-traced path.
    fn bandwidth_on(&self, path: &[(NodeRef, u8)]) -> Bandwidth {
        path.iter()
            .map(|&(n, p)| self.port_spec(n, p).bw)
            .min()
            .expect("empty path")
    }

    /// Ideal (contention-free) flow completion time for `size` application
    /// bytes along an already-traced request path ([`Self::path_hops`]'s
    /// hops): the last byte's arrival at the receiver on an empty network,
    /// assuming full-MTU segmentation and store-and-forward pipelining:
    /// `FCT = size_wire/B_min + Σ_hops(MTU/B_hop + prop) − MTU/B_first…`
    ///
    /// Concretely: the first frame pipelines through every hop; subsequent
    /// bytes stream at the bottleneck rate.
    pub fn ideal_fct_on(
        &self,
        path: &[(NodeRef, u8)],
        size: u64,
        mtu_payload: u32,
        header: u32,
    ) -> TimeDelta {
        let npkts = size.div_ceil(mtu_payload as u64).max(1);
        let wire_total = size + npkts * header as u64;
        let first_frame = (size.min(mtu_payload as u64) + header as u64).max(header as u64);
        let bottleneck = self.bandwidth_on(path);
        // First frame pipelines hop by hop…
        let mut t = TimeDelta::ZERO;
        for (n, p) in path {
            let spec = self.port_spec(*n, *p);
            t += spec.bw.tx_time(first_frame) + spec.prop;
        }
        // …and the remaining bytes stream behind it at the bottleneck.
        t + bottleneck.tx_time(wire_total - first_frame)
    }

    /// FCT slowdown of a finished flow: its FCT over [`Self::ideal_fct_on`]
    /// its own path, floored at 1; `None` while it is unfinished. The path
    /// is traced into `path`, a caller-owned buffer, so a report walks each
    /// flow's route once and allocates nothing per flow.
    pub fn slowdown(
        &self,
        rec: &FlowRecord,
        mtu_payload: u32,
        header: u32,
        path: &mut Vec<(NodeRef, u8)>,
    ) -> Option<f64> {
        let fct = rec.fct()?;
        self.trace_path_into(rec.src, rec.dst, rec.flow, path);
        let ideal = self.ideal_fct_on(path, rec.size, mtu_payload, header);
        Some((fct.as_secs_f64() / ideal.as_secs_f64().max(f64::MIN_POSITIVE)).max(1.0))
    }

    // ------------------------------------------------------------------
    // Builders
    // ------------------------------------------------------------------

    /// Fig. 10 dumbbell: `n_senders` hosts at switch 0, a chain of
    /// `m_switches`, and one receiver (host id `n_senders`) at the last
    /// switch. All links at `bw` with `prop` one-way delay.
    pub fn dumbbell(n_senders: u32, m_switches: u32, bw: Bandwidth, prop: TimeDelta) -> Topology {
        let attach = vec![0usize; n_senders as usize];
        let mut t = Self::line(m_switches, &attach, bw, prop);
        t.kind = TopologyKind::Dumbbell;
        t
    }

    /// Fig. 11 generalised line: a chain of `m_switches`; sender `i` attaches
    /// to switch `sender_attach[i]`; the single receiver (host id
    /// `sender_attach.len()`) attaches to the last switch.
    ///
    /// * first-hop congestion: `&[0, 0]`
    /// * middle-hop congestion (m=3): `&[0, 1]`
    /// * last-hop congestion (m=3): `&[0, 2]`
    pub fn line(
        m_switches: u32,
        sender_attach: &[usize],
        bw: Bandwidth,
        prop: TimeDelta,
    ) -> Topology {
        assert!(m_switches >= 1);
        let m = m_switches as usize;
        assert!(
            sender_attach.iter().all(|&a| a < m),
            "attachment beyond chain"
        );
        // Every host's switch: each sender's, then the receiver's (the last).
        let at: Vec<usize> = sender_attach.iter().copied().chain([m - 1]).collect();
        let mut w = Wiring::new(at.len(), m, 2, bw, prop);
        let host_port: Vec<u8> = (0..at.len())
            .map(|h| w.attach(HostId(h as u32), SwitchId(at[h] as u32)))
            .collect();
        // Chain links j <-> j+1: switch j's port rightwards, j+1's leftwards.
        let mut right = vec![0u8; m];
        let mut left = vec![0u8; m];
        for j in 1..m {
            (right[j - 1], left[j]) = w.link(SwitchId(j as u32 - 1), SwitchId(j as u32));
        }
        // Towards a host: its own port at its switch, else along the chain.
        w.finish(TopologyKind::Line, |s, h| {
            let (j, a) = (s.ix(), at[h.ix()]);
            RouteEntry::Single(match a.cmp(&j) {
                std::cmp::Ordering::Equal => host_port[h.ix()],
                std::cmp::Ordering::Less => left[j],
                std::cmp::Ordering::Greater => right[j],
            })
        })
    }

    /// Single-switch star over `n_hosts`.
    pub fn star(n_hosts: u32, bw: Bandwidth, prop: TimeDelta) -> Topology {
        assert!(n_hosts >= 2);
        let mut w = Wiring::new(n_hosts as usize, 1, n_hosts as usize, bw, prop);
        for h in 0..n_hosts {
            w.attach(HostId(h), SwitchId(0));
        }
        w.finish(TopologyKind::Star, |_, h| RouteEntry::Single(h.0 as u8))
    }

    /// Three-level fat-tree with parameter `k` (even): `k³/4` hosts,
    /// `k²/2 + k²/4` switches, canonical wiring so symmetric ECMP holds
    /// (see [`crate::routing`]). The paper uses k=8 (128 hosts) with all
    /// links at 100 Gb/s and 1.5 µs propagation delay (1:1 oversubscription).
    ///
    /// Ports: a ToR's hosts, then its pod's aggs; an agg's pod ToRs, then
    /// its `half` cores; a core's one agg per pod, in pod order.
    pub fn fat_tree(k: u32, bw: Bandwidth, prop: TimeDelta) -> Topology {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree k must be even");
        let half = k / 2;
        let hosts_per_pod = half * half;
        let n_hosts = k * hosts_per_pod;
        let n_tor = k * half;
        let n_agg = k * half;
        let tor_id = |p: u32, t: u32| SwitchId(p * half + t);
        let agg_id = |p: u32, a: u32| SwitchId(n_tor + p * half + a);
        let core_id = |j: u32| SwitchId(n_tor + n_agg + j);
        let pod_of = |h: HostId| h.0 / hosts_per_pod;
        let tor_of = |h: HostId| (h.0 % hosts_per_pod) / half;

        let n_sw = (n_tor + n_agg + half * half) as usize;
        let mut w = Wiring::new(n_hosts as usize, n_sw, k as usize, bw, prop);
        for h in 0..n_hosts {
            w.attach(HostId(h), SwitchId(h / half));
        }
        for p in 0..k {
            for t in 0..half {
                for a in 0..half {
                    w.link(tor_id(p, t), agg_id(p, a));
                }
            }
        }
        for p in 0..k {
            for a in 0..half {
                for c in 0..half {
                    w.link(agg_id(p, a), core_id(a * half + c));
                }
            }
        }
        // Down along the unique tree path; up by ECMP (hash digit = tier).
        // Range checks, not divisions: this rule runs once per table entry.
        let tor_hosts = |s: u32| s * half..(s + 1) * half;
        let pod_aggs = |h| agg_id(pod_of(h), 0).0..agg_id(pod_of(h), half).0;
        let up = |level| RouteEntry::Ecmp {
            ports: (half as u8..k as u8).collect(),
            level,
        };
        w.finish(TopologyKind::FatTree(k), |s, h| match s.0 {
            s if s < n_tor && tor_hosts(s).contains(&h.0) => RouteEntry::Single((h.0 % half) as u8),
            s if s < n_tor => up(0),
            s if s < n_tor + n_agg && pod_aggs(h).contains(&s) => {
                RouteEntry::Single(tor_of(h) as u8)
            }
            s if s < n_tor + n_agg => up(1),
            _ => RouteEntry::Single(pod_of(h) as u8),
        })
    }

    /// Two-level leaf–spine: `leaves` leaf switches with `hosts_per_leaf`
    /// hosts each, every leaf wired to every one of `spines` spine switches.
    /// All links run at `bw`, so the fabric oversubscription ratio is
    /// `hosts_per_leaf / spines` — pick `hosts_per_leaf > spines` for an
    /// oversubscribed fabric (e.g. 8 hosts over 2 spines = 4:1).
    ///
    /// Routing is symmetric ECMP exactly as in the fat-tree's lower levels:
    /// the leaf's up-choice uses hash digit 0 over uplinks in canonical
    /// (spine-index) order, so a flow's ACKs retrace its data path and
    /// FNCC's return-path INT stays valid.
    pub fn leaf_spine(
        leaves: u32,
        spines: u32,
        hosts_per_leaf: u32,
        bw: Bandwidth,
        prop: TimeDelta,
    ) -> Topology {
        assert!(leaves >= 2 && spines >= 1 && hosts_per_leaf >= 1);
        assert!(
            hosts_per_leaf + spines <= u8::MAX as u32 + 1,
            "leaf port count exceeds u8 port indices"
        );
        assert!(leaves <= u8::MAX as u32 + 1, "spine port count exceeds u8");
        let n_hosts = leaves * hosts_per_leaf;
        let leaf_of = |h: HostId| h.0 / hosts_per_leaf;

        let radix = (hosts_per_leaf + spines).max(leaves) as usize;
        let n_sw = (leaves + spines) as usize;
        let mut w = Wiring::new(n_hosts as usize, n_sw, radix, bw, prop);
        for h in 0..n_hosts {
            w.attach(HostId(h), SwitchId(h / hosts_per_leaf));
        }
        // Leaf ports: hosts first, then one uplink per spine; spine port l
        // goes to leaf l.
        for l in 0..leaves {
            for s in 0..spines {
                w.link(SwitchId(l), SwitchId(leaves + s));
            }
        }
        w.finish(TopologyKind::LeafSpine(leaves, spines), |s, h| match s.0 {
            l if l < leaves && l == leaf_of(h) => RouteEntry::Single((h.0 % hosts_per_leaf) as u8),
            l if l < leaves => RouteEntry::Ecmp {
                ports: (hosts_per_leaf as u8..(hosts_per_leaf + spines) as u8).collect(),
                level: 0,
            },
            _ => RouteEntry::Single(leaf_of(h) as u8),
        })
    }

    /// Replace every switch's routing table with spanning-tree routing
    /// (Fig. 6): `n_trees` BFS trees rooted at distinct switches; a flow's
    /// hash picks the tree, and within a tree every path is unique — so data
    /// and ACK paths are identical by construction.
    pub fn with_spanning_trees(mut self, n_trees: usize) -> Topology {
        assert!(n_trees >= 1);
        let n_sw = self.switches.len();
        assert!(n_sw >= 1);
        // Build switch-level adjacency: (switch, port) -> peer switch.
        // Tree edges are chosen among switch-switch links; host links are
        // leaves present in every tree.
        let mut trees_per_switch: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n_sw];
        for t in 0..n_trees {
            let root = t % n_sw;
            // BFS over switches from the root, remembering the port used to
            // reach each switch (towards-parent port).
            let mut parent_port: Vec<Option<u8>> = vec![None; n_sw]; // my port towards parent
            let mut visited = vec![false; n_sw];
            let mut order = VecDeque::new();
            visited[root] = true;
            order.push_back(root);
            let mut bfs: Vec<usize> = Vec::with_capacity(n_sw);
            while let Some(s) = order.pop_front() {
                bfs.push(s);
                // Rotate port scan order by tree index for path diversity.
                let nports = self.switches[s].ports.len();
                for off in 0..nports {
                    let p = (off + t) % nports;
                    if let NodeRef::Switch(peer) = self.switches[s].ports[p].peer {
                        if !visited[peer.ix()] {
                            visited[peer.ix()] = true;
                            parent_port[peer.ix()] = Some(self.switches[s].ports[p].peer_port);
                            order.push_back(peer.ix());
                        }
                    }
                }
            }
            assert!(visited.iter().all(|&v| v), "switch graph is disconnected");

            // Within the tree, compute next-hop-towards-host for every
            // switch by BFS from each host's attachment point along tree
            // edges only.
            let tree_edge = |s: usize, p: u8| -> Option<usize> {
                match self.switches[s].ports[p as usize].peer {
                    NodeRef::Switch(peer) => {
                        let q = self.switches[s].ports[p as usize].peer_port;
                        // Edge (s,p)<->(peer,q) is in the tree iff one side
                        // reaches its parent through it.
                        if parent_port[s] == Some(p) || parent_port[peer.ix()] == Some(q) {
                            Some(peer.ix())
                        } else {
                            None
                        }
                    }
                    NodeRef::Host(_) => None,
                }
            };

            let mut table: Vec<Vec<u8>> = vec![vec![0; self.n_hosts as usize]; n_sw];
            for h in 0..self.n_hosts {
                let attach = match self.host_ports[h as usize].peer {
                    NodeRef::Switch(s) => s.ix(),
                    NodeRef::Host(_) => panic!("host attached to host"),
                };
                let attach_port = self.host_ports[h as usize].peer_port;
                // towards[s] = egress port at s on the unique tree path to h.
                let mut towards: Vec<Option<u8>> = vec![None; n_sw];
                towards[attach] = Some(attach_port);
                let mut q = VecDeque::new();
                q.push_back(attach);
                while let Some(s) = q.pop_front() {
                    for p in 0..self.switches[s].ports.len() as u8 {
                        if let Some(peer) = tree_edge(s, p) {
                            if towards[peer].is_none() {
                                towards[peer] = Some(self.switches[s].ports[p as usize].peer_port);
                                q.push_back(peer);
                            }
                        }
                    }
                }
                for s in 0..n_sw {
                    table[s][h as usize] = towards[s].expect("host unreachable in spanning tree");
                }
            }
            for (s, tbl) in table.into_iter().enumerate() {
                trees_per_switch[s].push(tbl);
            }
        }
        for (s, trees) in trees_per_switch.into_iter().enumerate() {
            self.switches[s].route = Arc::new(RoutingTable::Trees(trees));
        }
        self
    }
}

/// Port bookkeeping shared by the builders. Each switch numbers its ports
/// in the order links reach it, so a builder fixes its port layout by the
/// order it calls [`Wiring::attach`] and [`Wiring::link`] in.
struct Wiring {
    bw: Bandwidth,
    prop: TimeDelta,
    host_ports: Vec<PortSpec>,
    ports: Vec<Vec<PortSpec>>,
}

impl Wiring {
    /// Room for `n_hosts` hosts and `n_switches` switches of `radix` ports;
    /// every link runs at `bw` with `prop` one-way delay.
    fn new(
        n_hosts: usize,
        n_switches: usize,
        radix: usize,
        bw: Bandwidth,
        prop: TimeDelta,
    ) -> Self {
        Wiring {
            bw,
            prop,
            host_ports: Vec::with_capacity(n_hosts),
            ports: (0..n_switches).map(|_| Vec::with_capacity(radix)).collect(),
        }
    }

    /// A port facing `peer`'s port `peer_port`.
    fn end(&self, peer: NodeRef, peer_port: u8) -> PortSpec {
        PortSpec {
            peer,
            peer_port,
            bw: self.bw,
            prop: self.prop,
        }
    }

    /// Attach host `h` (hosts attach in id order) to switch `s`; returns
    /// the switch's port.
    fn attach(&mut self, h: HostId, s: SwitchId) -> u8 {
        debug_assert_eq!(h.ix(), self.host_ports.len(), "hosts attach in id order");
        let p = self.ports[s.ix()].len() as u8;
        let down = self.end(NodeRef::Host(h), 0);
        self.ports[s.ix()].push(down);
        self.host_ports.push(self.end(NodeRef::Switch(s), p));
        p
    }

    /// Link switches `a` and `b`; returns `(a's port, b's port)`.
    fn link(&mut self, a: SwitchId, b: SwitchId) -> (u8, u8) {
        debug_assert_ne!(a, b, "self-link");
        let pa = self.ports[a.ix()].len() as u8;
        let pb = self.ports[b.ix()].len() as u8;
        let to_b = self.end(NodeRef::Switch(b), pb);
        let to_a = self.end(NodeRef::Switch(a), pa);
        self.ports[a.ix()].push(to_b);
        self.ports[b.ix()].push(to_a);
        (pa, pb)
    }

    /// Give every switch the table `route(switch, dst)` over all hosts and
    /// check the result.
    fn finish(
        self,
        kind: TopologyKind,
        route: impl Fn(SwitchId, HostId) -> RouteEntry,
    ) -> Topology {
        let n_hosts = self.host_ports.len() as u32;
        let switches = (self.ports.into_iter().enumerate())
            .map(|(s, ports)| {
                let s = SwitchId(s as u32);
                let entries = (0..n_hosts).map(|h| route(s, HostId(h))).collect();
                SwitchSpec {
                    ports,
                    route: Arc::new(RoutingTable::PerDst(entries)),
                }
            })
            .collect();
        let t = Topology {
            kind,
            n_hosts,
            host_ports: self.host_ports,
            switches,
        };
        t.validate();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: Bandwidth = Bandwidth::gbps(100);
    const PROP: TimeDelta = TimeDelta::from_us(2); // 1.5us rounded for tests

    #[test]
    fn dumbbell_shape() {
        let t = Topology::dumbbell(2, 3, BW, PROP);
        assert_eq!(t.n_hosts, 3);
        assert_eq!(t.n_switches(), 3);
        // sw0: 2 host ports + uplink; sw1: 2 chain ports; sw2: receiver + chain.
        assert_eq!(t.switches[0].ports.len(), 3);
        assert_eq!(t.switches[1].ports.len(), 2);
        assert_eq!(t.switches[2].ports.len(), 2);
    }

    #[test]
    fn dumbbell_paths() {
        let t = Topology::dumbbell(2, 3, BW, PROP);
        let path = t.path_switches(HostId(0), HostId(2), FlowId(0));
        assert_eq!(path, vec![SwitchId(0), SwitchId(1), SwitchId(2)]);
        // Reverse path visits the same switches reversed.
        let back = t.path_switches(HostId(2), HostId(0), FlowId(0));
        assert_eq!(back, vec![SwitchId(2), SwitchId(1), SwitchId(0)]);
    }

    /// With the bottleneck uplink (switch 0, port 2) cut out of switch 0's
    /// table, the walk ends at switch 0 with an `Err` naming it.
    #[test]
    fn walk_path_reports_the_severing_switch() {
        let t = Topology::dumbbell(2, 3, BW, PROP);
        let cut = crate::routing::without_ports(&t.switches[0].route, &[false, false, true]);
        let table = |s: SwitchId| match s {
            SwitchId(0) => &cut,
            _ => &*t.switches[s.ix()].route,
        };
        let hops: Vec<_> = t
            .walk_path(table, HostId(0), HostId(2), FlowId(0))
            .collect();
        assert!(hops == [Ok((NodeRef::Host(HostId(0)), 0)), Err(SwitchId(0))]);
        // Host 1 still reaches host 0 through the same switch.
        let local: Vec<_> = t
            .walk_path(table, HostId(1), HostId(0), FlowId(0))
            .collect();
        assert!(local.iter().all(Result::is_ok) && local.len() == 2);
    }

    #[test]
    fn line_attachment_paths() {
        // Fig. 11b: sender1 joins at the last switch.
        let t = Topology::line(3, &[0, 2], BW, PROP);
        assert_eq!(
            t.path_switches(HostId(0), HostId(2), FlowId(0)),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)]
        );
        assert_eq!(
            t.path_switches(HostId(1), HostId(2), FlowId(0)),
            vec![SwitchId(2)]
        );
        // And middle-hop attach.
        let t = Topology::line(3, &[0, 1], BW, PROP);
        assert_eq!(
            t.path_switches(HostId(1), HostId(2), FlowId(0)),
            vec![SwitchId(1), SwitchId(2)]
        );
    }

    #[test]
    fn line_routes_between_senders() {
        let t = Topology::line(3, &[0, 2], BW, PROP);
        // sender1 -> sender0 goes left along the chain.
        assert_eq!(
            t.path_switches(HostId(1), HostId(0), FlowId(0)),
            vec![SwitchId(2), SwitchId(1), SwitchId(0)]
        );
    }

    #[test]
    fn star_paths_are_single_hop() {
        let t = Topology::star(5, BW, PROP);
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    assert_eq!(
                        t.path_switches(HostId(a), HostId(b), FlowId(0)),
                        vec![SwitchId(0)]
                    );
                }
            }
        }
    }

    #[test]
    fn fat_tree_counts() {
        let t = Topology::fat_tree(4, BW, PROP);
        assert_eq!(t.n_hosts, 16);
        assert_eq!(t.n_switches(), 8 + 8 + 4);
        let t8 = Topology::fat_tree(8, BW, PROP);
        assert_eq!(t8.n_hosts, 128);
        assert_eq!(t8.n_switches(), 32 + 32 + 16);
    }

    #[test]
    fn fat_tree_intra_tor_path() {
        let t = Topology::fat_tree(4, BW, PROP);
        // hosts 0 and 1 share ToR 0.
        assert_eq!(
            t.path_switches(HostId(0), HostId(1), FlowId(0)),
            vec![SwitchId(0)]
        );
    }

    #[test]
    fn fat_tree_inter_pod_path_has_five_switches() {
        let t = Topology::fat_tree(8, BW, PROP);
        let p = t.path_switches(HostId(0), HostId(127), FlowId(3));
        assert_eq!(p.len(), 5, "ToR-Agg-Core-Agg-ToR, got {p:?}");
    }

    #[test]
    fn fat_tree_paths_are_symmetric_for_acks() {
        // The FNCC prerequisite: ACK path == reversed data path, for many
        // flows and pairs.
        let t = Topology::fat_tree(8, BW, PROP);
        for f in 0..40u32 {
            let src = HostId((f * 13) % 128);
            let dst = HostId((f * 57 + 31) % 128);
            if src == dst {
                continue;
            }
            let fwd = t.path_switches(src, dst, FlowId(f));
            let mut rev = t.path_switches(dst, src, FlowId(f));
            rev.reverse();
            assert_eq!(fwd, rev, "asymmetric path for flow {f} {src:?}->{dst:?}");
        }
    }

    #[test]
    fn fat_tree_ecmp_uses_multiple_cores() {
        let t = Topology::fat_tree(8, BW, PROP);
        let mut cores_seen = std::collections::HashSet::new();
        for f in 0..64u32 {
            let p = t.path_switches(HostId(0), HostId(127), FlowId(f));
            cores_seen.insert(p[2]); // middle switch is the core
        }
        assert!(
            cores_seen.len() > 8,
            "ECMP concentrated on {} cores",
            cores_seen.len()
        );
    }

    #[test]
    fn leaf_spine_shape_and_paths() {
        // 4 leaves × 8 hosts over 2 spines: 4:1 oversubscription.
        let t = Topology::leaf_spine(4, 2, 8, BW, PROP);
        assert_eq!(t.n_hosts, 32);
        assert_eq!(t.n_switches(), 6);
        for l in 0..4 {
            assert_eq!(t.switches[l].ports.len(), 10);
        }
        for s in 4..6 {
            assert_eq!(t.switches[s].ports.len(), 4);
        }
        // Intra-leaf: one switch; inter-leaf: leaf–spine–leaf.
        assert_eq!(
            t.path_switches(HostId(0), HostId(1), FlowId(0)),
            vec![SwitchId(0)]
        );
        let p = t.path_switches(HostId(0), HostId(31), FlowId(5));
        assert_eq!(p.len(), 3, "leaf-spine-leaf, got {p:?}");
        assert_eq!(p[0], SwitchId(0));
        assert_eq!(p[2], SwitchId(3));
        assert!(p[1].0 >= 4 && p[1].0 < 6, "middle hop not a spine: {p:?}");
    }

    #[test]
    fn leaf_spine_paths_are_symmetric_and_spread() {
        let t = Topology::leaf_spine(6, 4, 6, BW, PROP);
        let mut spines_seen = std::collections::HashSet::new();
        for f in 0..60u32 {
            let src = HostId((f * 7) % 36);
            let dst = HostId((f * 13 + 11) % 36);
            if src == dst {
                continue;
            }
            let fwd = t.path_switches(src, dst, FlowId(f));
            let mut rev = t.path_switches(dst, src, FlowId(f));
            rev.reverse();
            assert_eq!(fwd, rev, "asymmetric leaf-spine path, flow {f}");
            if fwd.len() == 3 {
                spines_seen.insert(fwd[1]);
            }
        }
        assert!(spines_seen.len() >= 3, "ECMP stuck on {spines_seen:?}");
    }

    #[test]
    fn base_rtt_dumbbell_matches_hand_computation() {
        let prop = TimeDelta::from_ns(1500);
        let t = Topology::dumbbell(2, 3, BW, prop);
        // 4 links each way: 4*(1518B tx + prop) + 4*(70B tx + prop)
        let mtu_tx = BW.tx_time(1518);
        let ack_tx = BW.tx_time(70);
        let expect = (mtu_tx + prop) * 4 + (ack_tx + prop) * 4;
        assert_eq!(t.base_rtt(1518, 70), expect);
        // ~12.6 us, the paper's scale.
        assert!((t.base_rtt(1518, 70).as_us_f64() - 12.5).abs() < 0.5);
    }

    #[test]
    fn ideal_fct_single_packet() {
        let prop = TimeDelta::from_ns(1500);
        let t = Topology::dumbbell(2, 3, BW, prop);
        // One 1000-byte packet + 62B header over 4 links.
        let path: Vec<_> = t.path_hops(HostId(0), HostId(2), FlowId(0)).collect();
        let fct = t.ideal_fct_on(&path, 1000, 1456, 62);
        let expect = (BW.tx_time(1062) + prop) * 4;
        assert_eq!(fct, expect);
    }

    #[test]
    fn ideal_fct_streams_at_bottleneck() {
        let prop = TimeDelta::from_ns(1500);
        let t = Topology::dumbbell(2, 3, BW, prop);
        let size = 10_000_000u64; // 10 MB
        let path: Vec<_> = t.path_hops(HostId(0), HostId(2), FlowId(0)).collect();
        let fct = t.ideal_fct_on(&path, size, 1456, 62);
        // Dominated by size/bw: 10MB*8/100G = 800us (plus ~5% header).
        let lower = 0.8 * 1.04; // ms
        assert!(fct.as_secs_f64() * 1e3 > lower && fct.as_secs_f64() * 1e3 < 0.9);
    }

    #[test]
    fn spanning_tree_paths_are_symmetric_and_unique() {
        let t = Topology::fat_tree(4, BW, PROP).with_spanning_trees(4);
        for f in 0..30u32 {
            let src = HostId((f * 5) % 16);
            let dst = HostId((f * 11 + 3) % 16);
            if src == dst {
                continue;
            }
            let fwd = t.path_switches(src, dst, FlowId(f));
            let mut rev = t.path_switches(dst, src, FlowId(f));
            rev.reverse();
            assert_eq!(fwd, rev, "asymmetric spanning-tree path flow {f}");
        }
    }

    #[test]
    fn spanning_trees_give_path_diversity() {
        let t = Topology::fat_tree(4, BW, PROP).with_spanning_trees(4);
        let mut distinct = std::collections::HashSet::new();
        for f in 0..50u32 {
            distinct.insert(t.path_switches(HostId(0), HostId(15), FlowId(f)));
        }
        assert!(distinct.len() >= 2, "all flows took one tree path");
    }

    #[test]
    fn validate_passes_on_all_builders() {
        Topology::dumbbell(4, 3, BW, PROP).validate();
        Topology::line(3, &[0, 1], BW, PROP).validate();
        Topology::star(8, BW, PROP).validate();
        Topology::fat_tree(4, BW, PROP).validate();
        Topology::leaf_spine(3, 2, 4, BW, PROP).validate();
    }

    /// Every builder's exact layout — ports, peers and route tables — as
    /// the FNV-1a hash of its `Debug` text.
    #[test]
    fn topology_layouts_are_pinned() {
        let p = TimeDelta::from_ns(1500);
        let layouts = [
            Topology::dumbbell(4, 3, BW, p),
            Topology::line(3, &[0, 1], BW, p),
            Topology::line(3, &[0, 2, 1, 0], BW, p),
            Topology::line(1, &[0, 0], BW, p),
            Topology::star(8, BW, p),
            Topology::fat_tree(4, BW, p),
            Topology::fat_tree(8, BW, p),
            Topology::leaf_spine(3, 2, 4, BW, p),
            Topology::fat_tree(4, BW, p).with_spanning_trees(4),
        ];
        let fnv1a = |t: &Topology| {
            let fold = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x100000001b3);
            format!(
                "{:016x}",
                format!("{t:?}").bytes().fold(0xcbf29ce484222325, fold)
            )
        };
        let got: Vec<String> = layouts.iter().map(fnv1a).collect();
        let want = [
            "ef8740a0d64aad86",
            "b22731e8ff840800",
            "791fa8234ba1f30c",
            "8d40b49abf849967",
            "9b4b996b33d6d0f0",
            "590fe4bcf99518ea",
            "bdab827bdb182d1e",
            "3fa7d977807d3190",
            "84c1913c82582552",
        ];
        assert_eq!(got, want, "a layout moved");
    }
}
