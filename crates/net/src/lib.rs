#![warn(missing_docs)]
//! `fncc-net` — the packet-level data-center network substrate.
//!
//! The FNCC paper evaluates congestion control on an OMNeT++/INET model of a
//! RoCEv2 data center. This crate is that substrate rebuilt from scratch:
//!
//! * [`packet`] — data/ACK/CNP/PFC frames with the INT stack of Fig. 7;
//! * [`port`] — store-and-forward ports with serialization, egress queues and
//!   PFC pause state;
//! * [`switch`] — output-queued shared-buffer switches implementing
//!   Algorithm 1 (`All_INT_Table`, INT-into-ACK), HPCC-style INT-into-data,
//!   RED/ECN marking for DCQCN, per-ingress PFC accounting (XOFF/XON), and
//!   the RoCC PI fair-rate controller;
//! * [`routing`] — per-destination tables with symmetric ECMP (Fig. 5) and
//!   spanning-tree unique paths (Fig. 6);
//! * [`topology`] — builders for the paper's topologies: dumbbell (Fig. 10),
//!   hop-location lines (Fig. 11), and the k=8 three-level fat-tree of §5.5;
//! * [`fabric`] — the event-driven network model gluing switches and hosts
//!   (host behaviour is supplied by `fncc-transport` through [`fabric::HostLogic`]);
//! * [`fault`] — the one fault type every engine reads, and its validator.

pub mod config;
pub mod fabric;
pub mod fault;
pub mod ids;
pub mod packet;
pub mod partition;
pub mod pool;
pub mod port;
pub mod routing;
pub mod switch;
pub mod telemetry;
pub mod topology;
pub mod units;

pub use config::{EcnConfig, FabricConfig, IntInsertion, PfcConfig, RoccSwitchConfig};
pub use fabric::{Ev, Fabric, HostCtx, HostLogic, ShardCtx};
pub use fault::FaultSpec;
pub use ids::{FlowId, HostId, NodeRef, SwitchId};
pub use packet::{IntRecord, IntStack, Packet, PacketKind, MAX_HOPS};
pub use partition::{FallbackReason, PartitionMap};
pub use pool::PacketPool;
pub use telemetry::{FlowRecord, Telemetry};
pub use topology::{Topology, TopologyKind};
pub use units::{Bandwidth, ByteSize};

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// The hot structs' sizes, pinned like the timing wheel's `Node` and
    /// `Key` (`fncc_des::wheel`): a layout change fails here with a number
    /// rather than showing up as a 1–2 % move in a later benchmark row.
    /// A frame is one cache line; its INT records live in a pooled stack.
    #[test]
    fn hot_struct_layout() {
        assert_eq!(size_of::<Packet>(), 64);
        assert_eq!(size_of::<IntRecord>(), 32);
        assert_eq!(size_of::<Option<Box<IntStack>>>(), 8);
        assert_eq!(size_of::<IntStack>(), 264);
        assert_eq!(size_of::<port::Port>(), 264);
        assert_eq!(size_of::<Telemetry>(), 528);
    }
}
