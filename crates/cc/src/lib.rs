#![warn(missing_docs)]
//! `fncc-cc` — congestion-control state machines.
//!
//! Every scheme is a small *policy* struct (its control law and nothing
//! else) mounted on the shared [`Datapath`], which owns the per-flow
//! window/rate, the window→pacing derivation, measurement delivery, and
//! tick scheduling — see [`datapath`]. One module per algorithm, all
//! re-implemented from their papers:
//!
//! * [`hpcc`] — HPCC (SIGCOMM'19), exactly Algorithm 3 of the FNCC paper:
//!   INT-driven window law with per-ACK + per-RTT reference window.
//! * [`fncc`] — the paper's contribution: HPCC's law fed by *return-path*
//!   INT, plus the Last-Hop Congestion Speedup of Algorithm 2.
//! * [`dcqcn`] — DCQCN (SIGCOMM'15): ECN/CNP rate control with fast
//!   recovery, additive and hyper increase.
//! * [`rocc`] — RoCC (CoNEXT'20) sender side: adopt the switch-computed fair
//!   rate echoed in ACKs.
//! * [`timely`], [`swift`] — RTT/delay-based baselines (§6 related work),
//!   provided as extensions for ablation studies.
//! * [`fairq`], [`throttle`] — extension schemes bounding the design space:
//!   receiver-count fair-share windows (arXiv:2401.04850) and bare ECN
//!   throttling with progressive restoration (arXiv:2511.05149).
//!
//! Algorithms are dispatched through the [`CcFlow`] enum (static dispatch in
//! the per-ACK hot path). Each policy declares the fabric features it needs
//! in a [`Registration`]; the transport layer wires switches from that.
//! Every scheme is declared once, as one line of the `schemes!` table in
//! this file, which derives [`CcKind`], [`CcAlgo`], [`CcFlow`] and
//! [`make_algo`]. Adding a scheme is one policy module plus that line; the
//! compiler then asks for its one arm in the fluid backend's
//! `RateModel::paper_default`, which carries every fluid and hybrid
//! constant of the scheme.

pub mod ack;
pub mod datapath;
pub mod dcqcn;
pub mod fairq;
pub mod fncc;
pub mod hpcc;
pub mod rocc;
pub mod swift;
pub mod throttle;
pub mod timely;

pub use ack::AckView;
pub use datapath::{CcPolicy, Datapath, IntNeed, Measurements, Registration, Transmit};
pub use dcqcn::{DcqcnConfig, DcqcnFlow, DcqcnPolicy};
pub use fairq::{FairQConfig, FairQFlow, FairQPolicy};
pub use fncc::{FnccConfig, FnccFlow, FnccPolicy, LhcsConfig};
pub use hpcc::{HpccConfig, HpccFlow, HpccPolicy};
pub use rocc::{RoccConfig, RoccFlow, RoccPolicy};
pub use swift::{SwiftConfig, SwiftFlow, SwiftPolicy};
pub use throttle::{ThrottleConfig, ThrottleFlow, ThrottlePolicy};
pub use timely::{TimelyConfig, TimelyFlow, TimelyPolicy};

use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::units::Bandwidth;

/// Derives every per-scheme item from one line per scheme,
/// `Variant "name" Config Policy Flow => paper-default config`: the
/// [`CcKind`], [`CcAlgo`] and [`CcFlow`] enums, their per-variant matches,
/// the static-dispatch `each_flow!` and [`make_algo`]. The leading `$` is
/// passed through so the expansion can define `each_flow!`; the
/// parenthesised names are `make_algo`'s line-rate and base-RTT parameters
/// as the defaults below read them.
macro_rules! schemes {
    ($d:tt ($line:ident, $rtt:ident);
     $($v:ident $name:literal $config:ident $policy:ident $flow:ident => $default:expr;)*) => {
        /// Which congestion-control scheme a simulation runs.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum CcKind {
            $(#[doc = concat!("The ", $name, " scheme ([`", stringify!($policy), "`]).")] $v,)*
        }

        impl CcKind {
            /// Every scheme the repo implements, in canonical order. Anything
            /// that must cover *all* schemes — fluid-model calibration,
            /// cross-backend validation, exhaustiveness tests — iterates this
            /// slice instead of a hand-maintained list, so a future scheme
            /// cannot silently miss them. New schemes append (existing indices
            /// are load-bearing for per-scheme tables and checked-in
            /// calibration artifacts).
            pub const ALL: [CcKind; [$($name),*].len()] = [$(CcKind::$v),*];

            /// This scheme's position in [`CcKind::ALL`] — a stable dense
            /// index for per-scheme tables (e.g. the fluid calibration set).
            pub fn index(self) -> usize {
                self as usize
            }

            /// Display name matching the paper's figure legends.
            pub fn name(self) -> &'static str {
                match self {
                    $(CcKind::$v => $name,)*
                }
            }

            /// The fabric features this scheme's policy declares. The
            /// transport layer translates this into switch configuration;
            /// there is no per-scheme feature match outside the policies
            /// themselves.
            pub fn registration(self) -> Registration {
                match self {
                    $(CcKind::$v => $policy::REGISTRATION,)*
                }
            }
        }

        /// Per-scheme configuration, used to spawn per-flow state.
        #[derive(Clone, Debug)]
        pub enum CcAlgo {
            $(#[doc = concat!($name, " configuration.")] $v($config),)*
        }

        impl CcAlgo {
            /// The scheme this configuration belongs to.
            pub fn kind(&self) -> CcKind {
                match self {
                    $(CcAlgo::$v(_) => CcKind::$v,)*
                }
            }

            /// Spawn fresh per-flow state: mount the scheme's policy on the
            /// shared datapath.
            pub fn new_flow(&self) -> CcFlow {
                match self {
                    $(CcAlgo::$v(c) => CcFlow::$v(Datapath::new($policy::new(c.clone()))),)*
                }
            }
        }

        /// Per-flow congestion-control state: each variant is the scheme's
        /// policy mounted on the shared [`Datapath`]. The transport host
        /// talks only to the uniform datapath surface below.
        #[derive(Clone, Debug)]
        pub enum CcFlow {
            $(#[doc = concat!($name, " per-flow state.")] $v($flow),)*
        }

        /// Apply one datapath operation uniformly across the scheme enum
        /// (static dispatch — no vtables in the per-ACK path).
        macro_rules! each_flow {
            ($d flow:expr, $d f:ident => $d body:expr) => {
                match $d flow {
                    $(CcFlow::$v($d f) => $d body,)*
                }
            };
        }

        /// Build a CC configuration with paper defaults for `kind` on a
        /// network with the given line rate and base RTT.
        pub fn make_algo(kind: CcKind, $line: Bandwidth, $rtt: TimeDelta) -> CcAlgo {
            match kind {
                $(CcKind::$v => CcAlgo::$v($default),)*
            }
        }
    };
}

// One line per scheme, in `CcKind::ALL` order: the variant order is the
// index order, so a new scheme appends.
schemes! {
    $ (line, base_rtt);
    Fncc "FNCC" FnccConfig FnccPolicy FnccFlow => FnccConfig::paper_default(line, base_rtt);
    Hpcc "HPCC" HpccConfig HpccPolicy HpccFlow => HpccConfig::paper_default(line, base_rtt);
    Dcqcn "DCQCN" DcqcnConfig DcqcnPolicy DcqcnFlow => DcqcnConfig::paper_default(line);
    Rocc "RoCC" RoccConfig RoccPolicy RoccFlow => RoccConfig::paper_default(line);
    Timely "Timely" TimelyConfig TimelyPolicy TimelyFlow => TimelyConfig::paper_default(line, base_rtt);
    Swift "Swift" SwiftConfig SwiftPolicy SwiftFlow => SwiftConfig::paper_default(line, base_rtt);
    FairQ "FairQ" FairQConfig FairQPolicy FairQFlow => FairQConfig::paper_default(line, base_rtt);
    Throttle "Throttle" ThrottleConfig ThrottlePolicy ThrottleFlow => ThrottleConfig::paper_default(line);
}

impl CcKind {
    /// INT stamped on ACKs (FNCC) accumulates along the *return* path, so
    /// the record order is reversed relative to the request path and must
    /// be normalised before running the window law.
    pub fn int_in_ack_reversed(self) -> bool {
        matches!(self.registration().int, IntNeed::OnAck { .. })
    }
}

impl core::fmt::Display for CcKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl CcFlow {
    /// Sending-window limit in bytes, if the scheme is window-based.
    pub fn window_bytes(&self) -> Option<f64> {
        each_flow!(self, f => f.window_bytes())
    }

    /// Pacing rate in bits/s.
    pub fn pacing_rate_bps(&self) -> f64 {
        each_flow!(self, f => f.pacing_rate_bps())
    }

    /// Process an acknowledgment (INT already normalised to request-path
    /// order).
    pub fn on_ack(&mut self, ack: &AckView<'_>) {
        each_flow!(self, f => f.on_ack(ack))
    }

    /// Process a congestion-notification packet (ECN mark echo).
    pub fn on_cnp(&mut self, now: SimTime) {
        each_flow!(self, f => f.on_cnp(now))
    }

    /// Account transmitted payload bytes (byte-counter stage drivers).
    pub fn on_sent(&mut self, bytes: u64) {
        each_flow!(self, f => f.on_sent(bytes))
    }

    /// A retransmission timeout fired for this flow: collapse the transmit
    /// state to the scheme's floor (see [`datapath::CcPolicy::on_timeout`]).
    pub fn on_timeout(&mut self, now: SimTime) {
        each_flow!(self, f => f.on_timeout(now))
    }

    /// Periodic CC tick; returns the delay until the next tick if the scheme
    /// needs one.
    pub fn tick(&mut self, now: SimTime) -> Option<TimeDelta> {
        each_flow!(self, f => f.tick(now))
    }

    /// Initial tick delay, if the scheme is timer-driven.
    pub fn initial_tick(&self) -> Option<TimeDelta> {
        each_flow!(self, f => f.initial_tick())
    }

    /// LHCS trigger count, if the scheme runs LHCS (FNCC; diagnostics).
    pub fn lhcs_triggers(&self) -> Option<u64> {
        each_flow!(self, f => f.policy().lhcs_triggers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn algos() -> [CcAlgo; CcKind::ALL.len()] {
        CcKind::ALL.map(|k| make_algo(k, Bandwidth::gbps(100), TimeDelta::from_us(12)))
    }

    #[test]
    fn all_is_exhaustive_and_index_matches_position() {
        // One entry per variant, no duplicates, and `index` is the position.
        for (i, &kind) in CcKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
        let mut names: Vec<&str> = CcKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CcKind::ALL.len(), "duplicate entry in ALL");
        // Exhaustiveness: the paper-default table covers exactly ALL.
        for (a, kind) in algos().iter().zip(CcKind::ALL) {
            assert_eq!(a.kind(), kind);
        }
    }

    #[test]
    fn kinds_and_names_roundtrip() {
        let names: Vec<&str> = algos().iter().map(|a| a.kind().name()).collect();
        assert_eq!(
            names,
            vec!["FNCC", "HPCC", "DCQCN", "RoCC", "Timely", "Swift", "FairQ", "Throttle"]
        );
    }

    #[test]
    fn only_fncc_reverses_ack_int() {
        for a in algos() {
            assert_eq!(a.kind().int_in_ack_reversed(), a.kind() == CcKind::Fncc);
        }
    }

    #[test]
    fn registrations_match_scheme_signals() {
        for kind in CcKind::ALL {
            let reg = kind.registration();
            // INT consumers and only they request insertion.
            let wants_int = !matches!(reg.int, IntNeed::None);
            assert_eq!(
                wants_int,
                matches!(kind, CcKind::Hpcc | CcKind::Fncc | CcKind::FairQ),
                "{kind:?}"
            );
            // ECN marking feeds exactly the CNP-driven schemes.
            assert_eq!(
                reg.ecn,
                matches!(kind, CcKind::Dcqcn | CcKind::Throttle),
                "{kind:?}"
            );
            // Only RoCC wants the switch fair rate.
            assert_eq!(reg.rocc_rate, kind == CcKind::Rocc, "{kind:?}");
        }
    }

    #[test]
    fn fresh_flows_start_at_line_rate_scale() {
        for a in algos() {
            let f = a.new_flow();
            let r = f.pacing_rate_bps();
            assert!(r > 0.0 && r <= 100e9 * 1.01, "{:?} rate {r}", a.kind());
        }
    }

    #[test]
    fn window_presence_matches_scheme() {
        for a in algos() {
            let f = a.new_flow();
            let has_window = f.window_bytes().is_some();
            let expect = matches!(
                a.kind(),
                CcKind::Hpcc | CcKind::Fncc | CcKind::Swift | CcKind::FairQ
            );
            assert_eq!(has_window, expect, "{:?}", a.kind());
        }
    }

    #[test]
    fn timeout_collapses_every_scheme_to_its_floor() {
        for a in algos() {
            let mut f = a.new_flow();
            f.on_timeout(fncc_des::time::SimTime::from_us(100));
            match f.window_bytes() {
                Some(w) => assert!(w <= 1518.0, "{:?} window {w}", a.kind()),
                None => {
                    let r = f.pacing_rate_bps();
                    assert!(r <= 100e9 / 100.0 + 1.0, "{:?} rate {r}", a.kind());
                }
            }
        }
    }

    #[test]
    fn timer_driven_schemes_declare_ticks() {
        for a in algos() {
            let f = a.new_flow();
            let expect = matches!(a.kind(), CcKind::Dcqcn | CcKind::Throttle);
            assert_eq!(f.initial_tick().is_some(), expect, "{:?}", a.kind());
        }
    }
}
