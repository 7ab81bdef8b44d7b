//! The structured trace sink: a fixed-capacity flight recorder of typed
//! simulation events, drained to the `fncc.trace/v1` JSONL artifact.
//!
//! Call sites guard with [`TraceSink::enabled`] before building an event so
//! a disabled sink costs one untaken branch on the hot path:
//!
//! ```
//! use fncc_obs::{TraceEvent, TraceSink};
//! let mut sink = TraceSink::with_capacity(16);
//! if sink.enabled() {
//!     sink.record(TraceEvent::EcnMark { t_ps: 1_000, sw: 0, port: 2, flow: 7, queue_bytes: 9000 });
//! }
//! assert_eq!(sink.len(), 1);
//! ```

use std::fmt::Write as _;
use std::io::{self, Write};

/// Schema tag of the trace artifact (its JSONL header line).
pub const TRACE_SCHEMA: &str = "fncc.trace/v1";

/// One typed simulation event. All payloads are plain `Copy` scalars so the
/// ring buffer never allocates while recording.
///
/// Times are simulation picoseconds (`SimTime::as_ps`); `sw`/`host`/`flow`
/// are the raw id values of the `fncc-net` newtypes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A data-class frame entered a switch egress FIFO.
    Enqueue {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Switch id.
        sw: u32,
        /// Egress port index.
        port: u8,
        /// Flow id of the frame.
        flow: u32,
        /// Wire size of the frame, bytes.
        size: u32,
        /// Queue depth *after* the enqueue, bytes.
        queue_bytes: u64,
    },
    /// A frame left a switch egress FIFO and started serializing.
    Dequeue {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Switch id.
        sw: u32,
        /// Egress port index.
        port: u8,
        /// Flow id of the frame.
        flow: u32,
        /// Wire size of the frame, bytes.
        size: u32,
        /// Queue depth *after* the dequeue, bytes.
        queue_bytes: u64,
    },
    /// A frame was ECN-marked (RED/threshold) at enqueue.
    EcnMark {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Switch id.
        sw: u32,
        /// Egress port index.
        port: u8,
        /// Flow id of the marked frame.
        flow: u32,
        /// Queue depth that triggered the mark, bytes.
        queue_bytes: u64,
    },
    /// A frame was dropped at buffer exhaustion.
    Drop {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Switch id.
        sw: u32,
        /// Egress port index.
        port: u8,
        /// Flow id of the dropped frame.
        flow: u32,
        /// Wire size of the frame, bytes.
        size: u32,
    },
    /// A PFC XOFF: sent upstream (`tx`) or taking effect locally (`!tx`).
    PfcPause {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Node id: a switch id, or a host id when `at_host`.
        node: u32,
        /// Port index the pause applies to.
        port: u8,
        /// True for the sending side of the XOFF, false for the paused side.
        tx: bool,
        /// True when `node` is a host NIC rather than a switch.
        at_host: bool,
    },
    /// A PFC XON: sent upstream (`tx`) or releasing a local pause (`!tx`).
    PfcResume {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Node id: a switch id, or a host id when `at_host`.
        node: u32,
        /// Port index the resume applies to.
        port: u8,
        /// True for the sending side of the XON, false for the resumed side.
        tx: bool,
        /// True when `node` is a host NIC rather than a switch.
        at_host: bool,
    },
    /// The receiver generated a CNP toward the sender (ECN echo).
    Cnp {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Flow the CNP throttles.
        flow: u32,
        /// Receiver host id (CNP source).
        src: u32,
        /// Sender host id (CNP destination).
        dst: u32,
    },
    /// The sender consumed one in-band telemetry record from an ACK.
    IntRecord {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Flow whose ACK carried the record.
        flow: u32,
        /// Hop index in request-path order.
        hop: u8,
        /// Staleness of the record when consumed, picoseconds.
        age_ps: u64,
    },
    /// Congestion control updated a sender's pacing rate / window.
    RateUpdate {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Flow id.
        flow: u32,
        /// New pacing rate, bits per second.
        rate_bps: f64,
        /// New window in bytes; negative when the scheme is rate-only.
        window_bytes: f64,
    },
    /// A flow became eligible to send (packet DES sender side).
    FlowStart {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Flow id.
        flow: u32,
        /// Sender host id.
        src: u32,
        /// Receiver host id.
        dst: u32,
        /// Application bytes.
        size: u64,
    },
    /// A flow's last payload byte was delivered.
    FlowFinish {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Flow id.
        flow: u32,
    },
    /// The fluid water-filler started a re-solve.
    SolveBegin {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Live flows at solve time.
        active: u32,
    },
    /// The fluid water-filler finished a re-solve.
    SolveEnd {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// True for a from-scratch solve, false for a warm-start one.
        full: bool,
        /// Flows whose rate actually changed (the dirty set that must be
        /// re-integrated).
        changed: u32,
    },
    /// A flow was admitted into the fluid model.
    FluidFlowAdd {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Flow id.
        flow: u32,
    },
    /// A flow finished and was retired from the fluid model.
    FluidFlowRemove {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Flow id.
        flow: u32,
    },
    /// Hybrid coupling: one fluid↔packet synchronization boundary.
    HybridSync {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Foreground-demand reservations pushed into the fluid half.
        reservations: u32,
    },
    /// Hybrid coupling: measured foreground throughput on a link was fed
    /// into the fluid water-filler as a demand reservation.
    HybridReserve {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Dense directed-link id (fluid link index).
        link: u32,
        /// Reserved foreground load, bits per second.
        load_bps: f64,
    },
    /// Hybrid coupling: the fluid background's standing queue on a link
    /// was pushed onto the DES port as a phantom (shadow) backlog.
    HybridBacklog {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Dense directed-link id (fluid link index).
        link: u32,
        /// Shadow backlog imposed on packet traffic, bytes.
        backlog_bytes: u64,
    },
    /// A fault took a switch egress link down (both directions die).
    LinkDown {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Switch id owning the failed egress port.
        sw: u32,
        /// Failed egress port index.
        port: u8,
    },
    /// A failed link came back up and rejoined the routing tables.
    LinkUp {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Switch id owning the restored egress port.
        sw: u32,
        /// Restored egress port index.
        port: u8,
    },
    /// A frame was destroyed by an injected fault (dead link teardown,
    /// arrival on a dead port, or a seeded random-loss draw) — distinct
    /// from buffer-exhaustion `Drop`.
    FaultDrop {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Switch id where the frame died.
        sw: u32,
        /// Egress port index involved.
        port: u8,
        /// Flow id of the lost frame.
        flow: u32,
        /// Wire size of the frame, bytes.
        size: u32,
    },
    /// The sender retransmitted a data frame (go-back-N resend).
    Retransmit {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Flow id.
        flow: u32,
        /// First payload byte offset of the resent frame.
        seq: u64,
    },
    /// A flow's retransmission timer fired and the window was rewound.
    Rto {
        /// Simulation time, picoseconds.
        t_ps: u64,
        /// Flow id.
        flow: u32,
        /// The *next* timeout after exponential backoff, picoseconds.
        rto_ps: u64,
    },
}

/// One payload field value as [`TraceEvent::map_fields`] visits it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceValue {
    /// An unsigned field (`u8`, `u32` or `u64`).
    U64(u64),
    /// A floating-point field.
    F64(f64),
    /// A flag.
    Bool(bool),
}

/// The field visitor [`TraceEvent::map_fields`] runs: `f(name, value)`.
type Visit<'a> = dyn FnMut(&'static str, TraceValue) -> TraceValue + 'a;

/// A payload field type: visited widened to a [`TraceValue`], narrowed back.
trait Scalar: Copy {
    fn map(self, name: &'static str, f: &mut Visit) -> Self;
}

macro_rules! scalar {
    ($($t:ty: $variant:ident),*) => {$(
        impl Scalar for $t {
            fn map(self, name: &'static str, f: &mut Visit) -> Self {
                match f(name, TraceValue::$variant(self as _)) {
                    TraceValue::$variant(x) => x as _,
                    v => panic!("{v:?} for the {} field `{name}`", stringify!($t)),
                }
            }
        }
    )*};
}
scalar!(u8: U64, u32: U64, u64: U64, f64: F64, bool: Bool);

/// Derives [`TraceEvent`]'s per-variant code from one line per event,
/// `Variant "tag" { payload fields in wire order }` (`t_ps` leads every
/// variant implicitly). `map_fields` names every field without `..`, so a
/// variant or field missing from the table is a compile error.
macro_rules! trace_events {
    ($($variant:ident $tag:literal { $($field:ident),* },)*) => {
        impl TraceEvent {
            /// The event's discriminant as it appears in the artifact's `ev` field.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $tag,)*
                }
            }

            /// The event's simulation timestamp, picoseconds.
            pub fn t_ps(&self) -> u64 {
                match *self {
                    $(TraceEvent::$variant { t_ps, .. })|* => t_ps,
                }
            }

            /// The one field visitor: calls `f(name, value)` on `t_ps`, then
            /// on each payload field in wire order, and rebuilds the event
            /// from what `f` returns, which must keep each value's type (a
            /// `U64` narrows to its field's width, keeping the low bits).
            pub fn map_fields(self, f: &mut Visit) -> Self {
                match self {
                    $(TraceEvent::$variant { t_ps, $($field),* } => TraceEvent::$variant {
                        t_ps: t_ps.map("t_ps", f),
                        $($field: $field.map(stringify!($field), f),)*
                    },)*
                }
            }

            /// Append the event as one JSONL object line (no trailing newline): the
            /// `ev` tag, then each field `map_fields` visits, `t_ps` first.
            pub fn write_jsonl(&self, out: &mut String) {
                let _ = write!(out, "{{\"ev\":\"{}\"", self.kind());
                self.map_fields(&mut |name, v| {
                    let _ = match v {
                        TraceValue::U64(x) => write!(out, ",\"{name}\":{x}"),
                        TraceValue::F64(x) => write!(out, ",\"{name}\":{x}"),
                        TraceValue::Bool(x) => write!(out, ",\"{name}\":{x}"),
                    };
                    v
                });
                out.push('}');
            }
        }
    };
}

trace_events! {
    Enqueue "enqueue" { sw, port, flow, size, queue_bytes },
    Dequeue "dequeue" { sw, port, flow, size, queue_bytes },
    EcnMark "ecn_mark" { sw, port, flow, queue_bytes },
    Drop "drop" { sw, port, flow, size },
    PfcPause "pfc_pause" { node, port, tx, at_host },
    PfcResume "pfc_resume" { node, port, tx, at_host },
    Cnp "cnp" { flow, src, dst },
    IntRecord "int_record" { flow, hop, age_ps },
    RateUpdate "rate_update" { flow, rate_bps, window_bytes },
    FlowStart "flow_start" { flow, src, dst, size },
    FlowFinish "flow_finish" { flow },
    SolveBegin "solve_begin" { active },
    SolveEnd "solve_end" { full, changed },
    FluidFlowAdd "fluid_flow_add" { flow },
    FluidFlowRemove "fluid_flow_remove" { flow },
    HybridSync "hybrid_sync" { reservations },
    HybridReserve "hybrid_reserve" { link, load_bps },
    HybridBacklog "hybrid_backlog" { link, backlog_bytes },
    LinkDown "link_down" { sw, port },
    LinkUp "link_up" { sw, port },
    FaultDrop "fault_drop" { sw, port, flow, size },
    Retransmit "retransmit" { flow, seq },
    Rto "rto" { flow, rto_ps },
}

/// Run-level metadata written as the artifact's header line.
#[derive(Clone, Debug, Default)]
pub struct TraceMeta {
    /// Scenario name.
    pub scenario: String,
    /// Backend name (`packet`, `fluid` or `hybrid`).
    pub backend: String,
    /// RNG seed of the traced run.
    pub seed: u64,
}

/// The flight recorder: a fixed-capacity ring of [`TraceEvent`]s.
///
/// When the ring fills, the oldest events are overwritten (and counted in
/// [`TraceSink::dropped`]) — the artifact always holds the *last* window of
/// the run, which is the window that explains a hang, a storm or a tail
/// latency. A disabled sink holds no buffer and answers
/// [`enabled`](TraceSink::enabled) from one byte.
#[derive(Debug, Default)]
pub struct TraceSink {
    enabled: bool,
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next overwrite position once the ring is full.
    head: usize,
    dropped: u64,
}

impl TraceSink {
    /// Default ring capacity (events): 2^20 events of 32 bytes, 32 MiB of
    /// buffer at the top end.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A disabled sink: records nothing, owns nothing.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// Merge per-shard sinks into one deterministic sink: events are
    /// interleaved by timestamp, with the sink's position in `sinks`
    /// breaking ties (stable within a sink), so the result is independent
    /// of how shard threads were scheduled. Disabled if every input is
    /// disabled; the merged capacity is the sum of the inputs' so nothing
    /// held by a shard is dropped again here.
    pub fn merged(sinks: &[&TraceSink]) -> Self {
        if sinks.iter().all(|s| !s.enabled) {
            return TraceSink::disabled();
        }
        let mut buf: Vec<TraceEvent> = sinks.iter().flat_map(|s| s.events().copied()).collect();
        buf.sort_by_key(TraceEvent::t_ps);
        TraceSink {
            enabled: true,
            buf,
            cap: sinks.iter().map(|s| s.cap).sum(),
            head: 0,
            dropped: sinks.iter().map(|s| s.dropped).sum(),
        }
    }

    /// An enabled sink holding at most `cap` events (the most recent win).
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "zero-capacity trace ring");
        TraceSink {
            enabled: true,
            cap,
            ..TraceSink::default()
        }
    }

    /// True when recording. Call sites guard event construction on this so
    /// the disabled hot path pays exactly one predictable branch.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or the sink is disabled).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter())
    }

    /// Drain the recorder to `w` as a `fncc.trace/v1` JSONL stream: one
    /// header object, then one object per event, oldest first.
    pub fn write_jsonl<W: Write>(&self, w: &mut W, meta: &TraceMeta) -> io::Result<()> {
        let mut line = format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"scenario\":");
        write_escaped(&mut line, &meta.scenario);
        line.push_str(",\"backend\":");
        write_escaped(&mut line, &meta.backend);
        let (seed, events, dropped) = (meta.seed, self.buf.len(), self.dropped);
        writeln!(
            w,
            "{line},\"seed\":{seed},\"events\":{events},\"dropped\":{dropped}}}"
        )?;
        for ev in self.events() {
            line.clear();
            ev.write_jsonl(&mut line);
            writeln!(w, "{line}")?;
        }
        Ok(())
    }
}

/// Append `s` to `out` as a quoted JSON string. The trace header's
/// free-form fields and `fncc_core::json` both escape through it (the event
/// lines themselves carry only scalars).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent::FlowFinish { t_ps: t, flow: 1 }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = TraceSink::disabled();
        assert!(!s.enabled());
        s.record(ev(1));
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let mut s = TraceSink::with_capacity(3);
        for t in 0..5 {
            s.record(ev(t));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let times: Vec<u64> = s.events().map(|e| e.t_ps()).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_lines_start_with_ev_and_t_ps() {
        let mut line = String::new();
        TraceEvent::EcnMark {
            t_ps: 42,
            sw: 1,
            port: 2,
            flow: 3,
            queue_bytes: 4,
        }
        .write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"ev\":\"ecn_mark\",\"t_ps\":42,\"sw\":1,\"port\":2,\"flow\":3,\"queue_bytes\":4}"
        );
    }

    #[test]
    fn header_escapes_scenario_names() {
        let s = TraceSink::with_capacity(1);
        let mut out = Vec::new();
        s.write_jsonl(
            &mut out,
            &TraceMeta {
                scenario: "a\"b".into(),
                backend: "packet".into(),
                seed: 7,
            },
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"schema\":\"fncc.trace/v1\""));
        assert!(text.contains("\"scenario\":\"a\\\"b\""));
    }
}
