#![warn(missing_docs)]
//! `fncc-obs` — the flight-recorder observability layer.
//!
//! This crate sits *below* every simulation crate (it depends on nothing,
//! not even `fncc-des`), so the engine, the fabric, the transport and the
//! fluid solver can all share one instrumentation vocabulary:
//!
//! * [`trace`] — a ring-buffered recorder of typed simulation events
//!   ([`TraceSink`]). The hot path pays a single predictable branch when
//!   tracing is off; when on, events land in a fixed-capacity flight
//!   recorder that drains to the versioned `fncc.trace/v1` JSONL artifact.
//! * [`metrics`] — log-linear HDR-style [`Histogram`]s, which a report
//!   builds from the flow records and series a run already keeps (the
//!   `fct_us_*`, `queue_depth_bytes_*` and `resolve_set_size_*` scalars).
//! * [`profile`] — scoped wall-clock [`Profiler`] spans over engine phases
//!   (scheduler pop, dispatch, fluid solve, report build). Wall-clock
//!   readings are non-deterministic, so spans are off unless explicitly
//!   enabled (`FNCC_PROFILE=1`) and never feed deterministic artifacts.
//!
//! One [`Recorder`] bundles the trace ring and the profiler of one engine
//! run; the backend reads exactly one per run.
//!
//! Timestamps cross this crate's API as raw picosecond `u64`s and ids as
//! raw `u32`s: depending on `fncc_des::SimTime` or the id newtypes would
//! invert the crate ordering.

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::Histogram;
pub use profile::{PhaseId, Profiler};
pub use trace::{TraceEvent, TraceMeta, TraceSink, TraceValue, TRACE_SCHEMA};

/// The instruments of one engine run: its trace ring and its profiler.
#[derive(Debug)]
pub struct Recorder {
    /// Flight-recorder event ring (disabled unless the run is traced).
    pub trace: TraceSink,
    /// Wall-clock spans (enabled only under `FNCC_PROFILE`).
    pub profiler: Profiler,
}

impl Recorder {
    /// A recorder whose trace ring is armed iff `trace`, with the profiler
    /// enabled iff `FNCC_PROFILE` is set (see [`Profiler::from_env`]).
    pub fn new(trace: bool) -> Self {
        Recorder {
            trace: if trace {
                TraceSink::with_capacity(TraceSink::DEFAULT_CAPACITY)
            } else {
                TraceSink::disabled()
            },
            profiler: Profiler::from_env(),
        }
    }

    /// Fold another run's recorder into this one: traces interleave as
    /// [`TraceSink::merged`] orders them (this ring's events win ties) and
    /// profiler phases match by name ([`Profiler::absorb`]).
    pub fn absorb(&mut self, other: Recorder) {
        if other.trace.enabled() {
            self.trace = TraceSink::merged(&[&self.trace, &other.trace]);
        }
        self.profiler.absorb(&other.profiler);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(times: &[u64], flow: u32) -> Recorder {
        let mut r = Recorder::new(true);
        for &t_ps in times {
            r.trace.record(TraceEvent::FlowFinish { t_ps, flow });
        }
        r
    }

    /// Absorbing shards one at a time gives the order one
    /// `TraceSink::merged` over all of them gives: by timestamp, ties to
    /// the earlier shard.
    #[test]
    fn pairwise_absorb_matches_one_merge() {
        let shards = || [ring(&[1, 5, 5], 0), ring(&[0, 5], 1), ring(&[5, 9], 2)];
        let all = shards();
        let want = TraceSink::merged(&all.each_ref().map(|r| &r.trace));
        let mut it = shards().into_iter();
        let mut got = it.next().unwrap();
        it.for_each(|r| got.absorb(r));
        assert!(got.trace.events().eq(want.events()));
        assert_eq!(got.trace.len(), 7);
    }

    /// An unarmed ring leaves the armed one as it was; profiler phases
    /// merge by name.
    #[test]
    fn absorb_merges_phases_by_name() {
        let mut a = ring(&[3, 1], 0);
        let mut b = Recorder::new(false);
        b.profiler.phase("solve");
        a.absorb(b);
        let times: Vec<u64> = a.trace.events().map(TraceEvent::t_ps).collect();
        assert_eq!(times, [3, 1], "an unarmed ring leaves the order alone");
        assert_eq!(
            a.profiler.spans().map(|s| s.0).collect::<Vec<_>>(),
            ["solve"]
        );
    }
}
