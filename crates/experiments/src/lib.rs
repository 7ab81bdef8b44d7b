//! `fncc-experiments` — regeneration of every table and figure in the FNCC
//! paper's evaluation (§2 and §5).
//!
//! Each `fig*` function runs the corresponding scenario(s) from
//! [`fncc_core::scenarios`], prints the same rows/series the paper reports,
//! and writes CSV files under the output directory. The `fncc-repro` binary
//! dispatches to them; see `DESIGN.md` for the experiment index.

pub mod ablation;
pub mod calibrate;
pub mod figs;
pub mod inspect;
pub mod report;
pub mod scorecard;
pub mod workload_figs;

use fncc_core::{Scenario, SimBackend, TrafficSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A counting wrapper around the system allocator: one relaxed increment
/// per allocation, so the repo benchmark (`perfbench/`) can report
/// `net.allocs_per_kevent`. The overhead is unmeasurable next to the
/// allocation itself. Registered as `#[global_allocator]` by the
/// `fncc-repro` and `fncc-bench` binaries only — library consumers keep
/// the plain system allocator, and `alloc_count` simply stays at 0 there.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to `System` verbatim; only adds a relaxed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (including reallocs) since process start (0 unless
/// [`CountingAlloc`] is installed as the global allocator).
pub fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Global run options shared by all experiments.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Output directory for CSV files.
    pub out: PathBuf,
    /// Scale factor: `quick` shrinks horizons/flow counts for smoke runs,
    /// `full` restores paper scale.
    pub scale: Scale,
    /// Worker threads for multi-run experiments.
    pub threads: usize,
    /// Explicit `--threads` value, when given. `run` forwards it to the
    /// packet backend's sharded DES runtime (`Scenario::threads`).
    /// `None` (no flag) keeps every scenario on one replica
    /// (`threads: 0`).
    pub sim_threads: Option<u32>,
    /// Override the number of seeds for Figs. 14/15.
    pub seeds: Option<u32>,
    /// Override the flows-per-seed for Figs. 14/15.
    pub flows: Option<u32>,
    /// Engine for the workload experiments (`--backend fluid` swaps the
    /// packet DES for the flow-level fast path — same flow sets, so tables
    /// stay comparable).
    pub backend: SimBackend,
    /// Arm the flight recorder on `run` scenarios (`--trace`): the first
    /// seed's event stream lands in a `*.trace.jsonl` artifact next to the
    /// report.
    pub trace: bool,
}

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke test.
    Quick,
    /// Minutes-long default (shape-faithful).
    Default,
    /// Paper-scale (5 seeds × 2000 flows on the fat-tree).
    Full,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            out: PathBuf::from("results"),
            scale: Scale::Default,
            threads: fncc_core::sweep::default_threads(),
            sim_threads: None,
            seeds: None,
            flows: None,
            backend: SimBackend::Packet,
            trace: false,
        }
    }
}

impl RunOpts {
    /// Workload seeds for Figs. 14/15 under the current scale.
    pub fn workload_seeds(&self) -> Vec<u64> {
        let n = self.seeds.unwrap_or(match self.scale {
            Scale::Quick => 1,
            Scale::Default => 2,
            Scale::Full => 5,
        });
        (1..=n as u64).collect()
    }

    /// Flows per seed for Figs. 14/15 under the current scale.
    pub fn workload_flows(&self) -> u32 {
        self.flows.unwrap_or(match self.scale {
            Scale::Quick => 60,
            Scale::Default => 400,
            Scale::Full => 2000,
        })
    }

    /// Microbenchmark horizon (µs).
    pub fn micro_horizon_us(&self) -> u64 {
        match self.scale {
            Scale::Quick => 600,
            _ => 1200,
        }
    }

    /// Reject a scenario `--backend` cannot run: the hybrid needs a
    /// `foreground` block to know which flows run at packet fidelity.
    pub fn check_backend(&self, sc: &Scenario) -> Result<(), String> {
        if self.backend == SimBackend::Hybrid && sc.foreground.is_none() {
            return Err(format!(
                "--backend hybrid leaves the scenario invalid: '{}' has no 'foreground' \
                 block naming the flows that run at packet fidelity",
                sc.name
            ));
        }
        Ok(())
    }

    /// Apply `run`'s command-line overrides to a parsed scenario, then
    /// validate it again: an override can break a document that parsed,
    /// e.g. a `--flows` count under which a foreground rule matches no
    /// flow. The error names the flags applied.
    pub fn apply_run_overrides(&self, sc: &mut Scenario) -> Result<(), String> {
        self.check_backend(sc)?;
        let mut flags = Vec::new();
        if self.trace {
            sc.probes.trace = true;
            flags.push("--trace".to_string());
        }
        // `--threads N` runs the packet DES sharded over N workers; reports
        // are byte-identical to the single-engine path at any thread count.
        if let Some(n) = self.sim_threads {
            sc.threads = n;
            flags.push(format!("--threads {n}"));
        }
        // `--flows N` scales a Poisson scenario down (or up) without editing
        // the file: CI smoke-runs the fleet-scale scenarios on every backend
        // at a size the packet engine can chew through in minutes.
        if let (Some(n), TrafficSpec::Poisson { flows, .. }) = (self.flows, &mut sc.traffic) {
            *flows = n;
            flags.push(format!("--flows {n}"));
        }
        if flags.is_empty() {
            return Ok(());
        }
        sc.validate()
            .map_err(|e| format!("{} leaves the scenario invalid: {e}", flags.join(" ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_controls_workload_size() {
        let quick = RunOpts {
            scale: Scale::Quick,
            ..Default::default()
        };
        assert_eq!(quick.workload_seeds(), vec![1]);
        assert_eq!(quick.workload_flows(), 60);
        let full = RunOpts {
            scale: Scale::Full,
            ..Default::default()
        };
        assert_eq!(full.workload_seeds().len(), 5);
        assert_eq!(full.workload_flows(), 2000);
    }

    #[test]
    fn overrides_beat_scale() {
        let o = RunOpts {
            scale: Scale::Full,
            seeds: Some(3),
            flows: Some(123),
            ..Default::default()
        };
        assert_eq!(o.workload_seeds(), vec![1, 2, 3]);
        assert_eq!(o.workload_flows(), 123);
    }

    /// `run scenarios/hybrid_incast_fleet.json --flows 5`: the fleet's
    /// `to_hosts [0]` rule matches none of five flows. Before the
    /// overrides were validated, the hybrid ran with no foreground.
    #[test]
    fn run_overrides_are_validated() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/hybrid_incast_fleet.json"
        );
        let fleet = Scenario::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let with = |opts: RunOpts| {
            let mut sc = fleet.clone();
            opts.apply_run_overrides(&mut sc).map(|()| sc)
        };
        let err = with(RunOpts {
            flows: Some(5),
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.starts_with("--flows 5 leaves"), "{err}");
        assert!(err.contains("to_hosts") && err.contains("none"), "{err}");

        let sc = with(RunOpts {
            flows: Some(2000),
            sim_threads: Some(2),
            trace: true,
            ..Default::default()
        })
        .unwrap();
        assert!(matches!(
            sc.traffic,
            TrafficSpec::Poisson { flows: 2000, .. }
        ));
        assert_eq!((sc.threads, sc.probes.trace), (2, true));
        assert_eq!(with(RunOpts::default()).unwrap(), fleet);
    }

    /// `run scenarios/incast_fattree.json --backend hybrid`: the file has no
    /// `foreground` block, and the hybrid backend used to panic on it.
    #[test]
    fn hybrid_backend_needs_a_foreground() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/");
        let load = |f: &str| {
            Scenario::from_json(&std::fs::read_to_string(format!("{dir}{f}")).unwrap()).unwrap()
        };
        let hybrid = RunOpts {
            backend: SimBackend::Hybrid,
            ..Default::default()
        };
        let mut incast = load("incast_fattree.json");
        let err = hybrid.apply_run_overrides(&mut incast).unwrap_err();
        assert!(
            err.starts_with("--backend hybrid leaves the scenario invalid: "),
            "{err}"
        );
        assert!(err.contains("foreground"), "{err}");
        let mut fleet = load("hybrid_incast_fleet.json");
        assert_eq!(hybrid.apply_run_overrides(&mut fleet), Ok(()));
        let packet = RunOpts::default();
        assert_eq!(packet.apply_run_overrides(&mut incast), Ok(()));
    }

    #[test]
    fn horizons_by_scale() {
        assert_eq!(RunOpts::default().micro_horizon_us(), 1200);
        let quick = RunOpts {
            scale: Scale::Quick,
            ..Default::default()
        };
        assert_eq!(quick.micro_horizon_us(), 600);
    }
}
