//! The five benchmark workloads and how one invocation's input is made
//! from `--seed`.
//!
//! Each workload is a plain scenario file under `workloads/` (runnable with
//! `fncc-repro run` too) plus the few facts the file format has no field
//! for: which backend runs it, whether a repetition runs it under every
//! scheme, and — for the two heavy-tailed packet workloads — the offered
//! byte budget. The seed is written into `Scenario::seeds`; the program
//! under test sees only the resulting scenario.

use fncc_core::{Scenario, SimBackend, TopologySpec, TrafficSpec};
use std::path::PathBuf;

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, also the stem of `workloads/<name>.json`.
    pub name: &'static str,
    /// Which engine runs it.
    pub backend: SimBackend,
    /// One repetition = the scenario once under each of `CcKind::ALL`.
    pub all_schemes: bool,
    /// Trim the Poisson flow list to the shortest prefix offering at least
    /// this many payload bytes. Packet-DES cost follows bytes, and 500
    /// WebSearch flows offer 0.7–1.0 GB depending on the seed (the tail is
    /// heavy), so without the trim `run_s` would spread ~10 % across seeds
    /// for reasons that have nothing to do with the code under test.
    pub offered_bytes: Option<u64>,
    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub why: &'static str,
}

/// Payload budget of the two k=8 packet workloads: ≈ 500 WebSearch flows,
/// ≈ 12 M events, 1.5–2 s per repetition on the 2-core build box.
const K8_PACKET_BYTES: u64 = 800_000_000;

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "des_websearch_k8",
        backend: SimBackend::Packet,
        all_schemes: false,
        offered_bytes: Some(K8_PACKET_BYTES),
        why: "paper headline cell on the legacy Sim: k=8 fat-tree, WebSearch load 0.5, FNCC; deep event queue, LLC-bound; wheel, switch, pool and host ACK path do the work, fluid and hybrid code none",
    },
    Workload {
        name: "des_incast_allcc_k4",
        backend: SimBackend::Packet,
        all_schemes: true,
        offered_bytes: None,
        why: "k=4 incast run under all eight schemes: cache-hot fabric, near-empty wheel, so per-ACK CC law, PFC/ECN/CNP and LHCS dominate; a k=8 cache-layout gain should buy nothing here",
    },
    Workload {
        name: "des_sharded_k8_t1",
        backend: SimBackend::Packet,
        all_schemes: false,
        offered_bytes: Some(K8_PACKET_BYTES),
        why: "same scenario and seed as des_websearch_k8 on ShardedSim (8 pod shards, 1 worker): adds epochs, mailboxes and barriers; simulated statistics must equal the legacy engine's exactly",
    },
    Workload {
        name: "fluid_websearch_k8",
        backend: SimBackend::Fluid,
        all_schemes: false,
        offered_bytes: None,
        why: "60k WebSearch flows on the fluid backend: incremental water-filler, LinkMap and flow generation do the work; no packet layer runs, so packet-side changes must leave it unmoved",
    },
    Workload {
        name: "hybrid_fleet_k8",
        backend: SimBackend::Hybrid,
        all_schemes: false,
        offered_bytes: None,
        why: "8k flows, mice under 100 KB at packet fidelity inside a fluid background: the coupler sits between both engines; a water-filler gain shows here and on fluid, a coupler gain only here",
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's size.
    Full,
    /// Seconds-long smoke size for `cargo test` (k=4, a few dozen flows).
    Tiny,
}

/// A scenario ready to run, with the facts the harness reports about it.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// What `Backend::run` receives.
    pub scenario: Scenario,
    /// Flows one run of the scenario attempts.
    pub flows: usize,
}

impl Workload {
    /// The workload's scenario file.
    pub fn path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("workloads")
            .join(format!("{}.json", self.name))
    }

    /// Read, parse and validate the scenario file, and shrink it under
    /// [`Scale::Tiny`].
    pub fn parse(&self, scale: Scale) -> Result<Scenario, String> {
        let path = self.path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut sc = Scenario::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        sc.validate()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if scale == Scale::Tiny {
            sc.topology = TopologySpec::FatTree { k: 4 };
            match &mut sc.traffic {
                TrafficSpec::Poisson { flows, .. } => *flows = (*flows / 10).min(400),
                TrafficSpec::Incast { waves, size, .. } => {
                    *waves = 1;
                    *size = 50_000;
                }
                other => return Err(format!("no tiny scale for traffic '{}'", other.name())),
            }
        }
        Ok(sc)
    }

    /// Write `seed` into the scenario and build its `(topology, flows)`
    /// instance — the work a user pays before the first event — applying
    /// the offered-byte trim where the workload has one.
    pub fn instantiate(
        &self,
        mut sc: Scenario,
        seed: u64,
        scale: Scale,
    ) -> Result<Prepared, String> {
        sc.seeds = vec![seed];
        let (_topo, mut flows) = sc.instance(seed);
        if let (Some(full), TrafficSpec::Poisson { flows: n, .. }) =
            (self.offered_bytes, &mut sc.traffic)
        {
            let budget = match scale {
                Scale::Full => full,
                Scale::Tiny => full / 40,
            };
            let mut offered = 0u64;
            let keep = flows
                .iter()
                .position(|f| {
                    offered += f.size;
                    offered >= budget
                })
                .ok_or_else(|| {
                    format!(
                        "{}: seed {seed} offers {offered} B in {} flows, under the {budget} B budget",
                        self.name,
                        flows.len()
                    )
                })?;
            // Poisson generation draws flow by flow, so the first `keep + 1`
            // flows of the longer list are exactly the list the trimmed
            // scenario generates (pinned by a test).
            flows.truncate(keep + 1);
            *n = flows.len() as u32;
        }
        Ok(Prepared {
            flows: flows.len(),
            scenario: sc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_file_parses_and_validates() {
        for w in &WORKLOADS {
            let sc = w.parse(Scale::Full).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(sc.name.replace('-', "_"), w.name);
            assert_eq!(sc.probes, fncc_core::ProbeSpec::default(), "{}", w.name);
            assert!(matches!(sc.stop, fncc_core::StopCondition::Drain { .. }));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn sharded_workload_is_the_legacy_scenario_on_the_sharded_runtime() {
        let legacy = by_name("des_websearch_k8").unwrap();
        let sharded = by_name("des_sharded_k8_t1").unwrap();
        let mut a = legacy.parse(Scale::Full).unwrap();
        let b = sharded.parse(Scale::Full).unwrap();
        assert_eq!((a.threads, b.threads), (0, 1));
        a.threads = 1;
        a.name = b.name.clone();
        assert_eq!(a, b);
        assert_eq!(legacy.offered_bytes, sharded.offered_bytes);
    }

    fn prepare(w: &Workload, seed: u64) -> Prepared {
        w.instantiate(w.parse(Scale::Tiny).unwrap(), seed, Scale::Tiny)
            .unwrap()
    }

    #[test]
    fn trimmed_scenario_regenerates_the_trimmed_flow_list() {
        let w = by_name("des_websearch_k8").unwrap();
        for seed in [1, 7] {
            let full = w.parse(Scale::Tiny).unwrap().instance(seed).1;
            let p = prepare(w, seed);
            let again = p.scenario.instance(seed).1;
            assert_eq!(again.len(), p.flows);
            assert!(p.flows < full.len());
            for (x, y) in again.iter().zip(&full) {
                assert_eq!(
                    (x.src, x.dst, x.size, x.start),
                    (y.src, y.dst, y.size, y.start)
                );
            }
            let budget = w.offered_bytes.unwrap() / 40;
            let offered: u64 = again.iter().map(|f| f.size).sum();
            let last = again.last().unwrap().size;
            assert!(offered >= budget && offered - last < budget);
        }
    }

    #[test]
    fn seed_is_the_only_input() {
        let w = by_name("fluid_websearch_k8").unwrap();
        let (a, b, c) = (prepare(w, 3), prepare(w, 3), prepare(w, 4));
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.scenario.seeds, vec![3]);
        assert_eq!(
            a.scenario.instance(3).1.len(),
            c.scenario.instance(4).1.len()
        );
        let bytes = |p: &Prepared, seed| -> u64 {
            p.scenario.instance(seed).1.iter().map(|f| f.size).sum()
        };
        assert_eq!(bytes(&a, 3), bytes(&b, 3));
        assert_ne!(bytes(&a, 3), bytes(&c, 4));
    }
}
