//! The single run artifact: [`RunReport`].
//!
//! Every backend returns one of these from [`crate::backend::Backend::run`]:
//! named time series, named scalar metrics, and per-bucket FCT-slowdown
//! rows. `fncc-repro`, the repo benchmark and the scorecard all consume
//! this one format; [`RunReport::to_json`] writes the versioned JSON
//! artifact (schema `fncc.run_report/v1`, pinned by the snapshot test in
//! `tests/scenario_api.rs`).

use crate::json::{num_u64, obj, Json};
use crate::metrics::SlowdownStats;
use fncc_des::stats::TimeSeries;
use std::io;
use std::path::Path;

/// Artifact schema identifier; bump when the JSON layout changes.
pub const RUN_REPORT_SCHEMA: &str = "fncc.run_report/v1";

/// The result of running one [`crate::scenario::Scenario`] on one backend.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Backend that produced the report (`"packet"`, `"fluid"` or `"hybrid"`).
    pub backend: String,
    /// CC scheme display name.
    pub cc: String,
    /// Seeds the run aggregated over.
    pub seeds: Vec<u64>,
    /// Named time series (packet backend only; µs time axis on write).
    pub series: Vec<TimeSeries>,
    /// Named scalar metrics, in insertion order.
    pub scalars: Vec<(String, f64)>,
    /// FCT-slowdown rows per flow-size bucket, averaged across seeds
    /// (empty for horizon-stopped runs that never drain their flows).
    pub slowdowns: Vec<SlowdownStats>,
    /// Flows that failed to finish, per seed.
    pub unfinished: Vec<usize>,
    /// Engine events processed (packet: DES events; fluid: re-allocations).
    pub events: u64,
}

impl RunReport {
    /// An empty report tagged with its provenance.
    pub fn new(
        scenario: impl Into<String>,
        backend: impl Into<String>,
        cc: impl Into<String>,
    ) -> Self {
        RunReport {
            scenario: scenario.into(),
            backend: backend.into(),
            cc: cc.into(),
            ..Default::default()
        }
    }

    /// Record a scalar metric (replaces an existing one of the same name).
    pub fn put_scalar(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if let Some(slot) = self.scalars.iter_mut().find(|(k, _)| *k == name) {
            slot.1 = value;
        } else {
            self.scalars.push((name, value));
        }
    }

    /// Look up a scalar metric.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// The numbered scalars `prefix0`, `prefix1`, … up to the first missing
    /// index (per-hop INT ages `int_age_us_hop`, per-period Jain indices
    /// `jain_p`).
    pub fn indexed_scalars(&self, prefix: &str) -> Vec<f64> {
        (0..)
            .map_while(|i| self.scalar(&format!("{prefix}{i}")))
            .collect()
    }

    /// The stable report: this one without its wall-clock readings, the
    /// event rate `events_per_sec` and the `FNCC_PROFILE` spans `span_*`.
    /// Every other value is a function of the scenario and its seeds, so
    /// two runs of one scenario agree on it byte for byte.
    pub fn stable(mut self) -> Self {
        self.scalars
            .retain(|(k, _)| k != "events_per_sec" && !k.starts_with("span_"));
        self
    }

    /// Look up a time series by name.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Flow-count-weighted mean slowdown over all buckets (the
    /// cross-backend comparison metric), if any flows were bucketed.
    pub fn mean_slowdown(&self) -> Option<f64> {
        let (mut sum, mut n) = (0.0, 0usize);
        for b in &self.slowdowns {
            sum += b.avg * b.count as f64;
            n += b.count;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Serialize as the versioned JSON artifact.
    pub fn to_json(&self) -> String {
        let series = self
            .series
            .iter()
            .map(|s| {
                obj([
                    ("name", Json::Str(s.name.clone())),
                    (
                        "t_us",
                        Json::Arr(s.times().iter().map(|t| Json::Num(t.as_us_f64())).collect()),
                    ),
                    (
                        "v",
                        Json::Arr(s.values().iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ])
            })
            .collect();
        let slowdowns = self
            .slowdowns
            .iter()
            .map(|r| {
                obj([
                    ("bucket_upper", Json::Num(r.bucket_upper as f64)),
                    ("label", Json::Str(r.label.clone())),
                    ("count", Json::Num(r.count as f64)),
                    ("avg", Json::Num(r.avg)),
                    ("p50", Json::Num(r.p50)),
                    ("p95", Json::Num(r.p95)),
                    ("p99", Json::Num(r.p99)),
                ])
            })
            .collect();
        obj([
            ("schema", Json::Str(RUN_REPORT_SCHEMA.into())),
            ("scenario", Json::Str(self.scenario.clone())),
            ("backend", Json::Str(self.backend.clone())),
            ("cc", Json::Str(self.cc.clone())),
            (
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| num_u64(s)).collect()),
            ),
            ("events", num_u64(self.events)),
            (
                "unfinished",
                Json::Arr(
                    self.unfinished
                        .iter()
                        .map(|&u| Json::Num(u as f64))
                        .collect(),
                ),
            ),
            (
                "scalars",
                Json::Obj(
                    self.scalars
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("slowdowns", Json::Arr(slowdowns)),
            ("series", Json::Arr(series)),
        ])
        .to_string_pretty()
    }

    /// The scenario name sanitized to a flat file-system-safe token —
    /// scenario names come from user-supplied files and must not be able to
    /// steer writes outside the output directory.
    fn sanitized_stem(&self) -> String {
        let safe: String = self
            .scenario
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        let safe = safe.trim_matches('.').trim_matches('-');
        if safe.is_empty() {
            "scenario".to_string()
        } else {
            safe.to_string()
        }
    }

    /// The artifact file name for this report, `<name>.<backend>.report.json`.
    pub fn artifact_file_name(&self) -> String {
        format!("{}.{}.report.json", self.sanitized_stem(), self.backend)
    }

    /// The companion trace artifact name, `<name>.<backend>.trace.jsonl`.
    pub fn trace_file_name(&self) -> String {
        format!("{}.{}.trace.jsonl", self.sanitized_stem(), self.backend)
    }

    /// Write the JSON artifact to `path`, creating parent directories.
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] if any series carries
    /// out-of-order samples: the artifact's `t_us` arrays are documented
    /// as monotone, and a disordered axis would silently corrupt every
    /// downstream cursor merge (plots, CSV export, `inspect`).
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        for s in &self.series {
            if let Err(e) = s.validate_ordering() {
                return Err(io::Error::new(io::ErrorKind::InvalidData, e));
            }
        }
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Print a compact human summary (scalars + slowdown table) to stdout.
    pub fn print_summary(&self) {
        println!(
            "== {} on {} ({}; {} seed{}) ==",
            self.scenario,
            self.backend,
            self.cc,
            self.seeds.len(),
            if self.seeds.len() == 1 { "" } else { "s" }
        );
        println!(
            "events: {}   unfinished: {:?}",
            self.events, self.unfinished
        );
        for (k, v) in &self.scalars {
            println!("  {k:<28} {v:.4}");
        }
        if !self.slowdowns.is_empty() {
            println!(
                "  {:<10} {:>7} {:>8} {:>8} {:>8} {:>8}",
                "bucket", "count", "avg", "p50", "p95", "p99"
            );
            for r in &self.slowdowns {
                if r.count > 0 {
                    println!(
                        "  {:<10} {:>7} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                        r.label, r.count, r.avg, r.p50, r.p95, r.p99
                    );
                }
            }
        }
        if !self.series.is_empty() {
            let names: Vec<&str> = self.series.iter().map(|s| s.name.as_str()).collect();
            println!("  series: {}", names.join(", "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fncc_des::time::SimTime;

    fn sample() -> RunReport {
        let mut r = RunReport::new("demo", "packet", "FNCC");
        r.seeds = vec![1, 2];
        r.events = 1234;
        r.unfinished = vec![0, 0];
        r.put_scalar("peak_queue_kb", 187.5);
        r.put_scalar("mean_util", 0.93);
        let mut s = TimeSeries::new("queue_kb");
        s.push(SimTime::from_us(1), 10.0);
        s.push(SimTime::from_us(2), 20.0);
        r.series.push(s);
        r.slowdowns.push(SlowdownStats {
            bucket_upper: 10_000,
            label: "10KB".into(),
            count: 5,
            avg: 1.2,
            p50: 1.1,
            p95: 1.5,
            p99: 1.9,
        });
        r
    }

    #[test]
    fn scalars_replace_and_lookup() {
        let mut r = sample();
        assert_eq!(r.scalar("mean_util"), Some(0.93));
        r.put_scalar("mean_util", 0.95);
        assert_eq!(r.scalar("mean_util"), Some(0.95));
        assert_eq!(r.scalars.len(), 2, "replacement must not duplicate");
        assert_eq!(r.scalar("absent"), None);
    }

    #[test]
    fn indexed_scalars_stop_at_the_first_gap() {
        let mut r = sample();
        assert!(r.indexed_scalars("jain_p").is_empty());
        r.put_scalar("jain_p1", 0.8);
        assert!(r.indexed_scalars("jain_p").is_empty(), "no jain_p0");
        r.put_scalar("jain_p0", 1.0);
        r.put_scalar("jain_p3", 0.5);
        assert_eq!(r.indexed_scalars("jain_p"), vec![1.0, 0.8]);
    }

    #[test]
    fn stable_drops_only_the_wall_clock_scalars() {
        let mut r = sample();
        r.put_scalar("events_per_sec", 1e6);
        r.put_scalar("span_dispatch_ns", 42.0);
        r.put_scalar("wheel_cascades_l1", 3.0);
        let keys: Vec<String> = r.stable().scalars.into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["peak_queue_kb", "mean_util", "wheel_cascades_l1"]);
    }

    #[test]
    fn mean_slowdown_weights_by_count() {
        let mut r = sample();
        r.slowdowns.push(SlowdownStats {
            bucket_upper: 1_000_000,
            label: "1MB".into(),
            count: 15,
            avg: 2.0,
            p50: 2.0,
            p95: 2.0,
            p99: 2.0,
        });
        let m = r.mean_slowdown().unwrap();
        assert!((m - (1.2 * 5.0 + 2.0 * 15.0) / 20.0).abs() < 1e-12);
        assert_eq!(RunReport::default().mean_slowdown(), None);
    }

    #[test]
    fn artifact_file_name_is_sanitized() {
        let mut r = RunReport::new("../../etc/x", "packet", "FNCC");
        // No path separators survive; a leading ".." in a *file name* is
        // inert (it only traverses as a standalone component).
        assert_eq!(r.artifact_file_name(), "..-etc-x.packet.report.json");
        r.scenario = "incast fat/tree".into();
        assert_eq!(r.artifact_file_name(), "incast-fat-tree.packet.report.json");
        r.scenario = "///".into();
        assert_eq!(r.artifact_file_name(), "scenario.packet.report.json");
        r.scenario = "plain-name_1.2".into();
        assert_eq!(r.artifact_file_name(), "plain-name_1.2.packet.report.json");
        assert_eq!(r.trace_file_name(), "plain-name_1.2.packet.trace.jsonl");
    }

    #[test]
    fn write_json_rejects_disordered_series() {
        let mut r = sample();
        let mut bad = TimeSeries::new("bad");
        bad.push_unchecked(SimTime::from_us(5), 1.0);
        bad.push_unchecked(SimTime::from_us(2), 2.0);
        r.series.push(bad);
        let path = std::env::temp_dir().join("fncc_core_disordered.report.json");
        let err = r.write_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("out-of-order"), "{err}");
        assert!(!path.exists(), "artifact must not be written");
    }

    #[test]
    fn json_artifact_parses_and_keeps_schema() {
        let r = sample();
        let v = Json::parse(&r.to_json()).unwrap();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(RUN_REPORT_SCHEMA)
        );
        assert_eq!(v.get("backend").and_then(|s| s.as_str()), Some("packet"));
        let scalars = v.get("scalars").unwrap();
        assert_eq!(
            scalars.get("peak_queue_kb").and_then(|x| x.as_f64()),
            Some(187.5)
        );
        let series = v.get("series").unwrap().as_arr().unwrap();
        assert_eq!(
            series[0].get("name").and_then(|s| s.as_str()),
            Some("queue_kb")
        );
        assert_eq!(series[0].get("t_us").unwrap().as_arr().unwrap().len(), 2);
    }
}
