//! Golden reports: each golden cell is a checked-in canonical report,
//! `tests/golden/<cell>.json`, and this module is the one comparison every
//! golden test goes through. Bit-equality, not approximate equality, is
//! the regression contract, so a cell's file is compared byte for byte.
//!
//! **The golden view** of a report is its stable report
//! ([`RunReport::stable`]: no `events_per_sec`, no `span_*`) without the
//! `wheel_cascades_*` scalars, written with [`RunReport::to_json`]. The
//! cascade counts follow the timing wheel's geometry, which a perf change
//! may retune without moving anything the run simulated. A report with
//! series (a probed cell) stores each series as `{name, len, fnv1a}`, the
//! FNV-1a over the little-endian bits of its `t_us` values and then its
//! `v` values: a series runs to thousands of samples, and the scalars read
//! from it (`peak_queue_kb`, `mean_util`, `reaction_us`,
//! `int_age_us_hop*`, `jain_p*`) stay in full, so a move is still named.
//!
//! **Re-recording.** On a mismatch, or when a cell has no file yet, the
//! test writes the actual view to `<CARGO_TARGET_TMPDIR>/golden/<cell>.json`
//! (`target/tmp/golden/` by default) and its panic message lists the
//! key-level deltas (`scalars.mean_slowdown: want … got …`, a missing or
//! unexpected key, `slowdowns[2].p99`, a key-order move) and the `cp` line
//! that records the new file. Recording is "run the tests and copy"; a
//! change that moves a golden on purpose shows the move as a `git diff`
//! of the files and says why.
//!
//! **Why the smoke cells are pinned in full.** Each repeats exactly on any
//! box, in debug and release builds alike, so the whole report is the gate
//! rather than a timing:
//! - `websearch_fluid_smoke` (20k web-search flows on the k=8 fat-tree)
//!   is the workload the incremental water-filler exists for. It runs in
//!   about a second, so a timeout cannot see a recruiting regression; its
//!   `full_solves`, `incremental_solves` and `rate_updates` can. A change
//!   that recruits more flows per delta, or falls back to full solves,
//!   moves them.
//! - `fattree_des_smoke` (k=4 web-search Poisson) runs the packet engine's
//!   timing-wheel and packet-pool path: a hot-path change that reorders
//!   one tie or drops one schedule moves `events_processed`,
//!   `peak_queue_len` and the FCT summary. `int_truncations` (INT records
//!   a full stack dropped) is written only when nonzero, so its absence
//!   from the file pins it at 0.
//! - `fattree_des_smoke_sharded` is the same cell on pod shards. The
//!   report is the same at any `threads ≥ 1` (threads only choose which
//!   worker runs which shard), and its event count and FCT summary equal
//!   the one-replica run's. It adds this partition's `epochs` and
//!   `cross_shard_frames` and `causality_violations` (no frame below a
//!   receiver's clock, so 0).
//! - `hybrid_incast_fleet_20k` (the fleet scenario at `--flows 20000`):
//!   packet events plus fluid reallocations, the coupling's
//!   `hybrid_syncs`, `hybrid_reservations` and `hybrid_backlog_pushes`,
//!   and the water-filler's `incremental_solves`. A change to either half
//!   or to the coupler moves them; even last-bit rate differences shift
//!   the hysteresis-gated sync boundaries.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

use fncc::core::json::{obj, Json};
use fncc::core::RunReport;
use std::path::Path;

/// 64-bit FNV-1a: dependency-free and stable across platforms for
/// identical input bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// The golden view of `report` (see the module docs).
pub fn view(report: RunReport) -> String {
    let mut report = report.stable();
    report
        .scalars
        .retain(|(k, _)| !k.starts_with("wheel_cascades_"));
    if report.series.is_empty() {
        return report.to_json();
    }
    let digests: Vec<Json> = std::mem::take(&mut report.series)
        .iter()
        .map(|s| {
            let mut bits = Vec::with_capacity(16 * s.len());
            for t in s.times() {
                bits.extend(t.as_us_f64().to_bits().to_le_bytes());
            }
            for v in s.values() {
                bits.extend(v.to_bits().to_le_bytes());
            }
            obj([
                ("name", Json::Str(s.name.clone())),
                ("len", Json::Num(s.len() as f64)),
                ("fnv1a", Json::Str(format!("{:016x}", fnv1a(&bits)))),
            ])
        })
        .collect();
    let Ok(Json::Obj(mut fields)) = Json::parse(&report.to_json()) else {
        panic!("a report's JSON parses to an object");
    };
    let series = fields.iter_mut().find(|(k, _)| k == "series");
    series.expect("a report writes its series").1 = Json::Arr(digests);
    Json::Obj(fields).to_string_pretty()
}

/// Check each cell's golden view against `tests/golden/<cell>.json`; one
/// panic lists every cell that moved.
pub fn check<S: AsRef<str>>(cells: impl IntoIterator<Item = (S, RunReport)>) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let moved: Vec<String> = cells
        .into_iter()
        .filter_map(|(cell, report)| compare(&dir, &out, cell.as_ref(), &view(report)).err())
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

/// Compare `actual` with `<dir>/<cell>.json` byte for byte. On a mismatch
/// or a missing file, write `actual` to `<out>/<cell>.json` and return the
/// key-level deltas and the `cp` line that records it.
pub fn compare(dir: &Path, out: &Path, cell: &str, actual: &str) -> Result<(), String> {
    let want_path = dir.join(format!("{cell}.json"));
    let want = std::fs::read_to_string(&want_path);
    if want.as_deref().is_ok_and(|w| w == actual) {
        return Ok(());
    }
    let got_path = out.join(format!("{cell}.json"));
    std::fs::create_dir_all(out).expect("create the golden output directory");
    std::fs::write(&got_path, actual).expect("write the actual golden view");
    let deltas = match want {
        Ok(want) => deltas(&want, actual),
        Err(e) => vec![format!("no golden file: {e}")],
    };
    Err(format!(
        "golden '{cell}' moved:\n  {}\n  record it: cp {} {}",
        deltas.join("\n  "),
        got_path.display(),
        want_path.display()
    ))
}

/// Key-level differences between two JSON documents, `want` first.
pub fn deltas(want: &str, got: &str) -> Vec<String> {
    let (want, got) = match (Json::parse(want), Json::parse(got)) {
        (Ok(w), Ok(g)) => (w, g),
        (Err(e), _) => return vec![format!("the golden file does not parse: {e}")],
        (_, Err(e)) => return vec![format!("the actual view does not parse: {e}")],
    };
    let mut out = Vec::new();
    diff("", &want, &got, &mut out);
    if out.is_empty() {
        out.push("same values, different bytes (whitespace or number spelling)".into());
    }
    out
}

fn diff(path: &str, want: &Json, got: &Json, out: &mut Vec<String>) {
    let at = |k: &str| {
        if path.is_empty() {
            k.to_string()
        } else {
            format!("{path}.{k}")
        }
    };
    match (want, got) {
        (Json::Obj(w), Json::Obj(g)) => {
            for (k, wv) in w {
                match got.get(k) {
                    Some(gv) => diff(&at(k), wv, gv, out),
                    None => out.push(format!(
                        "{}: missing, want {}",
                        at(k),
                        wv.to_string_compact()
                    )),
                }
            }
            for (k, gv) in g {
                if want.get(k).is_none() {
                    out.push(format!(
                        "{}: unexpected, got {}",
                        at(k),
                        gv.to_string_compact()
                    ));
                }
            }
            let (wk, gk): (Vec<&str>, Vec<&str>) = (
                w.iter().map(|(k, _)| k.as_str()).collect(),
                g.iter().map(|(k, _)| k.as_str()).collect(),
            );
            if wk != gk && sorted(&wk) == sorted(&gk) {
                // Show only the stretch that moved.
                let head = wk.iter().zip(&gk).take_while(|(a, b)| a == b).count();
                let tail = wk[head..]
                    .iter()
                    .rev()
                    .zip(gk[head..].iter().rev())
                    .take_while(|(a, b)| a == b)
                    .count();
                out.push(format!(
                    "{}: key order moved: want [{}] got [{}]",
                    if path.is_empty() { "(top level)" } else { path },
                    wk[head..wk.len() - tail].join(", "),
                    gk[head..gk.len() - tail].join(", "),
                ));
            }
        }
        (Json::Arr(w), Json::Arr(g)) => {
            for (i, (wv, gv)) in w.iter().zip(g).enumerate() {
                diff(&format!("{path}[{i}]"), wv, gv, out);
            }
            if w.len() != g.len() {
                out.push(format!(
                    "{path}: want {} elements, got {}",
                    w.len(),
                    g.len()
                ));
            }
        }
        _ if want != got => out.push(format!(
            "{path}: want {} got {}",
            want.to_string_compact(),
            got.to_string_compact()
        )),
        _ => {}
    }
}

fn sorted<'a>(keys: &[&'a str]) -> Vec<&'a str> {
    let mut keys = keys.to_vec();
    keys.sort_unstable();
    keys
}
