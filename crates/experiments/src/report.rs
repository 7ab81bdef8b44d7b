//! Output helpers: print a table to stdout and persist CSVs.

use fncc_core::RunReport;
use fncc_des::output::{series_to_csv, write_text, Table};
use fncc_des::stats::TimeSeries;
use std::path::Path;

/// Scalar `name` of `report`, 0 when the run did not record it.
pub fn num(report: &RunReport, name: &str) -> f64 {
    report.scalar(name).unwrap_or(0.0)
}

/// A copy of `report`'s series `name` under a figure's CSV header `label`
/// (empty when the run did not record it).
pub fn relabel(report: &RunReport, name: &str, label: impl Into<String>) -> TimeSeries {
    let mut s = report.series(name).cloned().unwrap_or_default();
    s.name = label.into();
    s
}

/// Print a titled table and store it as CSV under `dir/name.csv`.
pub fn emit_table(dir: &Path, name: &str, title: &str, table: &Table) {
    println!("\n== {title} ==");
    print!("{}", table.render());
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = table.write_csv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[csv] {}", path.display());
    }
}

/// Store a set of time series as one CSV under `dir/name.csv`.
pub fn emit_series(dir: &Path, name: &str, series: &[&TimeSeries]) {
    let csv = match series_to_csv(series) {
        Ok(csv) => csv,
        Err(e) => {
            eprintln!("warning: refusing to write {name}.csv: {e}");
            return;
        }
    };
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = write_text(&path, &csv) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[csv] {} ({} series)", path.display(), series.len());
    }
}

/// Format an optional µs value.
pub fn opt_us(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.1}"),
        None => "-".to_string(),
    }
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}
