#![warn(missing_docs)]
//! `fncc-workloads` — traffic generation for the evaluation (§5).
//!
//! * [`cdf`] — piecewise-linear flow-size CDFs with inverse-transform
//!   sampling;
//! * [`distributions`] — the two public traces the paper draws sizes from:
//!   the DCTCP **WebSearch** distribution and the Facebook **Hadoop**
//!   distribution (reconstructed; see `DESIGN.md` for the substitution
//!   note), plus the flow-size buckets used on the Fig. 14/15 x-axes;
//! * [`arrivals`] — Poisson flow arrivals at a target average link load
//!   (the paper runs 50%);
//! * [`patterns`] — deterministic scenarios: incast waves and storms,
//!   permutation waves, and the staggered join/leave pattern of Fig. 13e.

pub mod arrivals;
pub mod cdf;
pub mod distributions;
pub mod patterns;

pub use arrivals::{poisson_flows, PoissonConfig};
pub use cdf::Cdf;
pub use distributions::{fb_hadoop, web_search, FB_HADOOP_BUCKETS, WEB_SEARCH_BUCKETS};
