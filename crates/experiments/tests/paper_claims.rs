//! The paper's headline claims hold in this reproduction: the claim table
//! `fncc-repro check` prints must pass in full (shape, not absolute
//! numbers). The table is simulated once and shared; each named test
//! asserts the rows of one claim.

use std::sync::OnceLock;

use fncc_experiments::scorecard::{run, table, verdicts, Check};

fn checks() -> &'static [Check] {
    static CHECKS: OnceLock<Vec<Check>> = OnceLock::new();
    CHECKS.get_or_init(|| verdicts(&run()))
}

/// Assert that every row whose id starts with one of `ids` (e.g. "C1")
/// exists and passes.
fn assert_claims(ids: &[&str]) {
    let checks = checks();
    for id in ids {
        let rows: Vec<&Check> = checks
            .iter()
            .filter(|c| c.id.split_whitespace().next() == Some(*id))
            .collect();
        assert!(!rows.is_empty(), "no claim {id} in the table");
        assert!(
            rows.iter().all(|c| c.pass),
            "claim {id} failed:\n{}",
            table(checks).render()
        );
    }
}

#[test]
fn every_paper_claim_passes() {
    let checks = checks();
    assert!(
        checks.iter().all(|c| c.pass),
        "paper claims failed:\n{}",
        table(checks).render()
    );
}

#[test]
fn reaction_ordering_fncc_first() {
    assert_claims(&["C1"]);
}

#[test]
fn queue_ordering_fncc_shallowest() {
    assert_claims(&["C2"]);
}

#[test]
fn utilization_fncc_at_least_hpcc() {
    assert_claims(&["C3"]);
}

#[test]
fn robust_at_higher_line_rates() {
    assert_claims(&["C4"]);
}

#[test]
fn pause_frames_ordering() {
    assert_claims(&["C5"]);
}

#[test]
fn int_freshness_gain_largest_at_first_hop() {
    assert_claims(&["C6"]);
}

#[test]
fn hop_location_gains_and_lhcs() {
    assert_claims(&["C7", "C8"]);
}

#[test]
fn fairness_staircase_high_jain() {
    assert_claims(&["C9"]);
}

#[test]
fn workload_slowdowns_ordered() {
    assert_claims(&["C10"]);
}
