//! Result extraction: reaction times, convergence, FCT-slowdown tables.

use fncc_des::stats::{Samples, TimeSeries};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::telemetry::FlowRecord;
use fncc_net::topology::Topology;
use fncc_workloads::distributions::{bucket_label, bucket_of};

/// First time after `after` at which `series` drops below `threshold` —
/// the congestion *reaction time* of a sender (Fig. 9's "first to slow
/// down").
pub fn reaction_time(series: &TimeSeries, after: SimTime, threshold: f64) -> Option<SimTime> {
    series
        .iter()
        .find(|&(t, v)| t > after && v < threshold)
        .map(|(t, _)| t)
}

/// First time after `after` from which *all* series stay within
/// `fair·(1±tol)` for at least `sustain` — convergence to the fair rate.
pub fn time_to_fair(
    series: &[&TimeSeries],
    fair: f64,
    tol: f64,
    sustain: TimeDelta,
    after: SimTime,
) -> Option<SimTime> {
    assert!(!series.is_empty());
    let lo = fair * (1.0 - tol);
    let hi = fair * (1.0 + tol);
    // Walk the first series' time axis; at each candidate start, check that
    // every series stays in band for `sustain`. The series must actually
    // cover the window — a window past the last sample proves nothing.
    let in_band_at = |s: &TimeSeries, from: SimTime, to: SimTime| -> bool {
        if s.times().last().is_none_or(|&last| last < to) {
            return false;
        }
        let mut any = false;
        for (t, v) in s.iter() {
            if t >= from && t <= to {
                any = true;
                if v < lo || v > hi {
                    return false;
                }
            }
        }
        any
    };
    for (t, _) in series[0].iter() {
        if t <= after {
            continue;
        }
        let end = t + sustain;
        if series.iter().all(|s| in_band_at(s, t, end)) {
            return Some(t);
        }
    }
    None
}

/// Per-bucket FCT-slowdown statistics (one row of Fig. 14/15).
#[derive(Clone, Debug)]
pub struct SlowdownStats {
    /// Upper edge of the flow-size bucket (bytes).
    pub bucket_upper: u64,
    /// Human-readable bucket label.
    pub label: String,
    /// Flows in the bucket.
    pub count: usize,
    /// Average slowdown.
    pub avg: f64,
    /// Median slowdown.
    pub p50: f64,
    /// 95th-percentile slowdown.
    pub p95: f64,
    /// 99th-percentile slowdown.
    pub p99: f64,
}

/// Compute FCT slowdowns — actual FCT divided by the contention-free ideal
/// FCT on the same path ([`Topology::slowdown`]) — bucketed by flow size.
/// Unfinished flows are skipped (callers should run to completion first).
/// Samples are taken in `records` order: the packet backend passes
/// [`Telemetry::flow_records`](fncc_net::telemetry::Telemetry::flow_records),
/// the fluid backend `FluidResult::records`, both in ascending flow id.
pub fn fct_slowdowns(
    topo: &Topology,
    records: impl IntoIterator<Item = FlowRecord>,
    buckets: &[u64],
    mtu_payload: u32,
    header: u32,
) -> Vec<SlowdownStats> {
    let mut per_bucket: Vec<Samples> = (0..buckets.len()).map(|_| Samples::new()).collect();
    let mut path = Vec::new();
    for rec in records {
        let Some(slowdown) = topo.slowdown(&rec, mtu_payload, header, &mut path) else {
            continue;
        };
        per_bucket[bucket_of(rec.size, buckets)].push(slowdown);
    }
    buckets
        .iter()
        .zip(per_bucket.iter_mut())
        .map(|(&upper, s)| SlowdownStats {
            bucket_upper: upper,
            label: bucket_label(upper),
            count: s.len(),
            avg: s.mean(),
            p50: s.median(),
            p95: s.percentile(95.0),
            p99: s.percentile(99.0),
        })
        .collect()
}

/// Merge slowdown samples across repetitions: recompute each bucket's stats
/// as the average of the per-run stats (the paper averages five runs).
pub fn average_slowdowns(runs: &[Vec<SlowdownStats>]) -> Vec<SlowdownStats> {
    assert!(!runs.is_empty());
    let n_buckets = runs[0].len();
    (0..n_buckets)
        .map(|b| {
            let rows: Vec<&SlowdownStats> = runs.iter().map(|r| &r[b]).collect();
            let populated: Vec<&&SlowdownStats> = rows.iter().filter(|r| r.count > 0).collect();
            let k = populated.len().max(1) as f64;
            SlowdownStats {
                bucket_upper: rows[0].bucket_upper,
                label: rows[0].label.clone(),
                count: rows.iter().map(|r| r.count).sum(),
                avg: populated.iter().map(|r| r.avg).sum::<f64>() / k,
                p50: populated.iter().map(|r| r.p50).sum::<f64>() / k,
                p95: populated.iter().map(|r| r.p95).sum::<f64>() / k,
                p99: populated.iter().map(|r| r.p99).sum::<f64>() / k,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fncc_cc::CcKind;
    use fncc_net::ids::{FlowId, HostId};
    use fncc_net::topology::Topology;
    use fncc_net::units::Bandwidth;

    #[test]
    fn reaction_time_finds_first_drop() {
        let mut s = TimeSeries::new("r");
        for k in 0..10u64 {
            let v = if k < 5 { 100.0 } else { 40.0 };
            s.push(SimTime::from_us(k), v);
        }
        assert_eq!(
            reaction_time(&s, SimTime::from_us(2), 90.0),
            Some(SimTime::from_us(5))
        );
        assert_eq!(reaction_time(&s, SimTime::from_us(2), 10.0), None);
    }

    #[test]
    fn time_to_fair_requires_sustained_band() {
        let mut a = TimeSeries::new("a");
        let mut b = TimeSeries::new("b");
        for k in 0..30u64 {
            // Flow a dips out of band at t=5; candidate windows containing
            // the dip must be rejected, so the answer is t=6.
            let va = if k == 5 { 30.0 } else { 50.0 };
            a.push(SimTime::from_us(k), va);
            b.push(SimTime::from_us(k), 52.0);
        }
        let t = time_to_fair(
            &[&a, &b],
            50.0,
            0.1,
            TimeDelta::from_us(5),
            SimTime::from_us(2),
        );
        assert_eq!(t, Some(SimTime::from_us(6)));
    }

    #[test]
    fn time_to_fair_none_when_never_converges() {
        let mut a = TimeSeries::new("a");
        for k in 0..10u64 {
            a.push(SimTime::from_us(k), if k % 2 == 0 { 10.0 } else { 90.0 });
        }
        assert!(time_to_fair(&[&a], 50.0, 0.1, TimeDelta::from_us(3), SimTime::ZERO).is_none());
    }

    #[test]
    fn slowdown_table_buckets_and_floors() {
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        // One fast small flow (slowdown ~1) and one stalled big flow.
        let path: Vec<_> = topo.path_hops(HostId(0), HostId(2), FlowId(0)).collect();
        let ideal = topo.ideal_fct_on(&path, 5_000, 1456, 62);
        let records = [
            FlowRecord {
                flow: FlowId(0),
                src: HostId(0),
                dst: HostId(2),
                size: 5_000,
                start: SimTime::ZERO,
                finish: Some(SimTime::ZERO + ideal),
            },
            FlowRecord {
                flow: FlowId(1),
                src: HostId(1),
                dst: HostId(2),
                size: 2_000_000,
                start: SimTime::ZERO,
                finish: Some(SimTime::from_ms(2)),
            },
        ];
        let buckets = [10_000u64, 1_000_000, 30_000_000];
        let rows = fct_slowdowns(&topo, records, &buckets, 1456, 62);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].count, 1);
        assert!(
            (rows[0].avg - 1.0).abs() < 1e-9,
            "ideal flow slowdown {}",
            rows[0].avg
        );
        assert_eq!(rows[1].count, 0);
        assert_eq!(rows[2].count, 1);
        assert!(rows[2].avg > 5.0);
    }

    #[test]
    fn unfinished_flows_are_skipped() {
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let open = FlowRecord {
            flow: FlowId(0),
            src: HostId(0),
            dst: HostId(2),
            size: 1_000,
            start: SimTime::ZERO,
            finish: None,
        };
        let rows = fct_slowdowns(&topo, [open], &[10_000], 1456, 62);
        assert_eq!(rows[0].count, 0);
    }

    #[test]
    fn averaging_runs() {
        let mk = |avg: f64| {
            vec![SlowdownStats {
                bucket_upper: 10_000,
                label: "10KB".into(),
                count: 5,
                avg,
                p50: avg,
                p95: avg * 2.0,
                p99: avg * 3.0,
            }]
        };
        let merged = average_slowdowns(&[mk(1.0), mk(3.0)]);
        assert_eq!(merged[0].count, 10);
        assert!((merged[0].avg - 2.0).abs() < 1e-12);
        assert!((merged[0].p95 - 4.0).abs() < 1e-12);
    }

    /// Every field of a slowdown table, as bits.
    fn table_bits(rows: &[SlowdownStats]) -> Vec<[u64; 5]> {
        rows.iter()
            .map(|s| [s.count as f64, s.avg, s.p50, s.p95, s.p99].map(f64::to_bits))
            .collect()
    }

    /// A fluid run whose flow ids are out of start order still walks its
    /// records in ascending flow id, so a bucket's mean sums its samples in
    /// the order the packet backend's id-indexed table gives.
    #[test]
    fn fluid_records_walk_in_flow_id_order() {
        use fncc_fluid::{FluidSim, Framing, RateModel};
        use fncc_transport::FlowSpec;
        let topo = Topology::dumbbell(3, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        // Ids 2, 0, 1 start at 0, 5 and 10 µs and share one bottleneck.
        let flows: Vec<FlowSpec> = [(2, 0, 0, 800_000), (0, 1, 5, 600_000), (1, 2, 10, 50_000)]
            .into_iter()
            .map(|(id, src, start_us, size)| FlowSpec {
                id: FlowId(id),
                src: HostId(src),
                dst: HostId(3),
                size,
                start: SimTime::from_us(start_us),
            })
            .collect();
        let r = FluidSim::new(topo.clone(), RateModel::paper_default(CcKind::Fncc))
            .flows(flows)
            .run()
            .unwrap();
        let framing = Framing::default();
        let table = |records: &[FlowRecord]| {
            let rows = fct_slowdowns(
                &topo,
                records.iter().copied(),
                &[1_000_000],
                framing.mtu_payload,
                framing.header,
            );
            table_bits(&rows)
        };
        let walked: Vec<FlowRecord> = r.records().collect();
        let mut by_id = walked.clone();
        by_id.sort_by_key(|rec| rec.flow);
        let mut by_start = walked.clone();
        by_start.sort_by_key(|rec| rec.start);
        assert!(by_id.iter().all(|rec| rec.finish.is_some()));
        assert_ne!(
            table(&by_start),
            table(&by_id),
            "the cell must tell a start-order walk from an id-order one"
        );
        assert_eq!(table(&walked), table(&by_id));
    }
}
