//! `fncc-repro inspect` — interrogate run artifacts from the command line.
//!
//! Works on both artifact kinds the backends emit:
//!
//! * `*.report.json` (`fncc.run_report/v1`) — prints the scalar table, the
//!   series inventory and the slowdown rows.
//! * `*.trace.jsonl` (`fncc.trace/v1`) — answers the flight-recorder
//!   questions: per-flow event timelines (`--flow N`), the top-k hottest
//!   egress queues (`--top K`), PFC pause bursts with their
//!   back-propagation chains, and — on hybrid-backend traces — the
//!   fluid↔packet coupling summary (sync cadence, reservation and
//!   shadow-backlog pushes per link).

use fncc_core::json::Json;
use fncc_core::RUN_REPORT_SCHEMA;
use std::collections::BTreeMap;

/// Options parsed from the `inspect` verb's trailing flags.
#[derive(Clone, Copy, Debug, Default)]
pub struct InspectOpts {
    /// Restrict the trace timeline to one flow id.
    pub flow: Option<u32>,
    /// How many queue hotspots to list (default 5).
    pub top: Option<usize>,
}

/// Inspect one artifact file; returns an error string for the CLI to print.
pub fn inspect(path: &str, opts: InspectOpts) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let first = text.lines().next().unwrap_or("");
    if first.contains("\"schema\":\"fncc.trace/v1\"") {
        inspect_trace(&text, opts)
    } else {
        inspect_report(&text, path)
    }
}

// ----------------------------------------------------------------------
// Report artifacts
// ----------------------------------------------------------------------

fn inspect_report(text: &str, path: &str) -> Result<(), String> {
    let root = Json::parse(text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let schema = root.get("schema").and_then(Json::as_str);
    if schema != Some(RUN_REPORT_SCHEMA) {
        let found = schema.map_or("no schema".to_string(), |s| format!("schema '{s}'"));
        return Err(format!(
            "{path} is neither a trace nor a run report: {found}, want '{RUN_REPORT_SCHEMA}'"
        ));
    }
    let scenario = root.get("scenario").and_then(Json::as_str).unwrap_or("?");
    let backend = root.get("backend").and_then(Json::as_str).unwrap_or("?");
    let cc = root.get("cc").and_then(Json::as_str).unwrap_or("?");
    println!("report   {scenario} [{backend}/{cc}] ({RUN_REPORT_SCHEMA})");
    if let Some(events) = root.get("events").and_then(Json::as_u64) {
        println!("events   {events}");
    }
    if let Some(Json::Obj(scalars)) = root.get("scalars") {
        println!("scalars  ({})", scalars.len());
        for (k, v) in scalars {
            if let Some(x) = v.as_f64() {
                println!("  {k:<28} {x:.6}");
            }
        }
    }
    if let Some(series) = root.get("series").and_then(Json::as_arr) {
        println!("series   ({})", series.len());
        for s in series {
            let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
            let n = s
                .get("t_us")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            println!("  {name:<28} {n} samples");
        }
    }
    if let Some(rows) = root.get("slowdowns").and_then(Json::as_arr) {
        if !rows.is_empty() {
            println!("slowdowns ({} buckets)", rows.len());
            for r in rows {
                let label = r.get("label").and_then(Json::as_str).unwrap_or("?");
                let avg = r.get("avg").and_then(Json::as_f64).unwrap_or(0.0);
                let p99 = r.get("p99").and_then(Json::as_f64).unwrap_or(0.0);
                let count = r.get("count").and_then(Json::as_u64).unwrap_or(0);
                println!("  {label:<28} avg {avg:.2}  p99 {p99:.2}  n={count}");
            }
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Trace artifacts
// ----------------------------------------------------------------------

/// One parsed trace line, kept as generic JSON (the schema is versioned in
/// the artifact, not in this reader — unknown event kinds pass through).
struct Ev {
    kind: String,
    t_ps: u64,
    json: Json,
}

impl Ev {
    fn u(&self, key: &str) -> Option<u64> {
        self.json.get(key).and_then(Json::as_u64)
    }
    fn t_us(&self) -> f64 {
        self.t_ps as f64 / 1e6
    }
}

fn inspect_trace(text: &str, opts: InspectOpts) -> Result<(), String> {
    let mut lines = text.lines();
    let header =
        Json::parse(lines.next().unwrap_or("{}")).map_err(|e| format!("bad trace header: {e}"))?;
    let scenario = header.get("scenario").and_then(Json::as_str).unwrap_or("?");
    let backend = header.get("backend").and_then(Json::as_str).unwrap_or("?");
    let seed = header.get("seed").and_then(Json::as_u64).unwrap_or(0);
    let dropped = header.get("dropped").and_then(Json::as_u64).unwrap_or(0);

    let mut events: Vec<Ev> = Vec::new();
    for (ix, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("bad trace line {}: {e}", ix + 2))?;
        let kind = json
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("trace line {} has no \"ev\" tag", ix + 2))?
            .to_string();
        let t_ps = json.get("t_ps").and_then(Json::as_u64).unwrap_or(0);
        events.push(Ev { kind, t_ps, json });
    }

    println!("trace    {scenario} [{backend}] seed {seed}");
    let span_us = events.last().map_or(0.0, Ev::t_us) - events.first().map_or(0.0, Ev::t_us);
    println!(
        "events   {} over {span_us:.1} us{}",
        events.len(),
        if dropped > 0 {
            format!(" ({dropped} overwritten in the ring)")
        } else {
            String::new()
        }
    );
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &events {
        *by_kind.entry(&e.kind).or_insert(0) += 1;
    }
    for (k, n) in &by_kind {
        println!("  {k:<16} {n}");
    }

    queue_hotspots(&events, opts.top.unwrap_or(5));
    pfc_chains(&events);
    fault_timeline(&events);
    hybrid_coupling(&events);
    if let Some(flow) = opts.flow {
        flow_timeline(&events, flow);
    }
    Ok(())
}

/// Rank egress queues by their peak observed depth.
fn queue_hotspots(events: &[Ev], top: usize) {
    struct Hot {
        peak_bytes: u64,
        peak_t_ps: u64,
        enqueues: u64,
        marks: u64,
        drops: u64,
    }
    let mut hot: BTreeMap<(u64, u64), Hot> = BTreeMap::new();
    for e in events {
        let (Some(sw), Some(port)) = (e.u("sw"), e.u("port")) else {
            continue;
        };
        let h = hot.entry((sw, port)).or_insert(Hot {
            peak_bytes: 0,
            peak_t_ps: 0,
            enqueues: 0,
            marks: 0,
            drops: 0,
        });
        match e.kind.as_str() {
            "enqueue" => {
                h.enqueues += 1;
                let q = e.u("queue_bytes").unwrap_or(0);
                if q > h.peak_bytes {
                    h.peak_bytes = q;
                    h.peak_t_ps = e.t_ps;
                }
            }
            "ecn_mark" => h.marks += 1,
            "drop" => h.drops += 1,
            _ => {}
        }
    }
    let mut ranked: Vec<_> = hot.into_iter().collect();
    ranked.sort_by(|a, b| b.1.peak_bytes.cmp(&a.1.peak_bytes).then(a.0.cmp(&b.0)));
    if ranked.is_empty() {
        return;
    }
    println!(
        "top {} queue hotspots (by peak depth):",
        top.min(ranked.len())
    );
    for ((sw, port), h) in ranked.into_iter().take(top) {
        println!(
            "  sw{sw}:p{port}  peak {:.1} KB @ {:.1} us  ({} enq, {} ecn, {} drop)",
            h.peak_bytes as f64 / 1024.0,
            h.peak_t_ps as f64 / 1e6,
            h.enqueues,
            h.marks,
            h.drops,
        );
    }
}

/// Cluster transmitted PFC pauses into bursts and report each burst's
/// back-propagation chain (the distinct nodes that went XOFF, upstream
/// order = order of first pause).
fn pfc_chains(events: &[Ev]) {
    /// Pauses more than this far apart belong to different storms.
    const GAP_PS: u64 = 10_000_000; // 10 us
    let pauses: Vec<&Ev> = events
        .iter()
        .filter(|e| e.kind == "pfc_pause" && e.json.get("tx").and_then(Json::as_bool) == Some(true))
        .collect();
    if pauses.is_empty() {
        println!("pfc      no transmitted pauses");
        return;
    }
    let mut bursts: Vec<Vec<&Ev>> = vec![vec![pauses[0]]];
    for p in &pauses[1..] {
        let last_t = bursts.last().unwrap().last().unwrap().t_ps;
        if p.t_ps.saturating_sub(last_t) > GAP_PS {
            bursts.push(Vec::new());
        }
        bursts.last_mut().unwrap().push(p);
    }
    println!(
        "pfc      {} pauses in {} burst(s):",
        pauses.len(),
        bursts.len()
    );
    for b in &bursts {
        // Chain = nodes in order of first appearance within the burst.
        let mut chain: Vec<String> = Vec::new();
        for p in b {
            let node = p.u("node").unwrap_or(0);
            let host = p.json.get("at_host").and_then(Json::as_bool) == Some(true);
            let name = format!("{}{}", if host { "h" } else { "sw" }, node);
            if !chain.contains(&name) {
                chain.push(name);
            }
        }
        let t0 = b.first().unwrap().t_us();
        let t1 = b.last().unwrap().t_us();
        println!(
            "  {:.1}-{:.1} us  {} pauses, chain depth {}: {}",
            t0,
            t1,
            b.len(),
            chain.len(),
            chain.join(" <- "),
        );
    }
}

/// The fault timeline: link down/up spans per port, drops attributed to
/// injected faults vs buffer exhaustion, and per-flow RTO bursts (consecutive
/// expiries clustered into loss episodes, with the backoff ceiling reached).
/// Prints nothing on traces with no fault or recovery events.
fn fault_timeline(events: &[Ev]) {
    let has_fault_events = events.iter().any(|e| {
        matches!(
            e.kind.as_str(),
            "link_down" | "link_up" | "fault_drop" | "rto" | "retransmit"
        )
    });
    if !has_fault_events {
        return;
    }
    println!("faults");

    // Link state spans: pair each down with the next up on the same port.
    let mut down_at: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut spans: Vec<((u64, u64), u64, Option<u64>)> = Vec::new();
    for e in events {
        let (Some(sw), Some(port)) = (e.u("sw"), e.u("port")) else {
            continue;
        };
        match e.kind.as_str() {
            "link_down" => {
                down_at.insert((sw, port), e.t_ps);
            }
            "link_up" => {
                if let Some(t0) = down_at.remove(&(sw, port)) {
                    spans.push(((sw, port), t0, Some(e.t_ps)));
                }
            }
            _ => {}
        }
    }
    for (key, t0) in down_at {
        spans.push((key, t0, None));
    }
    spans.sort_by_key(|&(_, t0, _)| t0);
    for ((sw, port), t0, t1) in &spans {
        match t1 {
            Some(t1) => println!(
                "  link sw{sw}:p{port}  down {:.1}-{:.1} us ({:.1} us outage)",
                *t0 as f64 / 1e6,
                *t1 as f64 / 1e6,
                (*t1 - *t0) as f64 / 1e6,
            ),
            None => println!(
                "  link sw{sw}:p{port}  down at {:.1} us, never restored",
                *t0 as f64 / 1e6
            ),
        }
    }

    // Drop attribution: the fabric tags injected-fault kills `fault_drop`;
    // plain `drop` remains buffer exhaustion.
    let fault_drops = events.iter().filter(|e| e.kind == "fault_drop").count();
    let buffer_drops = events.iter().filter(|e| e.kind == "drop").count();
    if fault_drops + buffer_drops > 0 {
        println!("  drops: {fault_drops} fault-attributed, {buffer_drops} buffer-exhaustion");
    }

    // RTO bursts per flow: a gap much longer than the previous expiry's own
    // timeout starts a new loss episode (backoff resets on ACK progress).
    let mut rtos_by_flow: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut retx_by_flow: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        match e.kind.as_str() {
            "rto" => {
                if let Some(flow) = e.u("flow") {
                    rtos_by_flow
                        .entry(flow)
                        .or_default()
                        .push((e.t_ps, e.u("rto_ps").unwrap_or(0)));
                }
            }
            "retransmit" => {
                if let Some(flow) = e.u("flow") {
                    *retx_by_flow.entry(flow).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }
    for (flow, rtos) in &rtos_by_flow {
        let mut bursts: Vec<Vec<(u64, u64)>> = vec![vec![rtos[0]]];
        for &(t, rto) in &rtos[1..] {
            let &(last_t, last_rto) = bursts.last().unwrap().last().unwrap();
            if t.saturating_sub(last_t) > 2 * last_rto {
                bursts.push(Vec::new());
            }
            bursts.last_mut().unwrap().push((t, rto));
        }
        let retx = retx_by_flow.get(flow).copied().unwrap_or(0);
        let summary: Vec<String> = bursts
            .iter()
            .map(|b| {
                let t0 = b.first().unwrap().0 as f64 / 1e6;
                let max_rto = b.iter().map(|&(_, r)| r).max().unwrap_or(0);
                format!(
                    "{} @ {t0:.1} us (max rto {:.0} us)",
                    b.len(),
                    max_rto as f64 / 1e6
                )
            })
            .collect();
        println!(
            "  flow {flow}: {} rto(s) in {} burst(s) [{}], {retx} retransmit(s)",
            rtos.len(),
            bursts.len(),
            summary.join("; "),
        );
    }
    // Retransmissions without any RTO (e.g. rewinds triggered elsewhere).
    for (flow, retx) in &retx_by_flow {
        if !rtos_by_flow.contains_key(flow) {
            println!("  flow {flow}: {retx} retransmit(s), no RTO");
        }
    }
}

/// Summarize the hybrid backend's coupling stream: synchronization
/// cadence and the per-link reservation / shadow-backlog pushes.
/// Prints nothing on non-hybrid traces.
fn hybrid_coupling(events: &[Ev]) {
    let syncs: Vec<&Ev> = events.iter().filter(|e| e.kind == "hybrid_sync").collect();
    if syncs.is_empty() {
        return;
    }
    let t0 = syncs.first().unwrap().t_us();
    let t1 = syncs.last().unwrap().t_us();
    let mean_gap_us = if syncs.len() > 1 {
        (t1 - t0) / (syncs.len() - 1) as f64
    } else {
        0.0
    };
    println!(
        "hybrid   {} syncs over {:.1}-{:.1} us (mean gap {:.2} us)",
        syncs.len(),
        t0,
        t1,
        mean_gap_us
    );
    struct Link {
        reserves: u64,
        last_load_bps: f64,
        backlogs: u64,
        max_backlog_bytes: u64,
    }
    let mut links: BTreeMap<u64, Link> = BTreeMap::new();
    for e in events {
        let Some(l) = e.u("link") else { continue };
        let link = links.entry(l).or_insert(Link {
            reserves: 0,
            last_load_bps: 0.0,
            backlogs: 0,
            max_backlog_bytes: 0,
        });
        match e.kind.as_str() {
            "hybrid_reserve" => {
                link.reserves += 1;
                link.last_load_bps = e.json.get("load_bps").and_then(Json::as_f64).unwrap_or(0.0);
            }
            "hybrid_backlog" => {
                link.backlogs += 1;
                let b = e.u("backlog_bytes").unwrap_or(0);
                link.max_backlog_bytes = link.max_backlog_bytes.max(b);
            }
            _ => {}
        }
    }
    for (l, link) in &links {
        if link.reserves == 0 && link.backlogs == 0 {
            continue;
        }
        println!(
            "  link {l}: {} reservations (last fg load {:.2}G), \
             {} backlog pushes (max {} B)",
            link.reserves,
            link.last_load_bps / 1e9,
            link.backlogs,
            link.max_backlog_bytes,
        );
    }
}

/// Print every event that names `flow`, in time order.
fn flow_timeline(events: &[Ev], flow: u32) {
    let picked: Vec<&Ev> = events
        .iter()
        .filter(|e| e.u("flow") == Some(flow as u64))
        .collect();
    println!("timeline for flow {flow} ({} events):", picked.len());
    for e in picked {
        let mut detail = String::new();
        for key in ["sw", "port", "hop", "size", "queue_bytes", "age_ps"] {
            if let Some(v) = e.u(key) {
                detail.push_str(&format!(" {key}={v}"));
            }
        }
        if let Some(r) = e.json.get("rate_bps").and_then(Json::as_f64) {
            detail.push_str(&format!(" rate={:.2}G", r / 1e9));
        }
        if let Some(w) = e.json.get("window_bytes").and_then(Json::as_f64) {
            if w >= 0.0 {
                detail.push_str(&format!(" wnd={w:.0}B"));
            }
        }
        println!("  {:>12.3} us  {:<12}{}", e.t_us(), e.kind, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        let mut s = String::new();
        s.push_str(
            "{\"schema\":\"fncc.trace/v1\",\"scenario\":\"t\",\"backend\":\"packet\",\
             \"seed\":1,\"events\":4,\"dropped\":0}\n",
        );
        s.push_str(
            "{\"ev\":\"flow_start\",\"t_ps\":0,\"flow\":3,\"src\":0,\"dst\":2,\"size\":100}\n",
        );
        s.push_str(
            "{\"ev\":\"enqueue\",\"t_ps\":1000,\"sw\":0,\"port\":2,\"flow\":3,\"size\":1518,\
             \"queue_bytes\":1518}\n",
        );
        s.push_str(
            "{\"ev\":\"pfc_pause\",\"t_ps\":2000,\"node\":0,\"port\":0,\"tx\":true,\
             \"at_host\":false}\n",
        );
        s.push_str("{\"ev\":\"flow_finish\",\"t_ps\":9000,\"flow\":3}\n");
        s
    }

    fn hybrid_trace() -> String {
        let mut s = sample_trace();
        s.push_str(
            "{\"ev\":\"hybrid_reserve\",\"t_ps\":3000,\"link\":7,\
             \"load_bps\":2.5e10}\n",
        );
        s.push_str(
            "{\"ev\":\"hybrid_backlog\",\"t_ps\":3000,\"link\":7,\
             \"backlog_bytes\":93810}\n",
        );
        s.push_str("{\"ev\":\"hybrid_sync\",\"t_ps\":3000,\"reservations\":1}\n");
        s.push_str("{\"ev\":\"hybrid_sync\",\"t_ps\":8000,\"reservations\":0}\n");
        s
    }

    fn fault_trace() -> String {
        let mut s = sample_trace();
        s.push_str("{\"ev\":\"link_down\",\"t_ps\":100000000,\"sw\":0,\"port\":2}\n");
        s.push_str(
            "{\"ev\":\"fault_drop\",\"t_ps\":100000000,\"sw\":0,\"port\":2,\"flow\":3,\
             \"size\":1518}\n",
        );
        s.push_str("{\"ev\":\"rto\",\"t_ps\":200000000,\"flow\":3,\"rto_ps\":100000000}\n");
        s.push_str("{\"ev\":\"rto\",\"t_ps\":300000000,\"flow\":3,\"rto_ps\":200000000}\n");
        s.push_str("{\"ev\":\"retransmit\",\"t_ps\":400000000,\"flow\":3,\"seq\":0}\n");
        s.push_str("{\"ev\":\"link_up\",\"t_ps\":400000000,\"sw\":0,\"port\":2}\n");
        s.push_str("{\"ev\":\"link_down\",\"t_ps\":500000000,\"sw\":1,\"port\":3}\n");
        s
    }

    #[test]
    fn fault_trace_inspection_reports_timeline() {
        // Down/up span + an unrestored link + an RTO burst: the timeline
        // reader must accept all of it (rendering is eyeballed in CI logs).
        let text = fault_trace();
        assert!(inspect_trace(&text, InspectOpts::default()).is_ok());
    }

    #[test]
    fn hybrid_trace_inspection_summarizes_coupling() {
        let text = hybrid_trace();
        assert!(inspect_trace(&text, InspectOpts::default()).is_ok());
    }

    #[test]
    fn trace_inspection_parses_all_lines() {
        let text = sample_trace();
        let r = inspect_trace(
            &text,
            InspectOpts {
                flow: Some(3),
                top: Some(3),
            },
        );
        assert!(r.is_ok());
    }

    #[test]
    fn malformed_line_is_located() {
        let mut text = sample_trace();
        text.push_str("{not json\n");
        let err = inspect_trace(&text, InspectOpts::default()).unwrap_err();
        assert!(err.contains("line 6"), "{err}");
    }

    #[test]
    fn report_inspection_accepts_minimal_report() {
        let report = format!(
            "{{\"schema\":\"{RUN_REPORT_SCHEMA}\",\"scenario\":\"x\",\"backend\":\"packet\",\
             \"cc\":\"fncc\",\"events\":5,\"scalars\":{{\"a\":1.5}},\"series\":[],\"slowdowns\":[]}}"
        );
        assert!(inspect_report(&report, "mem").is_ok());
    }

    #[test]
    fn report_inspection_rejects_other_documents() {
        let scenario = include_str!("../../../scenarios/incast_fattree.json");
        for (doc, found) in [
            ("{}", "no schema"),
            (scenario, "no schema"),
            ("{\"schema\":\"fncc.report/v1\"}", "schema 'fncc.report/v1'"),
        ] {
            let err = inspect_report(doc, "mem").unwrap_err();
            assert!(err.contains(found), "{err}");
        }
    }
}
