//! Metric assembly, the result line, and the per-workload Chrome trace.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;
use wtpg_obs::chrome::chrome_trace;
use wtpg_obs::ObsEvent;

use crate::probe::{Dir, LinkStats, SchedAgg, Span};
use crate::replay::ReplayStats;
use crate::rt::{Inputs, Round};
use crate::sim::SimRound;

/// Every per-layer metric with its unit; a traced run prints all of them
/// (0 where the workload does not exercise the layer).
pub const LAYER_METRICS: [(&str, &str); 40] = [
    ("sched.arrive_us", "us"),
    ("sched.request_us", "us"),
    ("sched.commit_us", "us"),
    ("sched.busy_share", "share"),
    ("sched.rejects_per_commit", "count"),
    ("sched.requests_per_grant", "count"),
    ("sched.w_recomputes_per_commit", "count"),
    ("sched.eq_evals_per_commit", "count"),
    ("control.backlog_mean", "txns"),
    ("control.parked_mean", "txns"),
    ("fabric.msgs_per_commit", "count"),
    ("fabric.msgs_per_commit.client-control", "count"),
    ("fabric.msgs_per_commit.control-data", "count"),
    ("fabric.msgs_per_commit.data-control", "count"),
    ("fabric.msgs_per_commit.control-client", "count"),
    ("fabric.batch_fill", "msgs"),
    ("fabric.send_us", "us"),
    ("fabric.bytes_per_commit", "B"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("store.apply_ns_per_unit", "ns"),
    ("wal.bytes_per_commit", "B"),
    ("wal.flushes_per_commit", "count"),
    ("wal.append_us", "us"),
    ("wal.flush_us", "us"),
    ("mvcc.snapshot_reads_per_reader", "count"),
    ("mvcc.chain_live_peak", "count"),
    ("mvcc.pruned_share", "share"),
    ("mvcc.snapshot_cells_us", "us"),
    ("mvcc.reader_p50_ms", "ms"),
    ("mvcc.reader_p99_ms", "ms"),
    ("certify.events_per_s", "1/s"),
    ("client.commit_p50_ms", "ms"),
    ("client.commit_p99_ms", "ms"),
    ("client.commit_max_ms", "ms"),
    ("client.late_commits", "count"),
    ("sim.sched_share", "share"),
    ("sim.eq_evals_per_txn", "count"),
    ("sim.w_recomputes_per_txn", "count"),
    ("sim.sim_s_per_s", "s/s"),
];

/// Median of `v` (the mean of the middle pair for even lengths); NaN if
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The quartiles Python's `statistics.quantiles(v, n=4)` returns (the
/// default "exclusive" method), for at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len() as i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Percentile `q` (0..=1) of `v` by nearest rank.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    s[(((s.len() - 1) as f64) * q).round() as usize]
}

/// A run's result.
#[derive(Default)]
pub struct Out {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, String)>,
}

impl Out {
    /// Sets metric `name`, in place if it is already listed.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(m) => *m = (name.to_string(), value, unit.to_string()),
            None => self
                .metrics
                .push((name.to_string(), value, unit.to_string())),
        }
    }

    /// Prints the metrics, any check failures, and the result line.
    /// Exit code 1 when a check failed.
    pub fn finish(self, workload: &str) -> ExitCode {
        for (n, v, u) in &self.metrics {
            println!("  {n:<40} {v:>14.4} {u}");
        }
        for e in self.errors.iter().take(20) {
            eprintln!("CHECK FAILED [{workload}]: {e}");
        }
        let correct = self.errors.is_empty() && self.attempted > 0;
        println!("  attempted {}, failed {}", self.attempted, self.failed);
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                let entry = vec![
                    ("value".to_string(), Value::F64(v)),
                    ("unit".to_string(), Value::Str(u.clone())),
                ];
                (n.clone(), Value::Map(entry))
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&line).expect("a value tree serializes")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end metrics from per-round figures (see [`good_quartile`])
/// and per-round set-up times (their median).
pub fn end_to_end(
    out: &mut Out,
    tps: &[f64],
    cpu: &[f64],
    cert: &[f64],
    rss: f64,
    setups: &[f64],
) {
    out.metric("commit_tps", good_quartile(tps, true), "1/s");
    out.metric("cpu_us_per_commit", good_quartile(cpu, false), "us");
    out.metric("certify_s", good_quartile(cert, false), "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("setup_s", median(setups), "s");
}

/// The quartile of the per-round figures on the good side: the upper one
/// where higher is better, else the lower. On a shared VM the neighbours
/// only ever slow a round down, in bursts that can cover several rounds,
/// so the good quartile tracks the program more closely than the median.
/// Unlike the best round it does not drift with the number of rounds, and
/// a regression that slows more than a quarter of the rounds moves it.
fn good_quartile(v: &[f64], higher_is_better: bool) -> f64 {
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        _ => {
            let (q1, _, q3) = quartiles(v);
            if higher_is_better {
                q3
            } else {
                q1
            }
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn zero_layers(out: &mut Out) {
    for (n, u) in LAYER_METRICS {
        out.metric(n, 0.0, u);
    }
}

/// The wrapped schedulers' metrics over a run of `wall_s` seconds;
/// returns their busy share of it.
fn sched_layers(out: &mut Out, s: &SchedAgg, wall_s: f64) -> f64 {
    let per = |ns: u64, n: u64| ratio(ns as f64 / 1e3, n as f64);
    let commits = s.commits as f64;
    let share = ratio(s.busy_ns() as f64 / 1e9, wall_s);
    out.metric("sched.arrive_us", per(s.arrive_ns, s.arrives), "us");
    out.metric("sched.request_us", per(s.request_ns, s.requests), "us");
    out.metric("sched.commit_us", per(s.commit_ns, s.commits), "us");
    out.metric("sched.busy_share", share, "share");
    let rejects = ratio(s.rejects as f64, commits);
    out.metric("sched.rejects_per_commit", rejects, "count");
    let requests = ratio(s.requests as f64, s.grants as f64);
    out.metric("sched.requests_per_grant", requests, "count");
    let w = ratio(s.stats.w_recomputes as f64, commits);
    out.metric("sched.w_recomputes_per_commit", w, "count");
    let eq = ratio(s.stats.eq_cache_misses as f64, commits);
    out.metric("sched.eq_evals_per_commit", eq, "count");
    share
}

/// Per-layer metrics of a runtime workload. Client and reader latencies
/// come from the untraced rounds; everything else from the last traced
/// round and its replays.
pub fn runtime_layers(
    out: &mut Out,
    inp: &Inputs,
    plain: &[Round],
    last: &Round,
    rp: &ReplayStats,
) {
    zero_layers(out);
    let r = &last.report;
    let t = last.traced.as_ref().expect("traced round");
    let s = &t.sched;
    let commits = r.committed as f64;
    let per = |ns: u64, n: u64| ratio(ns as f64 / 1e3, n as f64);
    sched_layers(out, s, last.wall_s());
    out.metric("control.backlog_mean", t.gauges.backlog, "txns");
    out.metric("control.parked_mean", t.gauges.parked, "txns");

    let l = &t.links;
    let mut sends = 0u64;
    let mut send_ns = 0u64;
    let mut by_dir: BTreeMap<Dir, u64> = BTreeMap::new();
    for (&(dir, _), &(n, ns)) in &l.sends {
        sends += n;
        send_ns += ns;
        *by_dir.entry(dir).or_default() += n;
    }
    out.metric(
        "fabric.msgs_per_commit",
        ratio(sends as f64, commits),
        "count",
    );
    for (dir, name) in [
        (
            Dir::ClientToControl,
            "fabric.msgs_per_commit.client-control",
        ),
        (Dir::ControlToData, "fabric.msgs_per_commit.control-data"),
        (Dir::DataToControl, "fabric.msgs_per_commit.data-control"),
        (
            Dir::ControlToClient,
            "fabric.msgs_per_commit.control-client",
        ),
    ] {
        let n = by_dir.get(&dir).copied().unwrap_or(0) as f64;
        out.metric(name, ratio(n, commits), "count");
    }
    out.metric(
        "fabric.batch_fill",
        ratio(l.batched as f64, l.batches as f64),
        "msgs",
    );
    out.metric("fabric.send_us", per(send_ns, sends), "us");
    out.metric(
        "fabric.bytes_per_commit",
        ratio(r.bytes_sent as f64, commits),
        "B",
    );
    out.metric("codec.encode_ns", rp.encode_ns, "ns");
    out.metric("codec.decode_ns", rp.decode_ns, "ns");
    out.metric("store.apply_ns_per_unit", rp.apply_ns_per_unit, "ns");
    out.metric(
        "wal.bytes_per_commit",
        ratio(r.wal_bytes as f64, commits),
        "B",
    );
    out.metric(
        "wal.flushes_per_commit",
        ratio(r.wal_flushes as f64, commits),
        "count",
    );
    out.metric("wal.append_us", rp.wal_append_us, "us");
    out.metric("wal.flush_us", rp.wal_flush_us, "us");
    let reads = ratio(r.snapshot_reads as f64, r.reader_commits as f64);
    out.metric("mvcc.snapshot_reads_per_reader", reads, "count");
    out.metric("mvcc.chain_live_peak", r.chain_live_peak as f64, "count");
    let pruned = ratio(r.chain_pruned as f64, r.chain_appended as f64);
    out.metric("mvcc.pruned_share", pruned, "share");
    out.metric("mvcc.snapshot_cells_us", rp.snapshot_cells_us, "us");
    out.metric(
        "certify.events_per_s",
        ratio(r.history_events as f64, last.certify_s),
        "1/s",
    );

    // Latency percentiles per untraced round, reported as their medians.
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut max = Vec::new();
    let mut late = Vec::new();
    let mut rp50 = Vec::new();
    let mut rp99 = Vec::new();
    for round in plain {
        p50.push(percentile(&round.lat_ms, 0.5));
        p99.push(percentile(&round.lat_ms, 0.99));
        max.push(percentile(&round.lat_ms, 1.0));
        late.push(round.late as f64);
        let readers: Vec<f64> = inp
            .specs
            .iter()
            .zip(&round.lat_ms)
            .filter(|(t, _)| inp.readers > 0 && t.is_read_only())
            .map(|(_, &l)| l)
            .collect();
        rp50.push(percentile(&readers, 0.5));
        rp99.push(percentile(&readers, 0.99));
    }
    out.metric("client.commit_p50_ms", median(&p50), "ms");
    out.metric("client.commit_p99_ms", median(&p99), "ms");
    out.metric("client.commit_max_ms", median(&max), "ms");
    out.metric("client.late_commits", median(&late), "count");
    out.metric("mvcc.reader_p50_ms", median(&rp50), "ms");
    out.metric("mvcc.reader_p99_ms", median(&rp99), "ms");
}

/// Per-layer metrics of `paper-sweep` (last traced round).
pub fn sim_layers(out: &mut Out, last: &SimRound) {
    zero_layers(out);
    let Some(s) = &last.sched else { return };
    let share = sched_layers(out, s, last.run_s);
    out.metric(
        "certify.events_per_s",
        ratio(last.events as f64, last.certify_s),
        "1/s",
    );
    let txns = last.completed as f64;
    out.metric("sim.sched_share", share, "share");
    out.metric(
        "sim.eq_evals_per_txn",
        ratio(last.eq_evals as f64, txns),
        "count",
    );
    let w = s.stats.w_recomputes as f64;
    out.metric("sim.w_recomputes_per_txn", ratio(w, txns), "count");
    out.metric("sim.sim_s_per_s", ratio(last.sim_s, last.run_s), "s/s");
}

/// Per-(direction, type) send tallies of a traced round, for the log.
pub fn print_fabric(l: &LinkStats, commits: u64) {
    println!("  fabric sends per commit (direction / type, mean send µs):");
    for dir in Dir::ALL {
        for (&(d, kind), &(n, ns)) in &l.sends {
            if d == dir {
                println!(
                    "    {:<16} {:<15} {:>8.3} {:>8.2}",
                    dir.label(),
                    kind,
                    ratio(n as f64, commits as f64),
                    ratio(ns as f64 / 1e3, n as f64)
                );
            }
        }
    }
}

/// Spans of a traced runtime round: scheduler calls, link sends, and one
/// submit→commit span per transaction.
pub fn runtime_spans(last: &Round) -> Vec<Span> {
    let mut spans = Vec::new();
    if let Some(t) = &last.traced {
        spans.extend_from_slice(&t.sched.spans);
        spans.extend_from_slice(&t.links.spans);
    }
    for (i, (&s, &l)) in last.submit_ns.iter().zip(&last.lat_ms).enumerate() {
        if s > 0 && i < 20_000 {
            spans.push(Span {
                layer: "client.txn",
                start_ns: s,
                end_ns: s + (l * 1e6) as u64,
                txn: i as u64 + 1,
            });
        }
    }
    spans
}

/// Writes `spans` as `.bench_out/trace-<workload>.json` (Chrome format,
/// one track per layer, timestamps in µs since the process started).
pub fn write_trace(workload: &str, mut spans: Vec<Span>, errors: &mut Vec<String>) {
    spans.sort_by_key(|s| s.start_ns);
    let mut tracks: BTreeMap<&str, u32> = BTreeMap::new();
    let events: Vec<ObsEvent> = spans
        .iter()
        .map(|s| {
            let n = tracks.len() as u32;
            let track = *tracks.entry(s.layer).or_insert(n);
            let dur = (s.end_ns.saturating_sub(s.start_ns) + 500) / 1000;
            ObsEvent::duration(s.start_ns / 1000, track, s.layer, s.txn, dur)
        })
        .collect();
    let path = format!("{}/trace-{workload}.json", crate::OUT_DIR);
    match std::fs::write(&path, chrome_trace(&events, 1)) {
        Ok(()) => println!(
            "  trace: {} spans on {} layers -> {path}",
            events.len(),
            tracks.len()
        ),
        Err(e) => errors.push(format!("writing {path}: {e}")),
    }
}
