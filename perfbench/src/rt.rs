//! The three runtime workloads: inputs, one round through
//! `wtpg_net::run_cell_load`, and the checks on every round's outputs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use wtpg_core::partition::Catalog;
use wtpg_core::txn::{AccessMode, TxnSpec};
use wtpg_net::{
    run_cell_load, Durability, FaultPlan, InProc, NetConfig, NetReport, Tcp, Transport,
};
use wtpg_obs::Registry;
use wtpg_rt::engine::SendScheduler;
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::{Pattern, ReadMix};

use crate::probe::{
    now_ns, sample_gauges, GaugeMeans, LinkStats, SchedAgg, Stamps, Tap, TracedSched,
};
use crate::usage;

/// Commits acknowledged later than this share of their round's wall after
/// their submission are reported as `client.late_commits`. Fair commits
/// finish within a few ms (p99 under 5 ms in-process, under 40 ms over
/// TCP), while the transactions stranded behind the admission bypass (see
/// the README) wait for the end of the stream, most of the round's wall
/// whatever the throughput. Their number varies from round to round, so it
/// is reported, not counted as failed operations.
pub const LATE_SHARE: f64 = 0.5;

/// Clients per run (no more client actors than the two cores of the
/// reference machine) and their pipeline depth: 2 × 16 in flight exactly
/// fills the default admission window of 32.
pub const CLIENTS: usize = 2;
pub const PIPELINE: usize = 16;

/// Shape of one runtime workload.
pub struct RtShape {
    pub sched: &'static str,
    pub pattern: Pattern,
    pub tcp: bool,
    pub wal: bool,
    /// `Some((fraction, theta))`: rewrite that share of the stream into
    /// Zipf-skewed read-only BATs and run them on the MVCC snapshot plane.
    pub readers: Option<(f64, f64)>,
    /// Transactions per round.
    pub txns: usize,
}

pub fn shape(name: &str) -> Option<RtShape> {
    let hot = Pattern::Two { num_hots: 4 };
    Some(match name {
        "hot-chain" => RtShape {
            sched: "chain",
            pattern: hot,
            tcp: false,
            wal: false,
            readers: None,
            txns: 20_000,
        },
        "exp1-tcp-wal" => RtShape {
            sched: "k2",
            pattern: Pattern::One,
            tcp: true,
            wal: true,
            readers: None,
            txns: 10_000,
        },
        "mvcc-readers" => RtShape {
            sched: "chain",
            pattern: hot,
            tcp: false,
            wal: false,
            readers: Some((0.5, 0.9)),
            txns: 20_000,
        },
        _ => return None,
    })
}

/// One round's inputs plus the expectations computed from them.
pub struct Inputs {
    pub catalog: Catalog,
    pub specs: Vec<TxnSpec>,
    /// Declared write units per partition (the conservation reference).
    pub units: BTreeMap<u32, u64>,
    pub units_total: u64,
    pub readers: u64,
    pub max_id: u64,
}

pub fn inputs(shape: &RtShape, seed: u64) -> Inputs {
    let (catalog, mut specs) = pattern_specs(shape.pattern, shape.txns, seed);
    if let Some((fraction, theta)) = shape.readers {
        ReadMix::skewed(fraction, theta).apply(&catalog, &mut specs, seed);
    }
    let mut units = BTreeMap::new();
    for st in specs.iter().flat_map(|t| t.steps()) {
        if st.mode == AccessMode::Write {
            *units.entry(st.partition.0).or_insert(0) += st.actual_cost.units();
        }
    }
    Inputs {
        units_total: units.values().sum(),
        readers: if shape.readers.is_some() {
            specs.iter().filter(|t| t.is_read_only()).count() as u64
        } else {
            0
        },
        max_id: specs.iter().map(|t| t.id.0).max().unwrap_or(0),
        catalog,
        specs,
        units,
    }
}

pub fn config(shape: &RtShape, wal_dir: &Path) -> NetConfig {
    NetConfig {
        clients: CLIENTS,
        pipeline: PIPELINE,
        durability: if shape.wal {
            Durability::Buffered
        } else {
            Durability::None
        },
        wal_dir: shape.wal.then(|| wal_dir.to_path_buf()),
        mvcc: shape.readers.is_some(),
        ..NetConfig::default()
    }
}

/// Traced-round extras.
pub struct Traced {
    pub sched: SchedAgg,
    pub links: LinkStats,
    pub gauges: GaugeMeans,
}

/// What one round measured.
pub struct Round {
    pub report: NetReport,
    /// From the run call to the first submission: fabric build (TCP
    /// connects included), actor start-up.
    pub start_s: f64,
    /// Time the run call spent after its actors joined: replay and
    /// snapshot certification, conservation, and fabric teardown. Taken as
    /// the call's end less the first submission less the actors' wall.
    pub certify_s: f64,
    pub cpu_s: f64,
    /// Per-transaction submit→commit-ack latency, ms, in spec order.
    pub lat_ms: Vec<f64>,
    pub late: u64,
    pub submit_ns: Vec<u64>,
    pub traced: Option<Traced>,
}

impl Round {
    pub fn wall_s(&self) -> f64 {
        self.report.wall_ms / 1e3
    }
    pub fn tps(&self) -> f64 {
        self.report.committed as f64 / self.wall_s()
    }
}

fn transport(shape: &RtShape) -> &'static dyn Transport {
    if shape.tcp {
        &Tcp
    } else {
        &InProc
    }
}

/// Runs one round; checks go to `errors`.
pub fn round(
    shape: &RtShape,
    inp: &Inputs,
    wal_dir: &PathBuf,
    trace: bool,
    errors: &mut Vec<String>,
) -> Option<Round> {
    let _ = std::fs::remove_dir_all(wal_dir);
    let cfg = config(shape, wal_dir);
    let stamps = Arc::new(Stamps::new(inp.max_id));
    let tap = Tap::new(transport(shape), Arc::clone(&stamps), trace);
    let sink = Arc::new(Mutex::new(SchedAgg::default()));
    let name = shape.sched;
    let factory = || -> SendScheduler {
        let inner = sched_by_name(name, 2, 5000).expect("benchmark schedulers exist");
        if trace {
            Box::new(TracedSched::new(inner, Arc::clone(&sink), true))
        } else {
            inner
        }
    };
    let reg = trace.then(|| Arc::new(Registry::new()));
    let stop = AtomicBool::new(false);
    let cpu0 = usage::cpu_s();
    let call_ns = now_ns();
    let (res, gauges) = std::thread::scope(|s| {
        let sampler = reg.as_ref().map(|r| {
            let r = Arc::clone(r);
            let stop = &stop;
            s.spawn(move || sample_gauges(&r, stop, Duration::from_micros(500)))
        });
        let res = run_cell_load(
            &cfg,
            &factory,
            &inp.catalog,
            &inp.specs,
            &tap,
            &FaultPlan::none(),
            None,
            reg.clone(),
        );
        stop.store(true, Ordering::Relaxed);
        let gauges = sampler.map(|h| h.join().expect("the gauge sampler does not panic"));
        (res, gauges)
    });
    let end_ns = now_ns();
    let cpu_s = usage::cpu_s() - cpu0;
    let _ = std::fs::remove_dir_all(wal_dir);
    let report = match res {
        Ok(r) => r,
        Err(e) => {
            errors.push(format!("run failed: {e}"));
            return None;
        }
    };
    check_report(&report, inp, errors);

    let mut lat_ms = Vec::with_capacity(inp.specs.len());
    let mut submit_ns = Vec::with_capacity(inp.specs.len());
    let mut missing = 0u64;
    for t in &inp.specs {
        let i = t.id.0 as usize;
        let s = stamps.submit[i].load(Ordering::Relaxed);
        let c = stamps.commit[i].load(Ordering::Relaxed);
        if s == 0 || c == 0 || c < s {
            missing += 1;
            lat_ms.push(0.0);
        } else {
            lat_ms.push((c - s) as f64 / 1e6);
        }
        submit_ns.push(s);
    }
    if missing > 0 {
        errors.push(format!(
            "{missing} transactions were never submitted or acknowledged"
        ));
    }
    let late_ms = report.wall_ms * LATE_SHARE;
    let late = lat_ms.iter().filter(|&&l| l > late_ms).count() as u64;
    let first_ns = submit_ns.iter().copied().filter(|&s| s > 0).min().unwrap_or(call_ns);
    let start_s = first_ns.saturating_sub(call_ns) as f64 / 1e9;
    let certify_s = (end_ns.saturating_sub(first_ns) as f64 / 1e9 - report.wall_ms / 1e3).max(0.0);

    let traced = trace.then(|| {
        let sched = std::mem::take(
            &mut *sink
                .lock()
                .expect("scheduler tallies are merged without panicking"),
        );
        errors.extend(
            sched
                .violations
                .iter()
                .map(|v| format!("lock exclusion: {v}")),
        );
        let links = tap.merged();
        let ordered = crate::replay::ordered_write_units(&links.accesses);
        let declared: BTreeMap<u32, u64> = inp
            .units
            .iter()
            .filter(|(_, &u)| u > 0)
            .map(|(&p, &u)| (p, u))
            .collect();
        if ordered != declared {
            errors.push("Access orders do not carry the declared write units per partition".into());
        }
        Traced {
            sched,
            links,
            gauges: gauges.unwrap_or_default(),
        }
    });
    Some(Round {
        report,
        start_s,
        certify_s,
        cpu_s,
        lat_ms,
        late,
        submit_ns,
        traced,
    })
}

/// The run's own verdicts, plus its books against the benchmark's own
/// counts: every transaction commits, every declared write unit is in the
/// stores, and every read-only BAT commits on the snapshot plane.
fn check_report(r: &NetReport, inp: &Inputs, errors: &mut Vec<String>) {
    let n = inp.specs.len() as u64;
    let checks = [
        (
            r.committed == n,
            format!("committed {} of {n}", r.committed),
        ),
        (r.certified, "history not certified".to_string()),
        (r.snapshot_certified, "snapshots not certified".to_string()),
        (r.store_consistent, "store inconsistent".to_string()),
        (
            r.store_write_units == inp.units_total && r.store_cell_sum == inp.units_total,
            format!(
                "stores hold {} units ({} tallied), specs declare {}",
                r.store_cell_sum, r.store_write_units, inp.units_total
            ),
        ),
        (
            r.reader_commits == inp.readers,
            format!(
                "{} snapshot readers committed, specs hold {}",
                r.reader_commits, inp.readers
            ),
        ),
    ];
    for (ok, what) in checks {
        if !ok {
            errors.push(what);
        }
    }
}
