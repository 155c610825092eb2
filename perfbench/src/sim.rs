//! `paper-sweep`: Experiment 1's arrival-rate sweep over the paper's five
//! schedulers on the discrete-event simulator (`wtpg_sim::machine::Machine`),
//! one thread, every point certified.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wtpg_core::certify_history;
use wtpg_core::partition::Catalog;
use wtpg_core::sched::Scheduler;
use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_sim::config::SimParams;
use wtpg_sim::machine::Machine;
use wtpg_sim::sched_kind::SchedKind;
use wtpg_sim::workload::Workload;
use wtpg_workload::experiments::Experiment;

use crate::probe::{SchedAgg, TracedSched};
use crate::usage;

/// Simulated length of each sweep point, ms (the paper runs 2,000,000).
pub const SIM_MS: u64 = 100_000;

/// Independent input streams per round. One stream's sweep depends on its
/// draw (past the knee, a few long transactions swing a point's cost);
/// eight of them make a round's work nearly the same for every seed.
pub const STREAMS: u64 = 8;

/// One input stream: its parameters (seed included) and the transactions
/// every sweep point draws from it.
pub struct Stream {
    pub params: SimParams,
    pub catalog: Catalog,
    pub pool: Arc<Vec<TxnSpec>>,
}

/// The sweep's inputs.
pub struct SimInputs {
    pub exp: Experiment,
    pub streams: Vec<Stream>,
}

pub fn inputs(seed: u64) -> SimInputs {
    let exp = Experiment::exp1();
    // Every point of a stream seeds its generator identically, so one pool
    // serves all of them; it is long enough for the highest rate.
    let lambda_max = exp.lambdas.iter().copied().fold(0.0, f64::max);
    let need = (lambda_max * SIM_MS as f64 / 1000.0 * 2.0) as u64 + 200;
    let streams = (0..STREAMS)
        .map(|k| {
            let sub = seed.wrapping_mul(STREAMS).wrapping_add(k);
            let mut gen = exp.workload(sub);
            Stream {
                params: SimParams {
                    sim_length_ms: SIM_MS,
                    ..exp.params().with_seed(sub)
                },
                catalog: gen.catalog().clone(),
                pool: Arc::new((0..need).map(|i| gen.next_txn(TxnId(i))).collect()),
            }
        })
        .collect();
    SimInputs { exp, streams }
}

/// Serves the pre-generated stream and remembers which spec each id got.
struct PoolWorkload {
    catalog: Catalog,
    pool: Arc<Vec<TxnSpec>>,
    next: usize,
    issued: Rc<RefCell<BTreeMap<u64, usize>>>,
}

impl Workload for PoolWorkload {
    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn next_txn(&mut self, id: TxnId) -> TxnSpec {
        let i = self.next.min(self.pool.len() - 1);
        self.next += 1;
        self.issued.borrow_mut().insert(id.0, i);
        let mut spec = self.pool[i].clone();
        spec.id = id;
        spec
    }
}

/// One point's deterministic outcome (compared across rounds).
pub type PointKey = (String, u64, u64, u64, u64, u64, u64, u64);

/// What one sweep round measured.
#[derive(Default)]
pub struct SimRound {
    pub completed: u64,
    pub run_s: f64,
    pub certify_s: f64,
    pub cpu_s: f64,
    pub sim_s: f64,
    pub eq_evals: u64,
    /// History events certified.
    pub events: u64,
    pub points: Vec<PointKey>,
    pub sched: Option<SchedAgg>,
}

/// Runs the whole sweep once. Checks: every point's history certifies,
/// every completion takes at least its declared objects × `ObjTime`, and
/// no spec beyond the pre-generated stream was needed.
pub fn round(inp: &SimInputs, trace: bool, errors: &mut Vec<String>) -> SimRound {
    let sink = Arc::new(Mutex::new(SchedAgg::default()));
    let mut r = SimRound::default();
    let cpu0 = usage::cpu_s();
    for (st, &kind, &lambda) in inp.streams.iter().flat_map(|st| {
        inp.exp
            .schedulers
            .iter()
            .flat_map(move |k| inp.exp.lambdas.iter().map(move |l| (st, k, l)))
    }) {
        {
            let issued = Rc::new(RefCell::new(BTreeMap::new()));
            let workload = PoolWorkload {
                catalog: st.catalog.clone(),
                pool: Arc::clone(&st.pool),
                next: 0,
                issued: Rc::clone(&issued),
            };
            let inner = kind.build(&st.params);
            let sched: Box<dyn Scheduler> = if trace {
                // NODC is the no-contention bound: it grants everything.
                let exclusive = kind != SchedKind::Nodc;
                Box::new(TracedSched::new(inner, Arc::clone(&sink), exclusive))
            } else {
                inner
            };
            let mut m = Machine::new(st.params.clone(), sched, workload);
            m.record_history();
            let t0 = Instant::now();
            let rep = m.run(lambda);
            r.run_s += t0.elapsed().as_secs_f64();
            // Certify the recorded history against the benchmark's own
            // copy of every spec the machine drew.
            let issued = issued.borrow();
            let specs: BTreeMap<TxnId, TxnSpec> = issued
                .iter()
                .map(|(&id, &i)| {
                    let mut spec = st.pool[i].clone();
                    spec.id = TxnId(id);
                    (TxnId(id), spec)
                })
                .collect();
            let mode = kind.build(&st.params).certify_mode();
            let t0 = Instant::now();
            let cert = match m.history() {
                Some(h) => certify_history(h, &specs, mode).map(|_| ()),
                None => Ok(()),
            };
            r.certify_s += t0.elapsed().as_secs_f64();
            let label = kind.label(&st.params);
            if let Err(v) = cert {
                errors.push(format!(
                    "{label} at λ={lambda}: certification failed: {v:?}"
                ));
            }
            if issued.len() >= st.pool.len() {
                errors.push(format!("{label} at λ={lambda}: input stream exhausted"));
            }
            for c in m.completions() {
                let Some(spec) = issued.get(&c.txn.0).map(|&i| &st.pool[i]) else {
                    errors.push(format!("{label}: completion of unknown txn {}", c.txn.0));
                    continue;
                };
                let floor_ms: u64 = spec
                    .steps()
                    .iter()
                    .map(|s| s.cost.units() * st.params.obj_time_ms / 1000)
                    .sum::<u64>()
                    .saturating_sub(spec.len() as u64);
                let rt = c.committed.millis().saturating_sub(c.created.millis());
                if rt < floor_ms {
                    errors.push(format!(
                        "{label} at λ={lambda}: txn {} took {rt} ms, below its {floor_ms} ms floor",
                        c.txn.0
                    ));
                }
            }
            r.events += m.history().map_or(0, |h| h.len() as u64);
            r.completed += m.completions().len() as u64;
            r.sim_s += st.params.sim_length_ms as f64 / 1e3;
            r.eq_evals += rep.eq_evals;
            r.points.push((
                label,
                lambda.to_bits(),
                rep.completed,
                rep.mean_rt_ms.to_bits(),
                rep.p95_rt_ms.to_bits(),
                rep.rejections + rep.blocks + rep.delays,
                rep.grants,
                rep.eq_evals + rep.chain_opts + rep.deadlock_tests,
            ));
        }
    }
    r.cpu_s = usage::cpu_s() - cpu0;
    if trace {
        r.sched = Some(std::mem::take(
            &mut *sink
                .lock()
                .expect("scheduler tallies are merged without panicking"),
        ));
        if let Some(s) = &r.sched {
            errors.extend(s.violations.iter().map(|v| format!("lock exclusion: {v}")));
        }
    }
    r
}
