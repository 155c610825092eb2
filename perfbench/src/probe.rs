//! Instruments that watch the program from outside, through its public
//! extension points only:
//!
//! * [`TracedSched`] wraps any `Scheduler`, times and counts every call,
//!   records a span per call, and checks lock exclusion on the call stream;
//! * [`Tap`] wraps a `Transport`: untraced, it only stamps submissions and
//!   commit acks on the client links (the per-transaction latencies the
//!   failed count is taken from); traced, it also times and counts every
//!   send on every link and captures the messages for the replays;
//! * [`sample_gauges`] polls a run's `Registry` gauges on its own thread.
//!
//! Spans stay in memory ([`Span`]) and are written out once per workload.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use wtpg_core::error::CoreError;
use wtpg_core::lock::LockMode;
use wtpg_core::sched::{Admission, CommitResult, ControlOps, LockOutcome, Scheduler};
use wtpg_core::time::Tick;
use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_core::work::Work;
use wtpg_core::wtpg::Wtpg;
use wtpg_net::transport::{Fabric, MsgTx};
use wtpg_net::{Msg, NetError, Transport};
use wtpg_obs::window::metric;
use wtpg_obs::{ControlStats, Registry};

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Spans kept per recorder; later ones are counted but not stored.
const SPAN_CAP: usize = 60_000;

/// One traced interval at a layer boundary.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub txn: u64,
}

fn push_span(spans: &mut Vec<Span>, layer: &'static str, start_ns: u64, end_ns: u64, txn: u64) {
    if spans.len() < SPAN_CAP {
        spans.push(Span {
            layer,
            start_ns,
            end_ns,
            txn,
        });
    }
}

/// Locks a tally. A panicked holder cannot leave one inconsistent (every
/// update is a plain add or push), and this also runs in `Drop`, which
/// must not panic.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Scheduler wrapper
// ---------------------------------------------------------------------------

/// Call tallies of the wrapped schedulers (merged when each one drops).
#[derive(Clone, Debug, Default)]
pub struct SchedAgg {
    pub arrive_ns: u64,
    pub arrives: u64,
    pub rejects: u64,
    pub request_ns: u64,
    pub requests: u64,
    pub grants: u64,
    pub commit_ns: u64,
    pub commits: u64,
    /// Progress, step-complete and abort calls.
    pub other_ns: u64,
    /// The wrapped scheduler's own counters, read when it drops.
    pub stats: ControlStats,
    pub spans: Vec<Span>,
    /// Lock-exclusion violations seen on the call stream (first few).
    pub violations: Vec<String>,
}

impl SchedAgg {
    /// Wall time spent inside scheduler calls, ns.
    pub fn busy_ns(&self) -> u64 {
        self.arrive_ns + self.request_ns + self.commit_ns + self.other_ns
    }

    fn merge(&mut self, o: &SchedAgg) {
        self.arrive_ns += o.arrive_ns;
        self.arrives += o.arrives;
        self.rejects += o.rejects;
        self.request_ns += o.request_ns;
        self.requests += o.requests;
        self.grants += o.grants;
        self.commit_ns += o.commit_ns;
        self.commits += o.commits;
        self.other_ns += o.other_ns;
        self.stats.w_recomputes += o.stats.w_recomputes;
        self.stats.eq_cache_misses += o.stats.eq_cache_misses;
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.spans.extend(o.spans.iter().take(room).copied());
        let room = 8usize.saturating_sub(self.violations.len());
        self.violations
            .extend(o.violations.iter().take(room).cloned());
    }
}

/// A `Scheduler` that forwards every call to `inner`, timing and counting
/// it. With `check_exclusion`, every grant is checked against the locks
/// the call stream says are held: no two live transactions may hold
/// conflicting modes on one partition (S/S is the only compatible pair;
/// locks are released at commit or abort).
pub struct TracedSched<S: Scheduler + ?Sized> {
    inner: Box<S>,
    sink: Arc<Mutex<SchedAgg>>,
    local: SchedAgg,
    check_exclusion: bool,
    steps: HashMap<TxnId, Vec<(u32, LockMode)>>,
    held: HashMap<u32, Vec<(TxnId, LockMode)>>,
}

impl<S: Scheduler + ?Sized> TracedSched<S> {
    pub fn new(inner: Box<S>, sink: Arc<Mutex<SchedAgg>>, check_exclusion: bool) -> Self {
        TracedSched {
            inner,
            sink,
            local: SchedAgg::default(),
            check_exclusion,
            steps: HashMap::new(),
            held: HashMap::new(),
        }
    }

    fn grant(&mut self, txn: TxnId, step: usize) {
        let Some(&(p, mode)) = self.steps.get(&txn).and_then(|s| s.get(step)) else {
            return;
        };
        let holders = self.held.entry(p).or_default();
        for &(other, m) in holders.iter() {
            let conflict = m == LockMode::Exclusive || mode == LockMode::Exclusive;
            if other != txn && conflict && self.local.violations.len() < 8 {
                self.local.violations.push(format!(
                    "{} granted {:?} on partition {p} while {} holds {:?}",
                    txn.0, mode, other.0, m
                ));
            }
        }
        holders.push((txn, mode));
    }

    fn release(&mut self, txn: TxnId) {
        if let Some(steps) = self.steps.remove(&txn) {
            for (p, _) in steps {
                if let Some(h) = self.held.get_mut(&p) {
                    h.retain(|&(t, _)| t != txn);
                }
            }
        }
    }
}

impl<S: Scheduler + ?Sized> Drop for TracedSched<S> {
    fn drop(&mut self) {
        self.local.stats = self.inner.obs_stats();
        lock(&self.sink).merge(&self.local);
    }
}

impl<S: Scheduler + ?Sized> Scheduler for TracedSched<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrive(
        &mut self,
        spec: &TxnSpec,
        now: Tick,
    ) -> Result<(Admission, ControlOps), CoreError> {
        let t0 = now_ns();
        let r = self.inner.on_arrive(spec, now);
        let t1 = now_ns();
        self.local.arrive_ns += t1 - t0;
        self.local.arrives += 1;
        push_span(&mut self.local.spans, "sched.arrive", t0, t1, spec.id.0);
        if let Ok((adm, _)) = &r {
            match adm {
                Admission::Rejected => self.local.rejects += 1,
                Admission::Admitted if self.check_exclusion => {
                    let steps = spec
                        .steps()
                        .iter()
                        .map(|s| (s.partition.0, LockMode::for_access(s.mode)))
                        .collect();
                    self.steps.insert(spec.id, steps);
                }
                Admission::Admitted => {}
            }
        }
        r
    }

    fn on_request(
        &mut self,
        txn: TxnId,
        step: usize,
        now: Tick,
    ) -> Result<(LockOutcome, ControlOps), CoreError> {
        let t0 = now_ns();
        let r = self.inner.on_request(txn, step, now);
        let t1 = now_ns();
        self.local.request_ns += t1 - t0;
        self.local.requests += 1;
        push_span(&mut self.local.spans, "sched.request", t0, t1, txn.0);
        if let Ok((outcome, _)) = &r {
            if *outcome == LockOutcome::Granted {
                self.local.grants += 1;
                if self.check_exclusion {
                    self.grant(txn, step);
                }
            }
        }
        r
    }

    fn on_progress(&mut self, txn: TxnId, amount: Work) -> Result<(), CoreError> {
        let t0 = now_ns();
        let r = self.inner.on_progress(txn, amount);
        self.local.other_ns += now_ns() - t0;
        r
    }

    fn on_step_complete(&mut self, txn: TxnId, step: usize) -> Result<(), CoreError> {
        let t0 = now_ns();
        let r = self.inner.on_step_complete(txn, step);
        self.local.other_ns += now_ns() - t0;
        r
    }

    fn on_commit(&mut self, txn: TxnId, now: Tick) -> Result<CommitResult, CoreError> {
        let t0 = now_ns();
        let r = self.inner.on_commit(txn, now);
        let t1 = now_ns();
        self.local.commit_ns += t1 - t0;
        self.local.commits += 1;
        push_span(&mut self.local.spans, "sched.commit", t0, t1, txn.0);
        self.release(txn);
        r
    }

    fn on_abort(&mut self, txn: TxnId, now: Tick) -> Result<CommitResult, CoreError> {
        let t0 = now_ns();
        let r = self.inner.on_abort(txn, now);
        self.local.other_ns += now_ns() - t0;
        self.release(txn);
        r
    }

    fn active_txns(&self) -> usize {
        self.inner.active_txns()
    }

    fn wtpg(&self) -> &Wtpg {
        self.inner.wtpg()
    }

    fn certify_mode(&self) -> wtpg_core::certify::CertifyMode {
        self.inner.certify_mode()
    }

    fn obs_stats(&self) -> ControlStats {
        self.inner.obs_stats()
    }
}

// ---------------------------------------------------------------------------
// Transport wrapper
// ---------------------------------------------------------------------------

/// Direction of a fabric link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dir {
    ClientToControl,
    ControlToData,
    DataToControl,
    ControlToClient,
}

impl Dir {
    pub const ALL: [Dir; 4] = [
        Dir::ClientToControl,
        Dir::ControlToData,
        Dir::DataToControl,
        Dir::ControlToClient,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Dir::ClientToControl => "client>control",
            Dir::ControlToData => "control>data",
            Dir::DataToControl => "data>control",
            Dir::ControlToClient => "control>client",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Dir::ClientToControl => "fabric.client>control",
            Dir::ControlToData => "fabric.control>data",
            Dir::DataToControl => "fabric.data>control",
            Dir::ControlToClient => "fabric.control>client",
        }
    }
}

/// The message type label used in the per-type tallies.
pub fn msg_kind(m: &Msg) -> &'static str {
    match m {
        Msg::Submit { .. } => "submit",
        Msg::Grant { .. } => "grant",
        Msg::Reject { .. } => "reject",
        Msg::Delay { .. } => "delay",
        Msg::Access { .. } => "access",
        Msg::AccessDone { .. } => "access_done",
        Msg::Commit { .. } => "commit",
        Msg::Abort { .. } => "abort",
        Msg::StatsDelta { .. } => "stats_delta",
        Msg::Shutdown => "shutdown",
        Msg::Batch(_) => "batch",
        Msg::Recover { .. } => "recover",
        Msg::RecoverAck { .. } => "recover_ack",
        Msg::SnapshotRead { .. } => "snapshot_read",
        Msg::SnapshotReply { .. } => "snapshot_reply",
    }
}

fn msg_txn(m: &Msg) -> u64 {
    match m {
        Msg::Submit { txn, .. }
        | Msg::Grant { txn, .. }
        | Msg::Reject { txn }
        | Msg::Delay { txn, .. }
        | Msg::Access { txn, .. }
        | Msg::AccessDone { txn, .. }
        | Msg::Commit { txn, .. }
        | Msg::Abort { txn, .. }
        | Msg::StatsDelta { txn, .. }
        | Msg::SnapshotRead { txn, .. }
        | Msg::SnapshotReply { txn, .. } => txn.0,
        _ => 0,
    }
}

/// Messages kept for the codec replay, per run.
const CAPTURE_CAP: usize = 40_000;

/// Per-link tallies of a traced run.
#[derive(Default)]
pub struct LinkStats {
    /// (direction, message type) → (sends, ns inside the inner send).
    pub sends: BTreeMap<(Dir, &'static str), (u64, u64)>,
    /// `Batch` frames sent and the messages they carried.
    pub batches: u64,
    pub batched: u64,
    pub spans: Vec<Span>,
    /// Every `Access` order sent (the store/WAL/chain replay input).
    pub accesses: Vec<Msg>,
    /// A sample of sent messages for the codec replay.
    pub captured: Vec<Msg>,
}

/// Per-transaction submit and commit-ack stamps, ns since the epoch,
/// indexed by transaction id (0 = not seen).
pub struct Stamps {
    pub submit: Vec<AtomicU64>,
    pub commit: Vec<AtomicU64>,
}

impl Stamps {
    pub fn new(max_id: u64) -> Stamps {
        let n = max_id as usize + 1;
        Stamps {
            submit: (0..n).map(|_| AtomicU64::new(0)).collect(),
            commit: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn stamp(slots: &[AtomicU64], txn: u64) {
        if let Some(s) = slots.get(txn as usize) {
            // First stamp wins: a redelivered message is not a new event.
            let _ = s.compare_exchange(0, now_ns().max(1), Ordering::Relaxed, Ordering::Relaxed);
        }
    }
}

/// A transport wrapper. `trace == false` wraps only the client links and
/// only stamps; `trace == true` wraps every link and records everything.
pub struct Tap<'a> {
    inner: &'a dyn Transport,
    stamps: Arc<Stamps>,
    trace: bool,
    links: Mutex<Vec<Arc<Mutex<LinkStats>>>>,
    capture_budget: Arc<AtomicU64>,
}

impl<'a> Tap<'a> {
    pub fn new(inner: &'a dyn Transport, stamps: Arc<Stamps>, trace: bool) -> Tap<'a> {
        Tap {
            inner,
            stamps,
            trace,
            links: Mutex::new(Vec::new()),
            capture_budget: Arc::new(AtomicU64::new(CAPTURE_CAP as u64)),
        }
    }

    /// Merged tallies of every wrapped link (traced runs).
    pub fn merged(&self) -> LinkStats {
        let mut out = LinkStats::default();
        for l in lock(&self.links).iter() {
            let l = lock(l);
            for (k, v) in &l.sends {
                let e = out.sends.entry(*k).or_default();
                e.0 += v.0;
                e.1 += v.1;
            }
            out.batches += l.batches;
            out.batched += l.batched;
            let room = SPAN_CAP.saturating_sub(out.spans.len());
            out.spans.extend(l.spans.iter().take(room).copied());
            out.accesses.extend(l.accesses.iter().cloned());
            out.captured.extend(l.captured.iter().cloned());
        }
        out
    }

    fn wrap(&self, links: Vec<Arc<dyn MsgTx>>, dir: Dir) -> Vec<Arc<dyn MsgTx>> {
        let client_link = matches!(dir, Dir::ClientToControl | Dir::ControlToClient);
        if !self.trace && !client_link {
            return links;
        }
        links
            .into_iter()
            .map(|inner| {
                let stats = Arc::new(Mutex::new(LinkStats::default()));
                if self.trace {
                    lock(&self.links).push(Arc::clone(&stats));
                }
                Arc::new(TapTx {
                    inner,
                    dir,
                    stamps: Arc::clone(&self.stamps),
                    stats: self.trace.then_some(stats),
                    budget: Arc::clone(&self.capture_budget),
                }) as Arc<dyn MsgTx>
            })
            .collect()
    }
}

impl Transport for Tap<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn build(&self, data_nodes: usize, clients: usize) -> Result<Fabric, NetError> {
        let mut f = self.inner.build(data_nodes, clients)?;
        f.client_to_control = self.wrap(f.client_to_control, Dir::ClientToControl);
        f.to_clients = self.wrap(f.to_clients, Dir::ControlToClient);
        f.to_data = self.wrap(f.to_data, Dir::ControlToData);
        f.data_to_control = self.wrap(f.data_to_control, Dir::DataToControl);
        Ok(f)
    }
}

struct TapTx {
    inner: Arc<dyn MsgTx>,
    dir: Dir,
    stamps: Arc<Stamps>,
    stats: Option<Arc<Mutex<LinkStats>>>,
    budget: Arc<AtomicU64>,
}

impl TapTx {
    fn stamp(&self, m: &Msg) {
        match (self.dir, m) {
            (
                Dir::ClientToControl,
                Msg::Submit {
                    txn, spec: Some(_), ..
                },
            ) => Stamps::stamp(&self.stamps.submit, txn.0),
            (Dir::ControlToClient, Msg::Commit { txn, .. }) => {
                Stamps::stamp(&self.stamps.commit, txn.0)
            }
            (_, Msg::Batch(inner)) => inner.iter().for_each(|m| self.stamp(m)),
            _ => {}
        }
    }
}

impl MsgTx for TapTx {
    fn send(&self, m: &Msg) -> bool {
        self.stamp(m);
        let Some(stats) = &self.stats else {
            return self.inner.send(m);
        };
        let t0 = now_ns();
        let ok = self.inner.send(m);
        let t1 = now_ns();
        let mut s = lock(stats);
        let kind = msg_kind(m);
        let e = s.sends.entry((self.dir, kind)).or_default();
        e.0 += 1;
        e.1 += t1 - t0;
        push_span(&mut s.spans, self.dir.span(), t0, t1, msg_txn(m));
        let inner: &[Msg] = match m {
            Msg::Batch(v) => {
                s.batches += 1;
                s.batched += v.len() as u64;
                v
            }
            _ => std::slice::from_ref(m),
        };
        for sub in inner {
            if matches!(sub, Msg::Access { .. }) {
                s.accesses.push(sub.clone());
            }
        }
        let take = self
            .budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok();
        if take {
            s.captured.push(m.clone());
        }
        ok
    }
}

// ---------------------------------------------------------------------------
// Registry gauges
// ---------------------------------------------------------------------------

/// Means of the control shard's sampled gauges over a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct GaugeMeans {
    pub backlog: f64,
    pub parked: f64,
}

/// Samples shard 0's backlog and parked gauges every `every` until `stop`.
pub fn sample_gauges(reg: &Registry, stop: &AtomicBool, every: Duration) -> GaugeMeans {
    let backlog = reg.gauge(&metric::shard_backlog(0));
    let parked = reg.gauge(&metric::shard_parked(0));
    let (mut n, mut b, mut p) = (0u64, 0u64, 0u64);
    while !stop.load(Ordering::Relaxed) {
        n += 1;
        b += backlog.get();
        p += parked.get();
        std::thread::sleep(every);
    }
    let n1 = n.max(1) as f64;
    GaugeMeans {
        backlog: b as f64 / n1,
        parked: p as f64 / n1,
    }
}
