//! The query coalescer: a ticketed bounded queue in front of the batch
//! engine.
//!
//! Concurrent callers each submit **one** query; a single collector
//! thread assembles submissions into ticks — up to
//! [`ServeConfig::fill_target`] queries, waiting at most
//! [`ServeConfig::max_wait`] for stragglers — answers the tick through
//! the [`TickExec`] in one batch call, and completes each ticket. Under
//! load the queue always holds a full tick, so the window never adds
//! latency; at low load a lone query waits at most one window.
//!
//! Everything on the warm path is pooled: tickets (with their query and
//! result buffers) recycle through a free list, the collector reuses its
//! tick buffers and result slots, and result hand-off is a buffer swap.
//!
//! # Robustness
//!
//! * A per-request **deadline** ([`ServeConfig::deadline`]) gives each
//!   ticket a [`CancelToken`]; the collector drops already-expired
//!   tickets before forming a tick, the index abandons in-flight
//!   queries at its cancellation checkpoints, and a ticket whose token
//!   fired resolves [`ServeError::DeadlineExceeded`] — never a partial
//!   answer.
//! * **Admission control** ([`AdmissionPolicy`]): `Block` keeps the
//!   original backpressure (submitters park on a full queue); `Shed`
//!   rejects with [`ServeError::Overloaded`] when the queue or the
//!   estimated sojourn exceeds policy, so admitted queries keep a
//!   bounded latency under overload.
//! * **Tick containment**: an executor panic aborts only the panicking
//!   tick. A multi-query tick is retried one ticket per solo tick to
//!   isolate the offender — the offender resolves
//!   [`ServeError::Aborted`], innocent cohabitants still get exact
//!   answers, and the server keeps serving.

use crate::stats::{ServeStats, StatCounters};
use crate::{CancelToken, ResultSlot, TickExec};
use sofa_exec::sync::lock;
use sofa_index::{validate_batch, IndexError, IpNeighbor, Neighbor, QueryKind};
use sofa_summaries::ip_from_score;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Failpoint fired at the top of every tick (inside the containment
/// guard): arming it with [`sofa_exec::failpoint::FailAction::Panic`]
/// exercises the abort and bisect paths without a faulty executor.
pub const TICK_FAILPOINT: &str = "sofa-serve::tick";

/// What the server does with a submission that would overload it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Park the submitter until the queue drains (the default): no
    /// request is refused, overload turns into submitter backpressure.
    Block,
    /// Reject with [`ServeError::Overloaded`] instead of queueing when
    /// the server is saturated — overload sheds new arrivals so the
    /// admitted ones keep a bounded sojourn.
    Shed {
        /// Reject when this many submissions are already queued.
        max_queue: usize,
        /// Reject when the estimated sojourn (mean tick execution time
        /// scaled by the backlog) exceeds this. Zero disables the
        /// estimate check.
        max_sojourn: Duration,
    },
}

/// Tuning knobs for the coalescer.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    fill_target: usize,
    max_wait: Duration,
    queue_capacity: usize,
    deadline: Option<Duration>,
    admission: AdmissionPolicy,
}

impl Default for ServeConfig {
    /// 16-query ticks, a 200µs coalescing window, room for four ticks
    /// of backlog before submitters block, no deadline, no shedding.
    fn default() -> Self {
        ServeConfig {
            fill_target: 16,
            max_wait: Duration::from_micros(200),
            queue_capacity: 64,
            deadline: None,
            admission: AdmissionPolicy::Block,
        }
    }
}

impl ServeConfig {
    /// Starts from the defaults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Tick size the collector aims for (clamped to at least 1). A tick
    /// dispatches as soon as this many queries are queued.
    #[must_use]
    pub fn fill_target(mut self, fill: usize) -> Self {
        self.fill_target = fill.max(1);
        self
    }

    /// Longest the collector waits for a tick to fill once it holds at
    /// least one query. The paper-shape sweet spot is 100–250µs: far
    /// below a query's service time, far above the per-tick dispatch
    /// cost.
    #[must_use]
    pub fn max_wait(mut self, wait: Duration) -> Self {
        self.max_wait = wait;
        self
    }

    /// Queued-submission bound (clamped to at least 1); submitters past
    /// it block until the collector drains a tick — open-loop overload
    /// turns into backpressure instead of unbounded memory.
    #[must_use]
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Per-request deadline, measured from submission. An expired
    /// ticket resolves [`ServeError::DeadlineExceeded`]; the index
    /// abandons its work at the next cancellation checkpoint. Costs
    /// one `Arc` allocation per submission — the default (`None`)
    /// keeps the warm path allocation-free.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Admission policy (default [`AdmissionPolicy::Block`]).
    #[must_use]
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }
}

/// Errors surfaced by [`Server`] submissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The query was rejected before it reached the queue.
    Index(IndexError),
    /// The server shut down before this query could be answered.
    ShutDown,
    /// The configured deadline passed before the answer was delivered.
    /// The query produced no partial result.
    DeadlineExceeded,
    /// Rejected at admission by [`AdmissionPolicy::Shed`]; the query
    /// was never queued. Retry later or at another replica.
    Overloaded,
    /// The executor panicked answering this query's tick and the panic
    /// was isolated to this ticket. The server is still serving.
    Aborted,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Index(e) => write!(f, "{e}"),
            ServeError::ShutDown => write!(f, "server is shut down"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before the answer"),
            ServeError::Overloaded => write!(f, "server overloaded; submission shed"),
            ServeError::Aborted => write!(f, "tick aborted by executor panic"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<IndexError> for ServeError {
    fn from(e: IndexError) -> Self {
        ServeError::Index(e)
    }
}

/// What happened to a submitted ticket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// Queued or in flight; the submitter is waiting.
    Pending,
    /// Answered; `result` holds the neighbors.
    Done,
    /// The server shut down (or its executor panicked) first.
    Aborted,
    /// The deadline fired before the answer was delivered.
    Expired,
}

/// Mutable half of one ticket. The buffers live as long as the ticket
/// and the ticket recycles through the server's free list, so a warm
/// submission reuses both.
struct TicketState {
    query: Vec<f32>,
    kind: QueryKind,
    result: Vec<Neighbor>,
    outcome: Outcome,
    enqueued_at: Option<Instant>,
    /// Deadline token; `None` unless [`ServeConfig::deadline`] is set.
    cancel: Option<CancelToken>,
}

/// One submission: the query travels to the collector and the result
/// travels back through here, with the submitter parked on `cv`.
struct Ticket {
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl Ticket {
    fn new() -> Self {
        Ticket {
            state: Mutex::new(TicketState {
                query: Vec::new(),
                kind: QueryKind::Knn { k: 1 },
                result: Vec::new(),
                outcome: Outcome::Pending,
                enqueued_at: None,
                cancel: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Resolves this ticket and wakes its submitter.
    fn complete(&self, outcome: Outcome) {
        let mut st = lock(&self.state);
        st.outcome = outcome;
        drop(st);
        self.cv.notify_all();
    }
}

/// The submission queue plus the shutdown latch, under one lock.
struct SubmitQueue {
    pending: VecDeque<Arc<Ticket>>,
    shutdown: bool,
}

/// State shared between submitters, the collector thread, and the
/// [`Server`] handle.
struct ServerInner<E> {
    exec: E,
    cfg: ServeConfig,
    series_len: usize,
    queue: Mutex<SubmitQueue>,
    /// Signaled when a ticket is queued or shutdown begins (collector).
    work_cv: Condvar,
    /// Signaled when the collector drains a tick (blocked submitters).
    space_cv: Condvar,
    counters: StatCounters,
    /// Free tickets awaiting reuse.
    tickets: Mutex<Vec<Arc<Ticket>>>,
}

/// A micro-batching front-end over a [`TickExec`].
///
/// Clone-free sharing: wrap the server itself in an `Arc` to hand it to
/// submitter threads, or share the *index* via `Arc` between one server
/// and direct callers (`Arc<Index<_>>` implements [`TickExec`]).
/// Dropping the server shuts it down and drains every queued ticket
/// first, so no submitter is left hanging.
pub struct Server<E: TickExec> {
    inner: Arc<ServerInner<E>>,
    collector: Option<JoinHandle<()>>,
}

impl<E: TickExec> Server<E> {
    /// Starts a server (one collector thread) over `exec`.
    #[must_use]
    pub fn new(exec: E, cfg: ServeConfig) -> Self {
        sofa_exec::install_panic_note_hook();
        let series_len = exec.series_len();
        let inner = Arc::new(ServerInner {
            exec,
            cfg,
            series_len,
            queue: Mutex::new(SubmitQueue { pending: VecDeque::new(), shutdown: false }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            counters: StatCounters::default(),
            tickets: Mutex::new(Vec::new()),
        });
        let for_thread = Arc::clone(&inner);
        let collector = std::thread::Builder::new()
            .name("sofa-serve-collector".into())
            .spawn(move || collector_loop(&for_thread))
            .expect("spawn serve collector");
        Server { inner, collector: Some(collector) }
    }

    /// The executor behind this server.
    pub fn exec(&self) -> &E {
        &self.inner.exec
    }

    /// Snapshot of the coalescing and robustness counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.counters.snapshot(self.inner.exec.degraded_answers())
    }

    /// Exact k-NN through the coalescer, best first. Blocks until the
    /// query's tick completes; results are identical to
    /// `Index::knn(query, k)` on the same index.
    ///
    /// # Errors
    /// [`ServeError::Index`] on a malformed query; [`ServeError::ShutDown`]
    /// if the server stops first; [`ServeError::Overloaded`] if shed at
    /// admission; [`ServeError::DeadlineExceeded`] if the configured
    /// deadline fires first; [`ServeError::Aborted`] if the executor
    /// panicked on this query.
    pub fn knn(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, ServeError> {
        let mut out = Vec::new();
        self.knn_into(query, k, &mut out)?;
        Ok(out)
    }

    /// Exact 1-NN through the coalescer.
    ///
    /// # Errors
    /// As [`Server::knn`]; additionally rejects an empty index.
    pub fn nn(&self, query: &[f32]) -> Result<Neighbor, ServeError> {
        self.knn(query, 1)?
            .first()
            .copied()
            .ok_or_else(|| ServeError::Index(IndexError::BadQuery("index is empty".into())))
    }

    /// [`Server::knn`] into a caller-owned buffer (cleared first): the
    /// allocation-free submission form — ticket, queue slot and result
    /// hand-off all reuse pooled buffers once warm. (A configured
    /// deadline adds one token allocation per submission.)
    ///
    /// # Errors
    /// As [`Server::knn`].
    pub fn knn_into(
        &self,
        query: &[f32],
        k: usize,
        out: &mut Vec<Neighbor>,
    ) -> Result<(), ServeError> {
        self.query_into(query, QueryKind::Knn { k }, out)
    }

    /// Every row within squared radius `r_sq` of the query, sorted by
    /// `(dist_sq, row)`, through the coalescer — identical to
    /// `Index::range` on the same index (ties exactly at the radius
    /// included).
    ///
    /// # Errors
    /// As [`Server::knn`]; additionally rejects a non-finite or
    /// negative radius.
    pub fn range(&self, query: &[f32], r_sq: f32) -> Result<Vec<Neighbor>, ServeError> {
        let mut out = Vec::new();
        self.query_into(query, QueryKind::Range { r_sq }, &mut out)?;
        Ok(out)
    }

    /// Exact top-k rows by inner product with the z-normalized query,
    /// best (largest dot) first, through the coalescer. The reported
    /// `ip` is recovered from the funnel's score transport
    /// (`ip = 2n - score`, one `f64` rounding from the direct dot
    /// product); row ranking is identical to `Index::knn_ip`.
    ///
    /// # Errors
    /// As [`Server::knn`].
    pub fn knn_ip(&self, query: &[f32], k: usize) -> Result<Vec<IpNeighbor>, ServeError> {
        let mut out = Vec::new();
        self.query_into(query, QueryKind::Ip { k }, &mut out)?;
        let n = self.inner.series_len;
        Ok(out
            .into_iter()
            .map(|nb| IpNeighbor { row: nb.row, ip: ip_from_score(n, nb.dist_sq) })
            .collect())
    }

    /// Submits one query of any [`QueryKind`] and blocks for its
    /// answer, in the raw funnel encoding (an `Ip` result carries
    /// scores in `dist_sq`; the typed wrappers convert). This is the
    /// generic submission path every per-kind method goes through —
    /// mixed kinds coalesce into shared ticks. A `KnnFiltered` answer is
    /// identical to `Index::query_into` with the same kind.
    ///
    /// # Errors
    /// As [`Server::knn`]; admission runs [`sofa_index::validate_batch`]
    /// (query length, NaN/±Inf values, zero `k`, bad radius, and a filter
    /// length against the executor's row count when it knows it).
    pub fn query(&self, query: &[f32], kind: QueryKind) -> Result<Vec<Neighbor>, ServeError> {
        let mut out = Vec::new();
        self.query_into(query, kind, &mut out)?;
        Ok(out)
    }

    /// [`Server::query`] into a caller-owned buffer (cleared first) —
    /// the allocation-free generic submission form.
    ///
    /// # Errors
    /// As [`Server::query`].
    pub fn query_into(
        &self,
        query: &[f32],
        kind: QueryKind,
        out: &mut Vec<Neighbor>,
    ) -> Result<(), ServeError> {
        let inner = &*self.inner;
        let kinds = std::slice::from_ref(&kind);
        validate_batch(query, inner.series_len, kinds, inner.exec.n_rows(), 1, 0)?;

        let ticket = lock(&inner.tickets).pop().unwrap_or_else(|| Arc::new(Ticket::new()));
        let now = Instant::now();
        {
            let mut st = lock(&ticket.state);
            st.query.clear();
            st.query.extend_from_slice(query);
            st.kind = kind;
            st.result.clear();
            st.outcome = Outcome::Pending;
            st.enqueued_at = Some(now);
            st.cancel = inner.cfg.deadline.map(|d| CancelToken::with_deadline(now + d));
        }

        {
            let mut q = lock(&inner.queue);
            if let AdmissionPolicy::Shed { max_queue, max_sojourn } = inner.cfg.admission {
                let over_queue = q.pending.len() >= max_queue;
                let over_sojourn = !max_sojourn.is_zero()
                    && inner
                        .counters
                        .estimated_sojourn_us(q.pending.len(), inner.cfg.fill_target)
                        .is_some_and(|est| est > max_sojourn.as_micros() as f64);
                if over_queue || over_sojourn {
                    drop(q);
                    inner.counters.note_shed();
                    lock(&inner.tickets).push(ticket);
                    return Err(ServeError::Overloaded);
                }
            }
            while q.pending.len() >= inner.cfg.queue_capacity && !q.shutdown {
                q = inner.space_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            if q.shutdown {
                drop(q);
                lock(&inner.tickets).push(ticket);
                return Err(ServeError::ShutDown);
            }
            q.pending.push_back(Arc::clone(&ticket));
            inner.counters.note_depth(q.pending.len() as u64);
            inner.work_cv.notify_one();
        }

        let outcome = {
            let mut st = lock(&ticket.state);
            while st.outcome == Outcome::Pending {
                st = ticket.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if st.outcome == Outcome::Done {
                out.clear();
                std::mem::swap(&mut st.result, out);
            }
            st.cancel = None;
            st.outcome
        };
        lock(&inner.tickets).push(ticket);
        match outcome {
            Outcome::Done => Ok(()),
            Outcome::Expired => Err(ServeError::DeadlineExceeded),
            Outcome::Aborted => Err(ServeError::Aborted),
            // The wait loop above only exits on a non-Pending outcome.
            Outcome::Pending => unreachable!("woke with a pending ticket"),
        }
    }

    /// Stops accepting submissions. Already-queued tickets are still
    /// answered (the collector drains the queue before exiting);
    /// submitters blocked on a full queue get [`ServeError::ShutDown`].
    pub fn shutdown(&self) {
        let mut q = lock(&self.inner.queue);
        q.shutdown = true;
        self.inner.work_cv.notify_all();
        self.inner.space_cv.notify_all();
    }
}

impl<E: TickExec> Drop for Server<E> {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.collector.take() {
            let _ = handle.join();
        }
    }
}

/// Runs one guarded tick: the tick failpoint, then the executor, inside
/// one `catch_unwind`. `false` means the tick panicked (or the
/// failpoint injected an error) and none of its slots may be trusted.
fn run_guarded<E: TickExec>(
    exec: &E,
    queries: &[f32],
    kinds: &[QueryKind],
    outs: &[ResultSlot],
    cancels: &[CancelToken],
) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        if sofa_exec::failpoint::fire(TICK_FAILPOINT).is_err() {
            return false;
        }
        exec.run_tick(queries, kinds, outs, cancels);
        true
    }))
    .unwrap_or(false)
}

/// Resolves one ticket after a successful tick: `Done` with the slot's
/// buffer swapped in, unless its deadline fired first (the index then
/// left the slot unwritten, or wrote it completely but too late —
/// either way the honest answer is `Expired`).
fn settle_answered(t: &Arc<Ticket>, slot: &ResultSlot, counters: &StatCounters) {
    let mut st = lock(&t.state);
    let expired = st.cancel.as_ref().is_some_and(CancelToken::is_cancelled_now);
    if expired {
        st.outcome = Outcome::Expired;
        counters.note_expired();
    } else {
        std::mem::swap(&mut *slot.lock(), &mut st.result);
        st.outcome = Outcome::Done;
        if let Some(at) = st.enqueued_at.take() {
            counters.note_done(Instant::now().saturating_duration_since(at));
        }
    }
    drop(st);
    t.cv.notify_all();
}

/// The collector: assemble a tick, run it, fan results out, repeat. A
/// panicking tick is contained (offending ticket aborted, cohabitants
/// retried solo) and the loop keeps serving.
fn collector_loop<E: TickExec>(inner: &ServerInner<E>) {
    let n = inner.series_len;
    let fill = inner.cfg.fill_target;
    let mut batch: Vec<Arc<Ticket>> = Vec::with_capacity(fill);
    let mut queries: Vec<f32> = Vec::with_capacity(fill * n);
    let mut kinds: Vec<QueryKind> = Vec::with_capacity(fill);
    let mut cancels: Vec<CancelToken> = Vec::new();
    let mut outs: Vec<ResultSlot> = Vec::new();
    loop {
        // --- Assemble one tick: block for the first ticket, then keep
        // draining until the tick fills or the window closes. Under
        // sustained load the first drain already fills the tick and the
        // window never runs.
        {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(t) = q.pending.pop_front() {
                    batch.push(t);
                    break;
                }
                if q.shutdown {
                    return;
                }
                q = inner.work_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            let deadline = Instant::now() + inner.cfg.max_wait;
            loop {
                while batch.len() < fill {
                    match q.pending.pop_front() {
                        Some(t) => batch.push(t),
                        None => break,
                    }
                }
                if batch.len() >= fill || q.shutdown {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                q = inner
                    .work_cv
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            inner.space_cv.notify_all();
        }

        // --- Triage: a ticket whose deadline already fired gets its
        // answer now (Expired) instead of a seat in the tick.
        batch.retain(|t| {
            let expired = lock(&t.state).cancel.as_ref().is_some_and(CancelToken::is_cancelled_now);
            if expired {
                inner.counters.note_expired();
                t.complete(Outcome::Expired);
            }
            !expired
        });
        if batch.is_empty() {
            continue;
        }

        // --- Stage the tick into the reused buffers. `cancels` is
        // all-or-nothing per server config, so it stays empty (and the
        // batch engine skips all token polling) unless deadlines are on.
        let m = batch.len();
        queries.clear();
        kinds.clear();
        cancels.clear();
        for t in &batch {
            let st = lock(&t.state);
            queries.extend_from_slice(&st.query);
            kinds.push(st.kind.clone());
            if let Some(token) = &st.cancel {
                cancels.push(token.clone());
            }
        }
        debug_assert!(cancels.is_empty() || cancels.len() == m);
        while outs.len() < m {
            outs.push(ResultSlot::new(Vec::new()));
        }

        // --- Run it. Submissions were validated, so a panic here is an
        // executor bug (or an armed failpoint) — contain it below
        // instead of taking the server down.
        let tick_started = Instant::now();
        let ok = run_guarded(&inner.exec, &queries, &kinds[..m], &outs[..m], &cancels);
        // The tick is counted before fan-out so a submitter that reads
        // `stats()` right after waking already sees its own tick.
        inner.counters.note_tick(m as u64, tick_started.elapsed());

        if ok {
            // --- Fan results back out: swap each slot's buffer into its
            // ticket (both buffers recycle) and wake the submitter.
            for (t, slot) in batch.drain(..).zip(outs.iter()) {
                settle_answered(&t, slot, &inner.counters);
            }
            continue;
        }

        // --- Containment. A solo tick identified its offender already;
        // a coalesced tick is re-run one ticket at a time, so innocent
        // cohabitants still get exact answers and only the ticket that
        // actually panics is aborted. The server keeps serving either
        // way — no queue poisoning, no collector exit.
        if m == 1 {
            inner.counters.note_aborted();
            batch.drain(..).next().expect("tick had one ticket").complete(Outcome::Aborted);
            continue;
        }
        for (i, t) in batch.drain(..).enumerate() {
            let solo_cancels = if cancels.is_empty() { &[] } else { &cancels[i..=i] };
            let solo_ok = run_guarded(
                &inner.exec,
                &queries[i * n..(i + 1) * n],
                &kinds[i..=i],
                &outs[i..=i],
                solo_cancels,
            );
            if solo_ok {
                settle_answered(&t, &outs[i], &inner.counters);
            } else {
                inner.counters.note_aborted();
                t.complete(Outcome::Aborted);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TickExec;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A stand-in index: "nearest neighbor" of a query is `row =
    /// query[0] as u32 + rank`, distance `rank` — deterministic, cheap,
    /// and shaped like real output.
    struct EchoExec {
        series_len: usize,
        ticks: AtomicU64,
        delay: Duration,
    }

    impl EchoExec {
        fn new(series_len: usize) -> Self {
            EchoExec { series_len, ticks: AtomicU64::new(0), delay: Duration::ZERO }
        }
    }

    /// The `k` a test tick answers for one kind (test execs only echo
    /// k-NN-shaped results).
    fn kind_k(kind: &QueryKind) -> usize {
        match kind {
            QueryKind::Knn { k } | QueryKind::KnnFiltered { k, .. } | QueryKind::Ip { k } => *k,
            QueryKind::Range { .. } => 1,
        }
    }

    impl TickExec for EchoExec {
        fn series_len(&self) -> usize {
            self.series_len
        }

        fn run_tick(
            &self,
            queries: &[f32],
            kinds: &[QueryKind],
            outs: &[ResultSlot],
            _cancels: &[CancelToken],
        ) {
            self.ticks.fetch_add(1, Ordering::Relaxed);
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            for (i, q) in queries.chunks(self.series_len).enumerate() {
                let mut out = outs[i].lock();
                out.clear();
                for rank in 0..kind_k(&kinds[i]) {
                    out.push(Neighbor { row: q[0] as u32 + rank as u32, dist_sq: rank as f32 });
                }
            }
        }
    }

    fn expected(q0: f32, k: usize) -> Vec<Neighbor> {
        (0..k).map(|r| Neighbor { row: q0 as u32 + r as u32, dist_sq: r as f32 }).collect()
    }

    #[test]
    fn single_submission_round_trips() {
        let server = Server::new(EchoExec::new(4), ServeConfig::new());
        let got = server.knn(&[7.0, 0.0, 0.0, 0.0], 3).unwrap();
        assert_eq!(got, expected(7.0, 3));
        let stats = server.stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.ticks, 1);
    }

    #[test]
    fn rejects_bad_queries_before_queueing() {
        let server = Server::new(EchoExec::new(4), ServeConfig::new());
        assert!(matches!(server.knn(&[1.0; 3], 1), Err(ServeError::Index(_))));
        assert!(matches!(server.knn(&[1.0; 4], 0), Err(ServeError::Index(_))));
        assert_eq!(server.stats().queries, 0);
    }

    #[test]
    fn concurrent_submitters_coalesce_and_all_get_their_own_answer() {
        let server = Arc::new(Server::new(
            EchoExec { delay: Duration::from_micros(300), ..EchoExec::new(4) },
            ServeConfig::new().fill_target(8).max_wait(Duration::from_micros(250)),
        ));
        let per_thread = 25usize;
        std::thread::scope(|s| {
            for t in 0..8usize {
                let server = Arc::clone(&server);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let q0 = (t * per_thread + i) as f32;
                        let got = server.knn(&[q0, 1.0, 2.0, 3.0], 2).unwrap();
                        assert_eq!(got, expected(q0, 2), "submitter {t} query {i}");
                    }
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.queries, 200);
        assert!(
            stats.ticks < 200,
            "8 concurrent submitters over a slow tick must coalesce, got {} ticks",
            stats.ticks
        );
        assert!(stats.max_tick_fill >= 2);
        assert!(stats.max_tick_fill <= 8, "fill target must cap ticks");
    }

    #[test]
    fn oversubscribed_queue_applies_backpressure_and_loses_nothing() {
        let server = Arc::new(Server::new(
            EchoExec { delay: Duration::from_micros(200), ..EchoExec::new(2) },
            ServeConfig::new().fill_target(4).queue_capacity(2),
        ));
        let answered = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..16usize {
                let server = Arc::clone(&server);
                let answered = &answered;
                s.spawn(move || {
                    for i in 0..10usize {
                        let q0 = (t * 10 + i) as f32;
                        let got = server.knn(&[q0, 0.0], 1).unwrap();
                        assert_eq!(got, expected(q0, 1));
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(answered.load(Ordering::Relaxed), 160);
        assert_eq!(server.stats().queries, 160);
        assert!(server.stats().max_queue_depth <= 2);
    }

    #[test]
    fn shutdown_answers_pending_then_rejects_new_submissions() {
        let server = Arc::new(Server::new(
            EchoExec { delay: Duration::from_millis(2), ..EchoExec::new(2) },
            ServeConfig::new().fill_target(4),
        ));
        std::thread::scope(|s| {
            for t in 0..6usize {
                let server = Arc::clone(&server);
                s.spawn(move || {
                    // Every in-flight submission either completes exactly
                    // or reports the shutdown — never hangs, never lies.
                    for i in 0..20usize {
                        let q0 = (t * 20 + i) as f32;
                        match server.knn(&[q0, 0.0], 1) {
                            Ok(got) => assert_eq!(got, expected(q0, 1)),
                            Err(ServeError::ShutDown) => break,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(5));
            server.shutdown();
        });
        assert!(matches!(server.knn(&[1.0, 2.0], 1), Err(ServeError::ShutDown)));
    }

    #[test]
    fn panicking_executor_aborts_its_tick_and_the_server_keeps_serving() {
        struct BoomExec;
        impl TickExec for BoomExec {
            fn series_len(&self) -> usize {
                2
            }
            fn run_tick(
                &self,
                _q: &[f32],
                _k: &[QueryKind],
                _o: &[ResultSlot],
                _c: &[CancelToken],
            ) {
                panic!("tick boom");
            }
        }
        let server = Server::new(BoomExec, ServeConfig::new());
        // Each submission is aborted — not hung, and not a shutdown:
        // the server survives its executor's panics.
        assert_eq!(server.knn(&[1.0, 2.0], 1), Err(ServeError::Aborted));
        assert_eq!(server.knn(&[1.0, 2.0], 1), Err(ServeError::Aborted));
        let stats = server.stats();
        assert_eq!(stats.aborted, 2);
        assert_eq!(stats.queries, 0);
    }

    #[test]
    fn bisect_isolates_the_poison_query_and_answers_the_rest() {
        /// Panics on any tick containing a query with `q[0] == 13.0`;
        /// echoes otherwise.
        struct PoisonExec(EchoExec);
        impl TickExec for PoisonExec {
            fn series_len(&self) -> usize {
                self.0.series_len()
            }
            fn run_tick(
                &self,
                queries: &[f32],
                kinds: &[QueryKind],
                outs: &[ResultSlot],
                cancels: &[CancelToken],
            ) {
                assert!(!queries.chunks(self.0.series_len()).any(|q| q[0] == 13.0), "poison query");
                self.0.run_tick(queries, kinds, outs, cancels);
            }
        }
        let server = Arc::new(Server::new(
            PoisonExec(EchoExec { delay: Duration::from_micros(200), ..EchoExec::new(2) }),
            ServeConfig::new().fill_target(8).max_wait(Duration::from_millis(2)),
        ));
        // Whatever ticks the scheduler forms, the poison submission must
        // come back Aborted and every innocent one must come back exact.
        std::thread::scope(|s| {
            for t in 0..8usize {
                let server = Arc::clone(&server);
                s.spawn(move || {
                    let q0 = if t == 3 { 13.0 } else { t as f32 };
                    let got = server.knn(&[q0, 0.0], 2);
                    if t == 3 {
                        assert_eq!(got, Err(ServeError::Aborted));
                    } else {
                        assert_eq!(got.unwrap(), expected(q0, 2), "submitter {t}");
                    }
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.aborted, 1);
        assert_eq!(stats.queries, 7);
        // And the server is still alive for fresh (clean) submissions.
        assert_eq!(server.knn(&[40.0, 0.0], 1).unwrap(), expected(40.0, 1));
    }

    #[test]
    fn expired_tickets_resolve_deadline_exceeded_not_partial_answers() {
        let server = Arc::new(Server::new(
            EchoExec { delay: Duration::from_millis(4), ..EchoExec::new(2) },
            ServeConfig::new().fill_target(1).queue_capacity(64).deadline(Duration::from_millis(1)),
        ));
        // One slow tick in flight keeps the rest queued past their 1ms
        // deadline; the collector's triage answers them Expired.
        let outcomes: Vec<Result<Vec<Neighbor>, ServeError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|t| {
                    let server = Arc::clone(&server);
                    s.spawn(move || server.knn(&[t as f32, 0.0], 1))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expired =
            outcomes.iter().filter(|o| matches!(o, Err(ServeError::DeadlineExceeded))).count();
        // Timing decides how many make it, but every outcome is either
        // an exact answer or an explicit deadline error — never junk.
        for (t, o) in outcomes.iter().enumerate() {
            match o {
                Ok(got) => assert_eq!(*got, expected(t as f32, 1)),
                Err(ServeError::DeadlineExceeded) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(expired >= 1, "a 4ms tick must expire some 1ms-deadline tickets");
        assert_eq!(server.stats().expired, expired as u64);
    }

    #[test]
    fn shed_policy_rejects_overload_with_overloaded() {
        let server = Arc::new(Server::new(
            EchoExec { delay: Duration::from_millis(3), ..EchoExec::new(2) },
            ServeConfig::new()
                .fill_target(1)
                .admission(AdmissionPolicy::Shed { max_queue: 1, max_sojourn: Duration::ZERO }),
        ));
        let shed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let server = Arc::clone(&server);
                let shed = &shed;
                s.spawn(move || match server.knn(&[t as f32, 0.0], 1) {
                    Ok(got) => assert_eq!(got, expected(t as f32, 1)),
                    Err(ServeError::Overloaded) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                });
            }
        });
        // 8 bursty submitters against a 3ms serial tick and a queue of
        // 1: most must be shed, and the books must balance.
        let stats = server.stats();
        assert!(shed.load(Ordering::Relaxed) >= 1);
        assert_eq!(stats.shed, shed.load(Ordering::Relaxed));
        assert_eq!(stats.queries + stats.shed, 8);
    }

    #[test]
    fn warm_submissions_reuse_tickets_and_report_wait_stats() {
        let server = Server::new(EchoExec::new(2), ServeConfig::new());
        let mut out = Vec::new();
        for i in 0..50 {
            server.knn_into(&[i as f32, 0.0], 1, &mut out).unwrap();
            assert_eq!(out, expected(i as f32, 1));
        }
        let stats = server.stats();
        assert_eq!(stats.queries, 50);
        assert_eq!(stats.ticks, 50);
        assert!((stats.mean_tick_fill - 1.0).abs() < f64::EPSILON);
        assert!(stats.p50_sojourn_us > 0.0);
        assert!(stats.p99_sojourn_us >= stats.p50_sojourn_us);
        // A serial submitter keeps exactly one pooled ticket alive.
        assert_eq!(lock(&server.inner.tickets).len(), 1);
    }
}
