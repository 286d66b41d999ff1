//! Shard workers: per-request decide against frozen tick state.
//!
//! A worker owns the same state as its batch-engine counterpart
//! ([`treads_engine::ShardState`]) — one [`UserStream`] per user and a
//! [`ShardCore`] (frequency caps, extension logs) — and decides each
//! request by calling the engine's page-view step,
//! [`ShardCore::page_view`], the very function the batch tick calls. The
//! worker adds only what serving alone does: rejecting unknown users,
//! answering unknown sites with an empty page, rooting the trace at a
//! `request` span with its admission and batch-wait, micro-batching,
//! crash rollback, and the reply. A serving tick's event batch is
//! therefore byte-identical to the batch engine's for the same
//! opportunities by construction.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adplatform::billing::BudgetSnapshot;
use adplatform::Platform;
use adsim_types::{SimTime, UserId};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use treads_engine::{PageView, ShardBatch, ShardCore, ShardEvent, UserStream, ViewTrace};
use treads_resilience::{FaultPlan, FaultReport, LostWork};
use treads_telemetry::{Histogram, RequestTrace, TraceConfig, TraceEventKind, TraceId, SHED_SEQ};
use treads_workload::ShardPlan;
use websim::{ExtensionLog, SiteRegistry};

use crate::batcher::MicroBatcher;
use crate::request::{OpportunityRequest, RejectReason, Response, ServedPage};

/// What the front end sends a shard worker.
pub(crate) enum WorkerMsg {
    /// Serve this request (enqueue into the micro-batcher).
    Request(Envelope),
    /// The simulated clock crossed a tick boundary: flush everything,
    /// hand the tick's effects to the applier, and block until it resumes
    /// the worker with the next tick's budget snapshot.
    CloseTick {
        /// End of the closing tick, in simulated milliseconds.
        tick_end: u64,
    },
    /// The run is over; exit after the current state.
    Shutdown,
}

/// A request in flight to its shard worker.
pub(crate) struct Envelope {
    /// The opportunity to serve.
    pub req: OpportunityRequest,
    /// Wall-clock instant the front end accepted the request; latency is
    /// measured from here to the reply.
    pub accepted: Instant,
    /// Where the response goes (capacity-1 channel; never blocks).
    pub reply: Sender<Response>,
}

/// Everything one shard accumulated over one tick, handed to the applier
/// at the tick-close barrier: the engine's [`ShardBatch`] plus what only
/// serving counts.
pub(crate) struct TickBatch {
    /// Events, delivery stats, page views and traces, exactly as the batch
    /// engine's shard tick produces them.
    pub batch: ShardBatch,
    pub tick_end: u64,
    /// Requests this worker answered this tick (served + shed).
    pub requests: u64,
    pub shed: u64,
    pub shed_failure: u64,
    pub shed_unknown_user: u64,
    /// Request latencies observed at reply time.
    pub latency: Histogram,
    /// Micro-batch close-out sizes.
    pub batch_sizes: Histogram,
    /// Injected crashes this tick, and the work they abandoned.
    pub faults: FaultReport,
    /// Canonical identity of every page view served this tick while
    /// tracing is on — the raw material for materializing tail traces of
    /// a whole SLO-breaching window without paying per-request
    /// allocations on the healthy path.
    pub trace_keys: Vec<TraceKey>,
    /// The tick's worst request latency and its trace id — the applier's
    /// exemplar candidate for the request-latency histogram.
    pub exemplar: Option<(u64, TraceId)>,
}

impl TickBatch {
    /// An empty accumulator for `shard`'s next tick.
    fn new(shard: usize) -> Self {
        Self {
            batch: ShardBatch::new(shard),
            tick_end: 0,
            requests: 0,
            shed: 0,
            shed_failure: 0,
            shed_unknown_user: 0,
            latency: Histogram::latency_ns(),
            batch_sizes: Histogram::small_values(),
            faults: FaultReport::default(),
            trace_keys: Vec::new(),
            exemplar: None,
        }
    }
}

/// The canonical `(at, user, user_seq)` identity of one page view, plus
/// its derived trace id. Recording one of these per request is a single
/// amortized `Vec` push — no allocation, no wall-clock reads — which is
/// what keeps default-sampling tracing under its overhead budget.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceKey {
    pub id: TraceId,
    pub at: SimTime,
    pub user: u64,
    pub user_seq: u64,
}

/// Everything a worker thread needs, bundled for the spawn call.
///
/// `'a` is the scope's borrow of the run-local lock and registries; `'p`
/// is the platform borrow the lock protects. Keeping them separate lets
/// the orchestrator reclaim the `&mut Platform` (via `into_inner`) once
/// the scope's `'a` borrows end.
pub(crate) struct WorkerContext<'a, 'p> {
    pub shard: usize,
    pub shards: usize,
    pub seed: u64,
    pub retry_after_ms: u64,
    pub max_retries: u32,
    pub faults: FaultPlan,
    pub platform: &'a RwLock<&'p mut Platform>,
    pub sites: &'a SiteRegistry,
    pub extension_users: &'a BTreeSet<UserId>,
    pub rx: Receiver<WorkerMsg>,
    pub batch_tx: Sender<TickBatch>,
    pub resume_rx: Receiver<Arc<BudgetSnapshot>>,
    pub depth: Arc<AtomicU64>,
    pub budget: Arc<BudgetSnapshot>,
    pub max_batch: usize,
    pub max_delay: Duration,
    /// Effective trace policy (already gated on telemetry being live).
    pub trace: TraceConfig,
}

/// Runs one shard worker to completion (entry point for the spawn),
/// handing back its users' extension logs.
pub(crate) fn run_worker(ctx: WorkerContext<'_, '_>) -> BTreeMap<UserId, ExtensionLog> {
    Worker::new(ctx).run()
}

struct Worker<'a, 'p> {
    shard: usize,
    seed: u64,
    retry_after_ms: u64,
    max_retries: u32,
    faults: FaultPlan,
    platform: &'a RwLock<&'p mut Platform>,
    sites: &'a SiteRegistry,
    rx: Receiver<WorkerMsg>,
    batch_tx: Sender<TickBatch>,
    resume_rx: Receiver<Arc<BudgetSnapshot>>,
    depth: Arc<AtomicU64>,
    budget: Arc<BudgetSnapshot>,
    batcher: MicroBatcher<Envelope>,
    users: BTreeMap<UserId, UserStream>,
    core: ShardCore,
    trace: TraceConfig,
    tick_index: u64,
    /// Set when this tick's crash exhausted the retry budget: every
    /// remaining request this tick sheds with `ShardFailure`.
    tick_degraded: bool,
    /// Failing attempts the fault plan schedules for this tick, consumed
    /// by the first micro-batch that executes.
    crash_pending: Option<u32>,
    acc: TickBatch,
}

impl<'a, 'p> Worker<'a, 'p> {
    fn new(ctx: WorkerContext<'a, 'p>) -> Self {
        // Every extension user this shard owns gets a log up front — even
        // one who never browses — mirroring `ShardState::new`, so outcome
        // extension maps compare equal against the batch engine's.
        let extension_users = ctx
            .extension_users
            .iter()
            .copied()
            .filter(|&u| ShardPlan::shard_index(u, ctx.shards) == ctx.shard);
        let frequency_cap = ctx.platform.read().config.frequency_cap;
        let mut worker = Self {
            shard: ctx.shard,
            seed: ctx.seed,
            retry_after_ms: ctx.retry_after_ms,
            max_retries: ctx.max_retries,
            faults: ctx.faults,
            platform: ctx.platform,
            sites: ctx.sites,
            rx: ctx.rx,
            batch_tx: ctx.batch_tx,
            resume_rx: ctx.resume_rx,
            depth: ctx.depth,
            budget: ctx.budget,
            batcher: MicroBatcher::new(ctx.max_batch, ctx.max_delay),
            users: BTreeMap::new(),
            core: ShardCore::new(frequency_cap, extension_users),
            trace: ctx.trace,
            tick_index: 0,
            tick_degraded: false,
            crash_pending: None,
            acc: TickBatch::new(ctx.shard),
        };
        worker.crash_pending = worker.scheduled_crash();
        worker
    }

    /// The failing-attempt count the fault plan schedules for this shard
    /// on the current tick, if any.
    fn scheduled_crash(&self) -> Option<u32> {
        self.faults
            .crashes_at(self.tick_index)
            .into_iter()
            .find(|(shard, _)| *shard == self.shard)
            .map(|(_, attempts)| attempts)
    }

    fn run(mut self) -> BTreeMap<UserId, ExtensionLog> {
        loop {
            let msg = if self.batcher.is_empty() {
                match self.rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                }
            } else {
                // A batch is pending: wait at most until its deadline,
                // then close it on age.
                let deadline = self
                    .batcher
                    .deadline()
                    .expect("a non-empty batch has a deadline");
                let timeout = deadline.saturating_duration_since(Instant::now());
                match self.rx.recv_timeout(timeout) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => {
                        let batch = self.batcher.close();
                        self.process_batch(&batch);
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            };
            match msg {
                WorkerMsg::Request(env) => {
                    if let Some(batch) = self.batcher.push(env, Instant::now()) {
                        self.process_batch(&batch);
                    }
                }
                WorkerMsg::CloseTick { tick_end } => {
                    let rest = self.batcher.close();
                    self.process_batch(&rest);
                    let tick = self.flush_tick(tick_end);
                    if self.batch_tx.send(tick).is_err() {
                        break;
                    }
                    // Barrier: block until the applier has folded every
                    // shard's batch and refrozen the budget.
                    match self.resume_rx.recv() {
                        Ok(snapshot) => {
                            self.budget = snapshot;
                            self.tick_index += 1;
                            self.tick_degraded = false;
                            self.crash_pending = self.scheduled_crash();
                        }
                        Err(_) => break,
                    }
                }
                WorkerMsg::Shutdown => break,
            }
        }
        self.core.into_extensions()
    }

    /// Executes one closed micro-batch, injecting any crash the fault plan
    /// scheduled for this tick (crashes strike the tick's first batch).
    fn process_batch(&mut self, batch: &[Envelope]) {
        if batch.is_empty() {
            return;
        }
        // Count requests before any crash handling: a restored snapshot
        // must not forget that these requests arrived.
        self.acc.requests += batch.len() as u64;
        self.acc.batch_sizes.observe(batch.len() as u64);
        if self.tick_degraded {
            self.shed_batch(batch);
            return;
        }
        if let Some(attempts) = self.crash_pending.take() {
            if attempts > self.max_retries {
                // Attempt 0 and every granted retry die: degrade the rest
                // of the tick to load shedding instead of panicking.
                self.acc.faults.injected += u64::from(self.max_retries) + 1;
                self.acc.faults.unrecoverable += 1;
                self.tick_degraded = true;
                self.shed_batch(batch);
                return;
            }
            // Recoverable: each failing attempt executes a prefix of the
            // batch against real state — dying one request deeper each
            // time, the most hostile partial mutation — into a throwaway
            // accumulator, and the users and core it half-mutated are
            // rolled back to their batch-start clones before the next try.
            let (users, core) = (self.users.clone(), self.core.clone());
            let acc = std::mem::replace(&mut self.acc, TickBatch::new(self.shard));
            {
                let guard = self.platform.read();
                let platform: &Platform = &guard;
                for attempt in 0..attempts {
                    let prefix = (attempt as usize + 1).min(batch.len());
                    for env in &batch[..prefix] {
                        self.serve_one(platform, env, false);
                    }
                    self.users = users.clone();
                    self.core = core.clone();
                }
            }
            self.acc = acc;
            self.acc.faults.injected += u64::from(attempts);
            self.acc.faults.recovered += 1;
        }
        let guard = self.platform.read();
        let platform: &Platform = &guard;
        for env in batch {
            self.serve_one(platform, env, true);
        }
    }

    /// Serves one request. With `deliver` false (crash-replay attempts)
    /// the simulation state mutates identically but no response is sent,
    /// no latency is observed, and the queue depth is untouched — the
    /// attempt will be rolled back wholesale.
    fn serve_one(&mut self, platform: &Platform, env: &Envelope, deliver: bool) {
        let req = env.req;
        // Unknown users are rejected before any state moves (the batch
        // engine never generates them; a serving client can).
        if platform.profiles.get(req.user).is_err() {
            if deliver {
                self.shed(env, RejectReason::UnknownUser);
            }
            return;
        }
        // Unknown sites are served an empty page without simulating —
        // `ShardState::run_tick` skips them without counting, and the
        // event batches must agree.
        let Some(site) = self.sites.get(req.site) else {
            if deliver {
                let empty = ServedPage {
                    at: req.at,
                    ads: Vec::new(),
                    slots: 0,
                };
                self.reply(env, Response::Served(empty), TraceId(0));
            }
            return;
        };
        let seed = self.seed;
        let user = self
            .users
            .entry(req.user)
            .or_insert_with(|| UserStream::new(seed, req.user));
        let (trace_id, mut trace) = user.open_trace(&self.trace, seed, req.user, req.at);
        if self.trace.enabled {
            // Every request leaves its canonical key behind (allocation
            // -free) so the applier can materialize tail traces for the
            // whole window if this tick breaches the SLO. Full span/event
            // detail rides on the deterministic head-sampling decision.
            self.acc.trace_keys.push(TraceKey {
                id: trace_id,
                at: req.at,
                user: req.user.raw(),
                user_seq: user.seq,
            });
        }
        let root = trace.as_mut().map(|t| {
            let root = t.span("request", None, req.at);
            t.event(
                root,
                TraceEventKind::Admitted {
                    shard: self.shard as u32,
                },
            );
            let wait = t.span("batch_wait", Some(root), req.at);
            t.set_span_wall(wait, 0, env.accepted.elapsed().as_nanos() as u64);
            root
        });
        let view_trace = trace.as_mut().zip(root).map(|(trace, root)| ViewTrace {
            trace,
            root,
            origin: Some(env.accepted),
        });
        let view = PageView {
            user: req.user,
            site,
            at: req.at,
            trace_id,
        };
        let first_event = self.acc.batch.events.len();
        self.core.page_view(
            platform,
            self.budget.as_ref(),
            view,
            user,
            &mut self.acc.batch,
            None,
            view_trace,
        );
        if let (Some(mut t), Some(root)) = (trace, root) {
            t.set_span_wall(root, 0, env.accepted.elapsed().as_nanos() as u64);
            self.acc.batch.traces.push(t);
        }
        if deliver {
            let ads = self.acc.batch.events[first_event..]
                .iter()
                .filter_map(|e| match e {
                    ShardEvent::Impression { pending, .. } => Some(pending.ad),
                    ShardEvent::PixelFire { .. } => None,
                })
                .collect();
            self.reply(
                env,
                Response::Served(ServedPage {
                    at: req.at,
                    ads,
                    slots: u32::from(site.ad_slots_per_view),
                }),
                trace_id,
            );
        }
    }

    /// Sheds a whole batch with `ShardFailure`, itemizing the abandoned
    /// work exactly as the batch supervisor's `skip_tick` does.
    fn shed_batch(&mut self, batch: &[Envelope]) {
        for env in batch {
            if let Some(site) = self.sites.get(env.req.site) {
                // One entry per degraded shard-tick, as in the batch engine.
                let lost = &mut self.acc.faults.lost;
                if lost.is_empty() {
                    lost.push(LostWork {
                        tick: self.tick_index,
                        shard: self.shard,
                        ..LostWork::default()
                    });
                }
                lost[0].add_page_view(site);
            }
            self.shed(env, RejectReason::ShardFailure);
        }
    }

    /// Rejects one request that never reaches the decide path: an unknown
    /// user, or any request of a fault-degraded tick. With tracing on it
    /// leaves an always-retained tail trace, keyed by the shed stand-in
    /// seq because the user's sequence counter is unknowable here.
    fn shed(&mut self, env: &Envelope, reason: RejectReason) {
        let req = env.req;
        self.acc.shed += 1;
        let degraded = reason == RejectReason::ShardFailure;
        let (label, retry_after_ms) = if degraded {
            self.acc.shed_failure += 1;
            ("shard_failure", self.retry_after_ms)
        } else {
            self.acc.shed_unknown_user += 1;
            ("unknown_user", 0)
        };
        let mut trace_id = TraceId(0);
        if self.trace.enabled {
            trace_id = TraceId::from_key(self.seed, req.at, req.user.raw(), SHED_SEQ);
            let mut t = RequestTrace::tail(trace_id, req.at, req.user.raw(), SHED_SEQ);
            let span = t.span("request", None, req.at);
            t.event(span, TraceEventKind::Shed { reason: label });
            if degraded {
                let detail = self.tick_index;
                let what = "shard_tick_degraded";
                t.event(span, TraceEventKind::FaultDegraded { what, detail });
            }
            t.set_span_wall(span, 0, env.accepted.elapsed().as_nanos() as u64);
            self.acc.batch.traces.push(t);
        }
        let response = Response::Rejected {
            reason,
            retry_after_ms,
        };
        self.reply(env, response, trace_id);
    }

    /// Sends the response, observing end-to-end latency and releasing the
    /// request's admission-queue slot. Exactly once per envelope.
    fn reply(&mut self, env: &Envelope, response: Response, trace: TraceId) {
        let latency = env.accepted.elapsed().as_nanos() as u64;
        self.acc.latency.observe(latency);
        if trace.0 != 0 && self.acc.exemplar.is_none_or(|(worst, _)| latency > worst) {
            self.acc.exemplar = Some((latency, trace));
        }
        // A dropped ticket (client gave up) is not an error.
        let _ = env.reply.send(response);
        self.depth.fetch_sub(1, Ordering::SeqCst);
    }

    fn flush_tick(&mut self, tick_end: u64) -> TickBatch {
        let mut tick = std::mem::replace(&mut self.acc, TickBatch::new(self.shard));
        tick.tick_end = tick_end;
        tick
    }
}
