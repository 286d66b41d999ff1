//! Per-shard execution state, and the page-view step both execution paths
//! share.
//!
//! A shard exclusively owns a subset of users (assigned by
//! [`treads_workload::ShardPlan`]) and everything keyed on them:
//!
//! * each user's **browsing schedule**, generated one day at a time from
//!   the per-user-per-day substream `session-user-{id}-day-{d}` —
//!   identical whichever shard (or pipeline stage) runs it;
//! * each user's [`UserStream`] — auction RNG (substream
//!   `engine-user-{id}`) and merge-key sequence counters — likewise;
//! * the shard's [`ShardCore`]: **frequency caps**, which are per-`(ad,
//!   user)` counters and therefore never shared across shards, and the
//!   **extension logs** of its users who run the Treads extension.
//!
//! [`ShardCore::page_view`] is the one place a page view is decided: the
//! batch tick ([`ShardState::run_tick`]) walks its users' schedules into
//! it, and the serving front end calls it once per request. It only
//! *reads* the platform (via
//! [`Platform::decide_browse_traced_with_scratch`] against a frozen
//! [`adplatform::billing::BudgetSnapshot`]) and accumulates its
//! globally-visible effects into a [`ShardBatch`] for the caller to merge.

use std::collections::{BTreeMap, BTreeSet};

use adplatform::auction::AuctionOutcome;
use adplatform::billing::BudgetView;
use adplatform::delivery::{DeliveryScratch, DeliveryStats, FrequencyCaps, TracedDecision};
use adplatform::Platform;
use adsim_types::rng::substream;
use adsim_types::{SimTime, SiteId, UserId};
use rand::rngs::StdRng;
use std::time::Instant;
use treads_telemetry::{
    FlightEvent, FlightKind, FlightRecorder, Histogram, Registry, RequestTrace, TraceConfig,
    TraceEventKind, TraceId,
};
use websim::{BrowsingEvent, ExtensionLog, SessionConfig, SessionSchedule, Site, SiteRegistry};

use treads_resilience::checkpoint::{ExtensionSnapshot, ShardCheckpoint, UserCursor};
use treads_resilience::LostWork;

use crate::engine::DAY_MS;
use crate::event::ShardEvent;

/// One user's decide-path state: everything a page view advances besides
/// the shard-wide [`ShardCore`].
#[derive(Clone)]
pub struct UserStream {
    /// Auction randomness: substream `engine-user-{id}` of the engine seed.
    pub rng: StdRng,
    /// Per-user event counter; becomes the `user_seq` merge-key component.
    pub seq: u64,
    /// Per-user flight-event counter: the `seq` tie-breaker of this user's
    /// journal entries. Advances only on journaled events, entirely from
    /// user-owned state, so it is shard-count-invariant like `seq`.
    pub fseq: u64,
}

impl UserStream {
    /// `user`'s stream at the start of a run. The substream label is a
    /// determinism contract: every path that decides for `user` under
    /// `seed` draws from this one stream.
    pub fn new(seed: u64, user: UserId) -> Self {
        Self {
            rng: substream(seed, &format!("engine-user-{}", user.raw())),
            seq: 0,
            fseq: 0,
        }
    }

    /// The trace id of the user's next page view and, if `config`
    /// head-samples it, the view's fresh trace; `TraceId(0)` and no trace
    /// when tracing is off. The id is keyed on the view's *first* merge
    /// key — `seq` before any pixel or impression of the view consumes
    /// one — so any stage that knows the request key can re-derive it, on
    /// any shard count and on either path.
    pub fn open_trace(
        &self,
        config: &TraceConfig,
        seed: u64,
        user: UserId,
        at: SimTime,
    ) -> (TraceId, Option<RequestTrace>) {
        if !config.enabled {
            return (TraceId(0), None);
        }
        let id = TraceId::from_key(seed, at, user.raw(), self.seq);
        let trace = config
            .sampled(id)
            .then(|| RequestTrace::new(id, at, user.raw(), self.seq, true));
        (id, trace)
    }
}

/// Inputs of day-keyed schedule generation, retained so days can be
/// materialized lazily (see [`UserRuntime::buf`]).
#[derive(Clone)]
struct DaySource {
    site_ids: Vec<SiteId>,
    session: SessionConfig,
    seed: u64,
}

impl DaySource {
    /// Day `day` of `user`'s browsing schedule.
    fn day(&self, user: UserId, day: u64) -> Vec<BrowsingEvent> {
        SessionSchedule::generate_day_for_user(user, &self.site_ids, &self.session, self.seed, day)
    }
}

/// One user's execution state inside its owning shard.
///
/// `Clone` is what makes crash recovery cheap to reason about: the
/// supervisor snapshots a shard before a tick attempt and restores the
/// snapshot wholesale, so a half-executed attempt can never leak partial
/// cursor/RNG state into the retry.
///
/// Browsing schedules are **windowed**: only the not-yet-consumed suffix
/// of already-generated days lives in `buf`. Day `d` of the schedule is a
/// pure function of `(user, seed, d)`
/// ([`SessionSchedule::generate_day_for_user`]), so days are materialized
/// lazily — by [`ShardState::prefetch_sessions`] ahead of the tick that
/// needs them (possibly on another thread, overlapped with the previous
/// tick's merge), or on demand inside the tick as a fallback — and
/// dropped once consumed. The total consumed-event count (`consumed`) is
/// the only schedule state a checkpoint needs.
#[derive(Clone)]
struct UserRuntime {
    id: UserId,
    stream: UserStream,
    /// Pending window of the browsing schedule: the unconsumed events of
    /// every day generated so far, time-sorted.
    buf: Vec<BrowsingEvent>,
    /// Read head into `buf` (events before it are consumed).
    buf_pos: usize,
    /// Number of schedule days already generated into `buf`.
    gen_days: u64,
    /// Total browsing events consumed since the run began — the
    /// checkpoint cursor (day-generation replays it on resume).
    consumed: u64,
    /// Set whenever the user consumes a browsing event (the only way
    /// cursor/RNG/seq state can move) since the last checkpoint frame;
    /// drained by [`ShardState::take_dirty_cursors`]. A crash-restored
    /// snapshot restores the flag with the rest of the user, so it can be
    /// spuriously *set* after recovery (a harmless, slightly larger delta)
    /// but never spuriously clear.
    dirty: bool,
}

impl UserRuntime {
    /// The user's frozen checkpoint cursor.
    fn cursor(&self) -> UserCursor {
        UserCursor {
            user: self.id,
            rng: self.stream.rng.state(),
            cursor: self.consumed,
            seq: self.stream.seq,
            fseq: self.stream.fseq,
        }
    }

    /// Consumes the user's next browsing event if it falls before
    /// `tick_end`, returning its `(site, at)`. When the window is exhausted
    /// the next day is generated on demand, if it can still contribute
    /// events before `tick_end` (prefetched shards never take that path).
    fn next_view(&mut self, days: &DaySource, tick_end: SimTime) -> Option<(SiteId, SimTime)> {
        while self.buf_pos == self.buf.len() {
            if self.gen_days >= days.session.days || self.gen_days * DAY_MS >= tick_end.millis() {
                return None;
            }
            self.buf = days.day(self.id, self.gen_days);
            self.buf_pos = 0;
            self.gen_days += 1;
        }
        let BrowsingEvent::PageView { site, at, .. } = self.buf[self.buf_pos];
        if at >= tick_end {
            return None;
        }
        self.buf_pos += 1;
        self.consumed += 1;
        self.dirty = true;
        Some((site, at))
    }
}

/// What a shard should record during a tick, decided once by the engine.
#[derive(Debug, Clone, Copy)]
pub struct TickProbe {
    /// Record metrics and flight events this tick.
    pub record: bool,
    /// Ring capacity for the shard's per-tick flight journal.
    pub flight_capacity: usize,
    /// Causal-trace sampling policy (disabled unless telemetry is live).
    pub trace: TraceConfig,
    /// The engine seed, the salt of every derived [`TraceId`]. Trace ids
    /// are a pure function of `(seed, at, user, user_seq)`, so they are
    /// shard-count-invariant like the merge key itself.
    pub seed: u64,
}

impl TickProbe {
    /// A probe that records nothing (what [`crate::Engine::run`] uses).
    pub fn off() -> Self {
        Self {
            record: false,
            flight_capacity: 1,
            trace: TraceConfig::disabled(),
            seed: 0,
        }
    }
}

/// Tick-local recording state of [`ShardCore::page_view`]: counters,
/// value histograms and the flight journal. Hot-loop increments hit plain
/// fields; the registry (a name-keyed map) is touched once per tick at
/// flush. Outcome and page-view counts are not kept here — the batch's
/// [`DeliveryStats`] and `page_views` already carry them.
pub struct TickRecorder {
    tally: Tally,
    eligible: Histogram,
    candidates: Histogram,
    flight: FlightRecorder,
}

/// A [`TickRecorder`]'s plain counters.
#[derive(Default)]
struct Tally {
    considered: u64,
    index_pruned: u64,
    not_servable: u64,
    suspended: u64,
    over_budget: u64,
    frequency_capped: u64,
    targeting_mismatch: u64,
    compiled_evals: u64,
    cap_rejections: u64,
    treads_observed: u64,
}

impl TickRecorder {
    fn new(flight_capacity: usize) -> Self {
        Self {
            tally: Tally::default(),
            eligible: Histogram::small_values(),
            candidates: Histogram::small_values(),
            flight: FlightRecorder::with_capacity(flight_capacity.max(1)),
        }
    }

    /// Journals one flight event, keyed on the user's flight counter.
    fn journal(&mut self, view: &PageView<'_>, stream: &mut UserStream, kind: FlightKind) {
        self.flight.record(FlightEvent {
            at: view.at,
            user: view.user,
            seq: stream.fseq,
            trace: view.trace_id.0,
            kind,
        });
        stream.fseq += 1;
    }

    /// Tallies one slot's decision and journals it.
    fn decided(&mut self, view: &PageView<'_>, stream: &mut UserStream, traced: &TracedDecision) {
        let b = traced.breakdown;
        self.eligible.observe(u64::from(b.eligible));
        // Under indexed selection `considered` IS the candidate-set size;
        // under the linear scan it is the whole inventory and
        // `index_pruned` is zero.
        self.candidates.observe(u64::from(b.considered));
        let tally = &mut self.tally;
        tally.considered += u64::from(b.considered);
        tally.index_pruned += u64::from(b.index_pruned);
        tally.not_servable += u64::from(b.not_servable);
        tally.suspended += u64::from(b.suspended);
        tally.over_budget += u64::from(b.over_budget);
        tally.frequency_capped += u64::from(b.frequency_capped);
        tally.targeting_mismatch += u64::from(b.targeting_mismatch);
        tally.compiled_evals += u64::from(b.compiled_evals);
        let kind = FlightKind::AuctionDecided {
            outcome: outcome_tag(&traced.decision.outcome),
            eligible: b.eligible,
            frequency_capped: b.frequency_capped,
            over_budget: b.over_budget,
        };
        self.journal(view, stream, kind);
        if b.frequency_capped > 0 {
            self.tally.cap_rejections += 1;
            let kind = FlightKind::CapRejection {
                ads_capped: b.frequency_capped,
            };
            self.journal(view, stream, kind);
        }
    }

    /// Writes the tick's totals into `batch`'s registry and flight journal.
    fn flush(mut self, batch: &mut ShardBatch, auction_ns: u64) {
        let (reg, tally) = (&mut batch.telemetry, &self.tally);
        reg.add("engine.page_views", batch.page_views);
        reg.add("eligibility.considered", tally.considered);
        reg.add("eligibility.not_servable", tally.not_servable);
        reg.add("eligibility.suspended", tally.suspended);
        reg.add("eligibility.over_budget", tally.over_budget);
        reg.add("eligibility.frequency_capped", tally.frequency_capped);
        reg.add("eligibility.targeting_mismatch", tally.targeting_mismatch);
        reg.add("auction.won", batch.stats.won);
        reg.add("auction.lost_to_background", batch.stats.lost_to_background);
        reg.add("auction.unfilled", batch.stats.unfilled);
        reg.add("delivery.cap_rejections", tally.cap_rejections);
        reg.add("treads.observed", tally.treads_observed);
        reg.add("index.candidates", tally.considered);
        reg.add("index.pruned", tally.index_pruned);
        reg.add("targeting.compiled_evals", tally.compiled_evals);
        reg.merge_histogram("auction.eligible_bids", &self.eligible);
        reg.merge_histogram("index.candidate_set_size", &self.candidates);
        reg.observe_ns("phase.auction_ns", auction_ns);
        batch.flight_dropped = self.flight.dropped();
        batch.flight = self.flight.drain();
    }
}

/// The outcome label shared by flight events and trace events.
fn outcome_tag(outcome: &AuctionOutcome) -> &'static str {
    match outcome {
        AuctionOutcome::Won { .. } => "won",
        AuctionOutcome::LostToBackground => "lost_to_background",
        AuctionOutcome::Unfilled => "unfilled",
    }
}

/// Everything a shard hands back after one tick.
#[derive(Debug, Clone, Default)]
pub struct ShardBatch {
    /// The producing shard's index (for deterministic collection order).
    pub shard: usize,
    /// Globally-visible effects, in shard-local production order.
    pub events: Vec<ShardEvent>,
    /// Delivery statistics accrued this tick.
    pub stats: DeliveryStats,
    /// Page views processed this tick.
    pub page_views: u64,
    /// Metrics recorded this tick (empty when the probe was off).
    pub telemetry: Registry,
    /// Flight events journaled this tick, in shard-local production order.
    pub flight: Vec<FlightEvent>,
    /// Flight events this shard's per-tick ring evicted.
    pub flight_dropped: u64,
    /// Head-sampled request traces built this tick, in shard-local
    /// production order (the engine re-sorts by request key).
    pub traces: Vec<RequestTrace>,
}

impl ShardBatch {
    /// An empty batch for shard `shard`.
    pub fn new(shard: usize) -> Self {
        Self {
            shard,
            ..Self::default()
        }
    }
}

/// One page view to decide: who, where, when.
pub struct PageView<'s> {
    /// The browsing user.
    pub user: UserId,
    /// The site viewed (its pixels fire, its slots are auctioned).
    pub site: &'s Site,
    /// The view's simulated instant.
    pub at: SimTime,
    /// The view's trace id (`TraceId(0)` when tracing is off); stamped on
    /// the flight events the view journals.
    pub trace_id: TraceId,
}

/// A sampled page view's trace as its caller opened it.
pub struct ViewTrace<'t> {
    /// The request trace.
    pub trace: &'t mut RequestTrace,
    /// The caller's root span: pixel events land on it, and each slot's
    /// `decide_slot` span hangs under it.
    pub root: usize,
    /// Wall-clock origin of the `decide_slot` span times; `None` leaves
    /// them without wall time.
    pub origin: Option<Instant>,
}

/// A shard's decide-path state: frequency caps, extension logs, and
/// decide scratch. `Clone` so crash recovery can snapshot it wholesale.
#[derive(Clone)]
pub struct ShardCore {
    freq: FrequencyCaps,
    extensions: BTreeMap<UserId, ExtensionLog>,
    /// Reusable per-decide buffers (candidate list, bid list), warm
    /// across every opportunity this shard ever runs.
    /// Pure scratch: cleared before use, so it carries no state between
    /// opportunities and is deliberately absent from checkpoints.
    scratch: DeliveryScratch,
}

impl ShardCore {
    /// A core capping each `(ad, user)` at `frequency_cap` impressions,
    /// with an empty extension log for each of `extension_users`.
    pub fn new(frequency_cap: u32, extension_users: impl IntoIterator<Item = UserId>) -> Self {
        Self {
            freq: FrequencyCaps::new(frequency_cap),
            extensions: extension_users
                .into_iter()
                .map(|u| (u, ExtensionLog::for_user(u)))
                .collect(),
            scratch: DeliveryScratch::new(),
        }
    }

    /// Consumes the core, yielding its users' extension logs.
    pub fn into_extensions(self) -> BTreeMap<UserId, ExtensionLog> {
        self.extensions
    }

    /// Decides one page view: every pixel fires (each advancing the
    /// user's `seq`), then each ad slot is decided against the frozen
    /// `budget`. A win bumps the local frequency cap immediately — so
    /// later views see it; the platform's global counter catches up at
    /// merge — is observed by the user's extension log, and queues an
    /// `Impression` event in `batch`.
    ///
    /// Reads the platform only, and mutates only `self`, `stream`,
    /// `batch` and the optional recorder and trace. Recording and tracing
    /// never touch an RNG and derive everything from user-owned state, so
    /// probed and unprobed calls simulate identically.
    ///
    /// # Panics
    ///
    /// If `view.user` is not registered on the platform (callers admit
    /// only registered users).
    #[allow(clippy::too_many_arguments)]
    pub fn page_view<B: BudgetView>(
        &mut self,
        platform: &Platform,
        budget: &B,
        view: PageView<'_>,
        stream: &mut UserStream,
        batch: &mut ShardBatch,
        mut recorder: Option<&mut TickRecorder>,
        mut trace: Option<ViewTrace<'_>>,
    ) {
        let PageView { user, site, at, .. } = view;
        batch.page_views += 1;
        for &pixel in &site.pixels {
            if let Some(t) = trace.as_mut() {
                t.trace
                    .event(t.root, TraceEventKind::PixelFired { pixel: pixel.raw() });
            }
            batch.events.push(ShardEvent::PixelFire {
                at,
                user,
                user_seq: stream.seq,
                pixel,
            });
            stream.seq += 1;
        }
        for slot in 0..u32::from(site.ad_slots_per_view) {
            batch.stats.opportunities += 1;
            let decide_start = trace
                .as_ref()
                .and_then(|t| t.origin)
                .map(|o| (o, o.elapsed()));
            let traced = platform
                .decide_browse_traced_with_scratch(
                    user,
                    at,
                    budget,
                    &self.freq,
                    &mut stream.rng,
                    &mut self.scratch,
                )
                .expect("page views come from registered users");
            if let Some(r) = recorder.as_deref_mut() {
                r.decided(&view, stream, &traced);
            }
            if let Some(t) = trace.as_mut() {
                let span = t.trace.span("decide_slot", Some(t.root), at);
                if let Some((origin, start)) = decide_start {
                    let dur = origin.elapsed().saturating_sub(start);
                    t.trace
                        .set_span_wall(span, start.as_nanos() as u64, dur.as_nanos() as u64);
                }
                let b = traced.breakdown;
                t.trace.event(
                    span,
                    TraceEventKind::Slot {
                        slot,
                        considered: b.considered,
                        index_pruned: b.index_pruned,
                        not_servable: b.not_servable,
                        suspended: b.suspended,
                        over_budget: b.over_budget,
                        frequency_capped: b.frequency_capped,
                        targeting_mismatch: b.targeting_mismatch,
                        eligible: b.eligible,
                        compiled_evals: b.compiled_evals,
                    },
                );
                // Per-candidate verdicts are re-derived (pure, RNG-free)
                // only for sampled views, against the same pre-bump
                // frequency state the decide saw.
                let verdicts = platform
                    .candidate_verdicts(user, budget, &self.freq)
                    .expect("page views come from registered users");
                for v in verdicts {
                    t.trace.event(
                        span,
                        TraceEventKind::Candidate {
                            slot,
                            ad: v.ad.raw(),
                            verdict: v.verdict,
                            bid_cpm_micros: v.bid_cpm.as_micros(),
                        },
                    );
                }
                let pending = traced.decision.pending;
                let (winner, clearing) =
                    pending.map_or((0, 0), |p| (p.ad.raw(), p.clearing_cpm.as_micros()));
                t.trace.event(
                    span,
                    TraceEventKind::Auction {
                        slot,
                        outcome: outcome_tag(&traced.decision.outcome),
                        winner,
                        clearing_cpm_micros: clearing,
                        advertiser_bids: traced.auction.advertiser_bids,
                        background_competitors: traced.auction.background_competitors,
                        best_background_cpm_micros: traced.auction.best_background_cpm.as_micros(),
                    },
                );
                if let Some(p) = pending {
                    t.trace.event(
                        span,
                        TraceEventKind::Billed {
                            slot,
                            ad: p.ad.raw(),
                            price_micros: p.clearing_cpm.as_micros() / 1000,
                        },
                    );
                }
            }
            match traced.decision.outcome {
                AuctionOutcome::Won { .. } => batch.stats.won += 1,
                AuctionOutcome::LostToBackground => batch.stats.lost_to_background += 1,
                AuctionOutcome::Unfilled => batch.stats.unfilled += 1,
            }
            // Exactly the wins carry an impression.
            let Some(pending) = traced.decision.pending else {
                continue;
            };
            self.freq.bump(pending.ad, user);
            if let Some(log) = self.extensions.get_mut(&user) {
                let creative = platform
                    .campaigns
                    .ad(pending.ad)
                    .expect("won ad exists")
                    .creative
                    .clone();
                log.observe(pending.ad, creative, at);
                if let Some(r) = recorder.as_deref_mut() {
                    r.tally.treads_observed += 1;
                    let kind = FlightKind::TreadObserved {
                        ad: pending.ad.raw(),
                    };
                    r.journal(&view, stream, kind);
                }
            }
            batch.events.push(ShardEvent::Impression {
                at,
                user,
                user_seq: stream.seq,
                pending,
            });
            stream.seq += 1;
        }
    }
}

/// A point inside a tick at which an injected crash strikes.
///
/// The crash fires when the attempt's page-view count *exceeds*
/// `after_page_views`, so successive retry attempts (which pass their
/// attempt number here) die progressively deeper into the tick — each
/// failed attempt leaves behind a *different* half-mutated state, which is
/// exactly what snapshot-restore recovery must be robust to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Page views the attempt completes before dying.
    pub after_page_views: u64,
}

/// A shard tick attempt died mid-execution.
///
/// Carries no payload on purpose: a crashed process reports nothing, and
/// the supervisor must recover from the tick-start snapshot alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal;

/// A shard: exclusive owner of its users' simulation state.
#[derive(Clone)]
pub struct ShardState {
    index: usize,
    users: Vec<UserRuntime>,
    core: ShardCore,
    days: DaySource,
}

impl ShardState {
    /// Builds a shard for `users`. Construction is cheap: browsing
    /// schedules are generated day by day as ticks (or
    /// [`Self::prefetch_sessions`]) demand them, not up front.
    pub fn new(
        index: usize,
        users: &[UserId],
        extension_users: &BTreeSet<UserId>,
        sites: &[SiteId],
        session: &SessionConfig,
        seed: u64,
        frequency_cap: u32,
    ) -> Self {
        Self {
            index,
            users: users
                .iter()
                .map(|&id| UserRuntime {
                    id,
                    stream: UserStream::new(seed, id),
                    buf: Vec::new(),
                    buf_pos: 0,
                    gen_days: 0,
                    consumed: 0,
                    dirty: false,
                })
                .collect(),
            core: ShardCore::new(
                frequency_cap,
                users
                    .iter()
                    .copied()
                    .filter(|u| extension_users.contains(u)),
            ),
            days: DaySource {
                site_ids: sites.to_vec(),
                session: *session,
                seed,
            },
        }
    }

    /// Materializes every schedule day starting before `until` that is
    /// not yet generated, for every user, dropping consumed events first.
    ///
    /// Day generation is a pure function of `(user, seed, day)`, so this
    /// can run on any thread at any time before the events are needed —
    /// the engine overlaps tick `t+1`'s prefetch with tick `t`'s
    /// merge/apply. Ticks that outrun the prefetch fall back to on-demand
    /// generation with identical results.
    pub fn prefetch_sessions(&mut self, until: SimTime) {
        for user in &mut self.users {
            if user.buf_pos > 0 {
                user.buf.drain(..user.buf_pos);
                user.buf_pos = 0;
            }
            while user.gen_days < self.days.session.days && user.gen_days * DAY_MS < until.millis()
            {
                user.buf.extend(self.days.day(user.id, user.gen_days));
                user.gen_days += 1;
            }
        }
    }

    /// Runs all of this shard's browsing events with `at < tick_end`.
    ///
    /// Reads the platform's catalog state and the tick's frozen `budget`;
    /// mutates only shard-owned state (cursors, RNGs, frequency caps,
    /// extension logs). Users are processed sequentially — within a tick
    /// the decide inputs are frozen and frequency caps are per-user, so
    /// cross-user processing order cannot influence any outcome.
    ///
    /// `probe` controls telemetry: with it on, the shard additionally
    /// fills the batch's metrics registry and flight journal. Telemetry
    /// never touches an RNG and every recorded quantity derives from
    /// user-owned state, so probed and unprobed runs simulate identically.
    pub fn run_tick<B: BudgetView>(
        &mut self,
        platform: &Platform,
        budget: &B,
        sites: &SiteRegistry,
        tick_end: SimTime,
        probe: TickProbe,
    ) -> ShardBatch {
        self.try_run_tick(platform, budget, sites, tick_end, probe, None)
            .expect("a tick without an injected crash point cannot crash")
    }

    /// [`Self::run_tick`], but with an optional injected [`CrashPoint`].
    ///
    /// On `Err(CrashSignal)` the shard's state is **half-mutated garbage**
    /// (cursors and RNGs advanced partway through the tick) and the
    /// partial batch is discarded; the caller must restore a tick-start
    /// snapshot before retrying. The fault-free path (`crash: None`) can
    /// never fail.
    pub fn try_run_tick<B: BudgetView>(
        &mut self,
        platform: &Platform,
        budget: &B,
        sites: &SiteRegistry,
        tick_end: SimTime,
        probe: TickProbe,
        crash: Option<CrashPoint>,
    ) -> Result<ShardBatch, CrashSignal> {
        // `cfg!` first so the whole recording path const-folds away when
        // the engine is built without its `telemetry` feature.
        let record = cfg!(feature = "telemetry") && probe.record;
        // Tracing rides on the recording path: ids and sampling are pure
        // functions of user-owned state (no RNG draws, no platform
        // mutation), so traced and untraced runs simulate identically.
        let trace_config = if record {
            probe.trace
        } else {
            TraceConfig::disabled()
        };
        let mut batch = ShardBatch::new(self.index);
        let mut recorder = record.then(|| TickRecorder::new(probe.flight_capacity));
        // Auction wall time chains per *user* (two clock reads per
        // user-tick, not per opportunity), covers the whole decide loop,
        // and is observed once per shard-tick.
        let mut auction_ns = 0u64;
        for user in &mut self.users {
            let chain = record.then(Instant::now);
            while let Some((site, at)) = user.next_view(&self.days, tick_end) {
                let Some(site) = sites.get(site) else {
                    continue;
                };
                if crash.is_some_and(|cp| batch.page_views >= cp.after_page_views) {
                    // Die with this page view's cursor already advanced:
                    // the most hostile partial state.
                    return Err(CrashSignal);
                }
                let (trace_id, mut trace) =
                    user.stream
                        .open_trace(&trace_config, probe.seed, user.id, at);
                let root = trace.as_mut().map(|t| t.span("page_view", None, at));
                let view_trace = trace.as_mut().zip(root).map(|(trace, root)| ViewTrace {
                    trace,
                    root,
                    origin: None,
                });
                let view = PageView {
                    user: user.id,
                    site,
                    at,
                    trace_id,
                };
                self.core.page_view(
                    platform,
                    budget,
                    view,
                    &mut user.stream,
                    &mut batch,
                    recorder.as_mut(),
                    view_trace,
                );
                batch.traces.extend(trace);
            }
            if let Some(t) = chain {
                auction_ns += t.elapsed().as_nanos() as u64;
            }
        }
        if let Some(r) = recorder {
            r.flush(&mut batch, auction_ns);
        }
        Ok(batch)
    }

    /// Skips all of this shard's browsing events with `at < tick_end`
    /// without executing them, returning an exact inventory of the work
    /// abandoned. Used by the supervisor when a shard tick exhausts its
    /// retry budget: the cursor must still advance (or the events would
    /// replay next tick at the wrong time) but nothing else may move.
    ///
    /// `seq`, RNGs, frequency caps, and extension logs are deliberately
    /// untouched. Skipped events are never merged, and every later event
    /// has a strictly later `at`, so reusing the skipped events' sequence
    /// numbers cannot collide in the `(at, user, user_seq)` merge key.
    pub fn skip_tick(&mut self, sites: &SiteRegistry, tick_end: SimTime) -> LostWork {
        let mut lost = LostWork {
            shard: self.index,
            ..LostWork::default()
        };
        for user in &mut self.users {
            while let Some((site, _)) = user.next_view(&self.days, tick_end) {
                // Unknown sites are skipped without counting, exactly as
                // `run_tick` skips them without simulating.
                if let Some(site) = sites.get(site) {
                    lost.add_page_view(site);
                }
            }
        }
        lost
    }

    /// This shard's index within the engine.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Freezes the shard's replayable state into a [`ShardCheckpoint`].
    ///
    /// Browsing schedules are *not* captured — they are a pure function of
    /// `(seed, user, sites, session)` and are regenerated by the resuming
    /// host; only the cursor into them is state.
    pub fn export_cursors(&self) -> ShardCheckpoint {
        ShardCheckpoint {
            index: self.index as u64,
            users: self.users.iter().map(UserRuntime::cursor).collect(),
            freq: self.core.freq.entries(),
            extensions: self
                .core
                .extensions
                .iter()
                .map(|(&user, log)| ExtensionSnapshot {
                    user,
                    observations: log.observations().to_vec(),
                })
                .collect(),
        }
    }

    /// Drains the per-user dirty flags, returning `(position, cursor)`
    /// for every user whose schedule state moved since the last drain.
    ///
    /// Positions index the shard's deterministic user order (the same
    /// order [`Self::export_cursors`] freezes), so a delta frame can
    /// address cursors without repeating the full user list. Call this on
    /// *every* checkpoint frame — full frames discard the result but must
    /// still reset the flags so the next delta is relative to them.
    pub fn take_dirty_cursors(&mut self) -> Vec<(u32, UserCursor)> {
        let mut out = Vec::new();
        for (ui, user) in self.users.iter_mut().enumerate() {
            if std::mem::take(&mut user.dirty) {
                out.push((ui as u32, user.cursor()));
            }
        }
        out
    }

    /// The current frequency-cap count for `(ad, user)` on this shard.
    pub fn freq_count(&self, ad: adsim_types::AdId, user: UserId) -> u32 {
        self.core.freq.count(ad, user)
    }

    /// The extension logs of this shard's Treads users (delta checkpoints
    /// read append-only suffixes out of them).
    pub fn extensions(&self) -> &BTreeMap<UserId, ExtensionLog> {
        &self.core.extensions
    }

    /// Restores the replayable state frozen by [`Self::export_cursors`]
    /// into a freshly built shard (same users, same order, same seed).
    ///
    /// Fails without mutating anything if the checkpoint does not describe
    /// this shard: wrong index, wrong user count, or a positional user
    /// mismatch (shard user assignment is deterministic, so any of these
    /// means the host was configured differently than the checkpointed
    /// run).
    pub fn restore_cursors(&mut self, cp: &ShardCheckpoint) -> adsim_types::Result<()> {
        if cp.index != self.index as u64 {
            return Err(adsim_types::Error::invalid(format!(
                "checkpoint is for shard {}, not shard {}",
                cp.index, self.index
            )));
        }
        if cp.users.len() != self.users.len() {
            return Err(adsim_types::Error::invalid(format!(
                "checkpoint has {} users for shard {}, host shard has {}",
                cp.users.len(),
                self.index,
                self.users.len()
            )));
        }
        // Replay day generation to locate each frozen cursor: days are
        // regenerated from day 0, fully-consumed ones discarded, until the
        // consumed-event count is spent. Nothing is applied until every
        // user's cursor is known to fit inside their schedule.
        let mut windows: Vec<(Vec<BrowsingEvent>, usize, u64)> =
            Vec::with_capacity(self.users.len());
        for (user, frozen) in self.users.iter().zip(&cp.users) {
            if user.id != frozen.user {
                return Err(adsim_types::Error::invalid(format!(
                    "checkpoint user {} does not match host shard user {}",
                    frozen.user, user.id
                )));
            }
            let mut remaining = frozen.cursor;
            let mut window = (Vec::new(), 0usize, 0u64);
            for day in 0..self.days.session.days {
                let events = self.days.day(user.id, day);
                if remaining < events.len() as u64 {
                    window = (events, remaining as usize, day + 1);
                    remaining = 0;
                    break;
                }
                remaining -= events.len() as u64;
                window = (Vec::new(), 0, day + 1);
            }
            if remaining > 0 {
                return Err(adsim_types::Error::invalid(format!(
                    "checkpoint cursor {} exceeds user {}'s schedule length",
                    frozen.cursor, user.id
                )));
            }
            windows.push(window);
        }
        let extensions = &mut self.core.extensions;
        if cp.extensions.len() != extensions.len()
            || cp
                .extensions
                .iter()
                .any(|e| !extensions.contains_key(&e.user))
        {
            return Err(adsim_types::Error::invalid(format!(
                "checkpoint extension-user set does not match host shard {}",
                self.index
            )));
        }
        for ((user, frozen), (buf, buf_pos, gen_days)) in
            self.users.iter_mut().zip(&cp.users).zip(windows)
        {
            user.stream = UserStream {
                rng: StdRng::restore(frozen.rng),
                seq: frozen.seq,
                fseq: frozen.fseq,
            };
            user.buf = buf;
            user.buf_pos = buf_pos;
            user.gen_days = gen_days;
            user.consumed = frozen.cursor;
            user.dirty = false;
        }
        self.core.freq.restore_entries(&cp.freq);
        *extensions = cp
            .extensions
            .iter()
            .map(|e| {
                (
                    e.user,
                    ExtensionLog::from_parts(Some(e.user), e.observations.clone()),
                )
            })
            .collect();
        Ok(())
    }

    /// Consumes the shard, yielding its users' extension logs.
    pub fn into_extensions(self) -> BTreeMap<UserId, ExtensionLog> {
        self.core.into_extensions()
    }
}
