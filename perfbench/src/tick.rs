//! The externally traced tick: a batch tick loop built only from the
//! engine's public calls, timing each layer from the outside.
//!
//! It mirrors the fault-free path of `Engine::run_resilient` step for
//! step — shard construction, the primed first prefetch, then per tick:
//! budget refreeze, the parallel shard section, batch collection, and the
//! pipelined overlap in which shard threads prefetch tick `t+1`'s sessions
//! while this thread merges, folds and frames tick `t`. The benchmark
//! checks its output byte for byte against the engine's own run, so the
//! layer times below describe the code the engine actually executes.

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

use adplatform::Platform;
use adsim_types::{CampaignId, SimTime, UserId};
use treads_engine::resilience::{
    CheckpointFrame, ConfigEcho, DeltaHead, DeltaTracker, EngineCheckpoint, FaultReport,
    ReceiptLedger, ReportCounters, ShardCheckpoint, ShardDeltaSource,
};
use treads_engine::{
    fold_tick_events, merge_batches, EngineConfig, EngineReport, ResilienceOptions, ShardBatch,
    ShardEvent, ShardState, Telemetry, TickProbe, DAY_MS,
};
use treads_workload::ShardPlan;
use websim::SiteRegistry;

/// Every checkpoint frame a framed run takes: one per tick, with a full
/// base every this many frames.
pub const BASE_EVERY: u64 = 8;

/// The simulation knobs one batch run uses.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// The engine configuration (ledger and pipelined prefetch on).
    pub config: EngineConfig,
    /// Take a delta checkpoint frame every tick (full base every
    /// [`BASE_EVERY`]th frame).
    pub frames: bool,
}

impl BatchSpec {
    /// The supervisor options matching [`BatchSpec::frames`].
    pub fn options(&self) -> ResilienceOptions {
        let every = u64::from(self.frames);
        ResilienceOptions {
            checkpoint_every_ticks: every,
            delta_base_every: every * BASE_EVERY,
            ..ResilienceOptions::default()
        }
    }
}

/// Nanoseconds spent in each layer over one traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Run wall time, first call to last.
    pub wall_ns: u64,
    /// Shard construction.
    pub shard_init_ns: u64,
    /// Session generation: the primed first prefetch plus, per tick, the
    /// slowest shard's overlapped prefetch.
    pub session_gen_ns: u64,
    /// The part of session generation the main thread waited for: the
    /// first prefetch plus, per tick, the overlap's wall time beyond the
    /// serial work it hid behind.
    pub session_gen_exposed_ns: u64,
    /// `BillingLedger::budget_snapshot`, once per tick.
    pub refreeze_ns: u64,
    /// Wall time of the parallel shard section.
    pub parallel_ns: u64,
    /// Shard `run_tick` time, summed over shards.
    pub shard_busy_ns: u64,
    /// Time shards idled at the tick barrier waiting for the slowest.
    pub barrier_wait_ns: u64,
    /// Sum over ticks of the slowest shard's busy time.
    pub busy_max_ns: u64,
    /// Sum over ticks of the mean shard busy time.
    pub busy_mean_ns: f64,
    /// Batch ordering, stats accumulation, dirty-key noting and frame
    /// data capture.
    pub collect_ns: u64,
    /// `merge_batches`.
    pub merge_ns: u64,
    /// Events merged.
    pub merge_events: u64,
    /// `fold_tick_events` (billing, logs, audiences, receipt ledger).
    pub fold_ns: u64,
    /// Impressions folded.
    pub fold_impressions: u64,
    /// Pixel fires folded.
    pub fold_pixel_fires: u64,
    /// Checkpoint frame building and serialization.
    pub frame_ns: u64,
    /// Delta frame bytes.
    pub delta_bytes: u64,
    /// Full base frame bytes.
    pub base_bytes: u64,
    /// Slots the delta frames carried.
    pub dirty_slots: u64,
    /// Page views simulated.
    pub page_views: u64,
    /// Per-tick wall times.
    pub tick_ns: Vec<u64>,
    /// `index.candidates` (probe-on runs only).
    pub index_candidates: u64,
}

impl Layers {
    /// Wall time the named parts account for.
    pub fn attributed_ns(&self) -> u64 {
        self.shard_init_ns
            + self.refreeze_ns
            + self.parallel_ns
            + self.collect_ns
            + self.merge_ns
            + self.fold_ns
            + self.frame_ns
            + self.session_gen_exposed_ns
    }

    /// Time only the single writer works: refreeze, collection, merge,
    /// fold and framing.
    pub fn serial_ns(&self) -> u64 {
        self.refreeze_ns + self.collect_ns + self.merge_ns + self.fold_ns + self.frame_ns
    }
}

/// What a traced run produced.
pub struct TracedRun {
    /// Run counters, as `Engine::run` reports them.
    pub report: EngineReport,
    /// The receipt ledger (commitment-only).
    pub ledger: Option<ReceiptLedger>,
    /// Checkpoint frames, in tick order.
    pub frames: Vec<CheckpointFrame>,
    /// Layer times.
    pub layers: Layers,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs `spec` over the host's `platform`, tracing every layer. `probe`
/// turns the shards' own counters on (the probe-on pass that reads
/// `index.candidates`).
pub fn run(
    spec: &BatchSpec,
    platform: &mut Platform,
    sites: &SiteRegistry,
    users: &[UserId],
    probe: bool,
) -> TracedRun {
    let start = Instant::now();
    let cfg = &spec.config;
    let options = spec.options();
    let mut layers = Layers::default();
    let echo = ConfigEcho {
        shards: cfg.shards as u64,
        seed: cfg.seed,
        tick_ms: cfg.tick_ms,
        users: users.len() as u64,
        days: cfg.session.days,
        views_bits: cfg.session.views_per_user_per_day.to_bits(),
    };
    let extension_users = BTreeSet::new();
    let site_ids = sites.ids();
    let frequency_cap = platform.config.frequency_cap;

    let t = Instant::now();
    let plan = ShardPlan::partition(users, cfg.shards);
    let mut shards: Vec<ShardState> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .shards()
            .iter()
            .enumerate()
            .map(|(index, shard_users)| {
                let (site_ids, extension_users) = (&site_ids, &extension_users);
                s.spawn(move || {
                    ShardState::new(
                        index,
                        shard_users,
                        extension_users,
                        site_ids,
                        &cfg.session,
                        cfg.seed,
                        frequency_cap,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard construction does not panic"))
            .collect()
    });
    layers.shard_init_ns = ns(t);

    let horizon = cfg.session.days * DAY_MS;
    let mut report = EngineReport {
        users: users.len() as u64,
        shards: cfg.shards as u64,
        ..EngineReport::default()
    };
    let tick_probe = if probe {
        TickProbe {
            record: true,
            ..TickProbe::off()
        }
    } else {
        TickProbe::off()
    };
    let mut telemetry = Telemetry::disabled();
    let mut exhausted: BTreeSet<CampaignId> = BTreeSet::new();
    let delta_mode = options.checkpoint_every_ticks > 0 && options.delta_base_every > 0;
    let mut tracker = delta_mode.then(|| DeltaTracker::new(cfg.shards));
    let mut frame_count = 0u64;
    let mut frames: Vec<CheckpointFrame> = Vec::new();
    let mut ledger = cfg
        .ledger
        .then(|| ReceiptLedger::commitment_only(cfg.seed, cfg.tick_ms));

    let mut tick_start = 0u64;
    if tick_start < horizon {
        let first_end = SimTime((tick_start + cfg.tick_ms).min(horizon));
        let t = Instant::now();
        std::thread::scope(|s| {
            for shard in shards.iter_mut() {
                s.spawn(move || shard.prefetch_sessions(first_end));
            }
        });
        let first = ns(t);
        layers.session_gen_ns += first;
        layers.session_gen_exposed_ns += first;
    }
    while tick_start < horizon {
        let tick_timer = Instant::now();
        let tick_end = (tick_start + cfg.tick_ms).min(horizon);

        let t = Instant::now();
        let budget = platform.billing.budget_snapshot();
        layers.refreeze_ns += ns(t);

        let t = Instant::now();
        let shared: &Platform = platform;
        let mut timed: Vec<(ShardBatch, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter_mut()
                .map(|shard| {
                    let budget = &budget;
                    s.spawn(move || {
                        let t = Instant::now();
                        let batch =
                            shard.run_tick(shared, budget, sites, SimTime(tick_end), tick_probe);
                        (batch, ns(t))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard tick does not panic"))
                .collect()
        });
        let parallel = ns(t);
        layers.parallel_ns += parallel;
        let busy: Vec<u64> = timed.iter().map(|(_, b)| *b).collect();
        layers.shard_busy_ns += busy.iter().sum::<u64>();
        layers.barrier_wait_ns += busy
            .iter()
            .map(|b| parallel.saturating_sub(*b))
            .sum::<u64>();
        layers.busy_max_ns += busy.iter().copied().max().unwrap_or(0);
        layers.busy_mean_ns += busy.iter().sum::<u64>() as f64 / busy.len().max(1) as f64;

        let t = Instant::now();
        timed.sort_by_key(|(b, _)| b.shard);
        let mut batches: Vec<ShardBatch> = timed.into_iter().map(|(b, _)| b).collect();
        if let Some(tracker) = tracker.as_mut() {
            for batch in &batches {
                for event in &batch.events {
                    if let ShardEvent::Impression { pending, .. } = event {
                        tracker.note_shard_freq(batch.shard, (pending.ad, pending.user));
                    }
                }
            }
        }
        let take_frame = options.checkpoint_every_ticks > 0
            && (report.ticks + 1).is_multiple_of(options.checkpoint_every_ticks);
        let mut full_cursors: Option<Vec<ShardCheckpoint>> = None;
        let mut delta_sources: Option<Vec<ShardDeltaSource>> = None;
        if take_frame {
            if delta_mode && !frame_count.is_multiple_of(options.delta_base_every) {
                let tracker = tracker.as_mut().expect("delta mode has a tracker");
                let mut sources = Vec::with_capacity(shards.len());
                for (s, shard) in shards.iter_mut().enumerate() {
                    let cursors = shard.take_dirty_cursors();
                    let freq = tracker
                        .drain_shard_freq_dirty(s)
                        .into_iter()
                        .map(|key| (key, shard.freq_count(key.0, key.1)))
                        .collect();
                    let mut ext = Vec::new();
                    for (user, log) in shard.extensions() {
                        let observations = log.observations();
                        let mark = tracker.shard_ext_mark(s, *user);
                        if observations.len() > mark {
                            ext.push((*user, observations[mark..].to_vec()));
                        }
                    }
                    sources.push(ShardDeltaSource {
                        index: s as u64,
                        cursors,
                        freq,
                        ext,
                    });
                }
                delta_sources = Some(sources);
            } else {
                if delta_mode {
                    for shard in shards.iter_mut() {
                        let _ = shard.take_dirty_cursors();
                    }
                }
                full_cursors = Some(shards.iter().map(ShardState::export_cursors).collect());
            }
        }
        for batch in &batches {
            report.page_views += batch.page_views;
            report.opportunities += batch.stats.opportunities;
            platform.stats.opportunities += batch.stats.opportunities;
            platform.stats.won += batch.stats.won;
            platform.stats.lost_to_background += batch.stats.lost_to_background;
            platform.stats.unfilled += batch.stats.unfilled;
            layers.index_candidates += batch.telemetry.counter("index.candidates");
        }
        let events: Vec<Vec<ShardEvent>> = std::mem::take(&mut batches)
            .into_iter()
            .map(|b| b.events)
            .collect();
        layers.collect_ns += ns(t);

        let prefetch_until = SimTime((tick_end + cfg.tick_ms).min(horizon));
        let prefetch_needed = tick_end < horizon;
        let overlap = cfg.pipeline_sessions && prefetch_needed;
        let overlap_gen_ns = Mutex::new(0u64);
        let scope_timer = Instant::now();
        let mut serial_ns = 0u64;
        std::thread::scope(|s| {
            if overlap {
                for shard in shards.iter_mut() {
                    let overlap_gen_ns = &overlap_gen_ns;
                    s.spawn(move || {
                        let t = Instant::now();
                        shard.prefetch_sessions(prefetch_until);
                        let mut slowest = overlap_gen_ns.lock().expect("prefetch timer lock");
                        *slowest = (*slowest).max(ns(t));
                    });
                }
            }
            let serial = Instant::now();
            let t = Instant::now();
            layers.merge_events += events.iter().map(Vec::len).sum::<usize>() as u64;
            let merged = merge_batches(events).expect("shard batches never collide");
            layers.merge_ns += ns(t);

            let t = Instant::now();
            let fold = fold_tick_events(
                platform,
                merged,
                SimTime(tick_end),
                &mut telemetry,
                &mut exhausted,
                ledger.as_mut(),
            );
            report.pixel_fires += fold.pixel_fires;
            report.impressions += fold.impressions;
            report.ticks += 1;
            layers.fold_ns += ns(t);
            layers.fold_impressions += fold.impressions;
            layers.fold_pixel_fires += fold.pixel_fires;

            let t = Instant::now();
            let counters = ReportCounters {
                users: report.users,
                shards: report.shards,
                ticks: report.ticks,
                page_views: report.page_views,
                pixel_fires: report.pixel_fires,
                opportunities: report.opportunities,
                impressions: report.impressions,
            };
            let committed_heads = match (take_frame, ledger.as_ref()) {
                (true, Some(l)) => l.heads(),
                _ => Vec::new(),
            };
            if let Some(shard_cursors) = full_cursors.take() {
                let cp = EngineCheckpoint {
                    config: echo.clone(),
                    next_tick_start: tick_end,
                    report: counters,
                    exhausted: exhausted.iter().copied().collect(),
                    faults: FaultReport::default(),
                    platform: platform.export_state(),
                    shards: shard_cursors,
                    ledger: committed_heads,
                };
                layers.base_bytes += cp.to_bytes().len() as u64;
                let tracker = tracker.as_mut().expect("framed runs are delta runs");
                tracker.rebase(&cp, platform);
                frames.push(CheckpointFrame::Full(cp));
            } else if let Some(sources) = delta_sources.take() {
                let head = DeltaHead {
                    config: echo.clone(),
                    next_tick_start: tick_end,
                    report: counters,
                    exhausted: exhausted.iter().copied().collect(),
                    faults: FaultReport::default(),
                    ledger: committed_heads,
                };
                let frame = tracker
                    .as_mut()
                    .expect("delta sources only exist in delta mode")
                    .take_delta(head, platform, sources);
                layers.dirty_slots += (frame.billing_accounts.len()
                    + frame.billing_campaigns.len()
                    + frame.billing_ads.len()
                    + frame.billing_links.len()
                    + frame.freq.len()
                    + frame
                        .audience_adds
                        .iter()
                        .map(|(_, m)| m.len())
                        .sum::<usize>()
                    + frame.facets.len()
                    + frame
                        .shards
                        .iter()
                        .map(|s| s.users.len() + s.freq.len() + s.ext.len())
                        .sum::<usize>()) as u64;
                let frame = CheckpointFrame::Delta(frame);
                layers.delta_bytes += frame.to_bytes().len() as u64;
                frames.push(frame);
            }
            if take_frame {
                frame_count += 1;
            }
            layers.frame_ns += ns(t);
            serial_ns = ns(serial);
        });
        let scope_ns = ns(scope_timer);
        if overlap {
            layers.session_gen_ns += overlap_gen_ns.into_inner().expect("prefetch timer lock");
        } else if prefetch_needed {
            let t = Instant::now();
            std::thread::scope(|s| {
                for shard in shards.iter_mut() {
                    s.spawn(move || shard.prefetch_sessions(prefetch_until));
                }
            });
            let gen = ns(t);
            layers.session_gen_ns += gen;
            layers.session_gen_exposed_ns += gen;
        }
        // The overlap scope's wall beyond the serial work it hid is the
        // generation the critical path still waited for.
        layers.session_gen_exposed_ns += scope_ns.saturating_sub(serial_ns);
        layers.tick_ns.push(ns(tick_timer));
        tick_start = tick_end;
    }
    layers.page_views = report.page_views;
    layers.wall_ns = ns(start);
    TracedRun {
        report,
        ledger,
        frames,
        layers,
    }
}
