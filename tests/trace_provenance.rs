//! Integration test: causal tracing is a pure observer.
//!
//! DESIGN.md §13's contract, pinned from outside the crates:
//!
//! * **On/off byte-identity.** A traced run (full sampling) produces
//!   durable outputs byte-identical to an untraced run, on both the batch
//!   engine and the serving front end, at 1, 2, and 8 shards — tracing
//!   draws no randomness and touches no simulation state.
//! * **Shard-count-invariant ids.** Trace ids are pure hashes of each
//!   request's canonical key, so the retained id set — including the
//!   always-retained tail set (sheds, faults) — is identical across shard
//!   counts.
//! * **Winner provenance.** In a fully-sampled serving run, every served
//!   page has a retained trace whose auction events name exactly the ads
//!   the page carries.
//! * **One decision record.** Batch and serving decide page views through
//!   the same step, so for every request their fully-sampled traces carry
//!   the same pixel, slot, candidate, auction and billing events.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use treads_repro::adplatform::attributes::{AttributeCatalog, AttributeSource};
use treads_repro::adplatform::billing::Invoice;
use treads_repro::adplatform::campaign::AdCreative;
use treads_repro::adplatform::delivery::DeliveryStats;
use treads_repro::adplatform::profile::Gender;
use treads_repro::adplatform::reporting::Impression;
use treads_repro::adplatform::targeting::{TargetingExpr, TargetingSpec};
use treads_repro::adplatform::{Platform, PlatformConfig};
use treads_repro::adsim_types::{Money, SimTime, UserId};
use treads_repro::engine::{Engine, EngineConfig, ResilienceOptions, DAY_MS};
use treads_repro::resilience::FaultPlan;
use treads_repro::serving::{OpportunityRequest, Response, ServingConfig, ServingEngine};
use treads_repro::telemetry::{Telemetry, TraceConfig, TraceEventKind, TraceId};
use treads_repro::websim::{ArrivalSchedule, ExtensionLog, SessionConfig, SiteRegistry};

/// Every durable output the byte-identity claims cover.
#[derive(Debug, PartialEq)]
struct Footprint {
    invoice: Invoice,
    log: Vec<Impression>,
    stats: DeliveryStats,
    extensions: BTreeMap<UserId, ExtensionLog>,
}

struct Fixture {
    platform: Platform,
    sites: SiteRegistry,
    users: Vec<UserId>,
    extension_users: BTreeSet<UserId>,
    account: treads_repro::adsim_types::AccountId,
}

fn fixture(seed: u64, population: u64) -> Fixture {
    let mut catalog = AttributeCatalog::new();
    catalog.register("Interest: coffee", AttributeSource::Platform, None, 0.3);
    let mut platform = Platform::new(
        PlatformConfig {
            seed,
            frequency_cap: 4,
            ..PlatformConfig::default()
        },
        catalog,
    );
    let adv = platform.register_advertiser("adv");
    let account = platform.open_account(adv).expect("account");
    let campaign = platform
        .create_campaign(account, "c", Money::dollars(25), None)
        .expect("campaign");
    platform
        .submit_ad(
            campaign,
            AdCreative::text("Hello", "World"),
            TargetingSpec::including(TargetingExpr::Everyone),
        )
        .expect("ad");
    let users: Vec<UserId> = (0..population)
        .map(|i| platform.register_user(20 + (i % 50) as u8, Gender::Female, "Ohio", "43004"))
        .collect();
    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    let with_pixel = sites.create("shop.example", 1);
    let pixel = platform.create_pixel(account, "shop pixel").expect("pixel");
    sites.embed_pixel(with_pixel, pixel);
    let extension_users = users.iter().copied().collect();
    Fixture {
        platform,
        sites,
        users,
        extension_users,
        account,
    }
}

fn footprint(f: Fixture, extensions: BTreeMap<UserId, ExtensionLog>) -> Footprint {
    Footprint {
        invoice: f.platform.invoice(f.account),
        log: f.platform.log.all().to_vec(),
        stats: f.platform.stats,
        extensions,
    }
}

const SESSION: SessionConfig = SessionConfig {
    views_per_user_per_day: 6.0,
    days: 2,
};

/// One batch run; `trace` = None runs untraced (disabled telemetry).
fn batch_run(seed: u64, shards: usize, trace: Option<TraceConfig>) -> (Footprint, Vec<TraceId>) {
    let (footprint, telemetry) = batch_telemetry(seed, shards, trace);
    (footprint, trace_ids(&telemetry))
}

fn trace_ids(telemetry: &Telemetry) -> Vec<TraceId> {
    telemetry.traces().iter().map(|t| t.id).collect()
}

/// [`batch_run`], returning the run's whole telemetry.
fn batch_telemetry(seed: u64, shards: usize, trace: Option<TraceConfig>) -> (Footprint, Telemetry) {
    let mut f = fixture(seed, 18);
    let engine = Engine::new(EngineConfig {
        shards,
        session: SESSION,
        tick_ms: DAY_MS,
        seed,
        ..EngineConfig::default()
    });
    let mut telemetry = match trace {
        Some(cfg) => {
            let mut t = Telemetry::new();
            t.set_trace_config(cfg);
            t
        }
        None => Telemetry::disabled(),
    };
    let outcome = engine.run_with_telemetry(
        &mut f.platform,
        &f.sites,
        &f.users,
        &f.extension_users,
        &mut telemetry,
    );
    (footprint(f, outcome.extensions), telemetry)
}

/// One serving run over the batch session schedule; `trace` = None runs
/// untraced.
fn serving_run(
    seed: u64,
    shards: usize,
    trace: Option<TraceConfig>,
    faults: FaultPlan,
) -> (Footprint, Vec<TraceId>, u64) {
    let (footprint, telemetry, shed) = serving_telemetry(seed, shards, trace, faults);
    (footprint, trace_ids(&telemetry), shed)
}

/// [`serving_run`], returning the run's whole telemetry.
fn serving_telemetry(
    seed: u64,
    shards: usize,
    trace: Option<TraceConfig>,
    faults: FaultPlan,
) -> (Footprint, Telemetry, u64) {
    let mut f = fixture(seed, 18);
    let arrivals = ArrivalSchedule::from_sessions(&f.users, &f.sites.ids(), &SESSION, seed);
    let engine = ServingEngine::new(ServingConfig {
        shards,
        tick_ms: DAY_MS,
        horizon_ms: SESSION.days * DAY_MS,
        seed,
        max_batch: 16,
        max_delay: Duration::from_millis(1),
        queue_watermark: u64::MAX,
        retry_after_ms: 10,
        trace: trace.unwrap_or_else(TraceConfig::disabled),
        ..ServingConfig::default()
    });
    let mut telemetry = match trace {
        Some(_) => Telemetry::new(),
        None => Telemetry::disabled(),
    };
    let options = ResilienceOptions {
        faults,
        ..ResilienceOptions::default()
    };
    let (outcome, _) = engine.serve_with_telemetry(
        &mut f.platform,
        &f.sites,
        &f.extension_users,
        &options,
        &mut telemetry,
        |frontend| {
            let tickets: Vec<_> = arrivals
                .arrivals()
                .iter()
                .map(|a| {
                    frontend.submit(OpportunityRequest {
                        user: a.user,
                        site: a.site,
                        at: a.at,
                    })
                })
                .collect();
            tickets.into_iter().for_each(|t| {
                t.wait();
            });
        },
    );
    let shed = outcome.report.shed;
    (footprint(f, outcome.extensions), telemetry, shed)
}

/// Each retained trace's decision events, keyed by request: what the
/// shared page-view step emits, without the path-specific root span,
/// admission event or wall times.
fn decisions(telemetry: &Telemetry) -> BTreeMap<(SimTime, u64, u64), Vec<TraceEventKind>> {
    telemetry
        .traces()
        .iter()
        .map(|t| {
            let events = t
                .events
                .iter()
                .map(|e| e.kind.clone())
                .filter(|k| {
                    matches!(
                        k,
                        TraceEventKind::PixelFired { .. }
                            | TraceEventKind::Slot { .. }
                            | TraceEventKind::Candidate { .. }
                            | TraceEventKind::Auction { .. }
                            | TraceEventKind::Billed { .. }
                    )
                })
                .collect();
            (t.key(), events)
        })
        .collect()
}

#[test]
fn tracing_on_or_off_is_byte_identical_at_every_shard_count() {
    let seed = 51;
    let (oracle, _) = batch_run(seed, 1, None);
    assert!(!oracle.log.is_empty(), "the oracle must deliver ads");
    let mut sampled_sets: Vec<BTreeSet<TraceId>> = Vec::new();
    for shards in [1usize, 2, 8] {
        let (untraced, none) = batch_run(seed, shards, None);
        assert!(none.is_empty(), "disabled telemetry retains nothing");
        let (traced, ids) = batch_run(seed, shards, Some(TraceConfig::full()));
        assert_eq!(oracle, untraced, "batch diverged at {shards} shards");
        assert_eq!(
            oracle, traced,
            "full-sampling tracing changed batch outcomes at {shards} shards"
        );
        assert!(!ids.is_empty(), "full sampling retains traces");
        sampled_sets.push(ids.into_iter().collect());
    }
    // The retained id set is itself shard-count-invariant: ids are pure
    // hashes of canonical keys and retention is deterministic.
    assert_eq!(sampled_sets[0], sampled_sets[1]);
    assert_eq!(sampled_sets[0], sampled_sets[2]);

    for shards in [1usize, 2, 8] {
        let (untraced, none, _) = serving_run(seed, shards, None, FaultPlan::new());
        assert!(none.is_empty());
        let (traced, ids, _) =
            serving_run(seed, shards, Some(TraceConfig::full()), FaultPlan::new());
        assert_eq!(oracle, untraced, "serving diverged at {shards} shards");
        assert_eq!(
            oracle, traced,
            "full-sampling tracing changed serving outcomes at {shards} shards"
        );
        assert!(!ids.is_empty());
    }
}

#[test]
fn shed_trace_ids_are_always_retained_and_shard_count_invariant() {
    let seed = 97;
    // Deterministic sheds: a brownout rejecting submissions 2..6. Default
    // 1% head sampling — the shed traces survive on the tail path alone.
    let mut shed_sets: Vec<BTreeSet<TraceId>> = Vec::new();
    for shards in [1usize, 2, 8] {
        let (_, ids, shed) = serving_run(
            seed,
            shards,
            Some(TraceConfig::default()),
            FaultPlan::new().brownout(2, 4),
        );
        assert_eq!(shed, 4, "the brownout sheds exactly its window");
        assert!(
            ids.len() >= 4,
            "every shed request keeps a trace (got {} retained)",
            ids.len()
        );
        shed_sets.push(ids.into_iter().collect());
    }
    assert_eq!(shed_sets[0], shed_sets[1], "1 vs 2 shards");
    assert_eq!(shed_sets[0], shed_sets[2], "1 vs 8 shards");
}

#[test]
fn every_served_page_has_a_trace_naming_its_winners() {
    let seed = 23;
    let mut f = fixture(seed, 18);
    let arrivals = ArrivalSchedule::from_sessions(&f.users, &f.sites.ids(), &SESSION, seed);
    let engine = ServingEngine::new(ServingConfig {
        shards: 2,
        tick_ms: DAY_MS,
        horizon_ms: SESSION.days * DAY_MS,
        seed,
        max_batch: 16,
        max_delay: Duration::from_millis(1),
        queue_watermark: u64::MAX,
        retry_after_ms: 10,
        trace: TraceConfig::full(),
        ..ServingConfig::default()
    });
    let mut telemetry = Telemetry::new();
    let (_, answered) = engine.serve_with_telemetry(
        &mut f.platform,
        &f.sites,
        &f.extension_users,
        &ResilienceOptions::default(),
        &mut telemetry,
        |frontend| {
            let tickets: Vec<_> = arrivals
                .arrivals()
                .iter()
                .map(|a| {
                    let req = OpportunityRequest {
                        user: a.user,
                        site: a.site,
                        at: a.at,
                    };
                    (req, frontend.submit(req))
                })
                .collect();
            tickets
                .into_iter()
                .map(|(req, t)| (req, t.wait()))
                .collect::<Vec<_>>()
        },
    );
    assert!(
        (arrivals.len() as u64) < 4096,
        "the workload must fit the trace collector so nothing is evicted"
    );
    let traces = telemetry.traces();
    let mut pages_with_ads = 0u64;
    for (req, resp) in &answered {
        let Response::Served(page) = resp else {
            panic!("a healthy run serves everything");
        };
        if page.slots == 0 {
            continue;
        }
        let won: Vec<u64> = page.ads.iter().map(|a| a.raw()).collect();
        let trace = traces
            .iter()
            .find(|t| t.at == req.at && t.user == req.user.raw() && t.won_ads() == won)
            .unwrap_or_else(|| {
                panic!(
                    "no trace explains user {} at t={} (won {:?})",
                    req.user, req.at.0, won
                )
            });
        assert!(trace.sampled, "full sampling samples every page view");
        assert_eq!(
            trace.spans.first().map(|s| s.name),
            Some("request"),
            "the span tree is rooted at the request"
        );
        pages_with_ads += u64::from(!page.ads.is_empty());
    }
    assert!(pages_with_ads > 0, "the run must actually deliver ads");
}

#[test]
fn batch_and_serving_traces_carry_the_same_decisions() {
    let seed = 64;
    for shards in [1usize, 2] {
        let (_, batch) = batch_telemetry(seed, shards, Some(TraceConfig::full()));
        let (_, serving, shed) =
            serving_telemetry(seed, shards, Some(TraceConfig::full()), FaultPlan::new());
        assert_eq!(shed, 0, "a healthy run serves everything");
        let (batch, serving) = (decisions(&batch), decisions(&serving));
        assert!(
            batch
                .values()
                .flatten()
                .any(|k| matches!(k, TraceEventKind::Billed { .. })),
            "the run must bill impressions"
        );
        assert!(
            batch
                .values()
                .flatten()
                .any(|k| matches!(k, TraceEventKind::PixelFired { .. })),
            "the run must fire pixels"
        );
        assert_eq!(
            batch.keys().collect::<Vec<_>>(),
            serving.keys().collect::<Vec<_>>(),
            "both paths trace the same requests at {shards} shards"
        );
        for (key, events) in &batch {
            assert_eq!(
                Some(events),
                serving.get(key),
                "request {key:?} decided differently at {shards} shards"
            );
        }
    }
}
