//! `treads-engine`: sharded, deterministic parallel simulation engine.
//!
//! The single-threaded driver ([`websim::SessionSchedule::drive`])
//! replays a global time-sorted event list against one mutable
//! [`adplatform::Platform`]; fine for thousands of users, hopeless for a
//! million. This crate runs the same simulation **sharded**: users are
//! partitioned across worker threads ([`treads_workload::ShardPlan`]),
//! each shard generates and browses its users' sessions in parallel, and
//! the shards' effects are folded back into the platform in a canonical
//! order — so any shard count produces **bit-identical** invoices, ad
//! reports, impression logs, and Tread reveals.
//!
//! Determinism rests on three rules (see DESIGN.md "Engine architecture"):
//!
//! 1. **Per-user randomness.** Every user draws sessions from substream
//!    `session-user-{id}` and auction randomness from
//!    `engine-user-{id}` of the one master seed — never from a shared
//!    stream whose interleaving would depend on scheduling.
//! 2. **Bulk-synchronous ticks.** Mutable global state (campaign budgets,
//!    pixel/visitor audiences) is frozen at tick start; effects produced
//!    during a tick apply at the tick boundary, so every shard — and every
//!    shard count — sees the same platform for the same tick.
//! 3. **Canonical merge order.** Batched events sort by
//!    `(at, user, user_seq)` — a key computed entirely from user-owned
//!    state — before they touch the platform, making the merge invariant
//!    to how users were partitioned.
//!
//! The same three rules are what make the engine **supervisable** (see
//! DESIGN.md "Failure model & recovery"): because a shard only mutates
//! state it owns and only reads frozen state, a crashed shard tick can be
//! re-executed from its tick-start snapshot with no cross-shard
//! coordination ([`Engine::run_resilient`]), and a tick boundary is a
//! consistent cut the whole run can be checkpointed at and resumed from
//! ([`Engine::resume_from`]) — byte-identically in both cases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod merge;
pub mod shard;

pub use engine::{
    fold_tick_events, Engine, EngineConfig, EngineOutcome, EngineReport, ResilienceOptions,
    ResilientOutcome, TickFold, DAY_MS,
};
pub use event::ShardEvent;
pub use merge::{merge_batches, merge_batches_lossy, MergeError};
pub use shard::{
    CrashPoint, CrashSignal, PageView, ShardBatch, ShardCore, ShardState, TickProbe, UserStream,
    ViewTrace,
};
// The resilience substrate (fault plans, checkpoints), re-exported so
// engine callers can schedule faults and resume runs without depending on
// the crate directly.
pub use treads_resilience as resilience;
pub use treads_resilience::{EngineCheckpoint, FaultPlan, FaultReport};
// The observability substrate, re-exported so engine callers can name
// `Telemetry` and friends without depending on the crate directly.
pub use treads_telemetry as telemetry;
pub use treads_telemetry::Telemetry;

#[cfg(test)]
mod tests {
    use super::*;
    use adplatform::attributes::{AttributeCatalog, AttributeSource};
    use adplatform::auction::AuctionConfig;
    use adplatform::campaign::AdCreative;
    use adplatform::profile::Gender;
    use adplatform::targeting::{TargetingExpr, TargetingSpec};
    use adplatform::{Platform, PlatformConfig};
    use adsim_types::{Money, UserId};
    use std::collections::BTreeSet;
    use websim::{SessionConfig, SiteRegistry};

    /// A small platform: one advertiser, one everyone-targeted campaign
    /// with ample budget, `n` users, two sites (one carrying a pixel).
    fn scenario(n: u64) -> (Platform, SiteRegistry, Vec<UserId>, adsim_types::CampaignId) {
        let mut catalog = AttributeCatalog::new();
        catalog.register("Interest: coffee", AttributeSource::Platform, None, 0.3);
        let mut p = Platform::new(
            PlatformConfig {
                auction: AuctionConfig {
                    competitor_rate: 0.0,
                    ..AuctionConfig::default()
                },
                frequency_cap: 1_000,
                ..PlatformConfig::default()
            },
            catalog,
        );
        let adv = p.register_advertiser("adv");
        let acct = p.open_account(adv).expect("account");
        let camp = p
            .create_campaign(acct, "c", Money::dollars(5), None)
            .expect("campaign");
        p.submit_ad(
            camp,
            AdCreative::text("Hello", "World"),
            TargetingSpec::including(TargetingExpr::Everyone),
        )
        .expect("ad");
        let users: Vec<UserId> = (0..n)
            .map(|i| p.register_user(20 + (i % 50) as u8, Gender::Female, "Ohio", "43004"))
            .collect();
        let mut sites = SiteRegistry::new();
        sites.create("feed.example", 1);
        let with_pixel = sites.create("shop.example", 1);
        let pixel = p.create_pixel(acct, "shop pixel").expect("pixel");
        sites.embed_pixel(with_pixel, pixel);
        (p, sites, users, camp)
    }

    fn run(shards: usize, n: u64) -> (Platform, EngineOutcome) {
        let (mut p, sites, users, _camp) = scenario(n);
        let engine = Engine::new(EngineConfig {
            shards,
            session: SessionConfig {
                views_per_user_per_day: 4.0,
                days: 3,
            },
            seed: 7,
            ..EngineConfig::default()
        });
        let extension_users: BTreeSet<UserId> = users.iter().copied().collect();
        let outcome = engine.run(&mut p, &sites, &users, &extension_users);
        (p, outcome)
    }

    #[test]
    fn engine_delivers_and_counts() {
        let (p, outcome) = run(1, 20);
        assert_eq!(outcome.report.users, 20);
        assert_eq!(outcome.report.ticks, 3);
        assert_eq!(outcome.report.page_views, 20 * 4 * 3);
        assert_eq!(outcome.report.opportunities, outcome.report.page_views);
        assert!(outcome.report.impressions > 0);
        assert_eq!(outcome.report.impressions, p.stats.won);
        assert_eq!(p.log.all().len() as u64, outcome.report.impressions);
        // Extension logs captured every delivered impression.
        let observed: u64 = outcome.extensions.values().map(|l| l.len() as u64).sum();
        assert_eq!(observed, outcome.report.impressions);
    }

    #[test]
    fn shard_counts_agree_exactly() {
        let (p1, o1) = run(1, 30);
        for shards in [2, 3, 8] {
            let (pn, on) = run(shards, 30);
            assert_eq!(o1.report.page_views, on.report.page_views);
            assert_eq!(o1.report.impressions, on.report.impressions);
            assert_eq!(o1.report.pixel_fires, on.report.pixel_fires);
            assert_eq!(p1.stats, pn.stats);
            // The impression log is byte-identical, order included.
            assert_eq!(p1.log.all(), pn.log.all());
            // And so are the observed-ad streams.
            for (u, log) in &o1.extensions {
                assert_eq!(log.observations(), on.extensions[u].observations());
            }
        }
    }

    #[test]
    fn instrumentation_does_not_perturb_the_simulation() {
        // The same scenario through run() and run_instrumented() must
        // mutate the platform identically: telemetry observes, it does
        // not perturb (no RNG draws, no state feedback).
        let (mut p_plain, sites, users, _camp) = scenario(25);
        let (mut p_inst, _, _, _) = scenario(25);
        let config = EngineConfig {
            shards: 3,
            session: SessionConfig {
                views_per_user_per_day: 4.0,
                days: 3,
            },
            seed: 7,
            ..EngineConfig::default()
        };
        let extension_users: BTreeSet<UserId> = users.iter().copied().collect();
        let plain = Engine::new(config.clone()).run(&mut p_plain, &sites, &users, &extension_users);
        let (inst, telemetry) =
            Engine::new(config).run_instrumented(&mut p_inst, &sites, &users, &extension_users);
        assert_eq!(plain.report, inst.report);
        assert_eq!(p_plain.stats, p_inst.stats);
        assert_eq!(p_plain.log.all(), p_inst.log.all());
        for (u, log) in &plain.extensions {
            assert_eq!(log.observations(), inst.extensions[u].observations());
        }
        // The instrumented run actually recorded (when compiled in).
        if cfg!(feature = "telemetry") {
            assert_eq!(
                telemetry.metrics().counter("engine.impressions"),
                inst.report.impressions
            );
            assert_eq!(telemetry.metrics().counter("engine.ticks"), 3);
            assert_eq!(
                telemetry.metrics().counter("auction.won"),
                inst.report.impressions
            );
            assert!(telemetry.metrics().histogram("engine.tick_ns").is_some());
            assert!(telemetry.metrics().histogram("phase.auction_ns").is_some());
            assert!(!telemetry.flight().is_empty());
        } else {
            assert!(telemetry.metrics().is_empty());
        }
    }

    #[test]
    fn budget_is_respected_at_tick_granularity() {
        // A tiny budget: the engine may overshoot within one tick (budgets
        // freeze at tick start) but never keeps spending in later ticks.
        let (mut p, sites, users, camp) = scenario(10);
        // Shrink the campaign budget to two $1-CPM impressions ($0.002).
        p.campaigns.campaign_mut(camp).expect("campaign").budget = Some(Money::micros(2_000));
        let engine = Engine::new(EngineConfig {
            shards: 4,
            session: SessionConfig {
                views_per_user_per_day: 2.0,
                days: 10,
            },
            seed: 11,
            ..EngineConfig::default()
        });
        let outcome = engine.run(&mut p, &sites, &users, &BTreeSet::new());
        // The budget was actually reached…
        assert!(p.billing.campaign_spend(camp) >= Money::micros(2_000));
        // …and delivery then stopped: the budget crosses during day 2 (the
        // day-2 snapshot still showed headroom), so days 3..10 serve
        // nothing and most opportunities go undelivered.
        assert!(outcome.report.impressions > 0);
        assert!(outcome.report.impressions < outcome.report.opportunities / 2);
    }
}
