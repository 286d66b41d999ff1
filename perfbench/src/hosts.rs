//! Deterministic host construction: the platform, sites and users each
//! workload runs against. A host is a pure function of its shape, sizes
//! and seed, so the oracle, every timed run and every recovery rebuild
//! the identical host.

use std::time::Instant;

use adplatform::campaign::AdCreative;
use adplatform::profile::Gender;
use adplatform::targeting::{TargetingExpr, TargetingSpec};
use adplatform::{Platform, PlatformConfig};
use adsim_types::{AccountId, AttributeId, Money, UserId};
use websim::SiteRegistry;

/// Attribute pool of the inventory shape: each ad anchors on one of these
/// attributes and each user holds three, so an opportunity has about
/// 3/500 of the inventory — some 60 of 10,000 ads — as candidates. (E16
/// uses 50, about 600 candidates; at that cost per request the serving
/// threads run so long that host CPU steal on a two-vCPU machine decided
/// the paced latency figures.)
pub const INVENTORY_ATTRS: u64 = 500;

/// The platform layouts the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The E15 layout with the frequency cap lifted: three `Everyone`
    /// ads, a two-slot feed and a one-slot shop carrying a retargeting
    /// pixel. Every tick bills impressions.
    Population,
    /// The E16 layout: `ads` ads, each anchored on one attribute, users
    /// holding three attributes each, one two-slot feed (with a larger
    /// attribute pool, see [`INVENTORY_ATTRS`]).
    Inventory,
    /// The E18 broad-ad layout: two `Everyone` ads, the default frequency
    /// cap, a feed and a pixel-carrying shop.
    Broad,
}

/// A built host.
pub struct Host {
    /// The platform, before any simulation.
    pub platform: Platform,
    /// The sites users browse.
    pub sites: SiteRegistry,
    /// The users, in registration order.
    pub users: Vec<UserId>,
    /// The one advertiser account every campaign bills.
    pub account: AccountId,
    /// Wall time spent in `Platform::submit_ad`.
    pub submit_ads_ns: u64,
}

fn register_users(p: &mut Platform, n: u64) -> Vec<UserId> {
    (0..n)
        .map(|i| {
            let gender = if i % 2 == 0 {
                Gender::Female
            } else {
                Gender::Male
            };
            p.register_user(18 + (i % 60) as u8, gender, "Ohio", "43004")
        })
        .collect()
}

/// Builds the `shape` host with `users` users (and, for
/// [`Shape::Inventory`], `ads` ads) under `seed`.
pub fn build(shape: Shape, users: u64, ads: u64, seed: u64) -> Host {
    let mut config = PlatformConfig::facebook_like(seed);
    if shape == Shape::Population {
        config.frequency_cap = u32::MAX;
    }
    let mut p = Platform::us_2018(config);
    let adv = p.register_advertiser("perfbench-advertiser");
    let account = p
        .open_account(adv)
        .expect("a fresh advertiser opens an account");
    let mut submit_ads_ns = 0u64;
    let mut submit = |p: &mut Platform, campaign, name: String, spec| {
        let t = Instant::now();
        p.submit_ad(campaign, AdCreative::text(name, "perfbench workload"), spec)
            .expect("benchmark ads pass policy checks");
        submit_ads_ns += t.elapsed().as_nanos() as u64;
    };
    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    let users = match shape {
        Shape::Population | Shape::Broad => {
            let campaigns: &[(&str, i64)] = if shape == Shape::Population {
                &[("brand", 2), ("promo", 3), ("retarget", 5)]
            } else {
                &[("brand", 2), ("promo", 3)]
            };
            for &(name, cpm) in campaigns {
                let camp = p
                    .create_campaign(account, name, Money::dollars(cpm), None)
                    .expect("campaign");
                submit(
                    &mut p,
                    camp,
                    name.to_string(),
                    TargetingSpec::including(TargetingExpr::Everyone),
                );
            }
            let users = register_users(&mut p, users);
            let shop = sites.create("shop.example", 1);
            let pixel = p.create_pixel(account, "shop pixel").expect("pixel");
            sites.embed_pixel(shop, pixel);
            users
        }
        Shape::Inventory => {
            let camp = p
                .create_campaign(account, "inventory", Money::dollars(3), None)
                .expect("campaign");
            for j in 0..ads {
                submit(
                    &mut p,
                    camp,
                    format!("ad {j}"),
                    TargetingSpec::including(TargetingExpr::Attr(AttributeId(
                        j % INVENTORY_ATTRS + 1,
                    ))),
                );
            }
            let users = register_users(&mut p, users);
            for (i, &id) in users.iter().enumerate() {
                let i = i as u64;
                for k in [i, i * 7 + 3, i * 13 + 11] {
                    p.profiles
                        .grant_attribute(id, AttributeId(k % INVENTORY_ATTRS + 1))
                        .expect("grant");
                }
            }
            users
        }
    };
    Host {
        platform: p,
        sites,
        users,
        account,
        submit_ads_ns,
    }
}
