//! The seeded fault-plan DSL.
//!
//! A [`FaultPlan`] is a *schedule*, not a probability: every fault names
//! the exact tick/shard/call it strikes, so a plan replays identically —
//! including under a different shard-thread interleaving. Randomness
//! enters only when *generating* a plan ([`FaultPlan::random_recoverable`]),
//! which derives everything from a seed.
//!
//! Engine faults are injected by the supervisor in `treads-engine`; API
//! faults by the [`crate::api::FlakyPlatform`] wrapper around campaign
//! submission.

use adsim_types::rng::substream;
use rand::Rng;

/// A fault injected into the engine's tick loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineFault {
    /// Shard `shard` crashes mid-tick on tick `tick`, for `attempts`
    /// consecutive execution attempts (the supervisor re-runs it from the
    /// tick-start snapshot; if `attempts` exceeds the retry budget the
    /// tick's work for that shard is lost).
    ShardCrash {
        /// Tick index (0-based) the crash strikes.
        tick: u64,
        /// Crashing shard.
        shard: usize,
        /// How many consecutive attempts fail before one succeeds.
        attempts: u32,
    },
    /// Shard `shard`'s tick batch is delivered twice on tick `tick`
    /// (an at-least-once queue). The supervisor must deduplicate by batch
    /// identity or double-bill.
    DuplicateBatch {
        /// Tick index.
        tick: u64,
        /// Affected shard.
        shard: usize,
    },
    /// Shard `shard`'s batch arrives late on tick `tick`, after every
    /// other shard's. Canonical merge order must make this invisible.
    DelayBatch {
        /// Tick index.
        tick: u64,
        /// Affected shard.
        shard: usize,
    },
}

/// A dishonest-platform fault: the platform tampers with its *published*
/// delivery-receipt ledger (see [`crate::ledger`]) while its internal
/// state stays intact. Unlike [`EngineFault`]s these are not recovered
/// from — they exist to be **detected** by the auditor, which is why the
/// chaos proptest demands detected-set == injected-set.
///
/// Chain indices are taken modulo the chain's receipt count at publish
/// time, so seeded schedules need not know run lengths in advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DishonestFault {
    /// The platform omits one receipt from the published chain (a
    /// delivery it billed for but hides from auditors).
    DropReceipt {
        /// Targeted chain.
        chain: u32,
        /// Receipt position (mod chain length).
        index: u64,
    },
    /// The platform appends a fabricated receipt (a delivery it charges
    /// for that never happened).
    ForgeReceipt {
        /// Targeted chain.
        chain: u32,
    },
    /// The platform rewrites one receipt's price after signing it.
    RewritePrice {
        /// Targeted chain.
        chain: u32,
        /// Receipt position (mod chain length).
        index: u64,
    },
    /// The platform swaps two adjacent receipts, rewriting delivery
    /// order.
    ReorderChain {
        /// Targeted chain.
        chain: u32,
        /// Left position of the swapped pair (mod `len - 1`).
        index: u64,
    },
    /// The platform publishes receipts faithfully but advertises a chain
    /// head that does not match them (telling different parties
    /// different histories).
    EquivocateHead {
        /// Targeted chain.
        chain: u32,
    },
}

/// What shape of ledger tampering an auditor found (or a plan injected).
///
/// The first five variants mirror [`DishonestFault`]; [`EquivocationKind::Tampered`]
/// is the auditor's fallback for corruption matching none of the named
/// shapes (never produced by a seeded plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EquivocationKind {
    /// A receipt present in the recomputed chain is missing.
    DroppedReceipt,
    /// A receipt absent from the recomputed chain was published.
    ForgedReceipt,
    /// A published receipt differs from the recomputed one only in price.
    RewrittenPrice,
    /// Two adjacent receipts were swapped.
    ReorderedChain,
    /// Receipts match but the advertised head does not.
    EquivocatedHead,
    /// Same-length divergence matching no named shape.
    Tampered,
}

impl DishonestFault {
    /// The chain the fault targets.
    pub fn chain(&self) -> u32 {
        match *self {
            DishonestFault::DropReceipt { chain, .. }
            | DishonestFault::ForgeReceipt { chain }
            | DishonestFault::RewritePrice { chain, .. }
            | DishonestFault::ReorderChain { chain, .. }
            | DishonestFault::EquivocateHead { chain } => chain,
        }
    }

    /// The tampering shape an auditor should attribute to this fault.
    pub fn kind(&self) -> EquivocationKind {
        match self {
            DishonestFault::DropReceipt { .. } => EquivocationKind::DroppedReceipt,
            DishonestFault::ForgeReceipt { .. } => EquivocationKind::ForgedReceipt,
            DishonestFault::RewritePrice { .. } => EquivocationKind::RewrittenPrice,
            DishonestFault::ReorderChain { .. } => EquivocationKind::ReorderedChain,
            DishonestFault::EquivocateHead { .. } => EquivocationKind::EquivocatedHead,
        }
    }
}

/// A fault injected into the platform's campaign-submission API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiFault {
    /// Calls `from_call .. from_call + calls` (0-based, counted across
    /// all submission-API calls) fail with `PlatformError::Unavailable`.
    Brownout {
        /// First failing call index.
        from_call: u64,
        /// Number of consecutive failing calls.
        calls: u64,
    },
}

/// A deterministic schedule of faults for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed this plan was generated from (0 for hand-built plans);
    /// carried for provenance in logs and reports.
    pub seed: u64,
    /// Faults striking the engine tick loop.
    pub engine: Vec<EngineFault>,
    /// Faults striking the submission API.
    pub api: Vec<ApiFault>,
    /// Ledger tampering the platform commits when *publishing* receipts.
    pub dishonest: Vec<DishonestFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a shard crash: `shard` fails `attempts` consecutive attempts
    /// of tick `tick`.
    pub fn crash_shard(mut self, tick: u64, shard: usize, attempts: u32) -> Self {
        self.engine.push(EngineFault::ShardCrash {
            tick,
            shard,
            attempts,
        });
        self
    }

    /// Adds a duplicated batch delivery for `(tick, shard)`.
    pub fn duplicate_batch(mut self, tick: u64, shard: usize) -> Self {
        self.engine
            .push(EngineFault::DuplicateBatch { tick, shard });
        self
    }

    /// Adds a delayed batch delivery for `(tick, shard)`.
    pub fn delay_batch(mut self, tick: u64, shard: usize) -> Self {
        self.engine.push(EngineFault::DelayBatch { tick, shard });
        self
    }

    /// Adds an API brownout of `calls` consecutive calls starting at call
    /// index `from_call`.
    pub fn brownout(mut self, from_call: u64, calls: u64) -> Self {
        self.api.push(ApiFault::Brownout { from_call, calls });
        self
    }

    /// Drops receipt `index` (mod chain length) from published `chain`.
    pub fn drop_receipt(mut self, chain: u32, index: u64) -> Self {
        self.dishonest
            .push(DishonestFault::DropReceipt { chain, index });
        self
    }

    /// Appends a fabricated receipt to published `chain`.
    pub fn forge_receipt(mut self, chain: u32) -> Self {
        self.dishonest.push(DishonestFault::ForgeReceipt { chain });
        self
    }

    /// Rewrites the price of receipt `index` (mod chain length) on
    /// published `chain`.
    pub fn rewrite_price(mut self, chain: u32, index: u64) -> Self {
        self.dishonest
            .push(DishonestFault::RewritePrice { chain, index });
        self
    }

    /// Swaps published receipts `index` and `index + 1` (mod `len - 1`)
    /// on `chain`.
    pub fn reorder_chain(mut self, chain: u32, index: u64) -> Self {
        self.dishonest
            .push(DishonestFault::ReorderChain { chain, index });
        self
    }

    /// Publishes `chain`'s receipts faithfully under a mismatching head.
    pub fn equivocate_head(mut self, chain: u32) -> Self {
        self.dishonest
            .push(DishonestFault::EquivocateHead { chain });
        self
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty() && self.api.is_empty() && self.dishonest.is_empty()
    }

    /// Total number of scheduled faults (for `faults.injected` telemetry).
    pub fn len(&self) -> usize {
        self.engine.len() + self.api.len() + self.dishonest.len()
    }

    /// The crash faults striking `tick`, as `(shard, failing_attempts)`.
    pub fn crashes_at(&self, tick: u64) -> Vec<(usize, u32)> {
        self.engine
            .iter()
            .filter_map(|f| match f {
                EngineFault::ShardCrash {
                    tick: t,
                    shard,
                    attempts,
                } if *t == tick => Some((*shard, *attempts)),
                _ => None,
            })
            .collect()
    }

    /// True if `(tick, shard)`'s batch is scheduled for duplicate delivery.
    pub fn duplicated(&self, tick: u64, shard: usize) -> bool {
        self.engine.iter().any(|f| {
            matches!(f, EngineFault::DuplicateBatch { tick: t, shard: s }
                if *t == tick && *s == shard)
        })
    }

    /// True if `(tick, shard)`'s batch is scheduled to arrive late.
    pub fn delayed(&self, tick: u64, shard: usize) -> bool {
        self.engine.iter().any(|f| {
            matches!(f, EngineFault::DelayBatch { tick: t, shard: s }
                if *t == tick && *s == shard)
        })
    }

    /// True if submission-API call number `call` (0-based) falls inside a
    /// scheduled brownout.
    pub fn api_unavailable(&self, call: u64) -> bool {
        self.api.iter().any(|f| match f {
            ApiFault::Brownout { from_call, calls } => {
                call >= *from_call && call < from_call + calls
            }
        })
    }

    /// Generates a random plan that is fully *recoverable*: every crash
    /// fails fewer attempts than `retry_budget`, so a supervisor with that
    /// budget recovers all of them and the run must be byte-identical to
    /// fault-free. Used by the chaos proptest.
    pub fn random_recoverable(seed: u64, ticks: u64, shards: usize, retry_budget: u32) -> Self {
        let mut rng = substream(seed, "fault-plan");
        let mut plan = FaultPlan {
            seed,
            ..Self::default()
        };
        let n_faults = rng.gen_range(1..=4u32);
        for _ in 0..n_faults {
            let tick = rng.gen_range(0..ticks.max(1));
            let shard = rng.gen_range(0..shards.max(1) as u64) as usize;
            match rng.gen_range(0..3u32) {
                0 => {
                    let attempts = rng.gen_range(1..=retry_budget.max(1));
                    plan.engine.push(EngineFault::ShardCrash {
                        tick,
                        shard,
                        attempts,
                    });
                }
                1 => plan
                    .engine
                    .push(EngineFault::DuplicateBatch { tick, shard }),
                _ => plan.engine.push(EngineFault::DelayBatch { tick, shard }),
            }
        }
        plan
    }

    /// Generates a random dishonest-platform schedule over `chains`
    /// ledger chains: 1..=4 faults, each on a **distinct** chain (so the
    /// auditor's per-chain attribution is exact), kind and position
    /// seeded. Like every plan, the same seed replays the same schedule.
    pub fn random_dishonest(seed: u64, chains: u32) -> Self {
        let mut rng = substream(seed, "dishonest-plan");
        let mut plan = FaultPlan {
            seed,
            ..Self::default()
        };
        let chains = chains.max(1);
        let mut unstruck: Vec<u32> = (0..chains).collect();
        let n_faults = rng.gen_range(1..=4u32.min(chains));
        for _ in 0..n_faults {
            let pick = rng.gen_range(0..unstruck.len());
            let chain = unstruck.swap_remove(pick);
            let index = rng.gen_range(0..u64::MAX / 2);
            match rng.gen_range(0..5u32) {
                0 => plan
                    .dishonest
                    .push(DishonestFault::DropReceipt { chain, index }),
                1 => plan.dishonest.push(DishonestFault::ForgeReceipt { chain }),
                2 => plan
                    .dishonest
                    .push(DishonestFault::RewritePrice { chain, index }),
                3 => plan
                    .dishonest
                    .push(DishonestFault::ReorderChain { chain, index }),
                _ => plan
                    .dishonest
                    .push(DishonestFault::EquivocateHead { chain }),
            }
        }
        plan
    }
}

/// Exact accounting of one shard-tick whose work was abandoned after the
/// retry budget ran out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LostWork {
    /// The tick whose work was lost.
    pub tick: u64,
    /// The shard that kept crashing.
    pub shard: usize,
    /// Page views skipped.
    pub page_views: u64,
    /// Pixel fires that would have been emitted.
    pub pixel_fires: u64,
    /// Impression opportunities that would have been auctioned.
    pub opportunities: u64,
}

impl LostWork {
    /// Counts one abandoned page view of `site`: the view, every pixel it
    /// would have fired, and every ad slot it would have auctioned.
    pub fn add_page_view(&mut self, site: &websim::Site) {
        self.page_views += 1;
        self.pixel_fires += site.pixels.len() as u64;
        self.opportunities += u64::from(site.ad_slots_per_view);
    }
}

/// What the supervisor observed and did about injected faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Fault activations observed (each failing attempt, duplicate, delay
    /// and brownout call counts once).
    pub injected: u64,
    /// Faults fully recovered from (retry succeeded, duplicate dropped,
    /// delay reordered away).
    pub recovered: u64,
    /// Faults that exhausted their budget; their work is itemized in
    /// `lost`.
    pub unrecoverable: u64,
    /// Exact inventory of abandoned work, in (tick, shard) order.
    pub lost: Vec<LostWork>,
}

impl FaultReport {
    /// True if nothing was injected.
    pub fn is_clean(&self) -> bool {
        self.injected == 0 && self.recovered == 0 && self.unrecoverable == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_queries() {
        let plan = FaultPlan::new()
            .crash_shard(2, 1, 3)
            .duplicate_batch(4, 0)
            .delay_batch(4, 1)
            .brownout(5, 2);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.crashes_at(2), vec![(1, 3)]);
        assert!(plan.crashes_at(3).is_empty());
        assert!(plan.duplicated(4, 0));
        assert!(!plan.duplicated(4, 1));
        assert!(plan.delayed(4, 1));
        assert!(!plan.api_unavailable(4));
        assert!(plan.api_unavailable(5));
        assert!(plan.api_unavailable(6));
        assert!(!plan.api_unavailable(7));
    }

    #[test]
    fn random_plans_replay_and_respect_budget() {
        let a = FaultPlan::random_recoverable(9, 10, 4, 3);
        let b = FaultPlan::random_recoverable(9, 10, 4, 3);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for f in &a.engine {
            if let EngineFault::ShardCrash {
                tick,
                shard,
                attempts,
            } = f
            {
                assert!(*tick < 10);
                assert!(*shard < 4);
                assert!(*attempts <= 3, "recoverable plans stay within budget");
            }
        }
        // Different seeds diverge (with overwhelming probability).
        let c = FaultPlan::random_recoverable(10, 10, 4, 3);
        assert_ne!(a, c);
    }

    #[test]
    fn dishonest_plans_replay_and_strike_distinct_chains() {
        let a = FaultPlan::random_dishonest(7, 8);
        let b = FaultPlan::random_dishonest(7, 8);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_eq!(a.len(), a.dishonest.len());
        let chains: Vec<u32> = a.dishonest.iter().map(DishonestFault::chain).collect();
        let mut deduped = chains.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(chains.len(), deduped.len(), "one fault per chain");
        assert!(chains.iter().all(|&c| c < 8));
    }

    #[test]
    fn dishonest_builders_count_toward_len() {
        let plan = FaultPlan::new()
            .drop_receipt(0, 3)
            .forge_receipt(1)
            .rewrite_price(2, 0)
            .reorder_chain(3, 1)
            .equivocate_head(4);
        assert_eq!(plan.len(), 5);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.dishonest
                .iter()
                .map(DishonestFault::kind)
                .collect::<Vec<_>>(),
            vec![
                EquivocationKind::DroppedReceipt,
                EquivocationKind::ForgedReceipt,
                EquivocationKind::RewrittenPrice,
                EquivocationKind::ReorderedChain,
                EquivocationKind::EquivocatedHead,
            ]
        );
    }
}
