//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload population --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `README.md` in this directory for the three
//! workloads, why each exists, and which layer metric should move which
//! end-to-end metric), checks every output against an oracle, and prints
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! separate traced run (`--trace 1`). The last line of standard output is
//! one JSON object; any failed check exits non-zero without printing it.

mod hosts;
mod serve;
mod stats;
mod tick;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use adplatform::state::PlatformState;
use adsim_types::Money;
use adsim_types::SimTime;
use treads_engine::resilience::{fold_frames, receipts_from_impressions, FaultPlan, LedgerHead};
use treads_engine::{Engine, EngineConfig, EngineReport, DAY_MS};
use treads_serving::{ServingConfig, TraceConfig};
use websim::{Arrival, ArrivalSchedule, LoadProfile, SessionConfig};

use hosts::{Host, Shape};
use stats::Summary;
use tick::{BatchSpec, Layers, TracedRun};

/// Shards every workload runs with (and serving workers).
const SHARDS: usize = 2;
/// Simulated tick of the paced serving phases.
const PACED_TICK_MS: u64 = 10 * 60 * 1_000;
/// Wall time between tick closes in a paced phase: the simulated
/// schedule spans one tick per this much wall time, so every phase pays
/// tick closes on the submit path at the same cadence.
const PACED_TICK_WALL: Duration = Duration::from_millis(10);
/// The traced run fails when its named parts explain less than this
/// share of its wall time.
const MIN_COVERAGE: f64 = 0.95;

/// Setup and recovery samples repeat their operation until they cover
/// at least this much wall time, and report the mean.
const SAMPLE_MIN: Duration = Duration::from_millis(100);
/// Recoveries per round at most (each needs a freshly built host).
const MAX_RECOVERIES: u32 = 2;
/// Paced latency percentiles are taken per window of consecutive
/// requests due within this much wall time: two tick closes, so every
/// window pays the same tick-close cost, and short enough that most
/// windows escape the host's CPU-steal bursts (a busy-looping thread went
/// without a stall in 79% of 25 ms windows but in 20% of 200 ms ones).
const WINDOW_WALL: Duration = Duration::from_millis(20);
/// Every window holds at least this many requests, so its p99 has two
/// samples beyond it.
const WINDOW: usize = 200;
/// The reported paced latency is this percentile of the per-window
/// values. Costs the program pays in every window (tick closes, micro-batch
/// delay, decide) are in every window and so in this figure; a stall of
/// the virtual machine itself hits some windows and not others and is left
/// out, as long as more than this share of the run's windows escape the
/// host's stalls. The summary line keeps the pooled distribution with its
/// tail.
const WINDOW_PERCENTILE: f64 = 2.0;
/// Requests at the start of every paced repetition that only warm the
/// serving threads up; they are served and checked but not timed.
const WARMUP: usize = 200;
/// Rounds every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// How a workload's unpaced bulk phase drives the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bulk {
    /// `Engine::run_resilient` over the whole session schedule.
    Batch,
    /// `ServingEngine` fed `ArrivalSchedule::from_sessions`, unpaced.
    Drain,
}

/// One workload's shape and sizes.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    shape: Shape,
    users: u64,
    ads: u64,
    session: SessionConfig,
    /// Timed batch runs take a delta frame every tick.
    frames: bool,
    bulk: Bulk,
    /// Bulk runs per round: a bulk run much shorter than the paced
    /// session would otherwise rest on a handful of samples per run.
    bulk_runs: u32,
    /// Paced-phase offered rates, requests per wall second.
    lo_rps: f64,
    hi_rps: f64,
    /// Wall seconds each paced phase lasts per round.
    paced_s: f64,
}

/// The workloads; `README.md` says why each exists. Paced rates keep the
/// serving threads busy enough that a window's p99 prices the program
/// rather than the machine's thread wake-up latency, and leave room for
/// the host to steal a sixth of the CPU before the hi phase queues.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "population",
        shape: Shape::Population,
        users: 3_000,
        ads: 3,
        session: SessionConfig {
            views_per_user_per_day: 20.0,
            days: 8,
        },
        frames: true,
        bulk: Bulk::Batch,
        bulk_runs: 1,
        lo_rps: 30_000.0,
        hi_rps: 60_000.0,
        paced_s: 0.5,
    },
    Workload {
        name: "inventory",
        shape: Shape::Inventory,
        users: 3_000,
        ads: 10_000,
        session: SessionConfig {
            views_per_user_per_day: 4.0,
            days: 8,
        },
        frames: false,
        bulk: Bulk::Batch,
        bulk_runs: 2,
        lo_rps: 7_500.0,
        hi_rps: 15_000.0,
        paced_s: 1.0,
    },
    Workload {
        name: "serve",
        shape: Shape::Broad,
        users: 2_000,
        ads: 2,
        session: SessionConfig {
            views_per_user_per_day: 20.0,
            days: 8,
        },
        frames: false,
        bulk: Bulk::Drain,
        bulk_runs: 1,
        lo_rps: 60_000.0,
        hi_rps: 120_000.0,
        paced_s: 0.5,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .copied()
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A failed output check: the run prints no result.
struct CheckFailed(String);

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), CheckFailed> {
    if ok {
        Ok(())
    } else {
        Err(CheckFailed(what()))
    }
}

/// The durable outputs every run of a workload must reproduce.
#[derive(Debug, PartialEq)]
struct Footprint {
    report: EngineReport,
    heads: Vec<LedgerHead>,
    invoice: Money,
    impressions: usize,
    pixel_events: usize,
    stats: adplatform::delivery::DeliveryStats,
}

impl Footprint {
    fn of(host: &Host, report: EngineReport, heads: Vec<LedgerHead>) -> Self {
        let p = &host.platform;
        Footprint {
            report,
            heads,
            invoice: p.invoice(host.account).gross,
            impressions: p.log.all().len(),
            pixel_events: p.pixels.events().len(),
            stats: p.stats,
        }
    }
}

/// The oracle every run of a workload is checked against: the engine's
/// own framed run, which the traced tick must reproduce byte for byte.
struct Reference {
    footprint: Footprint,
    state: PlatformState,
    frames: Vec<treads_engine::resilience::CheckpointFrame>,
}

/// Builds fresh hosts, keeping each build's ad-submission time.
struct Hosts {
    workload: Workload,
    seed: u64,
    submit_ads_ms: Vec<f64>,
}

impl Hosts {
    fn build(&mut self) -> Host {
        let w = &self.workload;
        let host = hosts::build(w.shape, w.users, w.ads, self.seed);
        self.submit_ads_ms.push(host.submit_ads_ns as f64 / 1e6);
        host
    }
}

fn engine_config(w: &Workload, seed: u64) -> EngineConfig {
    EngineConfig {
        shards: SHARDS,
        session: w.session,
        tick_ms: DAY_MS,
        seed,
        pipeline_sessions: true,
        ledger: true,
    }
}

fn heads_of(ledger: &Option<treads_engine::resilience::ReceiptLedger>) -> Vec<LedgerHead> {
    ledger.as_ref().map(|l| l.heads()).unwrap_or_default()
}

/// Runs the engine's framed run and the traced tick on fresh hosts and
/// checks they agree byte for byte; also checks the honest ledger audit.
fn reference(
    w: &Workload,
    seed: u64,
    b: &mut Hosts,
) -> Result<(Reference, TracedRun), CheckFailed> {
    let spec = BatchSpec {
        config: engine_config(w, seed),
        frames: true,
    };
    let mut host = b.build();
    let oracle = Engine::new(spec.config.clone())
        .run_resilient(
            &mut host.platform,
            &host.sites,
            &host.users,
            &Default::default(),
            &spec.options(),
        )
        .map_err(|e| CheckFailed(format!("oracle run failed: {e}")))?;
    let footprint = Footprint::of(
        &host,
        oracle.outcome.report,
        heads_of(&oracle.outcome.ledger),
    );
    let state = host.platform.export_state();
    check(oracle.outcome.report.impressions > 0, || {
        "the oracle run delivered nothing".into()
    })?;

    let mut traced_host = b.build();
    let traced = tick::run(
        &spec,
        &mut traced_host.platform,
        &traced_host.sites,
        &traced_host.users,
        false,
    );
    check(
        Footprint::of(&traced_host, traced.report, heads_of(&traced.ledger)) == footprint,
        || "traced tick footprint differs from Engine::run_resilient".into(),
    )?;
    check(traced_host.platform.export_state() == state, || {
        "traced tick platform state differs from Engine::run_resilient".into()
    })?;
    check(
        traced.frames.len() == oracle.frames.len()
            && traced
                .frames
                .iter()
                .zip(&oracle.frames)
                .all(|(a, b)| a.to_bytes() == b.to_bytes()),
        || "traced tick checkpoint frames differ from Engine::run_resilient".into(),
    )?;

    let rebuilt = receipts_from_impressions(seed, DAY_MS, &state.impressions);
    check(rebuilt.heads() == footprint.heads, || {
        "receipts rebuilt from the impression log do not match the committed heads".into()
    })?;
    let (published, injected) = rebuilt.publish(&FaultPlan::new());
    check(
        injected.is_empty() && rebuilt.audit(&published).is_clean(),
        || "the honest ledger audit is not clean".into(),
    )?;

    Ok((
        Reference {
            footprint,
            state,
            frames: oracle.frames,
        },
        traced,
    ))
}

/// Samples gathered over one run, by metric name.
#[derive(Default)]
struct Samples {
    values: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }

    fn extend(&mut self, name: &'static str, vs: impl IntoIterator<Item = f64>) {
        self.values.entry(name).or_default().extend(vs);
    }

    /// The reported value of a series of per-window latencies.
    fn windowed(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .and_then(|v| stats::percentile(v, WINDOW_PERCENTILE))
            .unwrap_or(0.0)
    }

    fn median(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .map_or(0.0, |v| median_of(v.iter().copied()))
    }
}

fn serving_config(seed: u64, tick_ms: u64, horizon_ms: u64, watermark: u64) -> ServingConfig {
    ServingConfig {
        shards: SHARDS,
        tick_ms,
        horizon_ms,
        seed,
        max_batch: 64,
        max_delay: Duration::from_micros(200),
        queue_watermark: watermark,
        retry_after_ms: 10,
        trace: TraceConfig::disabled(),
        ledger: true,
        ..ServingConfig::default()
    }
}

/// The unpaced drain: the workload's own session schedule through the
/// serving front end, checked against the batch oracle.
fn drain(
    w: &Workload,
    seed: u64,
    b: &mut Hosts,
    r: &Reference,
    s: &mut Samples,
) -> Result<(), CheckFailed> {
    let mut host = b.build();
    let arrivals = ArrivalSchedule::from_sessions(&host.users, &host.sites.ids(), &w.session, seed);
    let horizon = w.session.days * DAY_MS;
    let cfg = serving_config(seed, DAY_MS, horizon, u64::MAX);
    let res = serve::run(&mut host, cfg, arrivals.arrivals(), None);
    s.attempted += res.submitted;
    s.failed += res.shed;
    check(res.served + res.shed == res.submitted, || {
        format!(
            "drain: served {} + shed {} != submitted {}",
            res.served, res.shed, res.submitted
        )
    })?;
    check(res.shed == 0, || {
        format!("drain: {} requests shed with admission open", res.shed)
    })?;
    check(
        res.heads == r.footprint.heads
            && res.report.impressions == r.footprint.report.impressions
            && host.platform.export_state() == r.state,
        || "drain: serving platform differs from the batch engine".into(),
    )?;
    s.push("opps_per_s", res.report.opportunities as f64 / res.wall_s);
    s.push("capacity_rps", res.submitted as f64 / res.wall_s);
    Ok(())
}

/// One timed batch run, checked against the reference footprint.
fn batch(
    spec: &BatchSpec,
    b: &mut Hosts,
    r: &Reference,
    s: &mut Samples,
) -> Result<f64, CheckFailed> {
    let mut host = b.build();
    let engine = Engine::new(spec.config.clone());
    let t = Instant::now();
    let out = engine
        .run_resilient(
            &mut host.platform,
            &host.sites,
            &host.users,
            &Default::default(),
            &spec.options(),
        )
        .map_err(|e| CheckFailed(format!("batch run failed: {e}")))?;
    let wall = t.elapsed().as_secs_f64();
    let report = out.outcome.report;
    s.attempted += report.page_views;
    check(
        Footprint::of(&host, report, heads_of(&out.outcome.ledger)) == r.footprint,
        || "batch run footprint differs from the reference".into(),
    )?;
    check(
        out.frames.len() == if spec.frames { r.frames.len() } else { 0 },
        || "batch run took an unexpected number of frames".into(),
    )?;
    s.push("opps_per_s", report.opportunities as f64 / wall);
    s.push("capacity_rps", report.page_views as f64 / wall);
    Ok(wall)
}

/// One recovery: resume from the reference frame chain on a fresh host.
fn recover(w: &Workload, seed: u64, b: &mut Hosts, r: &Reference) -> Result<f64, CheckFailed> {
    let spec = BatchSpec {
        config: engine_config(w, seed),
        frames: true,
    };
    let mut host = b.build();
    let t = Instant::now();
    let out = Engine::new(spec.config.clone())
        .resume_from_frames(
            &mut host.platform,
            &host.sites,
            &host.users,
            &Default::default(),
            &spec.options(),
            &r.frames,
        )
        .map_err(|e| CheckFailed(format!("resume failed: {e}")))?;
    let wall = t.elapsed().as_secs_f64();
    check(
        Footprint::of(&host, out.outcome.report, heads_of(&out.outcome.ledger)) == r.footprint
            && host.platform.export_state() == r.state,
        || "recovered state differs from the uninterrupted run".into(),
    )?;
    Ok(wall)
}

/// One phase of a paced session.
struct Phase {
    /// Its requests, as arrival indices.
    range: std::ops::Range<usize>,
    /// Requests per latency window.
    window: usize,
}

/// Requests per latency window at `rate`.
fn window_len(rate: f64) -> usize {
    ((rate * WINDOW_WALL.as_secs_f64()).ceil() as usize).max(WINDOW)
}

/// One paced serving session: [`WARMUP`] requests, then the `lo` phase
/// and the `hi` phase back to back, each offered at its fixed wall-clock
/// rate for the workload's `paced_s`.
struct Paced {
    res: serve::PhaseResult,
    lo: Phase,
    hi: Phase,
}

impl Paced {
    /// Latencies of one phase, in arrival order.
    fn latency(&self, phase: &Phase) -> &[f64] {
        &self.res.latency_ms[phase.range.clone()]
    }

    /// The `pct`-th latency percentile of every window of one phase.
    fn windows(&self, phase: &Phase, pct: f64) -> Vec<f64> {
        stats::window_percentiles(self.latency(phase), phase.window, pct)
    }
}

/// Runs one paced session on a fresh host and checks every request was
/// answered.
fn paced(w: &Workload, seed: u64, b: &mut Hosts, s: &mut Samples) -> Result<Paced, CheckFailed> {
    let mut host = b.build();
    let phase_len = |rate: f64| ((rate * w.paced_s).round() as usize).max(window_len(rate));
    let (n_lo, n_hi) = (phase_len(w.lo_rps), phase_len(w.hi_rps));
    let total = WARMUP + n_lo + n_hi;
    // Each phase gets its own simulated span, one tick per
    // `PACED_TICK_WALL` of its wall time, so both pay tick closes at the
    // same wall-clock cadence.
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(total);
    let mut due = Vec::with_capacity(total);
    let (mut sim_start, mut wall_start) = (0u64, 0.0f64);
    for (phase, (count, rate)) in [(WARMUP + n_lo, w.lo_rps), (n_hi, w.hi_rps)]
        .into_iter()
        .enumerate()
    {
        let wall = count as f64 / rate;
        let ticks = (wall / PACED_TICK_WALL.as_secs_f64()).ceil().max(1.0) as u64;
        let span = ticks * PACED_TICK_MS;
        // Poisson arrival counts scatter around the target: overshoot
        // it, keep exactly `count`, and end the phase at the tick holding
        // its last kept arrival.
        let profile = LoadProfile::flat(1.1 * count as f64 / (span as f64 / 1e3), span);
        let schedule = ArrivalSchedule::open_loop(
            &host.users,
            &host.sites.ids(),
            &profile,
            seed.wrapping_add(phase as u64),
        );
        check(schedule.len() >= count, || {
            "paced schedule came out short".into()
        })?;
        let kept = &schedule.arrivals()[..count];
        for (i, a) in kept.iter().enumerate() {
            arrivals.push(Arrival {
                at: SimTime(sim_start + a.at.0),
                ..*a
            });
            due.push(Duration::from_secs_f64(wall_start + i as f64 / rate));
        }
        let last = kept.last().map_or(0, |a| a.at.0);
        sim_start += (last / PACED_TICK_MS + 1) * PACED_TICK_MS;
        wall_start += wall;
    }
    let horizon = sim_start;
    let watermark = serve::provisioned_watermark(&arrivals, PACED_TICK_MS, SHARDS);
    let cfg = serving_config(seed, PACED_TICK_MS, horizon, watermark);
    let res = serve::run(&mut host, cfg, &arrivals, Some(&due));
    s.attempted += total as u64;
    s.failed += res.shed;
    check(res.served + res.shed == total as u64, || {
        format!(
            "{}: served {} + shed {} != submitted {total}",
            w.name, res.served, res.shed
        )
    })?;
    check(res.report.requests == total as u64, || {
        "serving report disagrees with the generator's count".into()
    })?;
    Ok(Paced {
        res,
        lo: Phase {
            range: WARMUP..WARMUP + n_lo,
            window: window_len(w.lo_rps),
        },
        hi: Phase {
            range: WARMUP + n_lo..total,
            window: window_len(w.hi_rps),
        },
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The checked-out revision, read from `.git` without leaving the
/// working directory.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn provenance(a: &Args) -> String {
    let w = &a.workload;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"provenance\": {{\"git_rev\": \"{}\", \"nproc\": {threads}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"workload\": \"{}\", \"shards\": {SHARDS}, \
         \"users\": {}, \"ads\": {}, \"views_per_user_per_day\": {}, \"days\": {}, \
         \"frames_every_tick\": {}, \"bulk\": \"{:?}\", \"bulk_runs\": {}, \"lo_rps\": {}, \"hi_rps\": {}, \"paced_s\": {}, \
         \"paced_tick_wall_ms\": {}, \"paced_tick_ms\": {PACED_TICK_MS}}}}}",
        git_revision(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        w.name,
        w.users,
        w.ads,
        w.session.views_per_user_per_day,
        w.session.days,
        w.frames,
        w.bulk,
        w.bulk_runs,
        w.lo_rps,
        w.hi_rps,
        w.paced_s,
        PACED_TICK_WALL.as_millis(),
    )
}

/// A metric of the result line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Runs `round` repeatedly for about `seconds`: every metric samples
/// once per round, so a slow stretch of the machine spreads over all
/// metrics instead of landing on whichever phase ran during it.
fn rounds(
    seconds: f64,
    mut round: impl FnMut() -> Result<(), CheckFailed>,
) -> Result<(), CheckFailed> {
    let start = Instant::now();
    let mut n = 0u32;
    loop {
        round()?;
        n += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if n as usize >= MIN_ROUNDS && elapsed * f64::from(n + 1) / f64::from(n) > seconds {
            return Ok(());
        }
    }
}

/// Mean build time of the host, built back to back until the sample
/// covers [`SAMPLE_MIN`].
fn setup_sample(w: &Workload, seed: u64) -> f64 {
    let mut spent = Duration::ZERO;
    let mut n = 0u32;
    while n == 0 || spent < SAMPLE_MIN {
        let t = Instant::now();
        let host = hosts::build(w.shape, w.users, w.ads, seed);
        spent += t.elapsed();
        drop(host);
        n += 1;
    }
    spent.as_secs_f64() / f64::from(n)
}

fn end_to_end(a: &Args) -> Result<(Vec<Metric>, Samples), CheckFailed> {
    let w = a.workload;
    let seed = a.seed;
    let mut s = Samples::default();
    let mut b = Hosts {
        workload: w,
        seed,
        submit_ads_ms: Vec::new(),
    };
    let (r, _) = reference(&w, seed, &mut b)?;
    let spec = BatchSpec {
        config: engine_config(&w, seed),
        frames: w.frames,
    };
    rounds(a.seconds, || {
        s.push("setup_s", setup_sample(&w, seed));
        for _ in 0..w.bulk_runs {
            match w.bulk {
                Bulk::Batch => batch(&spec, &mut b, &r, &mut s).map(|_| ())?,
                Bulk::Drain => drain(&w, seed, &mut b, &r, &mut s)?,
            }
        }
        let mut spent = 0.0;
        let mut n = 0u32;
        while n == 0 || (spent < SAMPLE_MIN.as_secs_f64() && n < MAX_RECOVERIES) {
            spent += recover(&w, seed, &mut b, &r)?;
            n += 1;
        }
        s.attempted += u64::from(n);
        s.push("recover_s", spent / f64::from(n));
        let p = paced(&w, seed, &mut b, &mut s)?;
        for (phase, p50, p99, pooled) in [
            (
                &p.lo,
                "serve.lo.p50_ms",
                "serve.lo.p99_ms",
                "serve.lo.latency_ms",
            ),
            (
                &p.hi,
                "serve.hi.p50_ms",
                "serve.hi.p99_ms",
                "serve.hi.latency_ms",
            ),
        ] {
            s.extend(p50, p.windows(phase, 50.0));
            s.extend(p99, p.windows(phase, 99.0));
            s.extend(pooled, p.latency(phase).iter().copied());
        }
        Ok(())
    })?;
    let metrics = vec![
        ("opps_per_s", s.median("opps_per_s"), "1/s"),
        ("capacity_rps", s.median("capacity_rps"), "1/s"),
        ("setup_s", s.median("setup_s"), "s"),
        ("recover_s", s.median("recover_s"), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("serve.lo.p50_ms", s.windowed("serve.lo.p50_ms"), "ms"),
        ("serve.lo.p99_ms", s.windowed("serve.lo.p99_ms"), "ms"),
        ("serve.hi.p50_ms", s.windowed("serve.hi.p50_ms"), "ms"),
        ("serve.hi.p99_ms", s.windowed("serve.hi.p99_ms"), "ms"),
    ];
    Ok((metrics, s))
}

fn median_of(vs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = vs.into_iter().collect();
    Summary::of(&v).map(|s| s.median).unwrap_or(0.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn traced(a: &Args) -> Result<(Vec<Metric>, Samples), CheckFailed> {
    let w = a.workload;
    let seed = a.seed;
    let mut s = Samples::default();
    let mut b = Hosts {
        workload: w,
        seed,
        submit_ads_ms: Vec::new(),
    };
    let (r, framed) = reference(&w, seed, &mut b)?;
    let spec = BatchSpec {
        config: engine_config(&w, seed),
        frames: w.frames,
    };

    // The probe-on pass: the shards' own counters, for the candidate
    // count per opportunity.
    let mut host = b.build();
    let probed = tick::run(&spec, &mut host.platform, &host.sites, &host.users, true);
    check(
        Footprint::of(&host, probed.report, heads_of(&probed.ledger)) == r.footprint,
        || "probe-on run footprint differs from the reference".into(),
    )?;
    drop(host);
    recover(&w, seed, &mut b, &r)?;

    // Each round: an untraced engine run and a traced tick run of the
    // workload's batch shape (the pair gives the tracing overhead), the
    // two heavy recovery steps, and the two paced phases.
    let mut untraced_wall = Vec::new();
    let mut runs: Vec<Layers> = Vec::new();
    let mut fold_ms = Vec::new();
    let mut rebuild_ms = Vec::new();
    let mut lag_p99 = Vec::new();
    let mut sessions: Vec<Paced> = Vec::new();
    rounds(a.seconds, || {
        untraced_wall.push(batch(&spec, &mut b, &r, &mut s)?);
        let mut host = b.build();
        let run = tick::run(&spec, &mut host.platform, &host.sites, &host.users, false);
        check(
            Footprint::of(&host, run.report, heads_of(&run.ledger)) == r.footprint,
            || "traced run footprint differs from the reference".into(),
        )?;
        drop(host);
        s.attempted += run.report.page_views;
        runs.push(run.layers);

        let t = Instant::now();
        let cp = fold_frames(&r.frames).map_err(|e| CheckFailed(format!("fold_frames: {e}")))?;
        fold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let rebuilt = receipts_from_impressions(seed, DAY_MS, &cp.platform.impressions);
        rebuild_ms.push(t.elapsed().as_secs_f64() * 1e3);
        check(
            rebuilt.heads() == r.footprint.heads && cp.platform == r.state,
            || "folded frame chain differs from the uninterrupted run".into(),
        )?;
        s.attempted += 1;

        let p = paced(&w, seed, &mut b, &mut s)?;
        for phase in [&p.lo, &p.hi] {
            lag_p99
                .push(stats::percentile(&p.res.lag_ms[phase.range.clone()], 99.0).unwrap_or(0.0));
        }
        sessions.push(p);
        Ok(())
    })?;
    let coverage = median_of(
        runs.iter()
            .map(|l| l.attributed_ns() as f64 / l.wall_ns as f64),
    );
    let traced_wall = median_of(runs.iter().map(|l| l.wall_ns as f64 / 1e9));
    let overhead = traced_wall / median_of(untraced_wall.iter().copied());
    println!(
        "engine.coverage {coverage:.4} (attributed / traced wall, median of {} runs)",
        runs.len()
    );
    println!("engine.trace_overhead {overhead:.4} (traced wall / untraced wall)");
    check(coverage >= MIN_COVERAGE, || {
        format!(
            "traced run covers only {:.1}% of its wall time (< {:.0}%)",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        )
    })?;

    // Framed layer costs come from the timed runs when they take frames,
    // else from the framed reference run.
    let frame_src: Vec<&Layers> = if w.frames {
        runs.iter().collect()
    } else {
        vec![&framed.layers]
    };
    // The serving-side split of the hi phase, pooled over sessions.
    let pooled = |f: &dyn Fn(&serve::PhaseResult) -> &Vec<f64>| -> Vec<f64> {
        sessions
            .iter()
            .flat_map(|p| f(&p.res)[p.hi.range.clone()].iter().copied())
            .collect()
    };
    let submit_us = pooled(&|r| &r.submit_us);
    let wait_ms = pooled(&|r| &r.wait_ms);
    let tick_close_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|p| {
            p.res
                .tick_close_ms
                .iter()
                .filter(|(i, _)| p.hi.range.contains(i))
                .map(|(_, ms)| *ms)
        })
        .collect();
    let served: u64 = sessions.iter().map(|p| p.res.served).sum();
    let shed: u64 = sessions.iter().map(|p| p.res.shed).sum();
    s.extend("serving.submit_us", submit_us.iter().copied());
    s.extend("serving.wait_ms", wait_ms.iter().copied());
    s.extend("serving.tick_close_ms", tick_close_ms.iter().copied());
    let opps = probed.report.opportunities.max(1) as f64;

    let med = |f: &dyn Fn(&Layers) -> f64| median_of(runs.iter().map(f));
    let med_frames = |f: &dyn Fn(&Layers) -> f64| median_of(frame_src.iter().map(|l| f(l)));
    let ticks: Vec<f64> = runs
        .iter()
        .flat_map(|l| l.tick_ns.iter().map(|&t| ms(t)))
        .collect();
    let pct = |v: &[f64], p: f64| stats::percentile(v, p).unwrap_or(0.0);
    let metrics: Vec<Metric> = vec![
        (
            "websim.session_gen_ms",
            med(&|l| ms(l.session_gen_ns)),
            "ms",
        ),
        (
            "websim.session_gen_exposed_ms",
            med(&|l| ms(l.session_gen_exposed_ns)),
            "ms",
        ),
        ("websim.page_views", med(&|l| l.page_views as f64), "count"),
        (
            "loadgen.lag_p99_ms",
            median_of(lag_p99.iter().copied()),
            "ms",
        ),
        ("engine.shard_busy_ms", med(&|l| ms(l.shard_busy_ns)), "ms"),
        (
            "engine.barrier_wait_ms",
            med(&|l| ms(l.barrier_wait_ns)),
            "ms",
        ),
        (
            "engine.shard_skew",
            med(&|l| l.busy_max_ns as f64 / l.busy_mean_ns.max(1.0)),
            "ratio",
        ),
        ("engine.merge_ms", med(&|l| ms(l.merge_ns)), "ms"),
        (
            "engine.merge_events",
            med(&|l| l.merge_events as f64),
            "count",
        ),
        ("engine.fold_ms", med(&|l| ms(l.fold_ns)), "ms"),
        (
            "engine.fold_impressions",
            med(&|l| l.fold_impressions as f64),
            "count",
        ),
        (
            "engine.fold_pixel_fires",
            med(&|l| l.fold_pixel_fires as f64),
            "count",
        ),
        (
            "engine.serial_frac",
            med(&|l| l.serial_ns() as f64 / l.wall_ns as f64),
            "ratio",
        ),
        ("engine.tick_ms.p50", pct(&ticks, 50.0), "ms"),
        ("engine.tick_ms.p90", pct(&ticks, 90.0), "ms"),
        ("engine.coverage", coverage, "ratio"),
        ("engine.trace_overhead", overhead, "ratio"),
        ("adplatform.refreeze_ms", med(&|l| ms(l.refreeze_ns)), "ms"),
        (
            "adplatform.fill_ratio",
            r.footprint.stats.won as f64 / r.footprint.stats.opportunities.max(1) as f64,
            "ratio",
        ),
        (
            "adplatform.candidates_per_opp",
            probed.layers.index_candidates as f64 / opps,
            "count",
        ),
        (
            "adplatform.submit_ads_ms",
            median_of(b.submit_ads_ms.iter().copied()),
            "ms",
        ),
        ("resilience.frame_ms", med_frames(&|l| ms(l.frame_ns)), "ms"),
        (
            "resilience.delta_bytes",
            med_frames(&|l| l.delta_bytes as f64),
            "bytes",
        ),
        (
            "resilience.base_bytes",
            med_frames(&|l| l.base_bytes as f64),
            "bytes",
        ),
        (
            "resilience.dirty_slots",
            med_frames(&|l| l.dirty_slots as f64),
            "count",
        ),
        (
            "resilience.fold_frames_ms",
            median_of(fold_ms.iter().copied()),
            "ms",
        ),
        (
            "resilience.receipts_rebuild_ms",
            median_of(rebuild_ms.iter().copied()),
            "ms",
        ),
        ("serving.submit_us.p50", pct(&submit_us, 50.0), "us"),
        ("serving.submit_us.p99", pct(&submit_us, 99.0), "us"),
        ("serving.wait_ms.p50", pct(&wait_ms, 50.0), "ms"),
        ("serving.wait_ms.p99", pct(&wait_ms, 99.0), "ms"),
        (
            "serving.tick_close_ms",
            median_of(tick_close_ms.iter().copied()),
            "ms",
        ),
        ("serving.tick_closes", tick_close_ms.len() as f64, "count"),
        ("serving.served", served as f64, "count"),
        ("serving.shed", shed as f64, "count"),
    ];
    Ok((metrics, s))
}

fn print_summaries(s: &Samples) {
    let mut parts = Vec::new();
    for (name, values) in &s.values {
        if let Some(sum) = Summary::of(values) {
            let tail = match sum.tail {
                Some((p, v)) => format!("\"tail_pct\": {p}, \"tail\": {}", json_num(v)),
                None => "\"tail_pct\": null, \"tail\": null".into(),
            };
            parts.push(format!(
                "\"{name}\": {{\"n\": {}, \"p25\": {}, \"median\": {}, \"p75\": {}, {tail}}}",
                sum.n,
                json_num(sum.p25),
                json_num(sum.median),
                json_num(sum.p75)
            ));
        }
    }
    println!("{{\"summary\": {{{}}}}}", parts.join(", "));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <population|inventory|serve> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    println!("{}", provenance(&args));
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let (metrics, samples) = match result {
        Ok(r) => r,
        Err(CheckFailed(what)) => {
            eprintln!("perfbench: CHECK FAILED: {what}");
            std::process::exit(1);
        }
    };
    print_summaries(&samples);
    eprintln!(
        "perfbench: {} finished in {:.1} s",
        args.workload.name,
        started.elapsed().as_secs_f64()
    );
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not a number");
        std::process::exit(1);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        samples.attempted.max(1),
        samples.failed,
        body.join(", ")
    );
}
