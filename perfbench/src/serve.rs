//! The load side of the serving workloads: one generator thread that
//! submits each arrival when it is due, and one collector thread that
//! waits on the tickets in submission order.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use treads_serving::{OpportunityRequest, ServingConfig, ServingEngine, ServingReport, Ticket};
use treads_workload::ShardPlan;
use websim::Arrival;

use crate::hosts::Host;

/// Everything one serving run measured. Per-request vectors are indexed
/// like the arrivals.
#[derive(Debug)]
pub struct PhaseResult {
    /// Due instant → response observed.
    pub latency_ms: Vec<f64>,
    /// Due instant → `submit` call (how late the generator ran).
    pub lag_ms: Vec<f64>,
    /// `Frontend::submit` call durations.
    pub submit_us: Vec<f64>,
    /// `submit` returning → response observed.
    pub wait_ms: Vec<f64>,
    /// `(arrival index, duration)` of the submits whose arrival opened a
    /// new tick (each closes the previous tick before enqueueing).
    pub tick_close_ms: Vec<(usize, f64)>,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests answered with a served page.
    pub served: u64,
    /// Requests answered with a rejection.
    pub shed: u64,
    /// Wall time of the whole `ServingEngine::serve` call.
    pub wall_s: f64,
    /// The serving engine's own report.
    pub report: ServingReport,
    /// The receipt-ledger heads the run committed.
    pub heads: Vec<treads_engine::resilience::LedgerHead>,
}

/// What the collector saw.
#[derive(Default)]
struct Collected {
    latency_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    served: u64,
    shed: u64,
}

struct Sent {
    ticket: Ticket,
    due: Instant,
    returned: Instant,
}

/// The admission watermark that provisions a schedule: its busiest
/// (tick, shard) queue, so no request of it can be shed for overload.
pub fn provisioned_watermark(arrivals: &[Arrival], tick_ms: u64, shards: usize) -> u64 {
    let mut counts: std::collections::BTreeMap<(u64, usize), u64> = Default::default();
    for a in arrivals {
        *counts
            .entry((a.at.0 / tick_ms, ShardPlan::shard_index(a.user, shards)))
            .or_default() += 1;
    }
    counts.into_values().max().unwrap_or(0).max(1)
}

/// Sleeps until `due`. The generator never spins: on a machine with as
/// few cores as serving threads a spinning generator would take a core
/// from the workers it measures. Sleep overshoot shows as generator lag.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Serves `arrivals` against `host` under `cfg`. With `due`, arrival `i`
/// is due `due[i]` after the run starts (open loop); without it every
/// arrival is due at once (the unpaced drain).
pub fn run(
    host: &mut Host,
    cfg: ServingConfig,
    arrivals: &[Arrival],
    due: Option<&[Duration]>,
) -> PhaseResult {
    let tick_ms = cfg.tick_ms;
    let engine = ServingEngine::new(cfg);
    let mut lag_ms = Vec::with_capacity(arrivals.len());
    let mut submit_us = Vec::with_capacity(arrivals.len());
    let mut tick_close_ms = Vec::new();
    let start = Instant::now();
    let (outcome, seen) = engine.serve(
        &mut host.platform,
        &host.sites,
        &std::collections::BTreeSet::new(),
        |frontend| {
            let (tx, rx) = mpsc::channel::<Sent>();
            std::thread::scope(|s| {
                let collector = s.spawn(move || {
                    let mut seen = Collected::default();
                    for sent in rx {
                        let response = sent.ticket.wait();
                        let done = Instant::now();
                        seen.latency_ms.push((done - sent.due).as_secs_f64() * 1e3);
                        let waited = done.saturating_duration_since(sent.returned);
                        seen.wait_ms.push(waited.as_secs_f64() * 1e3);
                        if response.is_served() {
                            seen.served += 1;
                        } else {
                            seen.shed += 1;
                        }
                    }
                    seen
                });
                let t0 = Instant::now();
                let mut tick_end = tick_ms;
                for (i, a) in arrivals.iter().enumerate() {
                    let due = t0 + due.map_or(Duration::ZERO, |d| d[i]);
                    wait_until(due);
                    let mut crossed = false;
                    while a.at.0 >= tick_end {
                        tick_end += tick_ms;
                        crossed = true;
                    }
                    let called = Instant::now();
                    let ticket = frontend.submit(OpportunityRequest {
                        user: a.user,
                        site: a.site,
                        at: a.at,
                    });
                    let returned = Instant::now();
                    let took = (returned - called).as_secs_f64();
                    lag_ms.push((called - due).as_secs_f64() * 1e3);
                    submit_us.push(took * 1e6);
                    if crossed {
                        tick_close_ms.push((i, took * 1e3));
                    }
                    tx.send(Sent {
                        ticket,
                        due,
                        returned,
                    })
                    .expect("the collector outlives the generator");
                }
                drop(tx);
                collector.join().expect("collector does not panic")
            })
        },
    );
    PhaseResult {
        latency_ms: seen.latency_ms,
        lag_ms,
        submit_us,
        wait_ms: seen.wait_ms,
        tick_close_ms,
        submitted: arrivals.len() as u64,
        served: seen.served,
        shed: seen.shed,
        wall_s: start.elapsed().as_secs_f64(),
        heads: outcome
            .ledger
            .as_ref()
            .map(|l| l.heads())
            .unwrap_or_default(),
        report: outcome.report,
    }
}
