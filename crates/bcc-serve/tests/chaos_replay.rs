//! Chaos replay: serving a long mixed query stream under a seeded
//! [`FaultPlan`] must (a) complete with every injected failure contained
//! to its query, (b) produce the exact same decision stream — provenance
//! and error slots included — on every replay, at any worker count and
//! any drain batch size, and (c) degrade *honestly*: every
//! `ServedFrom::Degraded` answer is feasible and no better than the
//! fault-free optimum at its key, and healthy answers are bitwise
//! identical to a fault-free run.
//!
//! The stream mixes hot-set hits, fresh misses, QoS floors, outer
//! bounds, and malformed queries (NaN floors), so every serve path is
//! under fire at once. The CI chaos leg runs this file under
//! `BCC_THREADS=1` and `BCC_THREADS=4`.
//!
//! A drain of at most `DEFAULT_BLOCK` unique misses is one range and
//! solves on the calling thread at any worker count, and a 512-query
//! drain is that small; the whole stream drained at once holds more than
//! two blocks of unique misses, so there they fan out to spawned
//! workers, with and without the fault plan.

use bcc_channel::{ChannelState, PowerSplit};
use bcc_core::batch::DEFAULT_BLOCK;
use bcc_core::protocol::Bound;
use bcc_num::faults::{FaultPlan, FaultSite};
use bcc_serve::{
    Decision, LoadSpec, Query, ServeConfig, ServeError, ServedFrom, Server, StreamKind,
};

const SEED: u64 = 0x5E4E_0009;
const QUERIES: u64 = 40_000;

/// Swallows the *injected* chaos panics (their unwinds are caught and
/// contained by the engine) so the test output is not buried in
/// backtraces, while still reporting genuine panics.
fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("injected worker panic"));
            if !injected {
                previous(info);
            }
        }));
    });
}

fn base_state() -> ChannelState {
    // Fig. 4 gains (-7, 0, 5) dB in linear units.
    ChannelState::new(0.199_526, 1.0, 3.162_278)
}

/// Every site armed at once: transient LP faults that recover on retry,
/// item-fated kernel poison and cache evict/corrupt keys, and worker
/// panics that occasionally double-fire past the retry.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(0xC4A0_5BCC)
        .with(FaultSite::LpIterationLimit, 0.05, 1)
        .with(FaultSite::LpWarmReject, 0.10, 2)
        .with(FaultSite::KernelPoison, 0.01, 1)
        .with(FaultSite::CacheEvict, 0.02, 1)
        .with(FaultSite::CacheCorrupt, 0.02, 1)
        .with(FaultSite::WorkerPanic, 0.05, 2)
}

/// The 40k-query mixed stream: hot-set traffic with periodic floors and
/// malformed queries, fresh misses every 16th slot, outer bounds
/// sprinkled in. A pure function of the constants, like every stream in
/// the workspace.
fn stream() -> Vec<Query> {
    let powers = PowerSplit::symmetric(10.0);
    let hot = LoadSpec::new(StreamKind::HotSet { pool: 24 }, SEED, base_state(), powers)
        .floor_every(7, 0.05, 0.05)
        .invalid_every(97);
    let fresh = LoadSpec::new(StreamKind::Fresh, SEED ^ 0xF00D, base_state(), powers);
    (0..QUERIES)
        .map(|k| {
            if k % 131 == 77 {
                fresh.query(k).with_bound(Bound::Outer)
            } else if k % 16 == 5 {
                fresh.query(k)
            } else {
                hot.query(k)
            }
        })
        .collect()
}

/// Everything observable about one answer, with rates as exact bits.
/// Error slots fingerprint too — a replay that turns one error into a
/// different error (or an answer) is a determinism bug.
fn fingerprint(r: &Result<Decision, ServeError>) -> String {
    match r {
        Ok(d) => format!(
            "{:?}|{:016x}|{:016x}|{:016x}|{:?}|{:?}",
            d.protocol,
            d.sum_rate.to_bits(),
            d.ra.to_bits(),
            d.rb.to_bits(),
            d.durations,
            d.served_from,
        ),
        Err(e) => format!("err:{e}"),
    }
}

/// Serves the stream through a fresh batched server, draining every
/// `batch` submissions.
fn replay(log: &[Query], config: &ServeConfig, batch: usize) -> Vec<Result<Decision, ServeError>> {
    let mut server = Server::new(config);
    let mut out = Vec::with_capacity(log.len());
    for chunk in log.chunks(batch) {
        for &q in chunk {
            server.submit(q).expect("queue sized for the batch");
        }
        out.append(&mut server.drain());
    }
    out
}

#[test]
fn chaos_stream_replays_bit_identically_across_threads_and_batches() {
    silence_injected_panics();
    let log = stream();
    let config = ServeConfig::default().faults(chaos_plan());
    let reference: Vec<String> = replay(&log, &config.threads(1), 512)
        .iter()
        .map(fingerprint)
        .collect();
    // The chaos run actually exercised the degraded and validation paths.
    assert!(
        reference.iter().any(|f| f.contains("Degraded")),
        "the plan should degrade at least one answer"
    );
    assert!(
        reference.iter().any(|f| f.contains("invalid query")),
        "the stream should carry malformed queries"
    );
    // Same plan, same stream: bit-identical on replay and under every
    // (threads × batch) combination, including batch boundaries that
    // slice fated and healthy keys differently.
    for (threads, batch) in [(1, 512), (1, 16), (4, 16), (4, 512)] {
        let again: Vec<String> = replay(&log, &config.threads(threads), batch)
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(
            again, reference,
            "threads = {threads}, batch = {batch} diverged"
        );
    }
}

#[test]
fn degraded_answers_are_feasible_conservative_and_healthy_answers_clean() {
    silence_injected_panics();
    let log = stream();
    let clean = replay(&log, &ServeConfig::default(), 512);
    let chaos_cfg = ServeConfig::default().faults(chaos_plan());
    let (chaos, delta) = bcc_serve::stats::scoped(|| replay(&log, &chaos_cfg, 512));
    assert_eq!(delta.queries, QUERIES);
    assert!(delta.degraded > 0, "the plan should degrade some answers");
    assert!(delta.validated_rejects > 0, "malformed queries were served");

    let mut degraded = 0u64;
    for (i, (c, cl)) in chaos.iter().zip(&clean).enumerate() {
        match (c, cl) {
            (Ok(d), _) if matches!(d.served_from, ServedFrom::Degraded { .. }) => {
                degraded += 1;
                // Degraded answers are conservative: the closed-form DT
                // fallback is one of the candidates the full selection
                // maximises over, so it can never beat the optimum...
                let full = cl
                    .as_ref()
                    .unwrap_or_else(|e| panic!("query {i}: degraded Ok but clean {e}"));
                assert!(
                    d.sum_rate <= full.sum_rate * (1.0 + 1e-9) + 1e-12,
                    "query {i}: degraded {} beats the optimum {}",
                    d.sum_rate,
                    full.sum_rate
                );
                // ...and feasible: a served fallback met the floor.
                if let Some((ra, rb)) = log[i].floor {
                    assert!(
                        d.ra >= ra - 1e-9 && d.rb >= rb - 1e-9,
                        "query {i}: degraded answer misses the floor"
                    );
                }
            }
            (Ok(d), Ok(full)) => {
                // Healthy chaos answers are bitwise the fault-free ones
                // (provenance aside: an evict-fated key re-solves where
                // the clean run hits its cache).
                assert_eq!(d.protocol, full.protocol, "query {i}");
                assert_eq!(d.sum_rate.to_bits(), full.sum_rate.to_bits(), "query {i}");
                assert_eq!(d.ra.to_bits(), full.ra.to_bits(), "query {i}");
                assert_eq!(d.rb.to_bits(), full.rb.to_bits(), "query {i}");
            }
            (Ok(d), Err(e)) => {
                panic!("query {i}: chaos answered {d:?} where clean failed with {e}")
            }
            (Err(ServeError::DegradedUnavailable { .. }), _) => {
                degraded += 1;
                // Honest refusal: the fallback could not meet the floor.
                assert!(log[i].floor.is_some(), "query {i}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "query {i}: errors diverge"),
            (Err(e), Ok(_)) => {
                panic!("query {i}: chaos failed with {e} where clean answered")
            }
        }
    }
    assert_eq!(degraded, delta.degraded, "stats agree with the stream");
}

#[test]
fn empty_plan_and_unbounded_budget_are_bitwise_invisible() {
    silence_injected_panics();
    let log = stream();
    let plain: Vec<String> = replay(&log, &ServeConfig::default(), 512)
        .iter()
        .map(fingerprint)
        .collect();
    // Arming the empty plan changes nothing (the scopes never push).
    let armed_empty: Vec<String> =
        replay(&log, &ServeConfig::default().faults(FaultPlan::none()), 512)
            .iter()
            .map(fingerprint)
            .collect();
    assert_eq!(plain, armed_empty);
    // A budget that never binds routes every miss through the guarded
    // scalar path (scopes, catch_unwind, per-attempt accounting) — and
    // the stream must still be bitwise identical to the lane kernels.
    let guarded: Vec<String> = replay(&log, &ServeConfig::default().solve_budget(u64::MAX), 512)
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(plain, guarded);
}

#[test]
fn draining_the_whole_stream_at_once_fans_out_bit_identically() {
    silence_injected_panics();
    let log = stream();
    for (label, config) in [
        ("fault-free", ServeConfig::default()),
        ("chaos", ServeConfig::default().faults(chaos_plan())),
    ] {
        let reference: Vec<String> = replay(&log, &config.threads(1), 512)
            .iter()
            .map(fingerprint)
            .collect();
        // One drain of the whole stream, with the draining thread's LP
        // count and the drain's own serve stats.
        let drain = |threads: usize| {
            let config = config.queue_capacity(log.len()).threads(threads);
            let ((answers, lp), served) = bcc_serve::stats::scoped(|| {
                bcc_lp::stats::scoped(|| replay(&log, &config, log.len()))
            });
            let answers: Vec<String> = answers.iter().map(fingerprint).collect();
            (answers, lp.solves, served)
        };
        let (one, lp_one, served) = drain(1);
        let (four, lp_four, _) = drain(4);
        assert!(
            served.cache_misses > 2 * DEFAULT_BLOCK as u64,
            "{label}: {} unique misses fill fewer than three ranges",
            served.cache_misses
        );
        assert!(served.simplex_solves > 0, "{label}: no LP miss");
        assert_eq!(
            lp_one, served.simplex_solves,
            "{label}: one worker solves on the draining thread"
        );
        assert!(
            lp_four < served.simplex_solves,
            "{label}: four workers left every LP solve on the draining thread"
        );
        assert_eq!(one, reference, "{label}: one drain at 1 worker diverged");
        assert_eq!(four, reference, "{label}: one drain at 4 workers diverged");
    }
}
