//! Deterministic replay: serving a recorded query log twice — and at
//! different worker counts — must produce bit-identical decision
//! streams, provenance included.
//!
//! The serving layer's contract is that answers are a pure function of
//! the query log: the cache probe/commit phases are serial, miss
//! deduplication is first-seen order, and every solve is
//! history-independent. This test records a mixed log (repeated, hot-set
//! and fresh states; floors and outer bounds sprinkled in), serves it
//! through fresh servers under several configurations, and compares the
//! streams bitwise. The CI cross-validation matrix runs this file under
//! `BCC_THREADS=1` and `BCC_THREADS=4`, so the `threads: None` default
//! path is exercised at both counts as well. Every drain here holds
//! fewer than `DEFAULT_BLOCK` unique misses, so it solves on the calling
//! thread at any worker count; `chaos_replay.rs` drains a batch wide
//! enough to fan out to spawned workers.
//!
//! Two stored digests lock the log's answers (closed loop and drained)
//! and its snapped keys to the bits they had when recorded: a change to
//! any served bit or any snapped key fails here, at every opt-level.

use bcc_channel::{ChannelState, PowerSplit};
use bcc_core::protocol::Bound;
use bcc_serve::{
    Decision, Engine, LoadSpec, QuantSpec, Query, ServeConfig, ServeError, Server, StreamKind,
};

const SEED: u64 = 0x5E4E_0007;

fn base_state() -> ChannelState {
    // Fig. 4 gains (-7, 0, 5) dB in linear units.
    ChannelState::new(0.199_526, 1.0, 3.162_278)
}

/// A mixed query log touching every serve path: cache hits (repeated +
/// hot set), fresh misses, QoS floors (feasible and hopeless) and outer
/// bounds.
fn recorded_log() -> Vec<Query> {
    let powers = PowerSplit::symmetric(10.0);
    let hot = LoadSpec::new(StreamKind::HotSet { pool: 12 }, SEED, base_state(), powers)
        .floor_every(7, 0.05, 0.05);
    let fresh = LoadSpec::new(StreamKind::Fresh, SEED ^ 0xFF, base_state(), powers);
    let mut log = Vec::new();
    for k in 0..160 {
        log.push(hot.query(k));
        if k % 3 == 0 {
            log.push(fresh.query(k));
        }
        if k % 11 == 0 {
            log.push(fresh.query(k).with_bound(Bound::Outer));
        }
        if k % 23 == 0 {
            // A hopeless floor: cached infeasibility must replay too.
            log.push(hot.query(k).with_floor(30.0, 30.0));
        }
    }
    log
}

/// Everything observable about one answer, with rates as exact bits.
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

/// Serves the log through a fresh batched server, draining every
/// `batch` submissions.
fn replay_batched(log: &[Query], config: &ServeConfig, batch: usize) -> Vec<String> {
    let mut server = Server::new(config);
    let mut out = Vec::with_capacity(log.len());
    for chunk in log.chunks(batch) {
        for &q in chunk {
            server.submit(q).expect("queue sized for the batch");
        }
        out.extend(server.drain().iter().map(fingerprint));
    }
    out
}

#[test]
fn replaying_the_log_is_bit_identical() {
    let log = recorded_log();
    let config = ServeConfig::default();
    let first = replay_batched(&log, &config, 64);
    let second = replay_batched(&log, &config, 64);
    assert_eq!(first, second, "same log, same config ⇒ same stream");
}

#[test]
fn decision_streams_are_worker_count_invariant() {
    let log = recorded_log();
    let one = replay_batched(&log, &ServeConfig::default().threads(1), 64);
    let four = replay_batched(&log, &ServeConfig::default().threads(4), 64);
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        assert_eq!(a, b, "query {i} diverges between 1 and 4 workers");
    }
    // And under the ambient BCC_THREADS (the CI matrix pins 1 and 4).
    let ambient = replay_batched(&log, &ServeConfig::default(), 64);
    assert_eq!(one, ambient);
}

#[test]
fn batch_size_does_not_change_answers() {
    // Different drain boundaries change which queries are within-batch
    // duplicates vs cache hits of an earlier batch — but both are served
    // from the same stored decision, so the streams still agree bitwise
    // (provenance included: every non-first occurrence of a key is
    // `Cache` either way).
    let log = recorded_log();
    let config = ServeConfig::default();
    let small = replay_batched(&log, &config, 16);
    let large = replay_batched(&log, &config, 512);
    assert_eq!(small, large);
}

#[test]
fn closed_loop_and_batched_paths_agree() {
    let log = recorded_log();
    let mut engine = Engine::new(&ServeConfig::default());
    let serial: Vec<String> = log.iter().map(|q| fingerprint(&engine.serve(q))).collect();
    let batched = replay_batched(&log, &ServeConfig::default().threads(4), 64);
    assert_eq!(serial, batched);
}

/// SplitMix64 fold of a word stream: the behaviour lock's digest.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for w in words {
        let mut z = h ^ w.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// The per-answer fingerprints as words: each string's bytes, then its
/// length, so answer boundaries are part of the digest.
fn answer_words(answers: &[String]) -> impl Iterator<Item = u64> + '_ {
    answers.iter().flat_map(|s| {
        s.bytes()
            .map(u64::from)
            .chain(std::iter::once(s.len() as u64))
    })
}

/// Stored digest of the recorded log's answers, closed loop then drained
/// at one worker. Recorded before the key/decode split of `QuantSpec`.
const ANSWERS_LOCK: u64 = 0x9f7e_7044_c6e6_a032;

/// Stored digest of every query's key hash and snapped bits under the
/// default grid and under strict mode. Recorded with the same answers.
const SNAP_LOCK: u64 = 0xb0c7_23c5_d137_fa01;

#[test]
fn answers_match_the_stored_lock() {
    let log = recorded_log();
    let mut engine = Engine::new(&ServeConfig::default());
    let closed: Vec<String> = log.iter().map(|q| fingerprint(&engine.serve(q))).collect();
    let drained = replay_batched(&log, &ServeConfig::default().threads(1), 64);
    let digest = fold(answer_words(&closed).chain(answer_words(&drained)));
    assert_eq!(digest, ANSWERS_LOCK, "answers moved: {digest:#018x}");
}

#[test]
fn snapping_matches_the_stored_lock() {
    let log = recorded_log();
    let mut words = Vec::new();
    for spec in [QuantSpec::default(), QuantSpec::strict()] {
        for q in &log {
            let (key, s) = spec.snap_query(q);
            words.push(key.hash64());
            words.extend([s.state.gab(), s.state.gar(), s.state.gbr()].map(f64::to_bits));
            words.extend([s.powers.p_a(), s.powers.p_b(), s.powers.p_r()].map(f64::to_bits));
            match s.floor {
                Some((a, b)) => words.extend([1, a.to_bits(), b.to_bits()]),
                None => words.push(0),
            }
            words.push(u64::from(s.bound == Bound::Outer));
        }
    }
    let digest = fold(words);
    assert_eq!(digest, SNAP_LOCK, "snapping moved: {digest:#018x}");
}
