//! The `serve_mixed` workload: `bcc-serve` around the Fig. 4 operating
//! point at 10 dB. Most queries are draws from a 64-state hot pool (cache
//! reads), every 16th carries the (0.05, 0.05) QoS floor, and every 50th
//! is a fresh fade that never repeats within a run (a cache write and a
//! miss solve, and an eviction once the cache is full).
//!
//! Three servers see the same stream: one answers it closed loop, as a
//! scheduler calls the library (one client waiting for each decision);
//! two drain it in `servestudy::BATCH`-query batches at one and at
//! `nproc` workers. A first pass fills the hot set before timing.

use crate::batch::{order, report_par, report_trace, PassCounts, SetUps};
use crate::probe::{self, Counts};
use crate::report::Report;
use crate::stats::{median, Fold, Samples};
use crate::trace::{span, Calibration, Probe, Stage, Tracer, Untraced};
use crate::RunConfig;
use bcc_bench::{fig4_network, servestudy};
use bcc_core::scenario::mix_seed;
use bcc_core::{Objective, Protocol, SolveCtx};
use bcc_serve::{
    Decision, DecisionCache, DecisionCore, LoadSpec, Outcome, QuantSpec, Query, ServeError,
    ServedFrom, Server, StreamKind,
};
use std::mem::size_of;
use std::time::{Duration, Instant};

/// Queries per pass: 16 drain batches.
const PASS_QUERIES: u64 = 16 * servestudy::BATCH as u64;
/// Every n-th query is a fresh fade.
const FRESH_EVERY: u64 = 50;
/// Decorrelates the fresh-fade stream from the hot-set stream.
const FRESH_SALT: u64 = 0xF5E5_11FE;
/// Stored fingerprint of the first pass's closed-loop answers at
/// `--seed 0`.
const FINGERPRINT_SEED0: u64 = 0x1b05_ac7e_fd39_b162;

type Answer = Result<Decision, ServeError>;

/// The query stream of one seed.
struct Stream {
    hot: LoadSpec,
    fresh: LoadSpec,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let net = fig4_network(servestudy::POWER_DB);
        let (ra, rb) = servestudy::FLOOR;
        let spec = |kind, salt: u64| {
            LoadSpec::new(
                kind,
                mix_seed(servestudy::SEED ^ salt, seed),
                net.state(),
                net.powers(),
            )
            .floor_every(servestudy::FLOOR_EVERY, ra, rb)
        };
        Stream {
            hot: spec(
                StreamKind::HotSet {
                    pool: servestudy::HOTSET_POOL,
                },
                0,
            ),
            fresh: spec(StreamKind::Fresh, FRESH_SALT),
        }
    }

    /// The queries of pass `pass`. Query indices never repeat within a
    /// run, so neither do fresh fades.
    fn fill(&self, pass: u64, out: &mut Vec<Query>) {
        out.clear();
        let lo = pass * PASS_QUERIES;
        out.extend((lo..lo + PASS_QUERIES).map(|k| {
            if k % FRESH_EVERY == FRESH_EVERY - 1 {
                self.fresh.query(k)
            } else {
                self.hot.query(k)
            }
        }));
    }
}

/// The three servers of a run.
struct Servers {
    closed: Server,
    serial: Server,
    parallel: Server,
}

impl Servers {
    fn new(threads: usize) -> Self {
        let config = servestudy::config();
        Servers {
            closed: Server::new(&config.threads(1)),
            serial: Server::new(&config.threads(1)),
            parallel: Server::new(&config.threads(threads)),
        }
    }

    /// One pass through all three servers, closed loop first.
    fn pass(&mut self, queries: &[Query], answers: &mut [Vec<Answer>; 3]) -> u64 {
        closed_loop(&mut self.closed, queries, &mut answers[0], None);
        let (_, r1, _) = drain(&mut self.serial, queries, &mut answers[1]);
        let (_, r2, _) = drain(&mut self.parallel, queries, &mut answers[2]);
        r1 + r2
    }
}

/// Answers `queries` one at a time; per-query service times go to
/// `times` when given. Returns the pass's wall time.
fn closed_loop(
    server: &mut Server,
    queries: &[Query],
    answers: &mut Vec<Answer>,
    mut times: Option<&mut Samples>,
) -> Duration {
    answers.clear();
    let t0 = Instant::now();
    for q in queries {
        match times.as_deref_mut() {
            Some(times) => {
                let t = Instant::now();
                let a = server.serve(q);
                times.push(t.elapsed());
                answers.push(a);
            }
            None => answers.push(server.serve(q)),
        }
    }
    t0.elapsed()
}

/// Submits `queries` in `servestudy::BATCH`-query batches and drains
/// each. Returns the wall time, rejected submissions and unique keys
/// solved.
fn drain(
    server: &mut Server,
    queries: &[Query],
    answers: &mut Vec<Answer>,
) -> (Duration, u64, u64) {
    answers.clear();
    let (mut rejected, mut solved) = (0, 0);
    let t0 = Instant::now();
    for batch in queries.chunks(servestudy::BATCH) {
        for &q in batch {
            if server.submit(q).is_err() {
                rejected += 1;
            }
        }
        answers.extend(server.drain());
        solved += server.last_batch().solved;
    }
    (t0.elapsed(), rejected, solved)
}

/// The closed-loop engine path replayed through its public layer calls:
/// `Query::validate`, `QuantSpec::snap_query`, `DecisionCache::get`, and
/// on a miss `SolveCtx::solve_best` and `DecisionCache::insert`.
struct Replay {
    spec: QuantSpec,
    cache: DecisionCache,
    ctx: SolveCtx,
}

impl Replay {
    fn new() -> Self {
        let config = servestudy::config();
        Replay {
            spec: config.quant,
            cache: DecisionCache::with_capacity(config.cache_capacity),
            ctx: SolveCtx::new(),
        }
    }

    fn pass<P: Probe>(
        &mut self,
        probe: &mut P,
        queries: &[Query],
        answers: &mut Vec<Answer>,
    ) -> Duration {
        answers.clear();
        let t0 = Instant::now();
        probe.enter(Stage::Pass);
        for q in queries {
            probe.enter(Stage::Query);
            let a = self.serve(probe, q);
            probe.exit(Stage::Query);
            answers.push(a);
        }
        probe.exit(Stage::Pass);
        t0.elapsed()
    }

    fn serve<P: Probe>(&mut self, probe: &mut P, q: &Query) -> Answer {
        let Replay { spec, cache, ctx } = self;
        span(probe, Stage::Validate, || q.validate())?;
        let (key, snapped) = span(probe, Stage::Snap, || spec.snap_query(q));
        if let Some(outcome) = span(probe, Stage::CacheGet, || cache.get(&key)) {
            return tagged(outcome, ServedFrom::Cache);
        }
        let best = span(probe, Stage::Solve, || {
            ctx.solve_best(
                &snapped.network(),
                &Protocol::ALL,
                Objective::SumRate,
                snapped.bound,
                snapped.floor,
            )
        })
        .map_err(ServeError::Solver)?;
        let outcome = match best {
            Some(o) => Outcome::Decided(DecisionCore::from_solution(&o.sum_rate_solution())),
            None => Outcome::Infeasible,
        };
        span(probe, Stage::CacheInsert, || cache.insert(key, outcome));
        tagged(outcome, ServedFrom::Kernel)
    }
}

fn tagged(outcome: Outcome, from: ServedFrom) -> Answer {
    match outcome {
        Outcome::Decided(core) => Ok(core.tagged(from)),
        Outcome::Infeasible => Err(ServeError::Infeasible),
    }
}

/// Fold of a pass's answers, bit for bit; `provenance` adds where each
/// answer came from.
fn fold_answers(answers: &[Answer], provenance: bool) -> u64 {
    let mut f = Fold::default();
    for a in answers {
        match a {
            Ok(d) => {
                f.word(d.protocol.index() as u64);
                for v in [d.sum_rate, d.ra, d.rb] {
                    f.f64(v);
                }
                let durations = d.durations.as_slice();
                f.word(durations.len() as u64);
                for &v in durations {
                    f.f64(v);
                }
                if provenance {
                    f.word(match d.served_from {
                        ServedFrom::Kernel => 1,
                        ServedFrom::Cache => 2,
                        ServedFrom::Degraded { .. } => 3,
                    });
                }
            }
            Err(e) => f.word(match e {
                ServeError::Infeasible => 11,
                ServeError::InvalidQuery { .. } => 12,
                ServeError::DegradedUnavailable { .. } => 13,
                ServeError::Solver(_) => 14,
            }),
        }
    }
    f.finish()
}

/// Failed answers: degraded ones and every error but a proven infeasible
/// floor, which is a correct answer.
fn failures(answers: &[Answer]) -> u64 {
    answers
        .iter()
        .filter(|a| match a {
            Ok(d) => matches!(d.served_from, ServedFrom::Degraded { .. }),
            Err(e) => *e != ServeError::Infeasible,
        })
        .count() as u64
}

/// Checks that the closed-loop answers equal the drain at one worker
/// (values; provenance can differ where cache recency differs) and that
/// the two drains agree bit for bit, provenance included; tallies the
/// pass. `loud` prints the checks even when they hold.
fn agree(rep: &mut Report, answers: &[Vec<Answer>; 3], rejected: u64, loud: bool) {
    let same_len = answers.iter().all(|a| a.len() == answers[0].len());
    let closed = same_len && fold_answers(&answers[0], false) == fold_answers(&answers[1], false);
    let drains = same_len && fold_answers(&answers[1], true) == fold_answers(&answers[2], true);
    if loud {
        rep.check("closed loop == drain, 1 worker", closed, "bitwise values");
        rep.check(
            "drain, 1 worker == drain, n workers",
            drains,
            "bitwise, provenance too",
        );
    } else {
        rep.verify("closed loop == drain, 1 worker", closed);
        rep.verify("drain, 1 worker == drain, n workers", drains);
    }
    let attempted = answers.iter().map(|a| a.len() as u64).sum::<u64>() + rejected;
    let failed = answers.iter().map(|a| failures(a)).sum::<u64>() + rejected;
    rep.tally(attempted, failed);
}

/// One set-up: the three servers, warmed with the first pass (which fills
/// the hot set). Returns them and the rejected submissions.
fn set_up(
    setups: &mut SetUps,
    cfg: &RunConfig,
    warm: &[Query],
    answers: &mut [Vec<Answer>; 3],
) -> (Servers, u64) {
    setups.time(|| Servers::new(cfg.threads), |s| s.pass(warm, answers))
}

/// Runs the workload for the configured time and fills `rep`.
pub fn run(cfg: &RunConfig, rep: &mut Report) {
    let stream = Stream::new(cfg.seed);
    let mut warm = Vec::with_capacity(PASS_QUERIES as usize);
    stream.fill(0, &mut warm);
    let mut setups = SetUps::default();
    let mut answers: [Vec<Answer>; 3] = Default::default();
    let (mut servers, rejected) = set_up(&mut setups, cfg, &warm, &mut answers);
    let fingerprint = fold_answers(&answers[0], true);
    if cfg.seed == 0 {
        rep.check(
            "fingerprint",
            fingerprint == FINGERPRINT_SEED0,
            format!("{fingerprint:#018x} (stored {FINGERPRINT_SEED0:#018x})"),
        );
    } else {
        rep.check(
            "fingerprint",
            true,
            format!("{fingerprint:#018x} (none stored for seed {})", cfg.seed),
        );
    }
    agree(rep, &answers, rejected, true);
    if cfg.trace {
        traced(&mut servers, &stream, &warm, cfg, rep, &mut setups);
    } else {
        measured(&mut servers, &stream, &warm, cfg, rep, &mut setups);
    }
}

/// The end-to-end run: per-query closed-loop service times and the two
/// drains, pass after pass.
fn measured(
    servers: &mut Servers,
    stream: &Stream,
    warm: &[Query],
    cfg: &RunConfig,
    rep: &mut Report,
    setups: &mut SetUps,
) {
    let mut queries = Vec::with_capacity(PASS_QUERIES as usize);
    let mut answers: [Vec<Answer>; 3] = Default::default();
    let mut scratch: [Vec<Answer>; 3] = Default::default();
    let (mut serial, mut parallel, mut times) = (Samples::new(), Samples::new(), Samples::new());
    let mut qps = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut pass = 1;
    while Instant::now() < deadline {
        stream.fill(pass, &mut queries);
        let mut rejected = 0;
        for step in order::<4>(pass as usize) {
            match step {
                0 => {
                    let d = closed_loop(
                        &mut servers.closed,
                        &queries,
                        &mut answers[0],
                        Some(&mut times),
                    );
                    qps.push(queries.len() as f64 / d.as_secs_f64());
                }
                1 => {
                    let (d, r, _) = drain(&mut servers.serial, &queries, &mut answers[1]);
                    serial.push(d);
                    rejected += r;
                }
                2 => {
                    let (d, r, _) = drain(&mut servers.parallel, &queries, &mut answers[2]);
                    parallel.push(d);
                    rejected += r;
                }
                _ => drop(set_up(setups, cfg, warm, &mut scratch)),
            }
        }
        agree(rep, &answers, rejected, false);
        pass += 1;
    }
    let setup_s = rep.timing("setup", &mut setups.total, 1e9, "s");
    let serial_ms = rep.timing("drain pass, 1 worker", &mut serial, 1e6, "ms");
    let label = format!("drain pass, {} workers", cfg.threads);
    rep.timing(&label, &mut parallel, 1e6, "ms");
    rep.timing("closed-loop service time", &mut times, 1e3, "us");
    let qps = rep.values("closed-loop throughput per pass", &qps, "1/s");
    rep.set("setup_s", setup_s);
    rep.set("serial_ms", serial_ms);
    rep.set("qps", qps);
    rep.set("p50_us", times.quantile(0.5, 1e3));
    rep.set("p99_us", times.quantile(0.99, 1e3));
    rep.set("peak_rss_mib", probe::peak_rss_mib());
}

/// Per-pass values of the traced run.
#[derive(Default)]
struct Layers {
    validate_ns: Vec<f64>,
    snap_ns: Vec<f64>,
    get_ns: Vec<f64>,
    insert_ns: Vec<f64>,
    solve_us: Vec<f64>,
    total_ms: Vec<f64>,
    spans: Vec<f64>,
    counts: PassCounts,
    hit_rate: Vec<f64>,
    misses: Vec<f64>,
    evictions: Vec<f64>,
    kernel_solves: Vec<f64>,
    simplex_solves: Vec<f64>,
    drain_solved: Vec<f64>,
}

/// The traced run: closed-loop engine passes with counters, untraced and
/// traced replays of them, and both drains with serve counters and CPU
/// time.
fn traced(
    servers: &mut Servers,
    stream: &Stream,
    warm: &[Query],
    cfg: &RunConfig,
    rep: &mut Report,
    setups: &mut SetUps,
) {
    let mut queries = Vec::with_capacity(PASS_QUERIES as usize);
    let mut answers: [Vec<Answer>; 3] = Default::default();
    let mut scratch: [Vec<Answer>; 3] = Default::default();
    let mut replayed: [Vec<Answer>; 2] = Default::default();
    // The replays start from the servers' state: the hot set of pass 0.
    let (mut untraced, mut traced_replay) = (Replay::new(), Replay::new());
    untraced.pass(&mut Untraced, warm, &mut replayed[0]);
    traced_replay.pass(&mut Untraced, warm, &mut replayed[1]);

    let cal = Calibration::measure();
    let mut tracer = Tracer::new();
    let (mut eval, mut replay, mut traced, mut serial, mut parallel) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let mut l = Layers::default();
    let (mut cpu_ticks, mut par_passes) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut pass = 1;
    while Instant::now() < deadline {
        stream.fill(pass, &mut queries);
        let mut rejected = 0;
        // Allocations, faults and LP counters of the closed-loop pass;
        // batched points of the one-worker drain.
        let (mut closed_counts, mut drain_counts) = (None, None);
        for step in order::<6>(pass as usize) {
            match step {
                0 => {
                    let before = Counts::before();
                    eval.push(closed_loop(
                        &mut servers.closed,
                        &queries,
                        &mut answers[0],
                        None,
                    ));
                    closed_counts = Some(Counts::since(&before));
                }
                1 => replay.push(untraced.pass(&mut Untraced, &queries, &mut replayed[0])),
                2 => {
                    traced.push(traced_replay.pass(&mut tracer, &queries, &mut replayed[1]));
                    let t = tracer.finish_pass(cal);
                    l.validate_ns.push(t.per_span_ns(Stage::Validate));
                    l.snap_ns.push(t.per_span_ns(Stage::Snap));
                    l.get_ns.push(t.per_span_ns(Stage::CacheGet));
                    l.insert_ns.push(t.per_span_ns(Stage::CacheInsert));
                    l.solve_us.push(t.per_span_ns(Stage::Solve) / 1e3);
                    l.total_ms.push(t.total_ns() / 1e6);
                    l.spans.push(t.spans as f64);
                }
                3 => {
                    let before = Counts::before();
                    let ((d, r, solved), st) = bcc_serve::stats::scoped(|| {
                        drain(&mut servers.serial, &queries, &mut answers[1])
                    });
                    drain_counts = Some(Counts::since(&before));
                    serial.push(d);
                    rejected += r;
                    l.hit_rate.push(st.hit_rate());
                    l.misses.push(st.cache_misses as f64);
                    l.evictions.push(st.evictions as f64);
                    l.kernel_solves.push(st.kernel_solves as f64);
                    l.simplex_solves.push(st.simplex_solves as f64);
                    l.drain_solved.push(solved as f64);
                }
                4 => {
                    let before = probe::proc_stat().cpu_ticks;
                    let (d, r, _) = drain(&mut servers.parallel, &queries, &mut answers[2]);
                    cpu_ticks += probe::proc_stat().cpu_ticks - before;
                    par_passes += 1;
                    parallel.push(d);
                    rejected += r;
                }
                _ => drop(set_up(setups, cfg, warm, &mut scratch)),
            }
        }
        if let (Some(closed), Some(drained)) = (closed_counts, drain_counts) {
            l.counts.push(&Counts {
                batched_points: drained.batched_points,
                lanes_filled: drained.lanes_filled,
                ..closed
            });
        }
        let engine = fold_answers(&answers[0], true);
        rep.verify(
            "replay == closed-loop engine",
            replayed
                .iter()
                .all(|r| r.len() == answers[0].len() && fold_answers(r, true) == engine),
        );
        agree(rep, &answers, rejected, false);
        pass += 1;
    }
    println!(
        "trace calibration: {:.1} ns inside a span, {:.1} ns per span",
        cal.inside_ns, cal.per_span_ns
    );
    let build_ms = rep.timing("server construction", &mut setups.build, 1e6, "ms");
    let eval_ms = rep.timing("closed-loop engine pass", &mut eval, 1e6, "ms");
    let replay_ms = rep.timing("untraced replay", &mut replay, 1e6, "ms");
    let traced_ms = rep.timing("traced replay", &mut traced, 1e6, "ms");
    let serial_ms = rep.timing("drain pass, 1 worker", &mut serial, 1e6, "ms");
    let label = format!("drain pass, {} workers", cfg.threads);
    let par_ms = rep.timing(&label, &mut parallel, 1e6, "ms");

    rep.set("scenario.build_ms", build_ms);
    rep.set(
        "scenario.result_mib",
        (PASS_QUERIES as usize * size_of::<Answer>()) as f64 / (1024.0 * 1024.0),
    );
    l.counts.report(rep);
    report_par(rep, cfg.threads, serial_ms, par_ms, cpu_ticks, par_passes);
    let hit_path = [
        ("serve.validate_ns", median(&l.validate_ns)),
        ("serve.snap_ns", median(&l.snap_ns)),
        ("serve.cache_get_ns", median(&l.get_ns)),
    ];
    for (name, v) in hit_path {
        rep.set(name, v);
    }
    rep.set("serve.cache_insert_ns", median(&l.insert_ns));
    rep.set("serve.solve_us", median(&l.solve_us));
    rep.set("serve.hit_rate", median(&l.hit_rate));
    rep.set("serve.misses", median(&l.misses));
    rep.set("serve.evictions", median(&l.evictions));
    rep.set("serve.kernel_solves", median(&l.kernel_solves));
    rep.set("serve.simplex_solves", median(&l.simplex_solves));
    rep.set("serve.drain_solved", median(&l.drain_solved));
    let coverage = report_trace(rep, eval_ms, replay_ms, traced_ms, &l.total_ms, &l.spans);

    println!("per-call self times of the closed-loop path:");
    for (name, v) in hit_path {
        println!("  {name:<24} {v:>10.1} ns (hit path)");
    }
    println!(
        "  {:<24} {:>10.1} ns",
        "serve.cache_insert_ns",
        median(&l.insert_ns)
    );
    println!(
        "  {:<24} {:>10.3} us per miss",
        "serve.solve_us",
        median(&l.solve_us)
    );
    println!("  stage self times + residual cover {coverage:.4} of the untraced pass");
    crate::write_spans(&tracer, cfg, rep.workload);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_mixes_hot_floored_and_fresh_queries() {
        let stream = Stream::new(0);
        let mut q = Vec::new();
        stream.fill(0, &mut q);
        assert_eq!(q.len() as u64, PASS_QUERIES);
        let floored = q.iter().filter(|q| q.floor.is_some()).count() as u64;
        assert_eq!(floored, PASS_QUERIES / servestudy::FLOOR_EVERY);
        let mut next = Vec::new();
        stream.fill(1, &mut next);
        assert_ne!(q[49].state, next[49].state, "fresh fades do not repeat");
        let hot: std::collections::HashSet<u64> = q
            .iter()
            .enumerate()
            .filter(|(k, _)| (*k as u64) % FRESH_EVERY != FRESH_EVERY - 1)
            .map(|(_, q)| q.state.gab().to_bits())
            .collect();
        assert!(hot.len() <= servestudy::HOTSET_POOL);
    }

    #[test]
    fn answer_fold_sees_provenance_only_when_asked() {
        let core = DecisionCore {
            protocol: Protocol::Hbc,
            sum_rate: 3.0,
            ra: 1.5,
            rb: 1.5,
            durations: bcc_core::PhaseVec::from_slice(&[0.25; 4]),
        };
        let kernel = [Ok(core.tagged(ServedFrom::Kernel))];
        let cache = [Ok(core.tagged(ServedFrom::Cache))];
        assert_eq!(fold_answers(&kernel, false), fold_answers(&cache, false));
        assert_ne!(fold_answers(&kernel, true), fold_answers(&cache, true));
        assert_eq!(failures(&[Err(ServeError::Infeasible)]), 0);
        assert_eq!(
            failures(&[Err(ServeError::InvalidQuery { reason: "test" })]),
            1
        );
    }
}
