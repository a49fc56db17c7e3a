//! Batched admission: a bounded submission queue drained in parallel.
//!
//! [`Server`] wraps an [`Engine`] with the throughput-oriented front
//! end: callers [`submit`](Server::submit) queries into a bounded queue
//! (a full queue pushes back with [`Rejected`] instead of growing
//! without bound), and [`drain`](Server::drain) answers everything
//! queued in one batch. It probes each query through the engine's own
//! probe, deduplicates misses by quantized key, solves the unique misses
//! in one [`par_blocks`] fan-out of [`DEFAULT_BLOCK`]-long ranges, and
//! commits and answers through the engine's own admission rules and
//! tags. Within a range, a fault-free batch's floor-free inner-bound
//! misses are solved together by the lane kernels and every other miss
//! on the worker's context, as [`Engine::serve`] would solve it. A drain
//! of at most [`DEFAULT_BLOCK`] unique misses is one range and runs on
//! the calling thread.
//!
//! # Determinism
//!
//! Drained decision streams are **bit-identical at any worker count**:
//! the probe and commit phases are serial, miss deduplication is
//! first-seen order, and each solve is a pure function of its snapped
//! query (the lane kernels and the per-miss path agree bit for bit, and
//! contexts accept warm starts only under provable uniqueness, so solve
//! results are history-independent). Only the *cost* counters in
//! [`BatchStats`] (`warm_hits`, `pivots`) depend on how misses land on
//! workers, and those are reported as diagnostics, never used in
//! answers.

use crate::engine::{answer, decided, solve_guarded, Engine, Miss, Probe, ServeConfig, SolvedMiss};
use crate::quant::QuantKey;
use crate::query::{Decision, Priority, Query, Rejected, ServeError, ServedFrom};
use crate::stats::ServeStats;
use bcc_core::batch::DEFAULT_BLOCK;
use bcc_core::kernel::{par_blocks, BlockSolver};
use bcc_core::protocol::Protocol;
use bcc_core::{SolveOutcome, SolveRequest};
use bcc_lp::LpStats;
use std::collections::HashMap;
use std::ops::Range;

/// What one drained batch cost — the serving-path counterpart of
/// [`bcc_lp::stats::LpStats`], exposed per batch so bench gates can
/// assert on kernel/warm behaviour of the serving path itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Queries answered by the drain.
    pub queries: u64,
    /// Answers served from the cache, including within-batch duplicates
    /// of one solved miss.
    pub cache_hits: u64,
    /// Unique quantized keys solved fresh.
    pub solved: u64,
    /// Answers that reported QoS infeasibility.
    pub infeasible: u64,
    /// Closed-form kernel solves across the batch's workers.
    pub kernel_solves: u64,
    /// Simplex LP solves across the batch's workers.
    pub simplex_solves: u64,
    /// Warm-started simplex solves (scheduling-dependent: which worker
    /// solves which miss varies with the thread count, so this is a
    /// diagnostic, not a deterministic quantity).
    pub warm_hits: u64,
    /// Simplex pivots (scheduling-dependent, like `warm_hits`).
    pub pivots: u64,
    /// Answers served from the conservative degraded fallback (counted
    /// per answered query, like `cache_hits`).
    pub degraded: u64,
    /// Queries refused by [`Query::validate`] before any solve.
    pub validated_rejects: u64,
}

/// How one submitted query will be answered, planned during the serial
/// probe pass.
enum Plan {
    /// Answered by its probe: a cache hit, or a query refused by
    /// [`Query::validate`].
    Probed(Result<Decision, ServeError>),
    /// Occurrence of miss `miss_idx` in the deduplicated solve list;
    /// `first` marks the batch's first occurrence of the key.
    Solve { miss_idx: usize, first: bool },
}

/// A batched protocol-selection server over a bounded submission queue.
#[derive(Debug)]
pub struct Server {
    engine: Engine,
    queue: Vec<Query>,
    queue_cap: usize,
    threads: Option<usize>,
    last_batch: BatchStats,
}

impl Server {
    /// Creates a server per `config`.
    pub fn new(config: &ServeConfig) -> Self {
        Server {
            engine: Engine::new(config),
            queue: Vec::with_capacity(config.queue_capacity.min(8_192)),
            queue_cap: config.queue_capacity,
            threads: config.threads,
            last_batch: BatchStats::default(),
        }
    }

    /// The underlying serial engine (also the closed-loop serve path).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Answers one query immediately, bypassing the queue — the
    /// closed-loop path. Equivalent to [`Engine::serve`].
    pub fn serve(&mut self, query: &Query) -> Result<Decision, ServeError> {
        self.engine.serve(query)
    }

    /// Queries currently queued for the next drain.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Stats of the most recent [`drain`](Server::drain) (zeros before
    /// the first).
    pub fn last_batch(&self) -> &BatchStats {
        &self.last_batch
    }

    /// Enqueues a query for the next drain, or pushes back with
    /// [`Rejected`] if the queue is at capacity (the query is handed
    /// back untouched; retry after a drain or shed it).
    ///
    /// At capacity, a [`Priority::High`] query displaces the most
    /// recently queued [`Priority::Normal`] one instead of being
    /// rejected: the displaced query is *shed* (dropped, counted in
    /// [`ServeStats::shed`]) and the high-priority query takes its
    /// place. A full queue of high-priority queries still rejects.
    pub fn submit(&mut self, query: Query) -> Result<(), Rejected> {
        if self.queue.len() >= self.queue_cap {
            if query.priority == Priority::High {
                if let Some(pos) = self
                    .queue
                    .iter()
                    .rposition(|q| q.priority == Priority::Normal)
                {
                    self.queue.remove(pos);
                    self.queue.push(query);
                    crate::stats::record(&ServeStats {
                        shed: 1,
                        ..ServeStats::zero()
                    });
                    return Ok(());
                }
            }
            crate::stats::record(&ServeStats {
                rejects: 1,
                ..ServeStats::zero()
            });
            return Err(Rejected(query));
        }
        self.queue.push(query);
        Ok(())
    }

    /// Answers every queued query, in submission order.
    ///
    /// Misses are deduplicated by quantized key and solved in one
    /// blocked fan-out; see the module docs for how, and for the
    /// determinism contract. The batch's cost is recorded in
    /// [`last_batch`](Server::last_batch) and the draining thread's
    /// [`stats`](crate::stats).
    pub fn drain(&mut self) -> Vec<Result<Decision, ServeError>> {
        // Swap in an empty queue of the same capacity, so later batches
        // do not regrow it from nothing.
        let capacity = self.queue.capacity();
        let batch = std::mem::replace(&mut self.queue, Vec::with_capacity(capacity));
        if batch.is_empty() {
            self.last_batch = BatchStats::default();
            return Vec::new();
        }
        let evictions_before = self.engine.cache().evictions();
        let mut stats = BatchStats {
            queries: batch.len() as u64,
            ..BatchStats::default()
        };

        // Phase 1 (serial): probe, and dedup misses by key; only a unique
        // miss decodes its grid point and picks its route, `lane` when the
        // lane kernels answer it (a fault-free batch's floor-free
        // inner-bound miss). Evict- or corrupt-fated keys bypass dedup
        // (every occurrence solves fresh, exactly as the serial engine
        // would), so chaos runs stay invariant under batch size.
        let spec = *self.engine.spec();
        let faults = *self.engine.faults();
        let budget = self.engine.solve_budget();
        let fault_free = faults.is_empty() && budget.is_none();
        let mut plans = Vec::with_capacity(batch.len());
        let mut miss_of_key: HashMap<QuantKey, usize> = HashMap::new();
        let mut misses: Vec<(Miss, Query, bool)> = Vec::new();
        for query in &batch {
            plans.push(match self.engine.probe(query) {
                Probe::Invalid(e) => {
                    stats.validated_rejects += 1;
                    Plan::Probed(Err(e))
                }
                Probe::Hit(outcome) => {
                    stats.cache_hits += 1;
                    Plan::Probed(answer(Ok(outcome), ServedFrom::Cache))
                }
                Probe::Miss(miss) => {
                    let fresh = misses.len();
                    let miss_idx = if miss.evict || miss.corrupt {
                        fresh
                    } else {
                        *miss_of_key.entry(miss.key).or_insert(fresh)
                    };
                    if miss_idx == fresh {
                        let q = spec.snapped(&miss.key);
                        let lane = fault_free
                            && SolveRequest::sum_rate(Protocol::Hbc)
                                .with_bound(q.bound)
                                .with_floor(q.floor)
                                .is_batchable();
                        misses.push((miss, q, lane));
                    }
                    Plan::Solve {
                        miss_idx,
                        first: miss_idx == fresh,
                    }
                }
            });
        }

        // Phase 2: solve the unique misses in one blocked fan-out, in
        // miss order. A job solves its lane misses as one block, then
        // each other miss on its own, as the serial engine would.
        let requests = Protocol::ALL.map(SolveRequest::sum_rate);
        let job = |solver: &mut BlockSolver, range: Range<usize>| {
            let misses = &misses[range];
            let block = solver.fill();
            for (_, q, _) in misses.iter().filter(|(.., lane)| *lane) {
                block.push_net(&q.network());
            }
            let outs = if block.is_empty() {
                Vec::new()
            } else {
                solver.solve(&requests)?.to_vec()
            };
            let mut next_lane = 0;
            Ok(misses
                .iter()
                .map(|(miss, q, lane)| {
                    if *lane {
                        next_lane += 1;
                        best_lane(&outs, next_lane - 1)
                    } else {
                        solve_guarded(solver.ctx(), q, &miss.key, &faults, budget)
                    }
                })
                .collect::<Vec<_>>())
        };
        let threads = self.threads.unwrap_or_else(bcc_num::par::thread_count);
        let solved: Vec<SolvedMiss> = par_blocks(threads, misses.len(), DEFAULT_BLOCK, job)
            .expect("the lane kernels are infallible; per-miss errors are answers")
            .into_iter()
            .flatten()
            .collect();

        // Phase 3 (serial): commit in miss order.
        stats.solved = misses.len() as u64;
        for ((miss, ..), solved) in misses.iter().zip(&solved) {
            stats.kernel_solves += solved.kernel_solves;
            stats.simplex_solves += solved.lp.solves;
            stats.warm_hits += solved.lp.warm_hits;
            stats.pivots += solved.lp.pivots;
            self.engine.commit(miss, solved);
        }

        // Phase 4 (serial): assemble answers in submission order.
        let responses: Vec<Result<Decision, ServeError>> = plans
            .into_iter()
            .map(|plan| match plan {
                Plan::Probed(result) => result,
                Plan::Solve { miss_idx, first } => {
                    let miss = &solved[miss_idx];
                    if miss.degraded.is_some() {
                        stats.degraded += 1;
                    } else if !first {
                        stats.cache_hits += 1;
                    }
                    miss.answer(first)
                }
            })
            .collect();
        stats.infeasible = responses
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Infeasible)))
            .count() as u64;

        self.last_batch = stats;
        crate::stats::record(&ServeStats {
            queries: stats.queries,
            cache_hits: stats.cache_hits,
            cache_misses: stats.solved,
            evictions: self
                .engine
                .cache()
                .evictions()
                .wrapping_sub(evictions_before),
            rejects: 0,
            kernel_solves: stats.kernel_solves,
            simplex_solves: stats.simplex_solves,
            degraded: stats.degraded,
            shed: 0,
            validated_rejects: stats.validated_rejects,
        });
        responses
    }
}

/// The lane kernels' answer for point `i` of a block solved for every
/// protocol: the greatest sum rate, keeping the earliest protocol of
/// equal values as [`SolveCtx::solve_best`](bcc_core::SolveCtx::solve_best)
/// does, at one kernel solve per protocol.
fn best_lane(outs: &[Vec<SolveOutcome>], i: usize) -> SolvedMiss {
    let best = outs
        .iter()
        .map(|col| &col[i])
        .reduce(|b, o| if o.value > b.value { o } else { b })
        .expect("Protocol::ALL is non-empty");
    SolvedMiss {
        outcome: Ok(decided(best)),
        degraded: None,
        kernel_solves: outs.len() as u64,
        lp: LpStats::zero(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_channel::{ChannelState, PowerSplit};

    fn q(gab: f64) -> Query {
        Query::new(
            ChannelState::new(gab, 1.0, 3.16),
            PowerSplit::symmetric(10.0),
        )
    }

    fn decision_bits(d: &Result<Decision, ServeError>) -> Option<(u64, u64, u64, ServedFrom)> {
        d.as_ref().ok().map(|d| {
            (
                d.sum_rate.to_bits(),
                d.ra.to_bits(),
                d.rb.to_bits(),
                d.served_from,
            )
        })
    }

    #[test]
    fn backpressure_rejects_when_the_queue_is_full() {
        let config = ServeConfig::default().queue_capacity(2);
        let mut server = Server::new(&config);
        server.submit(q(0.1)).unwrap();
        server.submit(q(0.2)).unwrap();
        let rejected = server.submit(q(0.3)).unwrap_err();
        assert_eq!(rejected.0, q(0.3), "the query comes back untouched");
        assert_eq!(server.queued(), 2);
        // Draining frees the queue for the retry.
        let answers = server.drain();
        assert_eq!(answers.len(), 2);
        server.submit(rejected.0).unwrap();
    }

    #[test]
    fn within_batch_duplicates_share_one_solve() {
        let mut server = Server::new(&ServeConfig::default());
        for _ in 0..5 {
            server.submit(q(0.2)).unwrap();
        }
        let answers = server.drain();
        assert_eq!(answers.len(), 5);
        let stats = *server.last_batch();
        assert_eq!(stats.solved, 1, "one unique key, one solve");
        assert_eq!(stats.cache_hits, 4, "the other four ride along");
        assert_eq!(answers[0].as_ref().unwrap().served_from, ServedFrom::Kernel);
        for a in &answers[1..] {
            assert_eq!(a.as_ref().unwrap().served_from, ServedFrom::Cache);
            assert_eq!(
                a.as_ref().unwrap().sum_rate.to_bits(),
                answers[0].as_ref().unwrap().sum_rate.to_bits()
            );
        }
    }

    #[test]
    fn drain_matches_the_serial_engine_bit_for_bit() {
        let queries: Vec<Query> = (0..40).map(|i| q(0.05 + 0.11 * f64::from(i))).collect();
        let mut server = Server::new(&ServeConfig::default().threads(4));
        for &query in &queries {
            server.submit(query).unwrap();
        }
        let batched = server.drain();

        let mut engine = Engine::new(&ServeConfig::default());
        let serial: Vec<_> = queries.iter().map(|query| engine.serve(query)).collect();
        for (b, s) in batched.iter().zip(&serial) {
            assert_eq!(decision_bits(b), decision_bits(s));
        }
    }

    #[test]
    fn drain_is_thread_count_invariant() {
        let queries: Vec<Query> = (0..64).map(|i| q(0.05 + 0.07 * f64::from(i))).collect();
        let run = |threads: usize| {
            let mut server = Server::new(&ServeConfig::default().threads(threads));
            for &query in &queries {
                server.submit(query).unwrap();
            }
            server.drain()
        };
        let one = run(1);
        let four = run(4);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(decision_bits(a), decision_bits(b));
        }
    }

    #[test]
    fn second_drain_of_the_same_states_is_all_hits() {
        let mut server = Server::new(&ServeConfig::default());
        for i in 0..8 {
            server.submit(q(0.1 + 0.2 * f64::from(i))).unwrap();
        }
        server.drain();
        for i in 0..8 {
            server.submit(q(0.1 + 0.2 * f64::from(i))).unwrap();
        }
        let answers = server.drain();
        let stats = *server.last_batch();
        assert_eq!(stats.solved, 0);
        assert_eq!(stats.cache_hits, 8);
        for a in &answers {
            assert_eq!(a.as_ref().unwrap().served_from, ServedFrom::Cache);
        }
    }

    #[test]
    fn batch_stats_expose_kernel_solves_through_the_snapshot() {
        let mut server = Server::new(&ServeConfig::default().threads(1));
        for i in 0..6 {
            server.submit(q(0.3 + 0.25 * f64::from(i))).unwrap();
        }
        let (_, delta) = crate::stats::scoped(|| server.drain());
        assert_eq!(delta.queries, 6);
        assert_eq!(delta.cache_misses, 6);
        assert!(
            delta.kernel_solves > 0,
            "inner/no-floor misses hit the kernel"
        );
        assert_eq!(server.last_batch().kernel_solves, delta.kernel_solves);
    }

    #[test]
    fn floored_batches_exercise_the_simplex_and_stay_deterministic() {
        let queries: Vec<Query> = (0..24)
            .map(|i| q(0.2 + 0.13 * f64::from(i)).with_floor(0.05, 0.05))
            .collect();
        let run = |threads: usize| {
            let mut server = Server::new(&ServeConfig::default().threads(threads));
            for &query in &queries {
                server.submit(query).unwrap();
            }
            let answers = server.drain();
            let stats = *server.last_batch();
            (answers, stats)
        };
        let (one, s1) = run(1);
        let (four, _) = run(4);
        assert!(s1.simplex_solves > 0, "floors force LP solves");
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(decision_bits(a), decision_bits(b));
        }
    }

    #[test]
    fn high_priority_sheds_the_newest_normal_query_at_capacity() {
        use crate::query::Priority;
        let mut server = Server::new(&ServeConfig::default().queue_capacity(2));
        server.submit(q(0.1)).unwrap();
        server.submit(q(0.2)).unwrap();
        // A high-priority submission displaces the newest normal one.
        let high = q(0.9).with_priority(Priority::High);
        let ((), delta) = crate::stats::scoped(|| server.submit(high).unwrap());
        assert_eq!(delta.shed, 1);
        assert_eq!(delta.rejects, 0);
        assert_eq!(server.queued(), 2, "queue stays at capacity");
        // A second high-priority submission sheds the remaining normal.
        server.submit(q(0.8).with_priority(Priority::High)).unwrap();
        // With only high-priority queries queued, even High is rejected.
        let ((), delta) = crate::stats::scoped(|| {
            assert!(server.submit(q(0.7).with_priority(Priority::High)).is_err());
        });
        assert_eq!(delta.rejects, 1);
        assert_eq!(delta.shed, 0);
        // The drain answers the admitted high-priority queries.
        let answers = server.drain();
        assert_eq!(answers.len(), 2);
        let kept: Vec<u64> = answers
            .iter()
            .map(|a| a.as_ref().unwrap().sum_rate.to_bits())
            .collect();
        let mut engine = Engine::new(&ServeConfig::default());
        assert_eq!(kept[0], engine.serve(&q(0.9)).unwrap().sum_rate.to_bits());
        assert_eq!(kept[1], engine.serve(&q(0.8)).unwrap().sum_rate.to_bits());
    }

    #[test]
    fn invalid_queries_are_answered_in_place_without_solving() {
        let mut server = Server::new(&ServeConfig::default());
        server.submit(q(0.2)).unwrap();
        server.submit(q(0.3).with_floor(f64::NAN, 0.1)).unwrap();
        server.submit(q(0.4)).unwrap();
        let (answers, delta) = crate::stats::scoped(|| server.drain());
        assert_eq!(answers.len(), 3);
        assert!(answers[0].is_ok());
        assert!(matches!(answers[1], Err(ServeError::InvalidQuery { .. })));
        assert!(answers[2].is_ok());
        assert_eq!(delta.validated_rejects, 1);
        assert_eq!(server.last_batch().validated_rejects, 1);
        assert_eq!(
            server.last_batch().solved,
            2,
            "the invalid query never reached the solver"
        );
    }

    #[test]
    fn batch_stats_agree_with_the_answers_and_the_engine() {
        use bcc_core::protocol::Bound;
        let batch = [
            q(0.2),
            q(0.2),
            q(0.3).with_floor(0.05, 0.05),
            q(0.4).with_floor(30.0, 30.0),
            q(0.4).with_floor(30.0, 30.0),
            q(0.5).with_bound(Bound::Outer),
            q(0.6).with_floor(f64::NAN, 0.1),
        ];
        let bits = |a: &Result<Decision, ServeError>| {
            a.clone().map(|d| {
                let durations: Vec<u64> =
                    d.durations.as_slice().iter().map(|t| t.to_bits()).collect();
                (
                    d.protocol,
                    d.sum_rate.to_bits(),
                    d.ra.to_bits(),
                    d.rb.to_bits(),
                    durations,
                    d.served_from,
                )
            })
        };
        for threads in [1, 4] {
            let mut server = Server::new(&ServeConfig::default().threads(threads));
            let mut engine = Engine::new(&ServeConfig::default());
            for round in 0..2 {
                for &query in &batch {
                    server.submit(query).unwrap();
                }
                let answers = server.drain();
                let stats = *server.last_batch();
                let (serial, delta) = crate::stats::scoped(|| {
                    batch
                        .iter()
                        .map(|query| engine.serve(query))
                        .collect::<Vec<_>>()
                });
                let at = format!("threads = {threads}, round = {round}");
                assert_eq!(answers.len(), serial.len(), "{at}");
                for (a, s) in answers.iter().zip(&serial) {
                    assert_eq!(bits(a), bits(s), "{at}");
                }
                assert_eq!(stats.queries, batch.len() as u64, "{at}");
                let infeasible = answers
                    .iter()
                    .filter(|a| matches!(a, Err(ServeError::Infeasible)))
                    .count() as u64;
                assert_eq!(infeasible, 2, "{at}");
                assert_eq!(stats.infeasible, infeasible, "{at}");
                assert_eq!(
                    (
                        stats.cache_hits,
                        stats.solved,
                        stats.kernel_solves,
                        stats.simplex_solves,
                        stats.degraded,
                        stats.validated_rejects
                    ),
                    (
                        delta.cache_hits,
                        delta.cache_misses,
                        delta.kernel_solves,
                        delta.simplex_solves,
                        delta.degraded,
                        delta.validated_rejects
                    ),
                    "{at}"
                );
                if round == 1 {
                    assert_eq!((stats.solved, stats.cache_hits), (0, 6), "{at}");
                }
            }
        }
    }

    #[test]
    fn zero_budget_drains_tag_every_degraded_occurrence_and_cache_nothing() {
        let config = ServeConfig::default().solve_budget(0);
        let mut server = Server::new(&config);
        // Two occurrences of the same floored key plus one healthy query.
        server.submit(q(0.5).with_floor(0.05, 0.05)).unwrap();
        server.submit(q(0.5).with_floor(0.05, 0.05)).unwrap();
        server.submit(q(0.9)).unwrap();
        let answers = server.drain();
        for a in &answers[..2] {
            let d = a.as_ref().unwrap();
            assert!(
                matches!(d.served_from, ServedFrom::Degraded { .. }),
                "every occurrence of a degraded miss is tagged Degraded, got {:?}",
                d.served_from
            );
            assert_eq!(d.protocol, Protocol::DirectTransmission);
        }
        assert_eq!(answers[2].as_ref().unwrap().served_from, ServedFrom::Kernel);
        assert_eq!(server.last_batch().degraded, 2);
        assert_eq!(
            server.engine_mut().cache().len(),
            1,
            "only the healthy decision was cached"
        );
        // Serial and batched chaos answers agree bitwise.
        let mut engine = Engine::new(&config);
        let serial = engine.serve(&q(0.5).with_floor(0.05, 0.05)).unwrap();
        let batched = answers[0].as_ref().unwrap();
        assert_eq!(serial.sum_rate.to_bits(), batched.sum_rate.to_bits());
        assert_eq!(serial.served_from, batched.served_from);
    }

    #[test]
    fn degraded_miss_cost_counts_every_attempt_and_the_fallback() {
        // A floored miss selects over four LP solves; at budget 0 it
        // degrades, and the direct-transmission fallback costs one more.
        let floored = q(0.5).with_floor(0.05, 0.05);
        let config = ServeConfig::default().solve_budget(0).threads(1);
        let (answer, cost) = crate::stats::scoped(|| Engine::new(&config).serve(&floored));
        assert!(matches!(
            answer.unwrap().served_from,
            ServedFrom::Degraded { .. }
        ));
        assert_eq!(
            (cost.simplex_solves, cost.kernel_solves, cost.degraded),
            (5, 0, 1)
        );

        let mut server = Server::new(&config);
        server.submit(floored).unwrap();
        server.drain();
        let batch = server.last_batch();
        assert_eq!(
            (batch.simplex_solves, batch.kernel_solves, batch.degraded),
            (5, 0, 1)
        );

        let unbudgeted = ServeConfig::default().threads(1);
        let (_, cost) = crate::stats::scoped(|| Engine::new(&unbudgeted).serve(&floored));
        assert_eq!((cost.simplex_solves, cost.degraded), (4, 0));
    }
}
