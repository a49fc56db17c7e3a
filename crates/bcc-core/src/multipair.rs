//! Multi-pair bi-directional relay networks: `K` terminal pairs sharing
//! one half-duplex relay.
//!
//! The paper's bounds cover a single pair `(a, b)` exchanging messages
//! through one relay. Following Kim, Smida & Devroye, *Achievable rate
//! regions and outer bounds for a multi-pair bi-directional relay
//! network* (arXiv:1002.0123), the natural `K`-pair generalisation keeps
//! the relay half-duplex and the phases contiguous, so the pairs are
//! served **orthogonally in time**: the relay runs pair `k`'s protocol
//! phases for a fraction `θ_k` of the block, `Σ_k θ_k = 1`. Each pair
//! carries its own gains and per-node
//! [`PowerSplit`](bcc_channel::PowerSplit) (a [`PairSet`] is a list of
//! [`GaussianNetwork`]s), and because the per-phase power
//! constraints are per-transmission, the pairs do not interact except
//! through the shared time budget.
//!
//! # The decoupling theorem (why the closed forms are exact)
//!
//! The joint `K`-pair schedule LP has variables
//! `(R_a^k, R_b^k, Δ_{k,1}..Δ_{k,L_k})_k` with each pair's Theorem-2/3/5
//! rows and the shared budget `Σ_{k,ℓ} Δ_{k,ℓ} = 1`. Every row is
//! jointly homogeneous of degree one in its pair's own variables, so for
//! a *fixed* time budget `θ_k = Σ_ℓ Δ_{k,ℓ}` the inner optimum of pair
//! `k` is `θ_k` times its per-unit-time optimum — the single-pair solve
//! this workspace already performs through [`SolveCtx`]. The outer
//! problem over `(θ_1..θ_K)` on the simplex is then one-dimensional per
//! pair and solvable in closed form:
//!
//! * **sum rate, joint**: maximise `Σ_k θ_k·S_k` — a linear function,
//!   optimal at a vertex: *all time to the best pair*, value
//!   `max_k S_k`;
//! * **sum rate, time-shared** (equal shares `θ_k = 1/K`): value
//!   `(1/K)·Σ_k S_k`;
//! * **fair (max–min per-user) rate, joint**: maximise `t` subject to
//!   `θ_k·m_k ≥ t`, where `m_k` is pair `k`'s per-unit-time max–min
//!   rate; all constraints bind at the optimum, giving the harmonic form
//!   `t* = 1 / Σ_k (1/m_k)` with shares `θ_k = t*/m_k`;
//! * **fair rate, time-shared**: `min_k m_k / K`.
//!
//! Joint scheduling therefore dominates time-sharing in both metrics for
//! every `K` (the equal-share point is feasible for the joint problem) —
//! a property pinned by `bcc-core/tests/dominance.rs`, which also checks
//! the closed forms against an explicitly assembled joint LP.
//!
//! The per-pair solves run through the same [`SolveCtx`] batch context
//! as the single-pair evaluator — closed-form kernel for the two-phase
//! protocols (and TDBC sum rates), warm-started flat-tableau simplex on
//! the [`ConstraintBuf`](crate::constraint::ConstraintBuf) arena
//! otherwise — so a `K`-pair grid point performs **no heap allocation**
//! in the solver after warm-up, and `K = 1` reduces *bitwise* to the
//! single-pair [`Evaluator`](crate::scenario::Evaluator) path (the
//! anchor of `bcc/tests/multipair_reduction.rs`).
//!
//! # Example
//!
//! ```
//! use bcc_core::prelude::*;
//!
//! // Two pairs share the relay: one relay-advantaged, one nearly direct.
//! let pairs = PairSet::new(vec![
//!     GaussianNetwork::from_db(Db::new(10.0), Db::new(-7.0), Db::new(0.0), Db::new(5.0)),
//!     GaussianNetwork::from_db(Db::new(10.0), Db::new(0.0), Db::new(-10.0), Db::new(-10.0)),
//! ]);
//! let result = Scenario::pairs("network", [(0.0, pairs)])
//!     .build()
//!     .sweep()
//!     .unwrap();
//! let joint = result.sum_rate(Protocol::Hbc, 0, Schedule::Joint);
//! let shared = result.sum_rate(Protocol::Hbc, 0, Schedule::TimeShare);
//! assert!(joint >= shared - 1e-12, "joint scheduling dominates");
//! ```
//!
//! [`SolveCtx`]: crate::kernel::SolveCtx

use crate::batch::DEFAULT_BLOCK;
use crate::error::CoreError;
use crate::gaussian::{GaussianNetwork, SumRateSolution};
use crate::kernel::{par_blocks, SolveOutcome, SolveRequest};
use crate::optimizer::SchedulePoint;
use crate::protocol::{Bound, Protocol, ProtocolMap};
use crate::scenario::{fading_samples, fading_study, FadingSpec, Scenario};
use bcc_channel::fading::FadingModel;
use bcc_num::Db;

/// `K` terminal pairs sharing one half-duplex relay: each pair carries
/// its own gains and per-node powers as a full [`GaussianNetwork`]
/// (pair `k`'s `p_r` is the relay's transmit power while serving that
/// pair — per-phase power constraints keep the pairs decoupled).
#[derive(Debug, Clone, PartialEq)]
pub struct PairSet {
    pairs: Vec<GaussianNetwork>,
}

impl PairSet {
    /// Creates a pair set.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty.
    pub fn new(pairs: Vec<GaussianNetwork>) -> Self {
        assert!(!pairs.is_empty(), "a pair set needs at least one pair");
        PairSet { pairs }
    }

    /// `k` identical copies of `net` — the symmetric-load workload.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn replicated(k: usize, net: GaussianNetwork) -> Self {
        PairSet::new(vec![net; k])
    }

    /// Number of pairs `K`.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `false` always (an empty set cannot be constructed); provided for
    /// clippy-idiomatic `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pairs, in index order.
    pub fn pairs(&self) -> &[GaussianNetwork] {
        &self.pairs
    }

    /// Pair `k`'s network.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn get(&self, k: usize) -> &GaussianNetwork {
        &self.pairs[k]
    }

    /// Iterates the pairs in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, GaussianNetwork> {
        self.pairs.iter()
    }

    /// Same gains per pair, every node at the common linear power `p` —
    /// the SNR-sweep constructor.
    pub fn with_power(&self, p: f64) -> Self {
        PairSet {
            pairs: self.pairs.iter().map(|n| n.with_power(p)).collect(),
        }
    }

    /// [`PairSet::with_power`] in dB.
    pub fn with_power_db(&self, p: Db) -> Self {
        self.with_power(p.to_linear())
    }
}

impl<'a> IntoIterator for &'a PairSet {
    type Item = &'a GaussianNetwork;
    type IntoIter = std::slice::Iter<'a, GaussianNetwork>;
    fn into_iter(self) -> Self::IntoIter {
        self.pairs.iter()
    }
}

/// How the relay divides the block among the `K` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Equal time shares `θ_k = 1/K` — the TDMA baseline.
    TimeShare,
    /// Time shares optimised jointly with every pair's internal phase
    /// durations (one LP over all pairs; solved in closed form via the
    /// decoupling theorem — see the module docs).
    Joint,
}

impl Schedule {
    /// Aggregates per-pair sum rates `S_k` into this schedule's network
    /// sum rate: the equal-share mean for [`Schedule::TimeShare`], the
    /// best pair's rate for [`Schedule::Joint`] (the decoupling theorem
    /// of the module docs). Shared by the evaluator and the `bcc-sim`
    /// Monte-Carlo twin so the two paths aggregate bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `per_pair` is empty.
    pub fn aggregate_sum_rates(self, per_pair: &[f64]) -> f64 {
        assert!(!per_pair.is_empty(), "need at least one pair rate");
        aggregate_sum(per_pair.iter().copied(), per_pair.len(), self)
    }

    /// Aggregates per-pair max–min rates `m_k` into this schedule's
    /// common per-user (fair) rate.
    ///
    /// # Panics
    ///
    /// Panics if `per_pair` is empty.
    pub fn aggregate_fair_rates(self, per_pair: &[f64]) -> f64 {
        assert!(!per_pair.is_empty(), "need at least one pair rate");
        aggregate_fair(per_pair.iter().copied(), per_pair.len(), self)
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Schedule::TimeShare => write!(f, "time-share"),
            Schedule::Joint => write!(f, "joint"),
        }
    }
}

/// Both scheduling modes, in presentation order.
pub const SCHEDULES: [Schedule; 2] = [Schedule::TimeShare, Schedule::Joint];

/// One pair's per-unit-time optima under one protocol bound — the
/// building block every multi-pair aggregate is assembled from.
#[derive(Debug, Clone, PartialEq)]
pub struct PairSolution {
    /// The pair's sum-rate optimum (`S_k` of the module docs). For
    /// `K = 1` this is bitwise the single-pair evaluator's solution.
    pub sum: SumRateSolution,
    /// The pair's equal-rate (max–min) optimum; `fair.objective` is
    /// `m_k`, the largest rate both users can sustain simultaneously.
    pub fair: SchedulePoint,
}

/// Multi-pair batch description: a grid of [`PairSet`]s (all with the
/// same `K`), a protocol set, a bound side and an optional fading study —
/// the `K`-pair sibling of [`Scenario`], built with
/// [`Scenario::pairs`] and compiled by [`MultiPairScenario::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPairScenario {
    x_name: String,
    points: Vec<(f64, PairSet)>,
    k: usize,
    protocols: Vec<Protocol>,
    bound: Bound,
    fading: Option<FadingSpec>,
    threads: Option<usize>,
}

impl MultiPairScenario {
    /// An arbitrary `(x, pair set)` grid under a caller-chosen axis label.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or the pair counts disagree across
    /// grid points.
    pub fn networks(
        x_name: impl Into<String>,
        points: impl IntoIterator<Item = (f64, PairSet)>,
    ) -> Self {
        let points: Vec<(f64, PairSet)> = points.into_iter().collect();
        assert!(
            !points.is_empty(),
            "a multi-pair scenario needs at least one grid point"
        );
        let k = points[0].1.len();
        for (x, ps) in &points {
            assert_eq!(
                ps.len(),
                k,
                "pair count must be constant across the grid (x = {x})"
            );
        }
        MultiPairScenario {
            x_name: x_name.into(),
            points,
            k,
            protocols: Protocol::ALL.to_vec(),
            bound: Bound::Inner,
            fading: None,
            threads: None,
        }
    }

    /// Sweeps the common per-node transmit power (dB) at `base`'s gains —
    /// the SNR axis of the multi-pair study.
    ///
    /// # Panics
    ///
    /// Panics if `powers_db` is empty.
    pub fn power_sweep_db(base: &PairSet, powers_db: impl IntoIterator<Item = f64>) -> Self {
        MultiPairScenario::networks(
            "power [dB]",
            powers_db
                .into_iter()
                .map(|p| (p, base.with_power_db(Db::new(p)))),
        )
    }

    /// Restricts the evaluation to `protocols` (default: all four).
    ///
    /// # Panics
    ///
    /// Panics if `protocols` is empty or contains duplicates.
    pub fn protocols(mut self, protocols: impl IntoIterator<Item = Protocol>) -> Self {
        let protocols: Vec<Protocol> = protocols.into_iter().collect();
        assert!(!protocols.is_empty(), "need at least one protocol");
        let mut seen = ProtocolMap::new();
        for &p in &protocols {
            assert!(seen.insert(p, ()).is_none(), "duplicate protocol {p}");
        }
        self.protocols = protocols;
        self
    }

    /// Selects which side of each bound to evaluate (default:
    /// [`Bound::Inner`]) in [`MultiPairEvaluator::sweep`].
    ///
    /// [`MultiPairEvaluator::outage`] solves the inner optimum and
    /// **panics** on [`Bound::Outer`], rather than silently ignoring it.
    pub fn bound(mut self, bound: Bound) -> Self {
        self.bound = bound;
        self
    }

    /// Attaches a quasi-static fading study (enables
    /// [`MultiPairEvaluator::outage`]): `trials` independent fades per
    /// link *per pair* per grid point, every pair drawing from its own
    /// decorrelated seed stream.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn fading(mut self, model: FadingModel, trials: usize, seed: u64) -> Self {
        assert!(trials > 0, "need at least one fading trial");
        self.fading = Some(FadingSpec {
            model,
            trials,
            seed,
        });
        self
    }

    /// Shorthand for Rayleigh fading (the paper's model).
    pub fn rayleigh(self, trials: usize, seed: u64) -> Self {
        self.fading(FadingModel::Rayleigh, trials, seed)
    }

    /// Pins the evaluator's worker count (default: `BCC_THREADS`, then
    /// the machine's available parallelism). Results are bit-identical at
    /// every worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = Some(threads);
        self
    }

    /// Compiles the scenario into a reusable [`MultiPairEvaluator`].
    pub fn build(self) -> MultiPairEvaluator {
        MultiPairEvaluator { scenario: self }
    }
}

impl Scenario {
    /// A multi-pair batch over `(x, pair set)` grid points — the entry
    /// point of the `K`-pair workload (see the [`multipair`](crate::multipair)
    /// module docs). For `K = 1` every result reduces bitwise to this
    /// scenario's single-pair equivalent.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or the pair counts disagree across
    /// grid points.
    pub fn pairs(
        x_name: impl Into<String>,
        points: impl IntoIterator<Item = (f64, PairSet)>,
    ) -> MultiPairScenario {
        MultiPairScenario::networks(x_name, points)
    }
}

/// The compiled form of a [`MultiPairScenario`]: fans the flattened
/// `point × pair` network list across scoped worker threads in blocks,
/// one [`BlockSolver`](crate::kernel::BlockSolver) per worker.
#[derive(Debug)]
pub struct MultiPairEvaluator {
    scenario: MultiPairScenario,
}

impl MultiPairEvaluator {
    /// The grid being evaluated.
    pub fn points(&self) -> &[(f64, PairSet)] {
        &self.scenario.points
    }

    /// Number of pairs `K` (constant across the grid).
    pub fn num_pairs(&self) -> usize {
        self.scenario.k
    }

    /// The protocols being evaluated, in evaluation order.
    pub fn protocols(&self) -> &[Protocol] {
        &self.scenario.protocols
    }

    /// The effective worker count (override, else the global policy).
    pub fn thread_count(&self) -> usize {
        self.scenario
            .threads
            .unwrap_or_else(bcc_num::par::thread_count)
    }

    /// Runs the batched multi-pair evaluation: per grid point, pair and
    /// protocol, the pair's per-unit-time sum-rate and max–min optima.
    /// The flattened `point × pair` network list is fanned across the
    /// worker pool in [`DEFAULT_BLOCK`]-sized blocks by [`par_blocks`],
    /// and [`solve_block`](crate::kernel::SolveCtx::solve_block) runs
    /// each request on the lane kernels where it can and point by point
    /// otherwise (HBC's max–min, outer bounds). Aggregates for either
    /// [`Schedule`] are closed-form views over these solves.
    ///
    /// # Errors
    ///
    /// Propagates LP failures; when several points fail, the error is
    /// the first one of the lowest failing block, at any thread count.
    /// Unlike the single-pair sweep there is no infeasibility skip
    /// machinery: multi-pair scenarios carry no QoS floors, and
    /// well-posed Gaussian inputs are always feasible.
    pub fn sweep(&mut self) -> Result<MultiPairResult, CoreError> {
        let threads = self.thread_count();
        let sc = &self.scenario;
        let (k, nets) = (sc.k, sc.points.len() * sc.k);
        let requests: Vec<SolveRequest> = sc
            .protocols
            .iter()
            .flat_map(|&p| [SolveRequest::sum_rate(p), SolveRequest::max_min(p)])
            .map(|req| req.with_bound(sc.bound))
            .collect();
        // Each block returns one column of pair solutions per protocol.
        let mut blocks = par_blocks(threads, nets, DEFAULT_BLOCK, |solver, range| {
            let block = solver.fill();
            for idx in range {
                block.push_net(sc.points[idx / k].1.get(idx % k));
            }
            let outs = solver.solve(&requests)?;
            let solution = |(sum, fair): (&SolveOutcome, &SolveOutcome)| PairSolution {
                sum: sum.sum_rate_solution(),
                fair: fair.schedule_point(),
            };
            Ok(outs
                .chunks(2)
                .map(|c| c[0].iter().zip(&c[1]).map(solution).collect::<Vec<_>>())
                .collect::<Vec<_>>())
        })?;

        // Concatenate protocol-major: solutions[protocol][point * K + pair].
        let mut solutions: ProtocolMap<Vec<PairSolution>> = ProtocolMap::new();
        for (pi, &p) in sc.protocols.iter().enumerate() {
            let mut column = Vec::with_capacity(nets);
            for block in &mut blocks {
                column.append(&mut block[pi]);
            }
            solutions.insert(p, column);
        }
        Ok(MultiPairResult {
            x_name: sc.x_name.clone(),
            xs: sc.points.iter().map(|p| p.0).collect(),
            k,
            protocols: sc.protocols.clone(),
            solutions,
        })
    }

    /// Runs the scenario's multi-pair fading study: per grid point and
    /// trial, one i.i.d. fade per link **per pair** (each pair drawing
    /// from its own decorrelated stream of the master seed, all
    /// protocols sharing a trial's fades), then every pair's optimal sum
    /// rate under each protocol on the faded networks. The draws come
    /// from the single-pair evaluator's own sampler over the
    /// `point * K + pair` network list, so the result is bit-identical at
    /// any worker count, and for `K = 1` bitwise equal to
    /// [`Evaluator::outage`](crate::scenario::Evaluator::outage).
    ///
    /// No LP runs on a faded draw: the sampler solves every draw with the
    /// closed-form inner-bound kernels, which cannot fail (it `expect`s
    /// them to succeed).
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` keeps the signature parallel to
    /// [`MultiPairEvaluator::sweep`].
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no fading spec (see
    /// [`MultiPairScenario::fading`]) or carries the outer bound (see
    /// [`MultiPairScenario::bound`]).
    pub fn outage(&mut self) -> Result<MultiPairOutage, CoreError> {
        let sc = &self.scenario;
        let spec = fading_study(sc.fading, sc.bound, false);
        let nets: Vec<GaussianNetwork> =
            sc.points.iter().flat_map(|p| p.1.iter().copied()).collect();
        let samples = fading_samples(
            self.thread_count(),
            &nets,
            &sc.protocols,
            &spec,
            DEFAULT_BLOCK,
        );
        Ok(MultiPairOutage {
            x_name: sc.x_name.clone(),
            xs: sc.points.iter().map(|p| p.0).collect(),
            k: sc.k,
            spec,
            protocols: sc.protocols.clone(),
            samples,
        })
    }
}

/// Aggregates per-pair sum rates `S_k` into the schedule's network sum
/// rate (see the module-docs decoupling theorem).
fn aggregate_sum(sum_rates: impl Iterator<Item = f64> + Clone, k: usize, s: Schedule) -> f64 {
    match s {
        Schedule::TimeShare => sum_rates.sum::<f64>() / k as f64,
        Schedule::Joint => sum_rates.fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Aggregates per-pair max–min rates `m_k` into the schedule's common
/// per-user (fair) rate. A pair with `m_k = 0` forces 0 — no positive
/// rate can be guaranteed to everyone.
fn aggregate_fair(min_rates: impl Iterator<Item = f64> + Clone, k: usize, s: Schedule) -> f64 {
    match s {
        Schedule::TimeShare => min_rates.fold(f64::INFINITY, f64::min) / k as f64,
        Schedule::Joint => {
            if k == 1 {
                // The harmonic form 1/(1/m) can drift by an ulp; K = 1
                // must reduce to the pair's own max–min rate exactly.
                return min_rates.clone().next().expect("K >= 1");
            }
            if min_rates.clone().any(|m| m <= 0.0) {
                return 0.0;
            }
            1.0 / min_rates.map(|m| 1.0 / m).sum::<f64>()
        }
    }
}

/// The output of [`MultiPairEvaluator::sweep`]: every pair's
/// per-unit-time optima at every grid point, keyed by pair index and
/// [`Protocol`], with closed-form schedule aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPairResult {
    /// Human-readable name of the swept parameter.
    pub x_name: String,
    /// The grid coordinates, in sweep order.
    pub xs: Vec<f64>,
    k: usize,
    protocols: Vec<Protocol>,
    /// `solutions[protocol][point * K + pair]`.
    solutions: ProtocolMap<Vec<PairSolution>>,
}

impl MultiPairResult {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` if the grid is empty (never produced by an evaluator).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Number of pairs `K`.
    pub fn num_pairs(&self) -> usize {
        self.k
    }

    /// The protocols evaluated, in evaluation order.
    pub fn protocols(&self) -> &[Protocol] {
        &self.protocols
    }

    /// Pair `pair`'s solution under `protocol` at grid point `point`.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not evaluated or an index is out of
    /// range.
    pub fn solution(&self, protocol: Protocol, point: usize, pair: usize) -> &PairSolution {
        assert!(
            pair < self.k,
            "pair index {pair} out of range (K = {})",
            self.k
        );
        let sols = self
            .solutions
            .get(protocol)
            .unwrap_or_else(|| panic!("{protocol} was not part of the scenario"));
        &sols[point * self.k + pair]
    }

    /// The network sum rate of `protocol` at grid point `point` under
    /// `schedule` (closed-form aggregate — see the module docs).
    pub fn sum_rate(&self, protocol: Protocol, point: usize, schedule: Schedule) -> f64 {
        aggregate_sum(
            (0..self.k).map(|p| self.solution(protocol, point, p).sum.sum_rate),
            self.k,
            schedule,
        )
    }

    /// The fair (max–min per-user) rate of `protocol` at grid point
    /// `point` under `schedule`: the largest rate every user of every
    /// pair can be guaranteed simultaneously.
    pub fn fair_rate(&self, protocol: Protocol, point: usize, schedule: Schedule) -> f64 {
        aggregate_fair(
            (0..self.k).map(|p| self.solution(protocol, point, p).fair.objective),
            self.k,
            schedule,
        )
    }

    /// The jointly optimal fair-schedule time shares `θ_k = t*/m_k` at
    /// `(protocol, point)`; uniform shares when no positive common rate
    /// exists (some `m_k = 0`).
    pub fn joint_fair_shares(&self, protocol: Protocol, point: usize) -> Vec<f64> {
        let t = self.fair_rate(protocol, point, Schedule::Joint);
        if t <= 0.0 {
            return vec![1.0 / self.k as f64; self.k];
        }
        (0..self.k)
            .map(|p| t / self.solution(protocol, point, p).fair.objective)
            .collect()
    }

    /// The schedule's sum-rate series of `protocol` as `(x, rate)` pairs
    /// — the shape the plotting crate consumes.
    pub fn sum_rate_series(&self, protocol: Protocol, schedule: Schedule) -> Vec<(f64, f64)> {
        self.xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, self.sum_rate(protocol, i, schedule)))
            .collect()
    }

    /// The schedule's fair-rate series of `protocol` as `(x, rate)`
    /// pairs.
    pub fn fair_rate_series(&self, protocol: Protocol, schedule: Schedule) -> Vec<(f64, f64)> {
        self.xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, self.fair_rate(protocol, i, schedule)))
            .collect()
    }
}

/// The output of [`MultiPairEvaluator::outage`]: per-protocol,
/// per-(grid point, pair) Monte-Carlo sum-rate samples under
/// quasi-static fading, with per-trial schedule aggregates.
///
/// Fair-rate (max–min) statistics are a deterministic-sweep quantity
/// ([`MultiPairResult::fair_rate`]); the fading study tracks the
/// sum-rate metrics, mirroring the single-pair
/// [`OutageResult`](crate::scenario::OutageResult).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPairOutage {
    /// Human-readable name of the swept parameter.
    pub x_name: String,
    /// The grid coordinates.
    pub xs: Vec<f64>,
    k: usize,
    /// The fading specification the samples were drawn under.
    pub spec: FadingSpec,
    protocols: Vec<Protocol>,
    /// `samples[protocol][point * K + pair][trial]`.
    samples: ProtocolMap<Vec<Vec<f64>>>,
}

impl MultiPairOutage {
    /// Number of pairs `K`.
    pub fn num_pairs(&self) -> usize {
        self.k
    }

    /// The protocols evaluated, in evaluation order.
    pub fn protocols(&self) -> &[Protocol] {
        &self.protocols
    }

    /// The raw per-trial sum rates of `(protocol, pair)` at grid point
    /// `point`.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not evaluated or an index is out of
    /// range.
    pub fn samples(&self, protocol: Protocol, point: usize, pair: usize) -> &[f64] {
        assert!(
            pair < self.k,
            "pair index {pair} out of range (K = {})",
            self.k
        );
        &self
            .samples
            .get(protocol)
            .unwrap_or_else(|| panic!("{protocol} was not part of the scenario"))
            [point * self.k + pair]
    }

    /// Per-trial network sum rates of `protocol` at grid point `point`
    /// under `schedule`: per trial, the equal-share mean
    /// (`TimeShare`) or the best pair's rate (`Joint` — full CSI lets
    /// the scheduler follow the momentarily strongest pair).
    pub fn schedule_samples(
        &self,
        protocol: Protocol,
        point: usize,
        schedule: Schedule,
    ) -> Vec<f64> {
        let trials = self.samples(protocol, point, 0).len();
        (0..trials)
            .map(|t| {
                aggregate_sum(
                    (0..self.k).map(|p| self.samples(protocol, point, p)[t]),
                    self.k,
                    schedule,
                )
            })
            .collect()
    }

    /// `P[schedule sum rate < target]` for `protocol` at grid point
    /// `point`.
    ///
    /// `None` means **unresolved**: no trial fell below a positive
    /// target, so the estimate sits under the `1/trials` resolution
    /// floor. A non-positive target resolves to `Some(0.0)` exactly.
    pub fn outage_probability(
        &self,
        protocol: Protocol,
        point: usize,
        schedule: Schedule,
        target: f64,
    ) -> Option<f64> {
        if target <= 0.0 {
            return Some(0.0);
        }
        let s = self.schedule_samples(protocol, point, schedule);
        let hits = s.iter().filter(|&&v| v < target).count();
        if hits == 0 {
            None
        } else {
            Some(hits as f64 / s.len() as f64)
        }
    }

    /// Ergodic (fading-averaged) schedule sum rate of `protocol` at grid
    /// point `point`.
    pub fn ergodic(&self, protocol: Protocol, point: usize, schedule: Schedule) -> f64 {
        let s = self.schedule_samples(protocol, point, schedule);
        s.iter().sum::<f64>() / s.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_channel::ChannelState;

    fn fig4_net(p_db: f64) -> GaussianNetwork {
        GaussianNetwork::from_db(Db::new(p_db), Db::new(-7.0), Db::new(0.0), Db::new(5.0))
    }

    fn two_pairs(p_db: f64) -> PairSet {
        PairSet::new(vec![
            fig4_net(p_db),
            GaussianNetwork::new(Db::new(p_db).to_linear(), ChannelState::new(1.0, 0.5, 0.5)),
        ])
    }

    #[test]
    fn pair_set_basics() {
        let ps = two_pairs(10.0);
        assert_eq!(ps.len(), 2);
        assert!(!ps.is_empty());
        assert_eq!(ps.get(0), &ps.pairs()[0]);
        assert_eq!(ps.iter().count(), 2);
        let boosted = ps.with_power_db(Db::new(20.0));
        assert_eq!(boosted.get(0).state(), ps.get(0).state());
        assert!((boosted.get(1).power().unwrap() - 100.0).abs() < 1e-9);
        let rep = PairSet::replicated(3, fig4_net(0.0));
        assert_eq!(rep.len(), 3);
        assert_eq!(rep.get(0), rep.get(2));
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn empty_pair_set_rejected() {
        let _ = PairSet::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "constant across the grid")]
    fn mixed_pair_counts_rejected() {
        let _ = Scenario::pairs(
            "x",
            [
                (0.0, PairSet::replicated(2, fig4_net(0.0))),
                (1.0, PairSet::replicated(3, fig4_net(0.0))),
            ],
        );
    }

    #[test]
    fn aggregates_match_hand_formulas() {
        let mut ev = Scenario::pairs("network", [(0.0, two_pairs(10.0))]).build();
        let r = ev.sweep().unwrap();
        assert_eq!(r.num_pairs(), 2);
        for proto in Protocol::ALL {
            let s0 = r.solution(proto, 0, 0).sum.sum_rate;
            let s1 = r.solution(proto, 0, 1).sum.sum_rate;
            assert_eq!(
                r.sum_rate(proto, 0, Schedule::TimeShare),
                (s0 + s1) / 2.0,
                "{proto}"
            );
            assert_eq!(r.sum_rate(proto, 0, Schedule::Joint), s0.max(s1), "{proto}");
            let m0 = r.solution(proto, 0, 0).fair.objective;
            let m1 = r.solution(proto, 0, 1).fair.objective;
            assert_eq!(
                r.fair_rate(proto, 0, Schedule::TimeShare),
                m0.min(m1) / 2.0,
                "{proto}"
            );
            let joint = r.fair_rate(proto, 0, Schedule::Joint);
            assert!(
                (joint - 1.0 / (1.0 / m0 + 1.0 / m1)).abs() < 1e-12,
                "{proto}"
            );
            // Shares implement the harmonic optimum and sum to one.
            let shares = r.joint_fair_shares(proto, 0);
            assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{proto}");
            assert!((shares[0] * m0 - joint).abs() < 1e-9, "{proto}");
        }
    }

    #[test]
    fn per_pair_solutions_match_single_pair_queries() {
        let ps = two_pairs(8.0);
        let mut ev = Scenario::pairs("network", [(0.0, ps.clone())]).build();
        let r = ev.sweep().unwrap();
        for (pair, net) in ps.iter().enumerate() {
            for proto in Protocol::ALL {
                let direct = net.max_sum_rate(proto).unwrap();
                assert_eq!(
                    &r.solution(proto, 0, pair).sum,
                    &direct,
                    "{proto} pair {pair}"
                );
            }
        }
    }

    #[test]
    fn joint_dominates_time_share() {
        let base = two_pairs(0.0);
        let mut ev = MultiPairScenario::power_sweep_db(&base, [-5.0, 5.0, 15.0]).build();
        let r = ev.sweep().unwrap();
        for proto in Protocol::ALL {
            for i in 0..r.len() {
                assert!(
                    r.sum_rate(proto, i, Schedule::Joint)
                        >= r.sum_rate(proto, i, Schedule::TimeShare) - 1e-12,
                    "{proto} point {i}"
                );
                assert!(
                    r.fair_rate(proto, i, Schedule::Joint)
                        >= r.fair_rate(proto, i, Schedule::TimeShare) - 1e-12,
                    "{proto} point {i}"
                );
            }
        }
    }

    #[test]
    fn replicated_pairs_make_schedules_agree_on_sum() {
        // K identical pairs: mean == max, so the schedules coincide.
        let ps = PairSet::replicated(3, fig4_net(10.0));
        let mut ev = Scenario::pairs("network", [(0.0, ps)]).build();
        let r = ev.sweep().unwrap();
        for proto in Protocol::ALL {
            let a = r.sum_rate(proto, 0, Schedule::TimeShare);
            let b = r.sum_rate(proto, 0, Schedule::Joint);
            assert!((a - b).abs() < 1e-12, "{proto}: {a} vs {b}");
        }
    }

    #[test]
    fn sweep_thread_override_bit_identical() {
        let base = two_pairs(0.0);
        let scenario = MultiPairScenario::power_sweep_db(&base, (-4..=8).map(f64::from));
        let serial = scenario.clone().threads(1).build().sweep().unwrap();
        for threads in [2, 4, 8] {
            let par = scenario.clone().threads(threads).build().sweep().unwrap();
            assert_eq!(serial, par, "sweep differs at {threads} threads");
        }
    }

    #[test]
    fn outage_thread_override_bit_identical() {
        let scenario = Scenario::pairs("network", [(0.0, two_pairs(10.0))]).rayleigh(50, 0xABCD);
        let serial = scenario.clone().threads(1).build().outage().unwrap();
        let par = scenario.threads(4).build().outage().unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    #[should_panic(expected = "bound(Bound::Outer) applies to sweeps only")]
    fn outage_rejects_outer_bound() {
        let _ = Scenario::pairs("network", [(0.0, two_pairs(10.0))])
            .bound(Bound::Outer)
            .rayleigh(10, 7)
            .build()
            .outage();
    }

    #[test]
    fn outage_pairs_have_decorrelated_streams() {
        // Two *identical* pairs under fading must still see different
        // fades (per-pair streams), while each trial's fades are shared
        // across protocols (dominance survives into the samples).
        let ps = PairSet::replicated(2, fig4_net(10.0));
        let out = Scenario::pairs("network", [(0.0, ps)])
            .rayleigh(40, 7)
            .build()
            .outage()
            .unwrap();
        assert_ne!(
            out.samples(Protocol::Hbc, 0, 0),
            out.samples(Protocol::Hbc, 0, 1),
            "identical pairs must fade independently"
        );
        for pair in 0..2 {
            let hbc = out.samples(Protocol::Hbc, 0, pair);
            let mabc = out.samples(Protocol::Mabc, 0, pair);
            for t in 0..hbc.len() {
                assert!(hbc[t] >= mabc[t] - 1e-8, "pair {pair} trial {t}");
            }
        }
    }

    #[test]
    fn outage_schedule_samples_aggregate_per_trial() {
        let out = Scenario::pairs("network", [(0.0, two_pairs(10.0))])
            .rayleigh(25, 3)
            .build()
            .outage()
            .unwrap();
        let a = out.samples(Protocol::Mabc, 0, 0);
        let b = out.samples(Protocol::Mabc, 0, 1);
        let shared = out.schedule_samples(Protocol::Mabc, 0, Schedule::TimeShare);
        let joint = out.schedule_samples(Protocol::Mabc, 0, Schedule::Joint);
        for t in 0..a.len() {
            assert_eq!(shared[t], (a[t] + b[t]) / 2.0);
            assert_eq!(joint[t], a[t].max(b[t]));
            assert!(joint[t] >= shared[t]);
        }
        // Ergodic / outage summaries are consistent with the samples.
        let erg = out.ergodic(Protocol::Mabc, 0, Schedule::Joint);
        assert!((erg - joint.iter().sum::<f64>() / joint.len() as f64).abs() < 1e-12);
        assert_eq!(
            out.outage_probability(Protocol::Mabc, 0, Schedule::Joint, 0.0),
            Some(0.0)
        );
        assert_eq!(
            out.outage_probability(Protocol::Mabc, 0, Schedule::Joint, 1e9),
            Some(1.0)
        );
    }

    #[test]
    fn protocol_subset_only_evaluates_selection() {
        let mut ev = Scenario::pairs("network", [(0.0, two_pairs(5.0))])
            .protocols([Protocol::Mabc])
            .build();
        let r = ev.sweep().unwrap();
        assert_eq!(r.protocols(), &[Protocol::Mabc]);
        let _ = r.solution(Protocol::Mabc, 0, 0);
    }

    #[test]
    #[should_panic(expected = "not part of the scenario")]
    fn unevaluated_protocol_panics() {
        let mut ev = Scenario::pairs("network", [(0.0, two_pairs(5.0))])
            .protocols([Protocol::Mabc])
            .build();
        let r = ev.sweep().unwrap();
        let _ = r.solution(Protocol::Hbc, 0, 0);
    }

    #[test]
    fn outer_bound_dominates_inner_per_pair() {
        let sc = Scenario::pairs("network", [(0.0, two_pairs(10.0))]);
        let inner = sc.clone().build().sweep().unwrap();
        let outer = sc.bound(Bound::Outer).build().sweep().unwrap();
        for proto in Protocol::ALL {
            for pair in 0..2 {
                let i = inner.solution(proto, 0, pair).sum.sum_rate;
                let o = outer.solution(proto, 0, pair).sum.sum_rate;
                assert!(o >= i - 1e-7, "{proto} pair {pair}: outer {o} < inner {i}");
            }
        }
    }

    #[test]
    fn fair_rate_zero_when_a_pair_is_dead() {
        // A dead pair (zero power) pins the guaranteed common rate to 0
        // under both schedules, but leaves the joint sum rate at the
        // live pair's optimum.
        let ps = PairSet::new(vec![
            fig4_net(10.0),
            GaussianNetwork::new(0.0, ChannelState::new(1.0, 1.0, 1.0)),
        ]);
        let mut ev = Scenario::pairs("network", [(0.0, ps)]).build();
        let r = ev.sweep().unwrap();
        for s in SCHEDULES {
            assert_eq!(r.fair_rate(Protocol::Mabc, 0, s), 0.0, "{s}");
        }
        let live = r.solution(Protocol::Mabc, 0, 0).sum.sum_rate;
        assert_eq!(r.sum_rate(Protocol::Mabc, 0, Schedule::Joint), live);
        let shares = r.joint_fair_shares(Protocol::Mabc, 0);
        assert_eq!(
            shares,
            vec![0.5, 0.5],
            "degenerate case falls back to uniform"
        );
    }
}
