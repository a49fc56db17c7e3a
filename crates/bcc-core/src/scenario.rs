//! The unified batch-evaluation API: declare *what* to evaluate with a
//! builder-style [`Scenario`], compile it into an [`Evaluator`], and run
//! every figure/bench/test workload through one code path.
//!
//! The paper's deliverable is *comparing* protocols across operating
//! points — SNR sweeps (Fig. 3), relay-position sweeps (Fig. 4),
//! fading/outage studies — and before this module every consumer
//! hand-rolled its own loop over
//! [`GaussianNetwork::max_sum_rate`]. A scenario instead captures
//!
//! * a **grid**: one network, a power sweep, a symmetric-relay-gain sweep,
//!   a relay-position sweep, or an arbitrary `(x, network)` list;
//! * a **protocol set** (default: all four);
//! * a **bound selection** (default: achievable/inner);
//! * an optional **fading distribution** with a trial budget and seed;
//!
//! and the compiled evaluator runs the whole grid *batched and parallel*:
//! grid points (and fading trials) fan out over a scoped worker pool
//! ([`bcc_num::par`]), each worker reusing one private
//! [`SolveCtx`] batch context — closed-form kernel for the
//! two-phase protocols, warm-started flat-tableau simplex with a reusable
//! constraint arena otherwise — so the steady-state hot loop performs no
//! heap allocation per grid point. Results come back as typed values —
//! [`SweepResult`],
//! [`ComparisonResult`], [`RegionResult`], [`OutageResult`] — with
//! per-protocol series keyed by [`Protocol`] (constant-time lookup, no
//! `Protocol::ALL` position searches).
//!
//! # Parallelism & determinism
//!
//! Every evaluator method produces **bit-identical results at any worker
//! count**: each grid point's LP solves depend only on that point (the
//! LP solver's output is independent of workspace history), and fading
//! trials draw from decorrelated per-trial streams
//! ([`trial_stream`]) rather than one sequential RNG. The worker count
//! comes from [`Scenario::threads`] if set, else the `BCC_THREADS`
//! environment variable, else the machine's available parallelism —
//! `BCC_THREADS=1` is a drop-in serial oracle for any run.
//!
//! # Example: a Fig. 3 relay-position sweep
//!
//! ```
//! use bcc_core::prelude::*;
//!
//! let sweep = Scenario::relay_position_sweep(15.0, 3.0, (1..=19).map(|k| k as f64 / 20.0))
//!     .unwrap()
//!     .build()
//!     .sweep()
//!     .unwrap();
//! // HBC strictly wins somewhere mid-span (the paper's wedge):
//! assert!(!sweep.strict_wins(Protocol::Hbc, 1e-6).is_empty());
//! // DT ignores the relay position entirely:
//! let dt = sweep.series(Protocol::DirectTransmission).unwrap();
//! assert!((dt.sum_rates()[0] - dt.sum_rates()[18]).abs() < 1e-8);
//! ```

use crate::error::CoreError;
use crate::gaussian::{GaussianNetwork, SumRateSolution};
use crate::kernel::{par_blocks, SolveCtx, SolveRequest};
use crate::protocol::{protocol_set, Bound, Protocol, ProtocolMap};
use crate::region::{RatePoint, RateRegion};
use bcc_channel::fading::FadingModel;
use bcc_channel::topology::LineNetwork;
use bcc_channel::{ChannelState, PowerSplit};
use bcc_num::faults::{self, FaultPlan, FaultScope, FaultSite};
use bcc_num::{par, Db};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixes `(seed, k)` into a decorrelated child seed (SplitMix64
/// finalisation). This is the workspace-wide seeding policy: all
/// Monte-Carlo drivers and topology generators derive per-stream seeds
/// through this function so stream `i` is independent of how much
/// randomness stream `i - 1` consumed. The definition lives in
/// [`bcc_num::seed`] (re-exported here unchanged) so the channel
/// substrate's placement generators share it.
pub use bcc_num::seed::mix_seed;

/// The deterministic RNG stream of trial `k` under master seed `seed`.
pub fn trial_stream(seed: u64, k: u64) -> StdRng {
    StdRng::seed_from_u64(mix_seed(seed, k))
}

/// A quasi-static fading study attached to a scenario: `trials`
/// independent per-link fades per grid point, drawn from `model` with the
/// deterministic seeding policy of [`trial_stream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadingSpec {
    /// The per-link fading distribution (unit mean power).
    pub model: FadingModel,
    /// Monte-Carlo trials per grid point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

/// One point of a scenario grid: the swept coordinate and the network to
/// evaluate there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// The swept parameter value (dB, position, … per the axis label).
    pub x: f64,
    /// The network at this point.
    pub net: GaussianNetwork,
}

/// Declarative description of a batch evaluation (see the module docs).
///
/// Construct with one of the grid constructors, refine with the chained
/// builder methods, then [`Scenario::build`] the [`Evaluator`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub(crate) x_name: String,
    pub(crate) points: Vec<GridPoint>,
    pub(crate) protocols: Vec<Protocol>,
    pub(crate) bound: Bound,
    pub(crate) fading: Option<FadingSpec>,
    pub(crate) threads: Option<usize>,
    pub(crate) multiplexing_gains: Vec<f64>,
    pub(crate) power_grid: Vec<PowerSplit>,
    pub(crate) rate_floor: Option<(f64, f64)>,
    pub(crate) block_size: Option<usize>,
    pub(crate) faults: FaultPlan,
}

impl Scenario {
    fn from_points(x_name: impl Into<String>, points: Vec<GridPoint>) -> Self {
        assert!(
            !points.is_empty(),
            "a scenario needs at least one grid point"
        );
        Scenario {
            x_name: x_name.into(),
            points,
            protocols: Protocol::ALL.to_vec(),
            bound: Bound::Inner,
            fading: None,
            threads: None,
            multiplexing_gains: Vec::new(),
            power_grid: Vec::new(),
            rate_floor: None,
            block_size: None,
            faults: FaultPlan::none(),
        }
    }

    /// A single-point scenario at `net` (comparisons, region panels).
    pub fn at(net: GaussianNetwork) -> Self {
        Scenario::from_points("network", vec![GridPoint { x: 0.0, net }])
    }

    /// Sweeps the transmit power (dB) at `base`'s gains — the SNR axis of
    /// the paper's crossover study (E-X1).
    ///
    /// # Panics
    ///
    /// Panics if `powers_db` is empty.
    pub fn power_sweep_db(base: GaussianNetwork, powers_db: impl IntoIterator<Item = f64>) -> Self {
        let points = powers_db
            .into_iter()
            .map(|p| GridPoint {
                x: p,
                net: base.with_power_db(Db::new(p)),
            })
            .collect();
        Scenario::from_points("power [dB]", points)
    }

    /// Sweeps symmetric relay gains `G_ar = G_br` (dB) at fixed power and
    /// direct gain — Fig. 3 sweep A.
    ///
    /// # Panics
    ///
    /// Panics if `gains_db` is empty.
    pub fn symmetric_gain_sweep_db(
        power_db: f64,
        gab_db: f64,
        gains_db: impl IntoIterator<Item = f64>,
    ) -> Self {
        let points = gains_db
            .into_iter()
            .map(|g| GridPoint {
                x: g,
                net: GaussianNetwork::from_db(
                    Db::new(power_db),
                    Db::new(gab_db),
                    Db::new(g),
                    Db::new(g),
                ),
            })
            .collect();
        Scenario::from_points("relay gain [dB]", points)
    }

    /// Sweeps the relay position on the a–b line with path-loss exponent
    /// `gamma` — Fig. 3 sweep B.
    ///
    /// Positions are validated up front through [`LineNetwork::try_new`]
    /// (a boundary or out-of-range position used to escape as a raw
    /// geometry panic through this builder); an invalid position or
    /// exponent surfaces as [`CoreError::InvalidInput`] naming the
    /// offending value, matching the serving layer's up-front query
    /// validation discipline.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] if `positions` is empty, contains a
    /// value outside the open interval `(0, 1)`, or `gamma` is negative
    /// or non-finite.
    pub fn relay_position_sweep(
        power_db: f64,
        gamma: f64,
        positions: impl IntoIterator<Item = f64>,
    ) -> Result<Self, CoreError> {
        let power = Db::new(power_db).to_linear();
        let points = positions
            .into_iter()
            .map(|d| {
                let line = LineNetwork::try_new(d, gamma).map_err(|e| CoreError::InvalidInput {
                    context: format!("relay position sweep: {e}"),
                })?;
                Ok(GridPoint {
                    x: d,
                    net: GaussianNetwork::new(power, line.channel_state()),
                })
            })
            .collect::<Result<Vec<GridPoint>, CoreError>>()?;
        if points.is_empty() {
            return Err(CoreError::InvalidInput {
                context: "relay position sweep: need at least one position".into(),
            });
        }
        Ok(Scenario::from_points("relay position", points))
    }

    /// Sweeps the relay's share of a fixed total power budget at balanced
    /// terminals — the 1-D slice of the allocation simplex that the
    /// finite-SNR power-allocation studies walk. `x` is the relay share.
    ///
    /// # Panics
    ///
    /// Panics if `relay_shares` is empty or contains values outside
    /// `[0, 1]` (propagated from [`PowerSplit::from_shares`]).
    pub fn power_split_sweep(
        state: ChannelState,
        total_power: f64,
        relay_shares: impl IntoIterator<Item = f64>,
    ) -> Self {
        let points = relay_shares
            .into_iter()
            .map(|share| GridPoint {
                x: share,
                net: GaussianNetwork::with_powers(
                    PowerSplit::from_shares(total_power, share, 0.5),
                    state,
                ),
            })
            .collect();
        Scenario::from_points("relay power share", points)
    }

    /// An arbitrary `(x, network)` grid under a caller-chosen axis label —
    /// the escape hatch for geometries the named constructors don't cover.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn networks(
        x_name: impl Into<String>,
        points: impl IntoIterator<Item = (f64, GaussianNetwork)>,
    ) -> Self {
        let points = points
            .into_iter()
            .map(|(x, net)| GridPoint { x, net })
            .collect();
        Scenario::from_points(x_name, points)
    }

    /// Restricts the evaluation to `protocols` (default: all four).
    ///
    /// # Panics
    ///
    /// Panics if `protocols` is empty or contains duplicates.
    pub fn protocols(mut self, protocols: impl IntoIterator<Item = Protocol>) -> Self {
        self.protocols = protocol_set(protocols);
        self
    }

    /// Selects which side of each bound to evaluate (default:
    /// [`Bound::Inner`], the achievable side) in [`Evaluator::sweep`] /
    /// [`Evaluator::comparisons`].
    ///
    /// The fading studies ([`Evaluator::outage`], [`Evaluator::dmt`],
    /// [`Evaluator::allocation`], [`Evaluator::deep_outage`]) solve the
    /// inner optimum and **panic** on [`Bound::Outer`], rather than
    /// silently ignoring it.
    pub fn bound(mut self, bound: Bound) -> Self {
        self.bound = bound;
        self
    }

    /// Attaches a quasi-static fading study (enables
    /// [`Evaluator::outage`]).
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

    /// Attaches multiplexing gains for finite-SNR DMT estimation
    /// (enables [`Evaluator::dmt`]): at a grid point with reference SNR
    /// `ρ`, gain `r` targets the sum rate `r·log2(1 + ρ)`.
    ///
    /// # Panics
    ///
    /// Panics if `gains` is empty or contains a non-finite or non-positive
    /// value.
    pub fn multiplexing_gains(mut self, gains: impl IntoIterator<Item = f64>) -> Self {
        let gains: Vec<f64> = gains.into_iter().collect();
        assert!(!gains.is_empty(), "need at least one multiplexing gain");
        for &r in &gains {
            assert!(
                r.is_finite() && r > 0.0,
                "multiplexing gains must be finite and positive, got {r}"
            );
        }
        self.multiplexing_gains = gains;
        self
    }

    /// Attaches candidate power splits for the allocation search
    /// ([`Evaluator::allocation`] seeds its golden-section polish from the
    /// best of these; an empty grid falls back to a built-in coarse grid
    /// of relay shares at balanced terminals).
    ///
    /// All candidates must share one total — the search moves along the
    /// allocation simplex of a fixed budget.
    ///
    /// # Panics
    ///
    /// Panics if `splits` is empty or the totals disagree beyond 1e-9
    /// relative.
    pub fn power_grid(mut self, splits: impl IntoIterator<Item = PowerSplit>) -> Self {
        let splits: Vec<PowerSplit> = splits.into_iter().collect();
        assert!(!splits.is_empty(), "need at least one candidate split");
        let total = splits[0].total();
        for s in &splits {
            assert!(
                (s.total() - total).abs() <= 1e-9 * (1.0 + total),
                "power grid must share one total budget: {} vs {total}",
                s.total()
            );
        }
        self.power_grid = splits;
        self
    }

    /// Imposes per-user QoS floors `R_a ≥ ra_min`, `R_b ≥ rb_min` on every
    /// sum-rate solve of [`Evaluator::sweep`] / [`Evaluator::comparisons`].
    ///
    /// Floors make grid points *genuinely infeasible* when the operating
    /// point cannot support them — those solves are recorded in
    /// [`SweepResult::skipped`] with NaN placeholders rather than aborting
    /// the batch (`comparisons`/`compare` still propagate the error, as
    /// single-point queries have no batch to protect).
    ///
    /// The fading studies ([`Evaluator::outage`], [`Evaluator::dmt`],
    /// [`Evaluator::allocation`], [`Evaluator::deep_outage`]) solve the
    /// *unconstrained* optimum and **panic** if a floor is attached,
    /// rather than silently ignoring it.
    ///
    /// # Panics
    ///
    /// Panics if a floor is negative or non-finite.
    pub fn rate_floor(mut self, ra_min: f64, rb_min: f64) -> Self {
        assert!(
            ra_min.is_finite() && rb_min.is_finite() && ra_min >= 0.0 && rb_min >= 0.0,
            "rate floors must be finite and non-negative"
        );
        self.rate_floor = Some((ra_min, rb_min));
        self
    }

    /// Pins the evaluator's worker count (default: the global policy —
    /// `BCC_THREADS` if set, else the machine's available parallelism).
    ///
    /// Results are bit-identical at every worker count; this knob only
    /// trades wall time, so benches and the determinism suite can flip
    /// between serial and parallel inside one process.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = Some(threads);
        self
    }

    /// Overrides the number of grid points per structure-of-arrays batch
    /// block (see [`crate::batch::PointBlock`]); the default
    /// ([`crate::batch::DEFAULT_BLOCK`]) balances lane amortisation
    /// against cache residency. Results are bit-identical at every block
    /// size — this knob only trades scheduling granularity.
    ///
    /// # Panics
    ///
    /// Panics if `points == 0`.
    pub fn block_size(mut self, points: usize) -> Self {
        assert!(points >= 1, "need at least one point per block");
        self.block_size = Some(points);
        self
    }

    /// Arms a deterministic fault-injection plan for the batched sweep
    /// paths (chaos testing; see [`bcc_num::faults`]).
    ///
    /// Each grid point runs under a [`FaultScope`] keyed by its global
    /// point index, so the injection schedule is bit-reproducible across
    /// thread counts and block sizes. A point whose kernel is poisoned
    /// (or whose solver resources are exhausted by an armed
    /// `LpIterationLimit` site) degrades to a [`SweepResult::skipped`]
    /// entry — exactly the per-point containment genuinely infeasible
    /// points already get — instead of aborting the batch. The empty plan
    /// (the default) changes nothing, bit for bit.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Compiles the scenario into a reusable [`Evaluator`].
    pub fn build(self) -> Evaluator {
        Evaluator { scenario: self }
    }

    /// The effective points-per-block of the batched paths.
    pub(crate) fn effective_block_size(&self) -> usize {
        self.block_size.unwrap_or(crate::batch::DEFAULT_BLOCK)
    }

    /// Optimal sum rate of `protocol` at `net` under this scenario's bound
    /// selection and optional QoS floor, solved through `ctx` (each
    /// parallel worker owns one [`SolveCtx`]: closed-form kernel where
    /// available, warm-started zero-allocation simplex otherwise).
    fn solve_point_with(
        &self,
        net: &GaussianNetwork,
        protocol: Protocol,
        ctx: &mut SolveCtx,
    ) -> Result<SumRateSolution, CoreError> {
        ctx.solve_one(net, self.sum_request(protocol))
            .map(|o| o.sum_rate_solution())
    }

    /// The sweep's [`SolveRequest`] for `protocol` under this scenario's
    /// bound selection and optional QoS floor.
    fn sum_request(&self, protocol: Protocol) -> SolveRequest {
        SolveRequest::sum_rate(protocol)
            .with_bound(self.bound)
            .with_floor(self.rate_floor)
    }
}

/// Sorts one grid-point solve into the batch policy of
/// [`Evaluator::sweep`]: success and *infeasibility* both let the batch
/// continue (the latter recorded per point as [`SkippedSolve`]), while any
/// other failure — unbounded, iteration limit — still aborts, because it
/// describes the solver rather than the input.
///
/// Under an active fault scope the abort set shrinks: injected kernel
/// poison and solver iteration limits are chaos by construction, so they
/// degrade to per-point skips like infeasibility does. (An organic
/// iteration limit during a chaos run is indistinguishable from an
/// injected one — conservatively contained rather than escalated.)
fn classify_solve(
    result: Result<SumRateSolution, CoreError>,
) -> Result<Result<SumRateSolution, CoreError>, CoreError> {
    match result {
        Ok(sol) => Ok(Ok(sol)),
        Err(e) if e.is_infeasible() => Ok(Err(e)),
        Err(e) if e.is_injected() => Ok(Err(e)),
        Err(e) if faults::active() && e.is_resource_limit() => Ok(Err(e)),
        Err(e) => Err(e),
    }
}

/// The compiled form of a [`Scenario`]: the handle the batch drivers run
/// through. Each run fans its grid out over scoped worker threads, one
/// reusable [`bcc_lp::Workspace`] per worker.
#[derive(Debug)]
pub struct Evaluator {
    pub(crate) scenario: Scenario,
}

impl Evaluator {
    /// The grid being evaluated.
    pub fn points(&self) -> &[GridPoint] {
        &self.scenario.points
    }

    /// The swept-axis label.
    pub fn x_name(&self) -> &str {
        &self.scenario.x_name
    }

    /// The protocols being evaluated, in evaluation order.
    pub fn protocols(&self) -> &[Protocol] {
        &self.scenario.protocols
    }

    /// The effective worker count: the scenario's [`Scenario::threads`]
    /// override if set, else the global policy of
    /// [`bcc_num::par::thread_count`] (`BCC_THREADS`, then available
    /// parallelism).
    pub fn thread_count(&self) -> usize {
        self.scenario
            .threads
            .unwrap_or_else(bcc_num::par::thread_count)
    }

    /// Runs the batched sum-rate evaluation over the whole grid, in
    /// [`Scenario::block_size`]-point blocks fanned across the worker pool
    /// by [`par_blocks`]. A block runs the lane kernels when every request
    /// is batchable (inner bound, no floor) and no point in it is poisoned
    /// by the fault plan; otherwise it solves point by point, each point
    /// under its own fault scope.
    ///
    /// A grid point whose LP is *infeasible* does not abort the batch: the
    /// affected protocol's entry becomes a NaN placeholder and the solve is
    /// recorded in [`SweepResult::skipped`], so one degenerate gain
    /// combination cannot kill a 10k-point sweep. (Well-posed Gaussian
    /// scenarios never trigger this — rate 0 is always achievable — but
    /// batch robustness must not depend on every input being well-posed.)
    ///
    /// # Errors
    ///
    /// Propagates non-infeasibility LP failures; when several points fail,
    /// the error is the first one of the lowest failing block, at any
    /// thread count. Returns [`CoreError::NoFiniteOptimum`] if every
    /// protocol's optimum at some grid point is non-finite without any
    /// solve having been skipped.
    pub fn sweep(&mut self) -> Result<SweepResult, CoreError> {
        let threads = self.thread_count();
        let sc = &self.scenario;
        let protocols = sc.protocols.clone();
        let npoints = sc.points.len();
        let nproto = protocols.len();
        let requests: Vec<SolveRequest> = protocols.iter().map(|&p| sc.sum_request(p)).collect();
        let batchable = requests.iter().all(SolveRequest::is_batchable);
        let plan = sc.faults;
        // The fault scope of point `i`: its fate is a pure function of
        // `(plan, i)`, never of the block it happens to share.
        let scope = |i: usize| FaultScope::enter(&plan, faults::scope_token(plan.seed(), i as u64));
        let poisoned = |i: usize| {
            let _scope = scope(i);
            faults::site_fated(FaultSite::KernelPoison)
        };

        // One job per block, in one of two ways. Inner-bound floor-free
        // blocks run the SoA lane kernels. Requests that are not
        // batchable (floors, outer bounds), and blocks holding a poisoned
        // point, solve per point under the point's fault scope, so a
        // fault stays contained to its own point. The per-point solves
        // are bitwise equal to the lane kernels, so either way each
        // point's result is independent of its blockmates: bit-identical
        // at any block size or thread count.
        let bsz = sc.effective_block_size();
        let blocks = par_blocks(threads, npoints, bsz, |solver, range| {
            let mut flat = Vec::with_capacity(range.len() * nproto);
            if !batchable || (!plan.is_empty() && range.clone().any(poisoned)) {
                for i in range {
                    for &p in &protocols {
                        // Entered per protocol, so each solve sees the
                        // point's fault stream from its first draw.
                        let _scope = scope(i);
                        let sol = sc.solve_point_with(&sc.points[i].net, p, solver.ctx());
                        flat.push(classify_solve(sol)?);
                    }
                }
                return Ok(flat);
            }
            let block = solver.fill();
            for pt in &sc.points[range.clone()] {
                block.push_net(&pt.net);
            }
            let outs = solver.solve(&requests)?;
            // Interleave back to the (point, protocol)-major order the
            // assembly loop expects.
            for i in 0..range.len() {
                flat.extend(outs.iter().map(|lane| Ok(lane[i].sum_rate_solution())));
            }
            Ok(flat)
        })?;

        let mut series: ProtocolMap<ProtocolSeries> = ProtocolMap::new();
        for &p in &protocols {
            series.insert(
                p,
                ProtocolSeries {
                    protocol: p,
                    solutions: Vec::with_capacity(npoints),
                },
            );
        }
        let mut winners = Vec::with_capacity(npoints);
        let mut skipped = Vec::new();
        let mut flat = blocks.into_iter().flatten();
        for i in 0..npoints {
            let x = sc.points[i].x;
            let mut winner: Option<(Protocol, f64)> = None;
            let mut any_skip = false;
            for &p in &protocols {
                let outcome = flat.next().expect("one result per (point, protocol)");
                let sol = match outcome {
                    Ok(sol) => sol,
                    Err(error) => {
                        any_skip = true;
                        skipped.push(SkippedSolve {
                            index: i,
                            x,
                            protocol: p,
                            error,
                        });
                        SumRateSolution {
                            protocol: p,
                            sum_rate: f64::NAN,
                            ra: f64::NAN,
                            rb: f64::NAN,
                            durations: crate::constraint::PhaseVec::new(),
                        }
                    }
                };
                if sol.sum_rate.is_finite() && winner.is_none_or(|(_, best)| sol.sum_rate > best) {
                    winner = Some((p, sol.sum_rate));
                }
                series
                    .get_mut(p)
                    .expect("series pre-populated")
                    .solutions
                    .push(sol);
            }
            match winner {
                Some((w, _)) => winners.push(Some(w)),
                None if any_skip => winners.push(None),
                None => {
                    return Err(CoreError::NoFiniteOptimum {
                        context: format!("{} sweep at x = {x}", sc.x_name),
                    })
                }
            }
        }
        Ok(SweepResult {
            x_name: sc.x_name.clone(),
            xs: sc.points.iter().map(|p| p.x).collect(),
            protocols,
            series,
            winners,
            skipped,
        })
    }

    /// Evaluates one [`ComparisonResult`] per grid point, points fanned
    /// across the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates LP failures.
    pub fn comparisons(&mut self) -> Result<Vec<ComparisonResult>, CoreError> {
        let threads = self.thread_count();
        let sc = &self.scenario;
        par::try_par_map_range(threads, sc.points.len(), SolveCtx::new, |ctx, i| {
            let GridPoint { x, net } = sc.points[i];
            let mut solutions = ProtocolMap::new();
            for &p in &sc.protocols {
                solutions.insert(p, sc.solve_point_with(&net, p, ctx)?);
            }
            Ok(ComparisonResult {
                x,
                net,
                protocols: sc.protocols.clone(),
                solutions,
            })
        })
    }

    /// Evaluates the comparison at the scenario's single grid point.
    ///
    /// # Errors
    ///
    /// Propagates LP failures.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has more than one grid point (use
    /// [`Evaluator::comparisons`] for grids).
    pub fn compare(&mut self) -> Result<ComparisonResult, CoreError> {
        assert_eq!(
            self.scenario.points.len(),
            1,
            "compare() is for single-point scenarios; use comparisons() on a grid"
        );
        Ok(self.comparisons()?.remove(0))
    }

    /// Traces the rate-region boundaries of every selected protocol at
    /// every grid point, for both the inner and (where distinct) outer
    /// bounds.
    ///
    /// For capacity protocols (DT, MABC — Theorem 2) only the capacity
    /// region is traced, labelled with [`Bound::Inner`].
    ///
    /// # Errors
    ///
    /// Propagates LP failures from boundary tracing.
    pub fn regions(&mut self, resolution: usize) -> Result<Vec<RegionResult>, CoreError> {
        let threads = self.thread_count();
        let sc = &self.scenario;
        par::try_par_map_range(
            threads,
            sc.points.len(),
            || (),
            |(), i| {
                let GridPoint { x, net } = sc.points[i];
                let mut traces = Vec::new();
                for &p in &sc.protocols {
                    let capacity = net.capacity_region(p).is_some();
                    let sides: &[Bound] = if capacity {
                        &[Bound::Inner]
                    } else {
                        &[Bound::Inner, Bound::Outer]
                    };
                    for &b in sides {
                        let region = net.region(p, b);
                        traces.push(RegionTrace {
                            protocol: p,
                            bound: b,
                            is_capacity: capacity,
                            name: region.name.clone(),
                            boundary: region.boundary(resolution)?,
                        });
                    }
                }
                Ok(RegionResult { x, net, traces })
            },
        )
    }

    /// Runs the scenario's fading study: per grid point and trial, one
    /// i.i.d. fade per link (shared across protocols, so per-fade dominance
    /// relations survive into the samples), then the optimal sum rate of
    /// each protocol on the faded network.
    ///
    /// This is the one entry to the fade sampler: [`Evaluator::dmt`]
    /// reduces its samples, and the multi-pair
    /// [`outage`](crate::multipair::MultiPairEvaluator::outage) runs it on
    /// the flattened `point × pair` network grid.
    ///
    /// Grid points use decorrelated seed streams derived from the spec's
    /// master seed; a single-point scenario reproduces the classic
    /// `McConfig`-style stream of `trial_stream(seed, trial)` exactly.
    ///
    /// No LP runs on a faded draw: the fade sampler solves every draw
    /// with the closed-form inner-bound kernels, which cannot fail (it
    /// `expect`s them to succeed), so every sample is the draw's
    /// optimal sum rate.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no fading spec (see
    /// [`Scenario::fading`]), or carries a rate floor or the outer bound
    /// (see [`Scenario::bound`]).
    pub fn outage(&mut self) -> Result<OutageResult, CoreError> {
        let sc = &self.scenario;
        let spec = fading_study(sc.fading, sc.bound, sc.rate_floor.is_some());
        // Sample (and free `nets`) before allocating the result's fields:
        // with those small allocations first, perfbench's `fading_outage`
        // read a slightly higher peak RSS.
        let samples = {
            let nets: Vec<GaussianNetwork> = sc.points.iter().map(|p| p.net).collect();
            let block = sc.effective_block_size();
            fading_samples(self.thread_count(), &nets, &sc.protocols, &spec, block)
        };
        Ok(OutageResult {
            x_name: sc.x_name.clone(),
            xs: sc.points.iter().map(|p| p.x).collect(),
            spec,
            protocols: sc.protocols.clone(),
            samples,
        })
    }
}

/// The fading spec of a fading study (outage, DMT, allocation, deep
/// outage), which solves the unconstrained inner optimum of every draw:
/// panics on a rate floor or the outer bound (the study would silently
/// ignore either), or if there is no fading spec.
pub(crate) fn fading_study(spec: Option<FadingSpec>, bound: Bound, floored: bool) -> FadingSpec {
    assert!(
        !floored,
        "rate_floor applies to sweep()/comparisons() only; fading studies solve the \
         unconstrained optimum — remove the floor"
    );
    assert!(
        bound == Bound::Inner,
        "bound(Bound::Outer) applies to sweeps only; fading studies solve the inner \
         optimum — remove the outer bound"
    );
    spec.expect("scenario has no fading model; attach one with fading(...)")
}

/// The fade sampler behind [`Evaluator::outage`], its only caller: per
/// network and trial, one i.i.d. fade per link (shared across protocols,
/// so per-fade dominance relations survive into the samples), then every
/// protocol's optimal sum rate on the faded network. Returns
/// `samples[protocol][net][trial]`.
///
/// Network `i` draws trial `t` from `trial_stream(seed_i, t)`, where a
/// lone network keeps the master seed (the classic `McConfig` stream)
/// and otherwise `seed_i = mix_seed(seed, i)`.
///
/// The `net × trial` grid is fanned out by [`par_blocks`]; each draw is
/// independent of its blockmates, so the samples are bit-identical at
/// any block size or thread count. Fading always solves the
/// unconstrained inner optimum, so every draw takes the lane kernels.
fn fading_samples(
    threads: usize,
    nets: &[GaussianNetwork],
    protocols: &[Protocol],
    spec: &FadingSpec,
    block: usize,
) -> ProtocolMap<Vec<Vec<f64>>> {
    let trials = spec.trials;
    let single = nets.len() == 1;
    let requests: Vec<SolveRequest> = protocols
        .iter()
        .map(|&p| SolveRequest::sum_rate(p))
        .collect();
    // Each block returns one column of rates per protocol.
    let blocks = par_blocks(threads, nets.len() * trials, block, |solver, range| {
        let faded = solver.fill();
        for k in range {
            let (i, trial) = (k / trials, k % trials);
            let seed = if single {
                spec.seed
            } else {
                mix_seed(spec.seed, i as u64)
            };
            let mut rng = trial_stream(seed, trial as u64);
            faded.push_net(&nets[i].with_state(nets[i].state().faded(
                spec.model.sample_power(&mut rng),
                spec.model.sample_power(&mut rng),
                spec.model.sample_power(&mut rng),
            )));
        }
        let outs = solver.solve(&requests)?;
        Ok(outs
            .iter()
            .map(|lane| lane.iter().map(|o| o.value).collect::<Vec<f64>>())
            .collect::<Vec<_>>())
    })
    .expect("closed-form batch solve is infallible");

    // Append each block's columns to the networks they cover; a block
    // can straddle a network boundary.
    let mut samples: ProtocolMap<Vec<Vec<f64>>> = ProtocolMap::new();
    for &p in protocols {
        samples.insert(p, vec![Vec::with_capacity(trials); nets.len()]);
    }
    for (j, columns) in blocks.into_iter().enumerate() {
        for (&p, column) in protocols.iter().zip(&columns) {
            let per_net = samples.get_mut(p).expect("pre-populated");
            let (mut k, mut rest) = (j * block, &column[..]);
            while !rest.is_empty() {
                let take = rest.len().min(trials - k % trials);
                per_net[k / trials].extend_from_slice(&rest[..take]);
                rest = &rest[take..];
                k += take;
            }
        }
    }
    samples
}

/// One protocol's column of a [`SweepResult`]: the full
/// [`SumRateSolution`] at every grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSeries {
    /// The protocol this series belongs to.
    pub protocol: Protocol,
    /// One solution per grid point, in grid order.
    pub solutions: Vec<SumRateSolution>,
}

impl ProtocolSeries {
    /// The optimal sum rates, in grid order.
    pub fn sum_rates(&self) -> Vec<f64> {
        self.solutions.iter().map(|s| s.sum_rate).collect()
    }
}

/// One LP solve that [`Evaluator::sweep`] recorded as skipped instead of
/// aborting the batch: `protocol`'s program at grid point `index` was
/// infeasible. Its slot in the protocol's series holds a NaN placeholder.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedSolve {
    /// Grid-point index into [`SweepResult::xs`].
    pub index: usize,
    /// The swept coordinate at that index.
    pub x: f64,
    /// The protocol whose LP was infeasible there.
    pub protocol: Protocol,
    /// The recorded solver error.
    pub error: CoreError,
}

/// The output of [`Evaluator::sweep`]: per-protocol series over the grid,
/// keyed by [`Protocol`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Human-readable name of the swept parameter.
    pub x_name: String,
    /// The grid coordinates, in sweep order.
    pub xs: Vec<f64>,
    /// The protocols evaluated, in evaluation order.
    protocols: Vec<Protocol>,
    series: ProtocolMap<ProtocolSeries>,
    winners: Vec<Option<Protocol>>,
    skipped: Vec<SkippedSolve>,
}

impl SweepResult {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` if the sweep is empty (never produced by an evaluator).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The protocols evaluated, in evaluation order.
    pub fn protocols(&self) -> &[Protocol] {
        &self.protocols
    }

    /// The series of `protocol`, or `None` if it was not part of the
    /// scenario. Constant-time: series are keyed by protocol, not searched.
    pub fn series(&self, protocol: Protocol) -> Option<&ProtocolSeries> {
        self.series.get(protocol)
    }

    /// The series of `protocol` as `(x, sum_rate)` pairs — the shape the
    /// plotting crate consumes.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not part of the scenario.
    pub fn series_points(&self, protocol: Protocol) -> Vec<(f64, f64)> {
        let s = self
            .series
            .get(protocol)
            .unwrap_or_else(|| panic!("{protocol} was not part of the scenario"));
        self.xs
            .iter()
            .zip(&s.solutions)
            .map(|(&x, sol)| (x, sol.sum_rate))
            .collect()
    }

    /// The sum-rate-optimal protocol at grid point `i` (ties go to the
    /// earlier protocol in evaluation order).
    ///
    /// # Panics
    ///
    /// Panics if every protocol at point `i` was skipped as infeasible
    /// (use [`SweepResult::try_winner`] on sweeps with skips).
    pub fn winner(&self, i: usize) -> Protocol {
        self.winners[i].unwrap_or_else(|| {
            panic!("every protocol at grid point {i} was skipped as infeasible; see skipped()")
        })
    }

    /// The sum-rate-optimal protocol at grid point `i`, or `None` if every
    /// protocol there was skipped as infeasible.
    pub fn try_winner(&self, i: usize) -> Option<Protocol> {
        self.winners[i]
    }

    /// The winning protocol at every grid point (`None` where every
    /// protocol was skipped as infeasible).
    pub fn winners(&self) -> &[Option<Protocol>] {
        &self.winners
    }

    /// The LP solves recorded as skipped (infeasible points) instead of
    /// aborting the batch — empty for every well-posed Gaussian scenario.
    pub fn skipped(&self) -> &[SkippedSolve] {
        &self.skipped
    }

    /// `true` if every `(protocol, grid point)` solve succeeded.
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
    }

    /// Grid coordinates where `protocol` is strictly better than every
    /// other evaluated protocol by more than `margin`.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not part of the scenario.
    pub fn strict_wins(&self, protocol: Protocol, margin: f64) -> Vec<f64> {
        let own = self
            .series
            .get(protocol)
            .unwrap_or_else(|| panic!("{protocol} was not part of the scenario"));
        (0..self.len())
            .filter(|&i| {
                let mine = own.solutions[i].sum_rate;
                self.protocols.iter().filter(|&&p| p != protocol).all(|&p| {
                    let other = self.series.get(p).expect("evaluated").solutions[i].sum_rate;
                    mine > other + margin
                })
            })
            .map(|i| self.xs[i])
            .collect()
    }
}

/// The output of [`Evaluator::compare`]: every protocol's optimum at one
/// grid point, keyed by [`Protocol`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonResult {
    /// The grid coordinate this comparison was evaluated at.
    pub x: f64,
    /// The network it was evaluated on.
    pub net: GaussianNetwork,
    protocols: Vec<Protocol>,
    solutions: ProtocolMap<SumRateSolution>,
}

impl ComparisonResult {
    /// The solution of `protocol`, or `None` if it was not evaluated.
    pub fn get(&self, protocol: Protocol) -> Option<&SumRateSolution> {
        self.solutions.get(protocol)
    }

    /// Iterates the solutions in evaluation order.
    pub fn solutions(&self) -> impl Iterator<Item = &SumRateSolution> {
        self.protocols.iter().filter_map(|&p| self.solutions.get(p))
    }

    /// The winning protocol's solution, ignoring non-finite optima. Of
    /// equal optima the earliest in evaluation order wins, as in
    /// [`ranked`](ComparisonResult::ranked), [`SweepResult::winner`] and
    /// `SolveCtx::solve_best`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoFiniteOptimum`] if every evaluated optimum is
    /// NaN or infinite (a numerically broken batch must not panic a whole
    /// sweep).
    pub fn best(&self) -> Result<&SumRateSolution, CoreError> {
        self.solutions()
            .filter(|s| s.sum_rate.is_finite())
            .reduce(|best, s| if s.sum_rate > best.sum_rate { s } else { best })
            .ok_or_else(|| CoreError::NoFiniteOptimum {
                context: format!("comparison at x = {}", self.x),
            })
    }

    /// The finite solutions ranked best-first.
    pub fn ranked(&self) -> Vec<&SumRateSolution> {
        let mut v: Vec<&SumRateSolution> = self
            .solutions()
            .filter(|s| s.sum_rate.is_finite())
            .collect();
        v.sort_by(|a, b| {
            b.sum_rate
                .partial_cmp(&a.sum_rate)
                .expect("finite rates compare")
        });
        v
    }
}

/// One traced rate-region boundary inside a [`RegionResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegionTrace {
    /// The protocol.
    pub protocol: Protocol,
    /// Which side of the bound the trace follows.
    pub bound: Bound,
    /// `true` if inner = outer for this protocol (Theorem 2 capacity).
    pub is_capacity: bool,
    /// The region's descriptive name (e.g. `"TDBC outer"`).
    pub name: String,
    /// Boundary points, `R_b` swept from 0 to its maximum.
    pub boundary: Vec<RatePoint>,
}

/// The output of [`Evaluator::regions`] at one grid point: boundary traces
/// of every selected protocol's bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionResult {
    /// The grid coordinate.
    pub x: f64,
    /// The network the regions belong to.
    pub net: GaussianNetwork,
    /// All traces, in (protocol, inner-then-outer) order.
    pub traces: Vec<RegionTrace>,
}

impl RegionResult {
    /// The trace of `(protocol, bound)`, if present. For capacity
    /// protocols the single capacity trace is stored under
    /// [`Bound::Inner`].
    pub fn get(&self, protocol: Protocol, bound: Bound) -> Option<&RegionTrace> {
        self.traces
            .iter()
            .find(|t| t.protocol == protocol && t.bound == bound)
    }

    /// Rebuilds the [`RateRegion`] of one trace (for membership queries).
    pub fn region(&self, protocol: Protocol, bound: Bound) -> RateRegion {
        self.net.region(protocol, bound)
    }
}

/// The output of [`Evaluator::outage`]: per-protocol, per-grid-point
/// Monte-Carlo sum-rate samples under quasi-static fading, with ergodic
/// and ε-outage summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageResult {
    /// Human-readable name of the swept parameter.
    pub x_name: String,
    /// The grid coordinates.
    pub xs: Vec<f64>,
    /// The fading specification the samples were drawn under.
    pub spec: FadingSpec,
    protocols: Vec<Protocol>,
    /// `samples[protocol][point][trial]`.
    samples: ProtocolMap<Vec<Vec<f64>>>,
}

impl OutageResult {
    /// The protocols evaluated, in evaluation order.
    pub fn protocols(&self) -> &[Protocol] {
        &self.protocols
    }

    /// The raw per-trial sum rates of `protocol` at grid point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not part of the scenario or `i` is out of
    /// range.
    pub fn samples(&self, protocol: Protocol, i: usize) -> &[f64] {
        let per_point = self.samples.get(protocol);
        &per_point.unwrap_or_else(|| panic!("{protocol} was not part of the scenario"))[i]
    }

    /// Consumes the result, returning `protocol`'s per-grid-point sample
    /// vectors without copying (for adapters that only need one
    /// protocol's raw samples).
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not part of the scenario.
    pub fn into_samples(mut self, protocol: Protocol) -> Vec<Vec<f64>> {
        self.samples
            .get_mut(protocol)
            .map(std::mem::take)
            .expect("protocol evaluated")
    }

    /// Ergodic (fading-averaged) sum rate of `protocol` at each grid
    /// point, as `(x, mean)` pairs.
    pub fn ergodic_series(&self, protocol: Protocol) -> Vec<(f64, f64)> {
        self.xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let s = self.samples(protocol, i);
                (x, s.iter().sum::<f64>() / s.len() as f64)
            })
            .collect()
    }

    /// The ε-outage sum rate of `protocol` at each grid point: the largest
    /// rate supported in all but an `eps` fraction of fades. `None`
    /// entries sit below the Monte-Carlo resolution floor `1/trials`.
    pub fn outage_rate_series(&self, protocol: Protocol, eps: f64) -> Vec<(f64, Option<f64>)> {
        self.xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, self.outage_rate(protocol, i, eps)))
            .collect()
    }

    /// The ε-outage sum rate of `protocol` at grid point `i`, or `None`
    /// when `eps` sits below the resolution floor `1/trials` (the
    /// empirical quantile there is just the sample minimum — Monte Carlo
    /// cannot certify it).
    ///
    /// # Panics
    ///
    /// Panics if `eps` is outside `[0, 1]`.
    pub fn outage_rate(&self, protocol: Protocol, i: usize, eps: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&eps),
            "eps must lie in [0, 1], got {eps}"
        );
        let profile = self.profile(protocol, i);
        if eps < 1.0 / profile.len() as f64 {
            None
        } else {
            Some(profile.quantile(eps))
        }
    }

    /// The empirical sum-rate distribution of `protocol` at grid point `i`
    /// (build once, then query any number of quantiles/probabilities).
    pub fn profile(&self, protocol: Protocol, i: usize) -> bcc_num::stats::Ecdf {
        bcc_num::stats::Ecdf::new(self.samples(protocol, i).to_vec())
    }

    /// `P[optimal sum rate < target]` for `protocol` at grid point `i`.
    ///
    /// `None` means **unresolved**: no trial fell below a positive target,
    /// so the estimate sits under the `1/trials` floor (the deep-outage
    /// evaluator resolves those cells). A non-positive target resolves to
    /// `Some(0.0)` exactly.
    pub fn outage_probability(&self, protocol: Protocol, i: usize, target: f64) -> Option<f64> {
        outage_fraction(self.samples(protocol, i), target)
    }
}

/// The fraction of `samples` below `target`: the outage-probability
/// estimate of every fading study. `None` means **unresolved** (no sample
/// fell below a positive target, so the estimate sits under the
/// `1/samples.len()` floor); a non-positive target resolves to `Some(0.0)`
/// exactly.
pub(crate) fn outage_fraction(samples: &[f64], target: f64) -> Option<f64> {
    if target <= 0.0 {
        return Some(0.0);
    }
    let hits = samples.iter().filter(|&&v| v < target).count();
    (hits > 0).then(|| hits as f64 / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_channel::ChannelState;

    fn fig4_net(p_db: f64) -> GaussianNetwork {
        GaussianNetwork::from_db(Db::new(p_db), Db::new(-7.0), Db::new(0.0), Db::new(5.0))
    }

    #[test]
    fn sweep_matches_pointwise_max_sum_rate() {
        let base = fig4_net(0.0);
        let powers: Vec<f64> = vec![-5.0, 0.0, 5.0, 10.0];
        let sweep = Scenario::power_sweep_db(base, powers.clone())
            .build()
            .sweep()
            .unwrap();
        assert_eq!(sweep.len(), 4);
        for (i, &p) in powers.iter().enumerate() {
            let net = base.with_power_db(Db::new(p));
            for proto in Protocol::ALL {
                let direct = net.max_sum_rate(proto).unwrap();
                let batched = &sweep.series(proto).unwrap().solutions[i];
                assert!(
                    (direct.sum_rate - batched.sum_rate).abs() < 1e-12,
                    "{proto} at {p} dB: {} vs {}",
                    direct.sum_rate,
                    batched.sum_rate
                );
                assert_eq!(direct.durations.len(), batched.durations.len());
            }
        }
    }

    #[test]
    fn winner_is_max_of_series() {
        let sweep = Scenario::power_sweep_db(fig4_net(0.0), vec![0.0, 10.0, 20.0])
            .build()
            .sweep()
            .unwrap();
        for i in 0..sweep.len() {
            let w = sweep.winner(i);
            let best = sweep.series(w).unwrap().solutions[i].sum_rate;
            for p in Protocol::ALL {
                assert!(best >= sweep.series(p).unwrap().solutions[i].sum_rate - 1e-12);
            }
        }
    }

    #[test]
    fn protocol_subset_only_evaluates_selection() {
        let sweep = Scenario::power_sweep_db(fig4_net(0.0), vec![0.0, 10.0])
            .protocols([Protocol::Mabc, Protocol::Tdbc])
            .build()
            .sweep()
            .unwrap();
        assert!(sweep.series(Protocol::Hbc).is_none());
        assert!(sweep.series(Protocol::Mabc).is_some());
        assert_eq!(sweep.protocols(), &[Protocol::Mabc, Protocol::Tdbc]);
        // Winners restricted to the selection.
        for i in 0..sweep.len() {
            assert!(matches!(sweep.winner(i), Protocol::Mabc | Protocol::Tdbc));
        }
    }

    #[test]
    fn position_sweep_mirror_symmetric() {
        let sweep = Scenario::relay_position_sweep(15.0, 3.0, vec![0.25, 0.5, 0.75])
            .unwrap()
            .build()
            .sweep()
            .unwrap();
        for p in Protocol::ALL {
            let s = sweep.series(p).unwrap().sum_rates();
            assert!((s[0] - s[2]).abs() < 1e-8, "{p} not mirror symmetric");
        }
        // Boundary positions are validation errors now, not panics:
        let err = Scenario::relay_position_sweep(15.0, 3.0, vec![0.5, 1.0]).unwrap_err();
        assert!(err.is_invalid_input(), "got {err}");
        assert!(Scenario::relay_position_sweep(15.0, 3.0, Vec::new())
            .unwrap_err()
            .is_invalid_input());
    }

    #[test]
    fn outer_bound_sweep_dominates_inner_sweep() {
        let xs = vec![0.0, 10.0];
        let inner = Scenario::power_sweep_db(fig4_net(0.0), xs.clone())
            .build()
            .sweep()
            .unwrap();
        let outer = Scenario::power_sweep_db(fig4_net(0.0), xs)
            .bound(Bound::Outer)
            .build()
            .sweep()
            .unwrap();
        for p in Protocol::ALL {
            let i = inner.series(p).unwrap().sum_rates();
            let o = outer.series(p).unwrap().sum_rates();
            for k in 0..i.len() {
                assert!(o[k] >= i[k] - 1e-7, "{p}: outer {} < inner {}", o[k], i[k]);
            }
        }
    }

    #[test]
    fn compare_matches_direct_evaluation() {
        let net = fig4_net(10.0);
        let cmp = Scenario::at(net).build().compare().unwrap();
        for p in Protocol::ALL {
            let direct = net.max_sum_rate(p).unwrap().sum_rate;
            assert!((cmp.get(p).unwrap().sum_rate - direct).abs() < 1e-12);
        }
        let best = cmp.best().unwrap();
        assert!(matches!(
            best.protocol,
            Protocol::Hbc | Protocol::DirectTransmission
        ));
        let ranked = cmp.ranked();
        assert_eq!(ranked.len(), 4);
        assert!(ranked.windows(2).all(|w| w[0].sum_rate >= w[1].sum_rate));
    }

    #[test]
    fn best_keeps_the_first_of_tied_protocols() {
        // A dead network scores 0 for every protocol: DT, listed first,
        // wins everywhere a winner is named.
        let dead = GaussianNetwork::with_powers(
            PowerSplit::new(0.0, 0.0, 0.0),
            ChannelState::new(1.0, 1.0, 1.0),
        );
        let cmp = Scenario::at(dead).build().compare().unwrap();
        assert_eq!(cmp.best().unwrap().protocol, Protocol::DirectTransmission);
        assert_eq!(cmp.ranked()[0].protocol, Protocol::DirectTransmission);
        let sweep = Scenario::at(dead).build().sweep().unwrap();
        assert_eq!(sweep.winner(0), Protocol::DirectTransmission);
    }

    #[test]
    fn best_ranked_and_winner_agree_along_sweeps() {
        // Fig. 3's relay-gain and relay-position sweeps, where HBC ties
        // one of its special cases exactly at many points.
        let gains =
            Scenario::symmetric_gain_sweep_db(15.0, 0.0, (0..=60).map(|k| 0.5 * f64::from(k)));
        let positions = (1..100).map(|k| f64::from(k) / 100.0);
        let line = Scenario::relay_position_sweep(15.0, 3.0, positions).unwrap();
        for sc in [gains, line] {
            let mut eval = sc.build();
            let sweep = eval.sweep().unwrap();
            for (i, cmp) in eval.comparisons().unwrap().iter().enumerate() {
                let best = cmp.best().unwrap().protocol;
                assert_eq!(best, sweep.winner(i), "point {i}");
                assert_eq!(best, cmp.ranked()[0].protocol, "point {i}");
            }
        }
    }

    #[test]
    fn regions_trace_capacity_once_and_bounds_twice() {
        let results = Scenario::at(fig4_net(10.0)).build().regions(16).unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert!(r.get(Protocol::Mabc, Bound::Inner).unwrap().is_capacity);
        assert!(r.get(Protocol::Mabc, Bound::Outer).is_none());
        assert!(!r.get(Protocol::Hbc, Bound::Inner).unwrap().is_capacity);
        assert!(r.get(Protocol::Hbc, Bound::Outer).is_some());
        // DT + MABC capacity traces, TDBC/HBC inner + outer.
        assert_eq!(r.traces.len(), 6);
        for t in &r.traces {
            assert_eq!(t.boundary.len(), 17, "{}: n+1 boundary points", t.name);
        }
    }

    #[test]
    fn outage_samples_preserve_per_fade_dominance() {
        let out = Scenario::at(fig4_net(10.0))
            .rayleigh(60, 42)
            .build()
            .outage()
            .unwrap();
        let hbc = out.samples(Protocol::Hbc, 0);
        let mabc = out.samples(Protocol::Mabc, 0);
        let tdbc = out.samples(Protocol::Tdbc, 0);
        assert_eq!(hbc.len(), 60);
        for i in 0..hbc.len() {
            assert!(hbc[i] >= mabc[i] - 1e-8, "trial {i}");
            assert!(hbc[i] >= tdbc[i] - 1e-8, "trial {i}");
        }
        // Quantiles are monotone in eps (both resolve at 60 trials).
        let q10 = out.outage_rate(Protocol::Hbc, 0, 0.10).unwrap();
        let q50 = out.outage_rate(Protocol::Hbc, 0, 0.50).unwrap();
        assert!(q10 <= q50);
        // Probability inverts rate approximately.
        assert!(out.outage_probability(Protocol::Hbc, 0, q50).unwrap() <= 0.55);
    }

    #[test]
    #[should_panic(expected = "bound(Bound::Outer) applies to sweeps only")]
    fn outage_rejects_outer_bound() {
        // TDBC's outer sum rate here (3.102) exceeds its inner one (3.057),
        // so inner-bound samples under an outer label would misreport.
        let _ = Scenario::at(fig4_net(10.0))
            .bound(Bound::Outer)
            .rayleigh(10, 7)
            .build()
            .outage();
    }

    #[test]
    fn outage_without_fading_has_zero_spread() {
        let out = Scenario::at(fig4_net(5.0))
            .fading(FadingModel::None, 8, 1)
            .build()
            .outage()
            .unwrap();
        let exact = fig4_net(5.0).max_sum_rate(Protocol::Mabc).unwrap().sum_rate;
        for &s in out.samples(Protocol::Mabc, 0) {
            assert!((s - exact).abs() < 1e-9);
        }
        let erg = out.ergodic_series(Protocol::Mabc);
        assert!((erg[0].1 - exact).abs() < 1e-9);
    }

    #[test]
    fn networks_axis_escape_hatch() {
        let pts = vec![
            (
                1.0,
                GaussianNetwork::new(1.0, ChannelState::new(0.5, 1.0, 1.0)),
            ),
            (
                2.0,
                GaussianNetwork::new(2.0, ChannelState::new(0.5, 1.0, 1.0)),
            ),
        ];
        let mut ev = Scenario::networks("custom", pts).build();
        assert_eq!(ev.x_name(), "custom");
        let sweep = ev.sweep().unwrap();
        assert_eq!(sweep.xs, vec![1.0, 2.0]);
        // More power, no smaller sum rate.
        for p in Protocol::ALL {
            let s = sweep.series(p).unwrap().sum_rates();
            assert!(s[1] >= s[0] - 1e-9);
        }
    }

    #[test]
    fn power_split_sweep_uniform_point_matches_symmetric_network() {
        // relay share 1/3 at balance 1/2 is the paper's symmetric setting.
        let state = ChannelState::new(1.0, 2.0, 2.0);
        let sweep = Scenario::power_split_sweep(state, 30.0, vec![1.0 / 3.0, 0.6])
            .build()
            .sweep()
            .unwrap();
        let classic = GaussianNetwork::new(10.0, state);
        for p in Protocol::ALL {
            let direct = classic.max_sum_rate(p).unwrap().sum_rate;
            let batched = sweep.series(p).unwrap().sum_rates()[0];
            assert!(
                (direct - batched).abs() < 1e-12,
                "{p}: {direct} vs {batched}"
            );
        }
        // Starving the terminals (60% at the relay) cannot help DT.
        let dt = sweep
            .series(Protocol::DirectTransmission)
            .unwrap()
            .sum_rates();
        assert!(dt[1] < dt[0]);
    }

    #[test]
    fn rate_floor_below_optimum_changes_nothing() {
        let scenario = Scenario::power_sweep_db(fig4_net(0.0), vec![5.0, 10.0]);
        let free = scenario.clone().build().sweep().unwrap();
        let floored = scenario.rate_floor(1e-6, 1e-6).build().sweep().unwrap();
        assert!(floored.is_complete());
        for p in Protocol::ALL {
            let a = free.series(p).unwrap().sum_rates();
            let b = floored.series(p).unwrap().sum_rates();
            for k in 0..a.len() {
                assert!((a[k] - b[k]).abs() < 1e-9, "{p} point {k}");
            }
        }
    }

    #[test]
    fn infeasible_rate_floor_is_recorded_not_fatal() {
        // At −20 dB nothing supports a 2-bit-per-user floor; at 25 dB the
        // relay protocols do. The batch must survive and record the skips.
        let sweep = Scenario::power_sweep_db(fig4_net(0.0), vec![-20.0, 25.0])
            .rate_floor(2.0, 2.0)
            .build()
            .sweep()
            .unwrap();
        assert!(!sweep.is_complete());
        assert_eq!(sweep.try_winner(0), None, "all protocols skipped");
        assert!(sweep.try_winner(1).is_some(), "high power is feasible");
        for p in Protocol::ALL {
            let s = &sweep.series(p).unwrap().solutions[0];
            assert!(s.sum_rate.is_nan(), "{p} placeholder");
        }
        for skip in sweep.skipped() {
            assert!(skip.error.is_infeasible());
        }
    }

    #[test]
    fn seeding_policy_is_deterministic_and_decorrelated() {
        assert_eq!(mix_seed(1, 0), mix_seed(1, 0));
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
        let a = Scenario::at(fig4_net(0.0))
            .rayleigh(20, 9)
            .build()
            .outage()
            .unwrap();
        let b = Scenario::at(fig4_net(0.0))
            .rayleigh(20, 9)
            .build()
            .outage()
            .unwrap();
        assert_eq!(a.samples(Protocol::Hbc, 0), b.samples(Protocol::Hbc, 0));
    }

    #[test]
    fn thread_override_does_not_change_results() {
        let scenario = Scenario::power_sweep_db(fig4_net(0.0), (-4..=12).map(f64::from));
        let serial = scenario.clone().threads(1).build().sweep().unwrap();
        for threads in [2, 3, 8] {
            let par = scenario.clone().threads(threads).build().sweep().unwrap();
            assert_eq!(serial, par, "sweep differs at {threads} threads");
        }
        assert!(serial.is_complete());
        assert!(serial.skipped().is_empty());
        assert_eq!(serial.try_winner(0), Some(serial.winner(0)));
    }

    #[test]
    fn outage_thread_override_bit_identical() {
        let scenario = Scenario::at(fig4_net(10.0)).rayleigh(40, 77);
        let serial = scenario.clone().threads(1).build().outage().unwrap();
        let par = scenario.threads(4).build().outage().unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn classify_solve_skips_only_infeasible() {
        let sol = SumRateSolution {
            protocol: Protocol::Mabc,
            sum_rate: 1.0,
            ra: 0.5,
            rb: 0.5,
            durations: crate::constraint::PhaseVec::from([0.5, 0.5]),
        };
        assert!(matches!(classify_solve(Ok(sol)), Ok(Ok(_))));
        // Infeasibility is recorded, not propagated...
        let infeasible = CoreError::Lp {
            context: "test".into(),
            source: bcc_lp::LpError::Infeasible,
        };
        assert!(matches!(classify_solve(Err(infeasible)), Ok(Err(e)) if e.is_infeasible()));
        // ...while solver breakdowns still abort the batch.
        let unbounded = CoreError::Lp {
            context: "test".into(),
            source: bcc_lp::LpError::Unbounded,
        };
        assert!(classify_solve(Err(unbounded)).is_err());
        let no_opt = CoreError::NoFiniteOptimum {
            context: "test".into(),
        };
        assert!(classify_solve(Err(no_opt)).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Scenario::at(fig4_net(0.0)).threads(0);
    }

    #[test]
    fn strict_wins_respects_margin() {
        let sweep = Scenario::relay_position_sweep(15.0, 3.0, (1..=19).map(|k| k as f64 / 20.0))
            .unwrap()
            .build()
            .sweep()
            .unwrap();
        let wins = sweep.strict_wins(Protocol::Hbc, 1e-6);
        assert!(!wins.is_empty(), "HBC strict band must exist at P = 15 dB");
        assert!(wins.iter().all(|&d| (0.2..=0.8).contains(&d)));
        // An absurd margin kills every win.
        assert!(sweep.strict_wins(Protocol::Hbc, 100.0).is_empty());
    }
}
