//! Closed-form fast paths and the zero-allocation batch solve context.
//!
//! # Closed forms
//!
//! For the **two-phase protocols** — direct transmission and MABC — the
//! workspace's dominant queries collapse analytically. With phase split
//! `Δ ∈ [0, 1]` (phase 2 lasts `1 − Δ`), every Theorem-2/DT rate bound is
//! a line `p·Δ + q·(1 − Δ)`, so
//!
//! * `max_sum_rate` maximises a **concave piecewise-linear** function of
//!   `Δ` — `min(mA(Δ) + mB(Δ), Δ·C_MAC)` for MABC, linear for DT — whose
//!   maximum sits at a kink or at an analytic crossing point;
//! * `max_min_rate` maximises `min` of at most five lines, whose maximum
//!   sits at a pairwise line crossing or an endpoint.
//!
//! Both are solved exactly by evaluating a handful of candidate `Δ`s —
//! tens of flops instead of a simplex run. The **multi-phase protocols**
//! follow the same geometry one dimension up: TDBC (sum and max–min) and
//! HBC (sum) are concave piecewise-linear programs over a 2- or
//! 3-simplex, solved exactly by enumerating the vertices of the linearity
//! subdivision (facets × kink planes — a few dozen cross products). The
//! kernel is dispatched automatically by [`SolveCtx`] (and
//! `GaussianNetwork::max_sum_rate`) whenever no QoS rate floor and no
//! outer bound is in play; the simplex answers the HBC max–min, floors
//! and outer bounds, and serves as the proptest oracle for every closed
//! form (`bcc-core/tests/kernel_oracle.rs`).
//!
//! The closed forms themselves are implemented **once**, as width-generic
//! lane kernels in [`crate::batch`] that write [`SolveOutcome`]s. A
//! scalar solve runs a lane body at width 1 and a block runs it over
//! vector chunks plus a width-1 tail, so scalar and batched answers are
//! bit-identical by construction.
//!
//! # The solve API
//!
//! The per-worker entry points are consolidated behind one typed request:
//! a [`SolveRequest`] names the objective ([`Objective::SumRate`] or
//! [`Objective::MaxMin`]), the protocol, the bound side and an optional
//! QoS floor, and resolves to a [`SolveOutcome`] through
//! [`SolveCtx::solve_one`] (scalar), [`SolveCtx::solve_block`] (batched
//! over a [`PointBlock`]) or [`SolveCtx::solve_best`] (argmax over
//! protocols). `solve_block` is the one public block entry point: the
//! lane kernels append their outcomes straight into its output column.
//! [`max_sum_rate`] and [`max_min_rate`] are the closed forms at one
//! network, as the legacy [`SumRateSolution`] / [`SchedulePoint`]
//! records.
//!
//! # The solve context
//!
//! [`SolveCtx`] bundles everything a batch worker needs to evaluate
//! operating points with **zero heap allocations per point** after
//! warm-up: a per-point [`LinkCaps`] memo, a [`ConstraintBuf`] arena the
//! `*_into` bound builders rebuild in place, and one warm-started simplex
//! (a [`bcc_lp::Workspace`] of flat tableau and warm-start bases, a
//! pooled-row [`Problem`] and a reusable [`Solution`]).
//!
//! A request takes one of two routes. An inner-bound request the closed
//! forms cover ([`SolveRequest::is_batchable`]) is answered from the
//! point's capacities; a new closed form plugs in at that test plus one
//! arm of the `(objective, protocol) → lane body` table in
//! [`crate::batch`]. Every other request — QoS floors, outer bounds
//! (HBC's ρ-family among them) and HBC's max–min — builds its constraint
//! set or family into the arena and goes through one LP loop, which
//! maximises the objective over the members and reports infeasibility
//! only when every member is infeasible.
//!
//! # The blocked driver
//!
//! Every comparison in the workspace solves a batch of independent
//! networks, so one driver serves them all: a [`BlockSolver`] per worker
//! (a `SolveCtx`, a [`PointBlock`] and one outcome column per request),
//! and [`par_blocks`] to fan block-sized index ranges across workers.
//! The single- and multi-pair sweeps, the fade sampler behind
//! `Evaluator::outage` (which the DMT and multi-pair outage studies
//! reduce) and `bcc-serve`'s drain use `par_blocks`; the city sweep and
//! the deep-outage sampler keep their own job index and use
//! `BlockSolver` directly.

use crate::batch::PointBlock;
use crate::bounds::{self, LinkCaps};
use crate::constraint::{ConstraintBuf, ConstraintSet, PhaseVec};
use crate::error::CoreError;
use crate::gaussian::{GaussianNetwork, SumRateSolution};
use crate::optimizer::SchedulePoint;
use crate::protocol::{Bound, Protocol};
use bcc_lp::{Problem, Relation, Sense, Solution, Workspace};
use std::ops::Range;

/// Closed-form `max_sum_rate` — covers **all four** protocols (DT and
/// MABC by 1-D line crossing, TDBC by 2-simplex vertex enumeration, HBC
/// by 3-simplex vertex enumeration).
pub fn max_sum_rate(net: &GaussianNetwork, protocol: Protocol) -> SumRateSolution {
    let caps = LinkCaps::compute(&net.powers(), &net.state());
    crate::batch::solve_one(&caps, Objective::SumRate, protocol)
        .expect("every protocol's sum rate has a closed form")
        .sum_rate_solution()
}

/// Closed-form `max_min_rate` (largest symmetric rate); `None` exactly
/// when [`SolveRequest::max_min`] of `protocol` is not
/// [batchable](SolveRequest::is_batchable) — HBC, whose four-phase
/// max–min stays on the simplex.
pub fn max_min_rate(net: &GaussianNetwork, protocol: Protocol) -> Option<SchedulePoint> {
    let caps = LinkCaps::compute(&net.powers(), &net.state());
    crate::batch::solve_one(&caps, Objective::MaxMin, protocol).map(|o| o.schedule_point())
}

/// The objective a [`SolveRequest`] optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Maximise the sum rate `R_a + R_b`.
    SumRate,
    /// Maximise the symmetric rate `min(R_a, R_b)`.
    MaxMin,
}

/// A typed solve request: one value naming everything a per-point query
/// needs — objective, protocol, bound side and optional QoS floor — in
/// place of the historical family of per-query [`SolveCtx`] methods.
///
/// Build one with [`SolveRequest::sum_rate`] or [`SolveRequest::max_min`]
/// and refine it builder-style:
///
/// ```
/// use bcc_core::kernel::SolveRequest;
/// use bcc_core::prelude::*;
///
/// let req = SolveRequest::sum_rate(Protocol::Hbc)
///     .with_bound(Bound::Outer)
///     .with_floor(Some((0.5, 0.5)));
/// # assert_eq!(req.protocol, Protocol::Hbc);
/// ```
///
/// The floor applies to the [`Objective::SumRate`] objective only (the
/// max–min objective has no floored form) and is ignored otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveRequest {
    /// What to optimise.
    pub objective: Objective,
    /// The protocol whose rate region is being queried.
    pub protocol: Protocol,
    /// Inner (achievable) or outer (converse) bound side.
    pub bound: Bound,
    /// Optional QoS floor `(ra_min, rb_min)` for the sum-rate objective.
    pub floor: Option<(f64, f64)>,
}

impl SolveRequest {
    /// A sum-rate request over the inner bound with no floor.
    pub fn sum_rate(protocol: Protocol) -> Self {
        SolveRequest {
            objective: Objective::SumRate,
            protocol,
            bound: Bound::Inner,
            floor: None,
        }
    }

    /// A max–min (symmetric-rate) request over the inner bound.
    pub fn max_min(protocol: Protocol) -> Self {
        SolveRequest {
            objective: Objective::MaxMin,
            protocol,
            bound: Bound::Inner,
            floor: None,
        }
    }

    /// Replaces the bound side.
    pub fn with_bound(mut self, bound: Bound) -> Self {
        self.bound = bound;
        self
    }

    /// Replaces the QoS floor (sum-rate objective only).
    pub fn with_floor(mut self, floor: Option<(f64, f64)>) -> Self {
        self.floor = floor;
        self
    }

    /// Whether this request is served by the closed-form batch kernels:
    /// inner bound, no floor for the sum-rate objective (floors go
    /// through the LP), and — for max–min — not HBC (whose four-phase
    /// max–min stays on the simplex).
    pub fn is_batchable(&self) -> bool {
        self.bound == Bound::Inner
            && match self.objective {
                Objective::SumRate => self.floor.is_none(),
                Objective::MaxMin => self.protocol != Protocol::Hbc,
            }
    }
}

/// The resolved operating point of one [`SolveRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOutcome {
    /// The protocol that was solved.
    pub protocol: Protocol,
    /// The objective that was optimised.
    pub objective: Objective,
    /// Rate a → b at the optimum.
    pub ra: f64,
    /// Rate b → a at the optimum.
    pub rb: f64,
    /// Optimal phase durations.
    pub durations: PhaseVec,
    /// Optimal objective value (`ra + rb` for sum rate, the symmetric
    /// rate `t` for max–min).
    pub value: f64,
}

impl SolveOutcome {
    fn from_point(protocol: Protocol, objective: Objective, pt: SchedulePoint) -> Self {
        SolveOutcome {
            protocol,
            objective,
            ra: pt.ra,
            rb: pt.rb,
            durations: pt.durations,
            value: pt.objective,
        }
    }

    /// This outcome as the legacy [`SumRateSolution`] record.
    pub fn sum_rate_solution(&self) -> SumRateSolution {
        SumRateSolution {
            protocol: self.protocol,
            sum_rate: self.value,
            ra: self.ra,
            rb: self.rb,
            durations: self.durations,
        }
    }

    /// This outcome as the legacy [`SchedulePoint`] record.
    pub fn schedule_point(&self) -> SchedulePoint {
        SchedulePoint {
            ra: self.ra,
            rb: self.rb,
            durations: self.durations,
            objective: self.value,
        }
    }
}

/// Fails with [`CoreError::Injected`] when the active fault scope fates
/// this item to kernel poison.
///
/// A deterministic chaos hook: the verdict is a pure function of the
/// scope's token (see `bcc_num::faults::site_fated`) and holds on every
/// re-examination, so batch drivers fall back per point and serving
/// layers degrade to a conservative answer. One thread-local read when
/// no scope is active.
fn kernel_poison() -> Result<(), CoreError> {
    if bcc_num::faults::site_fated(bcc_num::faults::FaultSite::KernelPoison) {
        return Err(CoreError::Injected {
            site: "kernel poison",
        });
    }
    Ok(())
}

/// Builds the **phase-substituted** LP rows of `set` into `prob`.
///
/// The textbook formulation carries all `L` durations plus the simplex-
/// share equality `Σ Δ_ℓ = 1`, whose artificial variable forces a phase-1
/// pass on every solve. The hot path instead substitutes
/// `Δ_L = 1 − Σ_{ℓ<L} Δ_ℓ`, turning every rate bound
/// `lhs ≤ Σ c_ℓ Δ_ℓ` into `lhs + Σ_{ℓ<L} (c_L − c_ℓ)·Δ_ℓ ≤ c_L` — all
/// `≤` rows with non-negative right-hand sides, so the all-slack basis is
/// feasible and the simplex starts **directly in phase 2** (and the warm
/// path prices one fewer dimension). Variables are
/// `(R_a, R_b, Δ_1..Δ_{L−1}, [extras])`; `n` is the total count.
fn push_constraint_rows(prob: &mut Problem, row: &mut Vec<f64>, set: &ConstraintSet, n: usize) {
    let l = set.num_phases();
    for c in set.constraints() {
        row.clear();
        row.resize(n, 0.0);
        row[0] = c.ra;
        row[1] = c.rb;
        let c_last = c.phase_coefs[l - 1];
        for (idx, coef) in c.phase_coefs.iter().take(l - 1).enumerate() {
            row[2 + idx] = c_last - coef;
        }
        prob.subject_to(row, Relation::Le, c_last);
    }
    if l > 1 {
        // Δ_L ≥ 0 ⇔ Σ_{ℓ<L} Δ_ℓ ≤ 1.
        row.clear();
        row.resize(n, 0.0);
        for v in row.iter_mut().skip(2).take(l - 1) {
            *v = 1.0;
        }
        prob.subject_to(row, Relation::Le, 1.0);
    }
}

/// Reconstructs the full duration vector from the substituted variables
/// (`Δ_L = 1 − Σ`, clamped against float dust).
fn durations_from(x: &[f64], l: usize) -> PhaseVec {
    let mut d = PhaseVec::from_slice(&x[2..2 + l - 1]);
    let used: f64 = d.iter().sum();
    d.push((1.0 - used).max(0.0));
    d
}

/// The warm-started simplex behind every request the closed forms do not
/// answer: the LP workspace (flat tableau + warm-start bases), a
/// pooled-row [`Problem`], a reusable [`Solution`] and row scratch.
#[derive(Debug)]
struct Lp {
    ws: Workspace,
    prob: Problem,
    sol: Solution,
    row: Vec<f64>,
    obj: Vec<f64>,
}

impl Default for Lp {
    fn default() -> Self {
        Lp {
            ws: Workspace::new(),
            // Placeholder shape; every solve `reset`s the problem first.
            prob: Problem::maximize(&[0.0]),
            sol: Solution::default(),
            row: Vec::new(),
            obj: Vec::new(),
        }
    }
}

impl Lp {
    /// `max R_a + R_b` over `set`, with optional QoS floors
    /// `R_a ≥ ra_min`, `R_b ≥ rb_min`.
    fn sum_rate(
        &mut self,
        set: &ConstraintSet,
        floor: Option<(f64, f64)>,
    ) -> Result<SchedulePoint, CoreError> {
        let l = set.num_phases();
        let n = 2 + (l - 1);
        let row = &mut self.row;
        self.obj.clear();
        self.obj.resize(n, 0.0);
        self.obj[0] = 1.0;
        self.obj[1] = 1.0;
        self.prob.reset(Sense::Maximize, &self.obj);
        push_constraint_rows(&mut self.prob, row, set, n);
        if let Some((ra_min, rb_min)) = floor {
            row.clear();
            row.resize(n, 0.0);
            row[0] = 1.0;
            self.prob.subject_to(row, Relation::Ge, ra_min);
            row[0] = 0.0;
            row[1] = 1.0;
            self.prob.subject_to(row, Relation::Ge, rb_min);
        }
        self.prob
            .solve_warm_into(&mut self.ws, &mut self.sol)
            .map_err(|e| {
                let what = if floor.is_some() {
                    "sum-rate with QoS floor"
                } else {
                    "sum-rate"
                };
                CoreError::lp(format!("{} {what}", set.name), e)
            })?;
        Ok(self.point(l))
    }

    /// `max t` subject to `t ≤ R_a`, `t ≤ R_b` over `set`.
    fn max_min(&mut self, set: &ConstraintSet) -> Result<SchedulePoint, CoreError> {
        let l = set.num_phases();
        let n = 2 + (l - 1) + 1;
        let row = &mut self.row;
        self.obj.clear();
        self.obj.resize(n, 0.0);
        self.obj[n - 1] = 1.0;
        self.prob.reset(Sense::Maximize, &self.obj);
        push_constraint_rows(&mut self.prob, row, set, n);
        // t − R_a ≤ 0, t − R_b ≤ 0 (kept as `≤` rows so the all-slack basis
        // stays feasible and no phase-1 pass is needed).
        row.clear();
        row.resize(n, 0.0);
        row[0] = -1.0;
        row[n - 1] = 1.0;
        self.prob.subject_to(row, Relation::Le, 0.0);
        row[0] = 0.0;
        row[1] = -1.0;
        self.prob.subject_to(row, Relation::Le, 0.0);
        self.prob
            .solve_warm_into(&mut self.ws, &mut self.sol)
            .map_err(|e| CoreError::lp(format!("{} max-min", set.name), e))?;
        Ok(self.point(l))
    }

    /// The last solution as an operating point of an `l`-phase set.
    fn point(&self, l: usize) -> SchedulePoint {
        SchedulePoint {
            ra: self.sol.x[0],
            rb: self.sol.x[1],
            durations: durations_from(&self.sol.x, l),
            objective: self.sol.objective,
        }
    }

    /// Solves `req`'s objective over each member of `sets` in order and
    /// keeps the greatest (the earliest of equal optima). Infeasible
    /// members are skipped; the request is infeasible only when every
    /// member is.
    fn best(
        &mut self,
        sets: &[ConstraintSet],
        req: SolveRequest,
    ) -> Result<SolveOutcome, CoreError> {
        let mut best: Option<SchedulePoint> = None;
        let mut infeasible: Option<CoreError> = None;
        for set in sets {
            let solved = match req.objective {
                Objective::SumRate => self.sum_rate(set, req.floor),
                Objective::MaxMin => self.max_min(set),
            };
            match solved {
                Ok(pt) => {
                    if best.as_ref().is_none_or(|b| pt.objective > b.objective) {
                        best = Some(pt);
                    }
                }
                Err(e) if e.is_infeasible() => infeasible = Some(e),
                Err(e) => return Err(e),
            }
        }
        match best {
            Some(pt) => Ok(SolveOutcome::from_point(req.protocol, req.objective, pt)),
            None => Err(infeasible.expect("constraint families are non-empty")),
        }
    }
}

/// A per-worker batch solve context: a per-point capacity memo, a
/// constraint arena and the warm-started simplex — everything needed to
/// evaluate grid points and fade draws with zero heap allocations per
/// point after warm-up (see the module docs).
#[derive(Debug, Default)]
pub struct SolveCtx {
    lp: Lp,
    buf: ConstraintBuf,
    /// Per-point capacity memo: the four protocols of one grid point share
    /// one [`LinkCaps`] evaluation (pure function of the key, so caching
    /// never changes results).
    caps: Option<(bcc_channel::PowerSplit, bcc_channel::ChannelState, LinkCaps)>,
}

impl SolveCtx {
    /// Creates an empty context (buffers grow to fit on first use).
    pub fn new() -> Self {
        SolveCtx::default()
    }

    /// The memoised per-point capacity bundle (see [`LinkCaps`]).
    fn link_caps(&mut self, net: &GaussianNetwork) -> LinkCaps {
        let powers = net.powers();
        let state = net.state();
        if let Some((p, st, caps)) = &self.caps {
            if *p == powers && *st == state {
                return *caps;
            }
        }
        let caps = LinkCaps::compute(&powers, &state);
        self.caps = Some((powers, state, caps));
        caps
    }

    /// Resolves one [`SolveRequest`] at `net`.
    ///
    /// An inner-bound request reads the point's memoised [`LinkCaps`];
    /// the closed-form kernel answers it if it [is
    /// batchable](SolveRequest::is_batchable), otherwise the warm-started
    /// simplex solves the inner set built from those caps. An outer-bound
    /// request builds its constraint family (HBC's is a ρ-family) and
    /// takes the best member. A floor is honoured for the sum-rate
    /// objective and ignored for max–min.
    ///
    /// # Errors
    ///
    /// Propagates LP failures; with a floor, an infeasibility error
    /// means the floor is unachievable at this operating point (by every
    /// member of an outer family). Fails with [`CoreError::Injected`] for
    /// a point the active fault scope poisons.
    pub fn solve_one(
        &mut self,
        net: &GaussianNetwork,
        req: SolveRequest,
    ) -> Result<SolveOutcome, CoreError> {
        kernel_poison()?;
        match req.bound {
            Bound::Inner => {
                let caps = self.link_caps(net);
                self.solve_inner(&caps, req)
            }
            Bound::Outer => {
                let sets = bounds::constraint_sets_split_into(
                    req.protocol,
                    req.bound,
                    &net.powers(),
                    &net.state(),
                    &mut self.buf,
                );
                self.lp.best(sets, req)
            }
        }
    }

    /// One inner-bound request from its point's capacity bundle: the
    /// closed form where the request is batchable, else the LP over the
    /// inner set built from `caps`.
    fn solve_inner(
        &mut self,
        caps: &LinkCaps,
        req: SolveRequest,
    ) -> Result<SolveOutcome, CoreError> {
        if req.is_batchable() {
            if let Some(outcome) = crate::batch::solve_one(caps, req.objective, req.protocol) {
                return Ok(outcome);
            }
        }
        self.buf.begin();
        bounds::inner_constraints_from_caps_into(req.protocol, caps, self.buf.next_set());
        self.lp.best(self.buf.sets(), req)
    }

    /// Resolves one [`SolveRequest`] for **every point of a block**,
    /// appending outcomes to `out` in block order.
    ///
    /// [Batchable](SolveRequest::is_batchable) requests run through the
    /// SIMD lane kernels of [`crate::batch`], which append their outcomes
    /// to `out` directly (bit-identical to the scalar path). Every other
    /// request goes point by point, exactly as
    /// [`SolveCtx::solve_one`] would: an inner-bound one builds its set
    /// from the block's capacity lanes, an outer-bound one from the
    /// point's network.
    ///
    /// # Errors
    ///
    /// Propagates the per-point failures of [`SolveCtx::solve_one`]; on
    /// error `out` may hold outcomes for a prefix of the block.
    ///
    /// # Panics
    ///
    /// Panics if the request is over the inner bound and
    /// [`PointBlock::compute_caps`] has not run since the block's last
    /// push.
    pub fn solve_block(
        &mut self,
        block: &PointBlock,
        req: SolveRequest,
        out: &mut Vec<SolveOutcome>,
    ) -> Result<(), CoreError> {
        out.reserve(block.len());
        if req.is_batchable() && crate::batch::solve_block(block, req.objective, req.protocol, out)
        {
            return Ok(());
        }
        for i in 0..block.len() {
            let outcome = match req.bound {
                Bound::Inner => {
                    kernel_poison()?;
                    self.solve_inner(&block.caps(i), req)?
                }
                Bound::Outer => self.solve_one(&block.net(i), req)?,
            };
            out.push(outcome);
        }
        Ok(())
    }

    /// Selects the best protocol at `net` by optimal objective value —
    /// the protocol-selection primitive behind the `bcc-serve` query
    /// engine.
    ///
    /// Every protocol in `protocols` is resolved through
    /// [`SolveCtx::solve_one`] and the winner is the one with the
    /// strictly greatest value; ties resolve to the **earliest** protocol
    /// in `protocols`, so the answer is deterministic. Protocols whose LP
    /// is infeasible under `floor` are skipped; `Ok(None)` means *every*
    /// protocol was infeasible (the floor is unachievable at this
    /// operating point by any strategy).
    ///
    /// # Errors
    ///
    /// Propagates non-infeasibility LP failures (not expected for valid
    /// inputs).
    pub fn solve_best(
        &mut self,
        net: &GaussianNetwork,
        protocols: &[Protocol],
        objective: Objective,
        bound: Bound,
        floor: Option<(f64, f64)>,
    ) -> Result<Option<SolveOutcome>, CoreError> {
        let mut best: Option<SolveOutcome> = None;
        for &protocol in protocols {
            let req = SolveRequest {
                objective,
                protocol,
                bound,
                floor,
            };
            let outcome = match self.solve_one(net, req) {
                Ok(o) => o,
                Err(e) if e.is_infeasible() => continue,
                Err(e) => return Err(e),
            };
            if best.as_ref().is_none_or(|b| outcome.value > b.value) {
                best = Some(outcome);
            }
        }
        Ok(best)
    }
}

/// The per-worker state of a blocked fan-out: a [`SolveCtx`], a reusable
/// [`PointBlock`] and one outcome column per request. Every blocked
/// driver in the workspace runs on it, most through [`par_blocks`].
///
/// A job [`fill`](BlockSolver::fill)s the block with its points and then
/// [`solve`](BlockSolver::solve)s its requests over them. Each point's
/// outcome depends only on that point (the [`SolveCtx::solve_block`]
/// contract), so results are bit-identical at any block size.
#[derive(Debug, Default)]
pub struct BlockSolver {
    ctx: SolveCtx,
    block: PointBlock,
    outs: Vec<Vec<SolveOutcome>>,
}

impl BlockSolver {
    /// An empty worker (buffers grow to fit on first use).
    pub fn new() -> Self {
        BlockSolver::default()
    }

    /// The worker's solve context, for per-point solves.
    pub fn ctx(&mut self) -> &mut SolveCtx {
        &mut self.ctx
    }

    /// Clears the block and hands it out to be filled with a job's
    /// points.
    pub fn fill(&mut self) -> &mut PointBlock {
        self.block.clear();
        &mut self.block
    }

    /// Computes the block's capacity lanes, then runs one
    /// [`SolveCtx::solve_block`] per request. Returns one column per
    /// request, in request order, each in block order.
    ///
    /// # Errors
    ///
    /// The first failing request's error (see [`SolveCtx::solve_block`]).
    pub fn solve(&mut self, requests: &[SolveRequest]) -> Result<&[Vec<SolveOutcome>], CoreError> {
        self.block.compute_caps();
        if self.outs.len() < requests.len() {
            self.outs.resize_with(requests.len(), Vec::new);
        }
        for (out, &req) in self.outs.iter_mut().zip(requests) {
            out.clear();
            self.ctx.solve_block(&self.block, req, out)?;
        }
        Ok(&self.outs[..requests.len()])
    }
}

/// Runs `job` over `0..n` in `block`-sized index ranges, fanned across
/// `threads` workers with one [`BlockSolver`] each, and returns the
/// results in range order.
///
/// The ranges come in order, each `block` long except possibly the
/// last, and cover `0..n` exactly once. Scheduling goes through
/// [`bcc_num::par::try_par_map_range`], so a job's result must depend
/// only on its range (never on what its worker solved before); then the
/// output is bit-identical at any thread count.
///
/// # Errors
///
/// The error of the lowest failing range, at any thread count: the one
/// a serial run would hit first.
///
/// # Panics
///
/// Panics if `block == 0`. A panic inside `job` propagates after the
/// batch, lowest range first.
pub fn par_blocks<R, F>(threads: usize, n: usize, block: usize, job: F) -> Result<Vec<R>, CoreError>
where
    R: Send,
    F: Fn(&mut BlockSolver, Range<usize>) -> Result<R, CoreError> + Sync,
{
    assert!(block >= 1, "need at least one point per block");
    bcc_num::par::try_par_map_range(threads, n.div_ceil(block), BlockSolver::new, |solver, j| {
        let lo = j * block;
        job(solver, lo..n.min(lo + block))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer;
    use bcc_channel::{ChannelState, PowerSplit};

    use bcc_num::approx_eq;

    fn net(p: f64, gab: f64, gar: f64, gbr: f64) -> GaussianNetwork {
        GaussianNetwork::new(p, ChannelState::new(gab, gar, gbr))
    }

    fn fig4(p: f64) -> GaussianNetwork {
        net(p, 0.19952623149688797, 1.0, 3.1622776601683795)
    }

    #[test]
    fn dt_sum_rate_matches_simplex() {
        for p in [0.0, 0.5, 10.0, 31.6] {
            let n = fig4(p);
            let kernel = max_sum_rate(&n, Protocol::DirectTransmission);
            let sets = n.constraint_sets(Protocol::DirectTransmission, Bound::Inner);
            let lp = optimizer::max_sum_rate(&sets[0]).unwrap();
            assert!(
                approx_eq(kernel.sum_rate, lp.objective, 1e-9),
                "P={p}: {} vs {}",
                kernel.sum_rate,
                lp.objective
            );
            assert!(sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9));
        }
    }

    #[test]
    fn mabc_sum_rate_matches_simplex_on_grid() {
        for p in [0.5, 2.0, 10.0] {
            for (gar, gbr) in [(1.0, 1.0), (0.2, 5.0), (10.0, 0.01), (3.0, 3.0)] {
                let n = net(p, 1.0, gar, gbr);
                let kernel = max_sum_rate(&n, Protocol::Mabc);
                let sets = n.constraint_sets(Protocol::Mabc, Bound::Inner);
                let lp = optimizer::max_sum_rate(&sets[0]).unwrap();
                assert!(
                    approx_eq(kernel.sum_rate, lp.objective, 1e-9),
                    "P={p} gar={gar} gbr={gbr}: {} vs {}",
                    kernel.sum_rate,
                    lp.objective
                );
                assert!(
                    sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9),
                    "kernel point infeasible at P={p} gar={gar} gbr={gbr}"
                );
                let total: f64 = kernel.durations.iter().sum();
                assert!(approx_eq(total, 1.0, 1e-12));
            }
        }
    }

    #[test]
    fn mabc_max_min_matches_simplex_on_grid() {
        for p in [0.5, 2.0, 10.0] {
            for (gar, gbr) in [(1.0, 1.0), (0.2, 5.0), (4.0, 0.5)] {
                let n = net(p, 0.5, gar, gbr);
                let kernel = max_min_rate(&n, Protocol::Mabc).unwrap();
                let sets = n.constraint_sets(Protocol::Mabc, Bound::Inner);
                let lp = optimizer::max_min_rate(&sets[0]).unwrap();
                assert!(
                    approx_eq(kernel.objective, lp.objective, 1e-9),
                    "P={p} gar={gar} gbr={gbr}: {} vs {}",
                    kernel.objective,
                    lp.objective
                );
                assert!(sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9));
            }
        }
    }

    #[test]
    fn dt_max_min_closed_form() {
        let n = net(10.0, 1.0, 1.0, 1.0);
        let kernel = max_min_rate(&n, Protocol::DirectTransmission).unwrap();
        let sets = n.constraint_sets(Protocol::DirectTransmission, Bound::Inner);
        let lp = optimizer::max_min_rate(&sets[0]).unwrap();
        assert!(approx_eq(kernel.objective, lp.objective, 1e-9));
        // Symmetric caps: split is even, t = C/2.
        assert!(approx_eq(kernel.durations[0], 0.5, 1e-12));
    }

    #[test]
    fn kernel_coverage_matches_dispatch_rules() {
        let n = fig4(10.0);
        // Every sum rate has a closed form; max–min has one exactly where
        // the request is batchable (everything but HBC).
        for proto in Protocol::ALL {
            assert!(SolveRequest::sum_rate(proto).is_batchable());
            let batchable = SolveRequest::max_min(proto).is_batchable();
            assert_eq!(max_min_rate(&n, proto).is_some(), batchable, "{proto}");
        }
        assert!(max_min_rate(&n, Protocol::Tdbc).is_some());
        assert!(max_min_rate(&n, Protocol::Hbc).is_none());
    }

    #[test]
    fn hbc_sum_rate_matches_simplex_on_grid() {
        for p in [0.5, 2.0, 10.0, 31.6] {
            for (gab, gar, gbr) in [
                (0.2, 1.0, 3.16),
                (1.0, 1.0, 1.0),
                (1.0, 0.01, 10.0),
                (0.0, 2.0, 2.0),
                (5.0, 0.5, 0.5),
                (1.0, 0.0, 1.0),
                (0.5, 10.0, 0.1),
            ] {
                let n = net(p, gab, gar, gbr);
                let kernel = max_sum_rate(&n, Protocol::Hbc);
                let sets = n.constraint_sets(Protocol::Hbc, Bound::Inner);
                let lp = optimizer::max_sum_rate(&sets[0]).unwrap();
                assert!(
                    approx_eq(kernel.sum_rate, lp.objective, 1e-9),
                    "P={p} gab={gab} gar={gar} gbr={gbr}: {} vs {}",
                    kernel.sum_rate,
                    lp.objective
                );
                assert!(
                    sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9),
                    "kernel point infeasible at P={p} gab={gab} gar={gar} gbr={gbr}"
                );
                assert!(approx_eq(kernel.ra + kernel.rb, kernel.sum_rate, 1e-9));
                let total: f64 = kernel.durations.iter().sum();
                assert!(approx_eq(total, 1.0, 1e-8));
            }
        }
    }

    #[test]
    fn tdbc_max_min_matches_simplex_on_grid() {
        for p in [0.5, 2.0, 10.0, 31.6] {
            for (gab, gar, gbr) in [
                (0.2, 1.0, 3.16),
                (1.0, 1.0, 1.0),
                (1.0, 0.01, 10.0),
                (0.0, 2.0, 2.0),
                (5.0, 0.5, 0.5),
                (1.0, 0.0, 1.0),
            ] {
                let n = net(p, gab, gar, gbr);
                let kernel = max_min_rate(&n, Protocol::Tdbc).unwrap();
                let sets = n.constraint_sets(Protocol::Tdbc, Bound::Inner);
                let lp = optimizer::max_min_rate(&sets[0]).unwrap();
                assert!(
                    approx_eq(kernel.objective, lp.objective, 1e-9),
                    "P={p} gab={gab} gar={gar} gbr={gbr}: {} vs {}",
                    kernel.objective,
                    lp.objective
                );
                assert!(
                    sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9),
                    "kernel point infeasible at P={p} gab={gab} gar={gar} gbr={gbr}"
                );
            }
        }
    }

    #[test]
    fn tdbc_sum_rate_matches_simplex_on_grid() {
        for p in [0.5, 2.0, 10.0, 31.6] {
            for (gab, gar, gbr) in [
                (0.2, 1.0, 3.16),
                (1.0, 1.0, 1.0),
                (1.0, 0.01, 10.0),
                (0.0, 2.0, 2.0),
                (5.0, 0.5, 0.5),
                (1.0, 0.0, 1.0),
            ] {
                let n = net(p, gab, gar, gbr);
                let kernel = max_sum_rate(&n, Protocol::Tdbc);
                let sets = n.constraint_sets(Protocol::Tdbc, Bound::Inner);
                let lp = optimizer::max_sum_rate(&sets[0]).unwrap();
                assert!(
                    approx_eq(kernel.sum_rate, lp.objective, 1e-9),
                    "P={p} gab={gab} gar={gar} gbr={gbr}: {} vs {}",
                    kernel.sum_rate,
                    lp.objective
                );
                assert!(
                    sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9),
                    "kernel point infeasible at P={p} gab={gab} gar={gar} gbr={gbr}"
                );
                let total: f64 = kernel.durations.iter().sum();
                assert!(approx_eq(total, 1.0, 1e-8));
            }
        }
    }

    #[test]
    fn zero_power_edge_cases() {
        let dead = GaussianNetwork::with_powers(
            PowerSplit::new(0.0, 0.0, 0.0),
            ChannelState::new(1.0, 1.0, 1.0),
        );
        for proto in [Protocol::DirectTransmission, Protocol::Mabc] {
            let s = max_sum_rate(&dead, proto);
            assert!(approx_eq(s.sum_rate, 0.0, 1e-12), "{proto}");
            let t = max_min_rate(&dead, proto).unwrap();
            assert!(approx_eq(t.objective, 0.0, 1e-12), "{proto}");
        }
        // Silent relay starves MABC broadcast but not DT.
        let silent_relay = GaussianNetwork::with_powers(
            PowerSplit::new(10.0, 10.0, 0.0),
            ChannelState::new(1.0, 1.0, 1.0),
        );
        let s = max_sum_rate(&silent_relay, Protocol::Mabc);
        assert!(approx_eq(s.sum_rate, 0.0, 1e-9), "no broadcast, no rate");
    }

    #[test]
    fn ctx_sum_rate_agrees_with_network_queries() {
        let mut ctx = SolveCtx::new();
        for p in [1.0, 10.0] {
            let n = fig4(p);
            for proto in Protocol::ALL {
                let a = ctx
                    .solve_one(&n, SolveRequest::sum_rate(proto))
                    .unwrap()
                    .sum_rate_solution();
                let b = n.max_sum_rate(proto).unwrap();
                assert_eq!(a, b, "{proto} at P={p}");
            }
        }
    }

    #[test]
    fn par_blocks_ranges_are_ordered_and_cover_exactly_once() {
        for n in [0usize, 1, 1023, 1024, 1025] {
            for block in [1usize, 7, 1024] {
                for threads in [1usize, 4] {
                    let ranges = par_blocks(threads, n, block, |_, r| Ok(r)).unwrap();
                    assert_eq!(ranges.len(), n.div_ceil(block), "n {n} block {block}");
                    let mut next = 0;
                    for (j, r) in ranges.iter().enumerate() {
                        assert_eq!(r.start, next, "n {n} block {block} range {j}");
                        if j + 1 < ranges.len() {
                            assert_eq!(r.len(), block, "n {n} block {block} range {j}");
                        } else {
                            assert!((1..=block).contains(&r.len()), "n {n} block {block}");
                        }
                        next = r.end;
                    }
                    assert_eq!(next, n, "n {n} block {block} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn par_blocks_reports_the_lowest_failing_range() {
        for threads in [1usize, 4] {
            let err = par_blocks(threads, 200, 7, |_, r| {
                if r.start >= 63 && r.start % 2 == 1 {
                    Err(CoreError::InvalidInput {
                        context: format!("range at {}", r.start),
                    })
                } else {
                    Ok(r.len())
                }
            })
            .unwrap_err();
            assert_eq!(
                err,
                CoreError::InvalidInput {
                    context: "range at 63".into()
                },
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn block_solver_returns_only_the_requested_columns() {
        let nets = [fig4(1.0), fig4(10.0), net(5.0, 1.0, 0.2, 4.0)];
        let requests = [
            SolveRequest::sum_rate(Protocol::Hbc),
            SolveRequest::max_min(Protocol::Tdbc),
            SolveRequest::sum_rate(Protocol::Mabc).with_bound(Bound::Outer),
        ];
        let mut solver = BlockSolver::new();
        let mut ctx = SolveCtx::new();
        for take in [3usize, 1, 2] {
            let block = solver.fill();
            for n in &nets {
                block.push_net(n);
            }
            let cols = solver.solve(&requests[..take]).unwrap();
            assert_eq!(cols.len(), take);
            for (col, &req) in cols.iter().zip(&requests) {
                assert_eq!(col.len(), nets.len());
                for (got, n) in col.iter().zip(&nets) {
                    assert_eq!(*got, ctx.solve_one(n, req).unwrap(), "{req:?}");
                }
            }
        }
    }

    #[test]
    fn best_sum_rate_picks_the_argmax_protocol() {
        let mut ctx = SolveCtx::new();
        for p in [0.5, 10.0, 31.6] {
            let n = fig4(p);
            let best = ctx
                .solve_best(&n, &Protocol::ALL, Objective::SumRate, Bound::Inner, None)
                .unwrap()
                .expect("no floor, always feasible")
                .sum_rate_solution();
            for proto in Protocol::ALL {
                let sol = ctx
                    .solve_one(&n, SolveRequest::sum_rate(proto))
                    .unwrap()
                    .sum_rate_solution();
                assert!(
                    best.sum_rate >= sol.sum_rate,
                    "P={p}: winner {} lost to {proto}",
                    best.protocol
                );
                if proto == best.protocol {
                    assert_eq!(best, sol, "winner must carry its own solution");
                }
            }
        }
    }

    #[test]
    fn best_sum_rate_ties_resolve_to_earliest_protocol() {
        // A dead network scores 0 for every protocol: the first listed wins.
        let dead = GaussianNetwork::with_powers(
            PowerSplit::new(0.0, 0.0, 0.0),
            ChannelState::new(1.0, 1.0, 1.0),
        );
        let mut ctx = SolveCtx::new();
        let best = ctx
            .solve_best(
                &dead,
                &Protocol::ALL,
                Objective::SumRate,
                Bound::Inner,
                None,
            )
            .unwrap()
            .unwrap();
        assert_eq!(best.protocol, Protocol::DirectTransmission);
        let best = ctx
            .solve_best(
                &dead,
                &Protocol::RELAYED,
                Objective::SumRate,
                Bound::Inner,
                None,
            )
            .unwrap()
            .unwrap();
        assert_eq!(best.protocol, Protocol::Mabc);
    }

    #[test]
    fn best_sum_rate_skips_infeasible_and_reports_total_infeasibility() {
        let n = fig4(10.0);
        let mut ctx = SolveCtx::new();
        // A floor no protocol can reach at P = 10 dB.
        let none = ctx
            .solve_best(
                &n,
                &Protocol::ALL,
                Objective::SumRate,
                Bound::Inner,
                Some((50.0, 50.0)),
            )
            .unwrap();
        assert!(none.is_none(), "absurd floor must be infeasible everywhere");
        // A floor only the relay-aided protocols can reach: DT is skipped,
        // the winner still appears.
        let dt_cap = ctx
            .solve_one(&n, SolveRequest::sum_rate(Protocol::DirectTransmission))
            .unwrap()
            .value;
        let floor = (dt_cap * 0.75, dt_cap * 0.75);
        let best = ctx
            .solve_best(
                &n,
                &Protocol::ALL,
                Objective::SumRate,
                Bound::Inner,
                Some(floor),
            )
            .unwrap()
            .expect("relay-aided protocols satisfy the floor");
        assert_ne!(best.protocol, Protocol::DirectTransmission);
        assert!(best.ra >= floor.0 - 1e-9 && best.rb >= floor.1 - 1e-9);
    }

    #[test]
    fn lp_zeros_are_positive_at_every_opt_level() {
        // Outer TDBC at P = 1, G = (5, 0.5, 0.5) puts the whole frame in
        // phase 1, so the simplex clamps the other two durations to zero.
        let out = SolveCtx::new()
            .solve_one(
                &net(1.0, 5.0, 0.5, 0.5),
                SolveRequest::sum_rate(Protocol::Tdbc).with_bound(Bound::Outer),
            )
            .unwrap();
        let fields = [out.ra, out.rb, out.value];
        let zeros: Vec<f64> = fields
            .iter()
            .chain(out.durations.iter())
            .copied()
            .filter(|v| *v == 0.0)
            .collect();
        assert!(zeros.len() >= 2, "{out:?}");
        for z in zeros {
            assert_eq!(z.to_bits(), 0.0f64.to_bits(), "{out:?}");
        }
    }

    #[test]
    fn ctx_family_maximum_matches_per_member_solves() {
        type Oracle = fn(&ConstraintSet) -> Result<SchedulePoint, CoreError>;
        let mut ctx = SolveCtx::new();
        for n in [fig4(10.0), fig4(1.0), net(5.0, 1.0, 0.2, 4.0)] {
            for proto in [Protocol::Tdbc, Protocol::Hbc] {
                let sets = n.constraint_sets(proto, Bound::Outer);
                let cases: [(SolveRequest, Oracle); 2] = [
                    (SolveRequest::sum_rate(proto), optimizer::max_sum_rate),
                    (SolveRequest::max_min(proto), optimizer::max_min_rate),
                ];
                for (req, oracle) in cases {
                    let got = ctx.solve_one(&n, req.with_bound(Bound::Outer)).unwrap();
                    let direct = sets
                        .iter()
                        .map(|s| oracle(s).unwrap().objective)
                        .fold(f64::NEG_INFINITY, f64::max);
                    assert!(
                        approx_eq(got.value, direct, 1e-9),
                        "{req:?}: {} vs {direct}",
                        got.value
                    );
                    assert!(
                        sets.iter()
                            .any(|s| s.all_satisfied(got.ra, got.rb, &got.durations, 1e-9)),
                        "{req:?}: the optimum lies in no member"
                    );
                }
            }
        }
    }
}
