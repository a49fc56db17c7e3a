//! Deep-outage estimation: importance-sampled tails over the scenario grid.
//!
//! Plain Monte-Carlo outage estimation ([`Evaluator::outage`],
//! [`Evaluator::dmt`]) cannot resolve probabilities below its resolution
//! floor `1/trials` — at 10k trials the study bottoms out near 1e-3, while
//! reliability targets live at 1e-6..1e-9. This module closes that gap with
//! **exponentially tilted importance sampling** of the fade powers:
//!
//! 1. **Tilt selection** — per cell (`protocol × multiplexing gain × grid
//!    point`), a deterministic bisection on the closed-form sum-rate kernel
//!    finds the common fade level `s*` where the all-links-equally-faded
//!    rate crosses the target; per-link probes then decide which links the
//!    outage event actually depends on. Relevant links are tilted to mean
//!    `s*`, irrelevant links stay at the nominal unit mean.
//! 2. **Weighted sampling** — each trial draws the three link fades from
//!    the defensive-mixture tilted sampler
//!    ([`FadingModel::sample_power_tilted`]), carries the product
//!    likelihood-ratio weight, and is solved on the same
//!    [`BlockSolver`] workers as every other fading study. Jobs are
//!    `(cell, block)` pairs rather than flat ranges, because a block
//!    never straddles two cells. The per-trial weighted indicators reduce
//!    into a [`WeightedTailStats`] in trial order, so results are
//!    **bit-identical at any thread count and any block size**.
//! 3. **Exact fast path** — where the analytic tail is exact
//!    ([`crate::tails`]: DT under Rayleigh/Nakagami-m) the evaluator skips
//!    sampling entirely and reports the closed form, unless
//!    [`DeepSpec::force_sampling`] asks for the estimator (cross-check
//!    tests and benches do).
//!
//! Estimator contract: with `q = α·p + (1−α)·p_θ` per tilted link, the
//! unnormalised estimator `p̂ = (1/n)·Σ wᵢ·1{rateᵢ < target}` is unbiased
//! for the true outage probability; the defensive mass `α` bounds every
//! weight by `1/α` per link, which keeps the estimator's variance finite
//! and lets a single tilt cover union-shaped outage events (either uplink
//! failing) at an `O(1/α)` variance premium rather than a blown tail. A
//! cell with zero weighted hits is reported as **unresolved**
//! (`probability = None`) rather than extrapolated — the same contract as
//! the fixed [`OutageProfile`](https://docs.rs/) resolution-floor
//! semantics.
//!
//! [`FadingModel::sample_power_tilted`]: bcc_channel::fading::FadingModel::sample_power_tilted
//! [`WeightedTailStats`]: bcc_num::stats::WeightedTailStats

use crate::dmt::diversity_fit;
use crate::error::CoreError;
use crate::gaussian::GaussianNetwork;
use crate::kernel::{BlockSolver, SolveCtx, SolveRequest};
use crate::protocol::{Protocol, ProtocolMap};
use crate::scenario::{fading_study, mix_seed, trial_stream, Evaluator, FadingSpec};
use crate::tails::analytic_outage;
use bcc_channel::fading::PowerTilt;
use bcc_num::par;
use bcc_num::special::log2_1p;
use bcc_num::stats::WeightedTailStats;

/// Smallest admissible tilt mean: keeps `PowerTilt::new` satisfied and the
/// log-density ratio finite.
const MIN_TILT: f64 = 1e-9;
/// Bisection iterations for the tilt-level search (`2^-60` bracket).
const TILT_BISECT_ITERS: u32 = 60;

/// How [`Evaluator::deep_outage`] picks the per-link tilt means.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TiltSelect {
    /// Per-cell automatic selection (bisection + per-link relevance
    /// probes) — the default.
    #[default]
    Auto,
    /// A fixed `(ab, ar, br)` tilt applied to every cell. `[1.0; 3]`
    /// reproduces plain Monte-Carlo exactly (identity tilt, all weights
    /// 1).
    Fixed([f64; 3]),
}

/// Configuration of a deep-outage run (see [`Evaluator::deep_outage`]).
/// Every cell samples the scenario's fading trial count, and every tilted
/// link mixes in the defensive mass [`PowerTilt::DEFAULT_ALPHA`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeepSpec {
    tilt: TiltSelect,
    force_sampling: bool,
}

impl DeepSpec {
    /// The default spec: automatic tilts, exact fast path enabled.
    pub fn new() -> Self {
        DeepSpec::default()
    }

    /// Forces the fixed `(ab, ar, br)` tilt means instead of automatic
    /// selection.
    ///
    /// # Panics
    ///
    /// Panics if any mean is outside `(0, 1]`.
    pub fn fixed_tilt(mut self, theta: [f64; 3]) -> Self {
        for t in theta {
            assert!(
                t.is_finite() && t > 0.0 && t <= 1.0,
                "tilt mean must lie in (0, 1], got {t}"
            );
        }
        self.tilt = TiltSelect::Fixed(theta);
        self
    }

    /// Disables the exact analytic fast path so every cell is sampled —
    /// the cross-check tests and the `deep_outage` bench use this to
    /// exercise the estimator against the closed form.
    pub fn force_sampling(mut self, force: bool) -> Self {
        self.force_sampling = force;
        self
    }
}

/// Where a [`DeepCell`]'s probability came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailSource {
    /// Closed-form analytic tail ([`crate::tails`]); no sampling ran.
    Exact,
    /// Importance-sampled estimate.
    Sampled,
}

/// One cell of a [`DeepOutageResult`]: the outage estimate of one protocol
/// at one `(multiplexing gain, grid point)` pair, with its diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct DeepCell {
    /// The outage-probability estimate, or `None` when the cell is
    /// **unresolved** (zero weighted hits — never extrapolated).
    pub probability: Option<f64>,
    /// Relative standard error of the estimate (`se/p̂`); `None` when
    /// unresolved or exact-with-no-sampling reports `Some(0.0)`.
    pub rel_error: Option<f64>,
    /// Kish effective sample size `(Σw)²/Σw²`; 0 for exact cells.
    pub ess: f64,
    /// Per-trial variance of the weighted indicator `w·1{outage}`; 0 for
    /// exact cells. The plain-MC comparison `p(1−p)/variance` is the
    /// variance-reduction ratio the bench gates on.
    pub variance: f64,
    /// Trials actually sampled (0 for exact cells).
    pub trials: usize,
    /// Raw (unweighted) count of below-target trials.
    pub hits: u64,
    /// The `(ab, ar, br)` tilt means used; `1.0` means untilted.
    pub theta: [f64; 3],
    /// Whether the probability is analytic or sampled.
    pub source: TailSource,
}

/// Bit-identity on every float field (`f64::to_bits`), matching the
/// workspace convention for results asserted equal across worker counts.
impl PartialEq for DeepCell {
    fn eq(&self, other: &Self) -> bool {
        let ob = |v: Option<f64>| v.map(f64::to_bits);
        ob(self.probability) == ob(other.probability)
            && ob(self.rel_error) == ob(other.rel_error)
            && self.ess.to_bits() == other.ess.to_bits()
            && self.variance.to_bits() == other.variance.to_bits()
            && self.trials == other.trials
            && self.hits == other.hits
            && self.theta.map(f64::to_bits) == other.theta.map(f64::to_bits)
            && self.source == other.source
    }
}

/// The output of [`Evaluator::deep_outage`]: per-protocol deep-outage
/// estimates over the `multiplexing gain × SNR` grid, with per-cell
/// importance-sampling diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepOutageResult {
    /// Human-readable name of the swept parameter.
    pub x_name: String,
    /// Reference SNR (linear) of each grid point, in sweep order.
    pub snrs: Vec<f64>,
    /// The multiplexing gains evaluated.
    pub gains: Vec<f64>,
    /// The fading specification the samples were drawn under.
    pub spec: FadingSpec,
    protocols: Vec<Protocol>,
    /// `cells[protocol][gain][point]`.
    cells: ProtocolMap<Vec<Vec<DeepCell>>>,
}

impl DeepOutageResult {
    /// The protocols evaluated, in evaluation order.
    pub fn protocols(&self) -> &[Protocol] {
        &self.protocols
    }

    /// The target sum rate `r·log2(1 + SNR)` at `(gain_idx, point_idx)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn target_rate(&self, gain_idx: usize, point_idx: usize) -> f64 {
        self.gains[gain_idx] * log2_1p(self.snrs[point_idx])
    }

    /// The cell of `protocol` at `(gain_idx, point_idx)`.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not part of the scenario or an index is
    /// out of range.
    pub fn cell(&self, protocol: Protocol, gain_idx: usize, point_idx: usize) -> &DeepCell {
        &self.cells.get(protocol).expect("protocol evaluated")[gain_idx][point_idx]
    }

    /// The outage-probability estimates of `protocol` at `gains[gain_idx]`
    /// across the grid; `None` entries are unresolved cells.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not part of the scenario or the index is
    /// out of range.
    pub fn outage(&self, protocol: Protocol, gain_idx: usize) -> Vec<Option<f64>> {
        self.cells.get(protocol).expect("protocol evaluated")[gain_idx]
            .iter()
            .map(|c| c.probability)
            .collect()
    }

    /// Least-squares finite-SNR diversity over every resolved, positive
    /// cell — the deep-tail analogue of
    /// [`DmtResult::diversity_fit`](crate::dmt::DmtResult::diversity_fit).
    /// `None` with fewer than two usable points.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not part of the scenario or the index is
    /// out of range.
    pub fn diversity_fit(&self, protocol: Protocol, gain_idx: usize) -> Option<f64> {
        let row = &self.cells.get(protocol).expect("protocol evaluated")[gain_idx];
        diversity_fit(&self.snrs, row.iter().map(|c| c.probability.unwrap_or(0.0)))
    }
}

/// The all-links-equal fade level `s*` where `protocol`'s sum rate crosses
/// `target`, by bisection on the closed-form kernel. Returns 1.0 when even
/// the unfaded network sits at or below the target (no tilt needed — the
/// outage probability is not deep).
fn common_tilt_level(
    ctx: &mut SolveCtx,
    net: &GaussianNetwork,
    protocol: Protocol,
    target: f64,
) -> f64 {
    let state = net.state();
    let rate_at = |ctx: &mut SolveCtx, s: f64| {
        ctx.solve_one(
            &net.with_state(state.faded(s, s, s)),
            SolveRequest::sum_rate(protocol),
        )
        .expect("closed-form inner sum-rate solve is infallible")
        .value
    };
    if rate_at(ctx, 1.0) <= target {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..TILT_BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        if rate_at(ctx, mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (0.5 * (lo + hi)).clamp(MIN_TILT, 1.0)
}

/// Automatic per-link tilt means for one cell: the common level `s*` on
/// every link the outage event depends on, nominal mean on the rest.
///
/// Relevance probe: fade link `l` alone to `s*` with the other links
/// unfaded — if the rate drops measurably below the unfaded rate, the
/// event depends on `l`. This catches both min-structures (MABC needs each
/// uplink individually) and single-link protocols (DT depends only on the
/// direct link).
fn select_tilt(
    ctx: &mut SolveCtx,
    net: &GaussianNetwork,
    protocol: Protocol,
    target: f64,
) -> [f64; 3] {
    let s = common_tilt_level(ctx, net, protocol, target);
    if s >= 1.0 {
        return [1.0; 3];
    }
    let state = net.state();
    let rate_of = |ctx: &mut SolveCtx, fades: [f64; 3]| {
        ctx.solve_one(
            &net.with_state(state.faded(fades[0], fades[1], fades[2])),
            SolveRequest::sum_rate(protocol),
        )
        .expect("closed-form inner sum-rate solve is infallible")
        .value
    };
    let full = rate_of(ctx, [1.0; 3]);
    let tol = (1e-6 * full).max(1e-12);
    let mut theta = [1.0; 3];
    for l in 0..3 {
        let mut probe = [1.0; 3];
        probe[l] = s;
        if rate_of(ctx, probe) < full - tol {
            theta[l] = s;
        }
    }
    theta
}

/// Everything one sampled cell needs inside the worker fan-out.
struct CellPlan {
    protocol: Protocol,
    net: GaussianNetwork,
    target: f64,
    seed: u64,
    tilt: [PowerTilt; 3],
    theta: [f64; 3],
    /// `(protocol index, gain index, point index)` to place the result.
    slot: (usize, usize, usize),
}

impl Evaluator {
    /// Runs the deep-outage study over the scenario's
    /// `protocol × multiplexing gain × grid point` cells.
    ///
    /// Requires a fading model attached with
    /// [`Scenario::fading`](crate::scenario::Scenario::fading) (or
    /// `rayleigh`) whose fade power is Gamma-distributed
    /// (Rayleigh/Nakagami-m), and multiplexing gains from
    /// [`Scenario::multiplexing_gains`](crate::scenario::Scenario::multiplexing_gains).
    ///
    /// Results are bit-identical at any worker count and any block size:
    /// every cell draws from its own deterministic per-trial seed streams
    /// (`mix_seed(seed, cell_index)`; the scenario seed itself for a
    /// single-cell study), blocks never straddle cells, and the weighted
    /// reduction runs serially in trial order.
    ///
    /// # Errors
    ///
    /// Currently infallible (fading cells always solve the unconstrained
    /// closed-form optimum); the `Result` keeps the signature uniform with
    /// the other studies.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no fading model or multiplexing gains,
    /// carries a `rate_floor` or the outer bound, any grid point has a
    /// non-positive reference SNR, or the fading model does not support
    /// tilting (Rician / no fading).
    pub fn deep_outage(&mut self, deep: &DeepSpec) -> Result<DeepOutageResult, CoreError> {
        let sc = &self.scenario;
        let spec = fading_study(sc.fading, sc.bound, sc.rate_floor.is_some());
        assert!(
            spec.model.supports_tilt(),
            "deep-outage importance sampling needs a Gamma fade power \
             (Rayleigh or Nakagami-m), got {:?}",
            spec.model
        );
        let (gains, snrs) = sc.gain_grid("deep-outage");
        let trials = spec.trials;
        let protocols = sc.protocols.clone();
        let npoints = sc.points.len();
        let ngains = gains.len();
        let ncells = protocols.len() * ngains * npoints;
        let threads = self.thread_count();
        let bsz = sc.effective_block_size();

        // Plan every cell serially (deterministic): exact fast path where
        // the analytic tail is exact, otherwise tilt selection.
        let mut ctx = SolveCtx::new();
        let mut exact_cells: Vec<((usize, usize, usize), f64)> = Vec::new();
        let mut plans: Vec<CellPlan> = Vec::new();
        for (p_idx, &protocol) in protocols.iter().enumerate() {
            for (gi, &gain) in gains.iter().enumerate() {
                for (pi, point) in sc.points.iter().enumerate() {
                    let target = gain * log2_1p(snrs[pi]);
                    let slot = (p_idx, gi, pi);
                    if !deep.force_sampling {
                        if let Some(p) = analytic_outage(&point.net, protocol, spec.model, target)
                            .and_then(|t| t.exact())
                        {
                            exact_cells.push((slot, p));
                            continue;
                        }
                    }
                    // Cell seeds index the *full* grid so adding or
                    // removing the fast path never reshuffles the streams
                    // of the sampled cells.
                    let cell_index = (p_idx * ngains + gi) * npoints + pi;
                    let seed = if ncells == 1 {
                        spec.seed
                    } else {
                        mix_seed(spec.seed, cell_index as u64)
                    };
                    let theta = match deep.tilt {
                        TiltSelect::Auto => select_tilt(&mut ctx, &point.net, protocol, target),
                        TiltSelect::Fixed(t) => t,
                    };
                    let tilt = theta.map(|t| {
                        if t >= 1.0 {
                            PowerTilt::NONE
                        } else {
                            PowerTilt::toward(t)
                        }
                    });
                    plans.push(CellPlan {
                        protocol,
                        net: point.net,
                        target,
                        seed,
                        tilt,
                        theta,
                        slot,
                    });
                }
            }
        }

        // Fan the sampled cells across the workers in block-sized chunks;
        // blocks never straddle cells so every block solves one protocol.
        let blocks_per_cell = trials.div_ceil(bsz);
        let njobs = plans.len() * blocks_per_cell;
        let model = spec.model;
        let job_rows: Vec<Vec<(f64, bool)>> =
            par::par_map_range(threads, njobs, BlockSolver::new, |solver, j| {
                let plan = &plans[j / blocks_per_cell];
                let lo = (j % blocks_per_cell) * bsz;
                let hi = (lo + bsz).min(trials);
                let block = solver.fill();
                let mut weights = Vec::with_capacity(hi - lo);
                let state = plan.net.state();
                for k in lo..hi {
                    let mut rng = trial_stream(plan.seed, k as u64);
                    let (fab, wab) = model.sample_power_tilted(&mut rng, plan.tilt[0]);
                    let (far, war) = model.sample_power_tilted(&mut rng, plan.tilt[1]);
                    let (fbr, wbr) = model.sample_power_tilted(&mut rng, plan.tilt[2]);
                    block.push_net(&plan.net.with_state(state.faded(fab, far, fbr)));
                    weights.push(wab * war * wbr);
                }
                let outs = solver
                    .solve(&[SolveRequest::sum_rate(plan.protocol)])
                    .expect("closed-form batch solve is infallible");
                weights
                    .iter()
                    .zip(&outs[0])
                    .map(|(&w, o)| (w, o.value < plan.target))
                    .collect()
            });

        // Serial trial-order reduction: bit-identical regardless of how
        // the jobs were scheduled.
        let mut cells: ProtocolMap<Vec<Vec<DeepCell>>> = ProtocolMap::new();
        let unplanned = DeepCell {
            probability: None,
            rel_error: None,
            ess: 0.0,
            variance: 0.0,
            trials: 0,
            hits: 0,
            theta: [1.0; 3],
            source: TailSource::Exact,
        };
        for &p in &protocols {
            cells.insert(p, vec![vec![unplanned; npoints]; ngains]);
        }
        for ((p_idx, gi, pi), p) in exact_cells {
            cells.get_mut(protocols[p_idx]).expect("pre-populated")[gi][pi] = DeepCell {
                probability: Some(p),
                rel_error: Some(0.0),
                ..unplanned
            };
        }
        for (ci, plan) in plans.iter().enumerate() {
            let mut stats = WeightedTailStats::new();
            for row in &job_rows[ci * blocks_per_cell..(ci + 1) * blocks_per_cell] {
                for &(w, below) in row {
                    stats.push(w, below);
                }
            }
            let (p_idx, gi, pi) = plan.slot;
            cells.get_mut(protocols[p_idx]).expect("pre-populated")[gi][pi] = DeepCell {
                probability: stats.probability(),
                rel_error: stats.relative_error(),
                ess: stats.ess(),
                variance: stats.estimator_variance(),
                trials,
                hits: stats.hits(),
                theta: plan.theta,
                source: TailSource::Sampled,
            };
        }

        Ok(DeepOutageResult {
            x_name: sc.x_name.clone(),
            snrs,
            gains,
            spec,
            protocols,
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use bcc_channel::fading::FadingModel;
    use bcc_channel::ChannelState;
    use bcc_num::approx_eq;

    fn fig4_net(p_db: f64) -> GaussianNetwork {
        GaussianNetwork::new(
            10f64.powf(p_db / 10.0),
            ChannelState::new(0.19952623149688797, 1.0, 3.1622776601683795),
        )
    }

    fn deep_scenario(trials: usize, threads: usize) -> Scenario {
        Scenario::power_sweep_db(fig4_net(0.0), [14.0, 20.0])
            .protocols([Protocol::DirectTransmission, Protocol::Mabc])
            .multiplexing_gains([0.25])
            .rayleigh(trials, 0xD33B_0001)
            .threads(threads)
    }

    #[test]
    fn deep_outage_is_bit_identical_across_threads_and_block_sizes() {
        let spec = DeepSpec::new().force_sampling(true);
        let serial = deep_scenario(600, 1).build().deep_outage(&spec).unwrap();
        let parallel = deep_scenario(600, 4).build().deep_outage(&spec).unwrap();
        let chunked = deep_scenario(600, 4)
            .block_size(37)
            .build()
            .deep_outage(&spec)
            .unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, chunked);
    }

    #[test]
    fn dt_exact_fast_path_agrees_with_forced_sampling() {
        let exact = deep_scenario(3000, 2)
            .build()
            .deep_outage(&DeepSpec::new())
            .unwrap();
        let sampled = deep_scenario(3000, 2)
            .build()
            .deep_outage(&DeepSpec::new().force_sampling(true))
            .unwrap();
        for pi in 0..2 {
            let e = exact.cell(Protocol::DirectTransmission, 0, pi);
            let s = sampled.cell(Protocol::DirectTransmission, 0, pi);
            assert_eq!(e.source, TailSource::Exact);
            assert_eq!(s.source, TailSource::Sampled);
            let p_exact = e.probability.unwrap();
            let p_hat = s.probability.expect("tilted run resolves the tail");
            let rel = s.rel_error.unwrap();
            assert!(
                (p_hat - p_exact).abs() <= 4.0 * rel * p_hat + 1e-12,
                "point {pi}: exact {p_exact} vs sampled {p_hat} (rel {rel})"
            );
        }
    }

    #[test]
    fn identity_tilt_reproduces_plain_monte_carlo() {
        // One cell → the cell seed is the scenario seed, and θ = 1 walks
        // the identity sampling path: the estimate must equal the plain
        // dmt() outage probability bit for bit.
        let trials = 800;
        let build = || {
            Scenario::at(fig4_net(6.0))
                .protocols([Protocol::Mabc])
                .multiplexing_gains([0.4])
                .rayleigh(trials, 0xD33B_0002)
                .threads(2)
        };
        let deep = build()
            .build()
            .deep_outage(&DeepSpec::new().fixed_tilt([1.0; 3]).force_sampling(true))
            .unwrap();
        let dmt = build().build().dmt().unwrap();
        let cell = deep.cell(Protocol::Mabc, 0, 0);
        let plain = dmt.outage(Protocol::Mabc, 0)[0];
        // Same seed stream + identity tilt ⇒ the same fades and the same
        // below-target trials; the running-mean estimate agrees with the
        // plain count/n ratio to rounding.
        assert_eq!(cell.hits as usize, (plain * trials as f64).round() as usize);
        assert!(approx_eq(cell.probability.unwrap(), plain, 1e-12));
        assert!(approx_eq(cell.ess, trials as f64, 1e-9));
    }

    #[test]
    fn auto_tilt_resolves_a_deep_direct_transmission_tail() {
        // DT at high SNR and low gain: the true outage is ~1e-5..1e-6, far
        // below the 4k-trial plain-MC floor. The auto-tilted estimator
        // must resolve it within tight relative error.
        let mut eval = Scenario::power_sweep_db(fig4_net(0.0), [62.0])
            .protocols([Protocol::DirectTransmission])
            .multiplexing_gains([0.1])
            .rayleigh(4000, 0xD33B_0003)
            .threads(2)
            .build();
        let exact = eval
            .deep_outage(&DeepSpec::new())
            .unwrap()
            .cell(Protocol::DirectTransmission, 0, 0)
            .probability
            .unwrap();
        assert!(exact < 1e-4, "test premise: deep tail, got {exact}");
        let cell = *eval
            .deep_outage(&DeepSpec::new().force_sampling(true))
            .unwrap()
            .cell(Protocol::DirectTransmission, 0, 0);
        let p_hat = cell.probability.expect("tilted run resolves the tail");
        let rel = cell.rel_error.unwrap();
        assert!(rel <= 0.1, "relative error {rel} too large");
        assert!(
            (p_hat - exact).abs() <= 4.0 * rel * p_hat,
            "exact {exact} vs sampled {p_hat} (rel {rel})"
        );
        assert!(cell.theta[0] < 1.0, "direct link must be tilted");
        assert!(
            cell.theta[1] == 1.0 && cell.theta[2] == 1.0,
            "uplinks are irrelevant to DT"
        );
    }

    #[test]
    fn untilted_deep_cell_reports_unresolved_not_zero() {
        let cell = *Scenario::power_sweep_db(fig4_net(0.0), [62.0])
            .protocols([Protocol::DirectTransmission])
            .multiplexing_gains([0.1])
            .rayleigh(500, 0xD33B_0004)
            .threads(1)
            .build()
            .deep_outage(&DeepSpec::new().fixed_tilt([1.0; 3]).force_sampling(true))
            .unwrap()
            .cell(Protocol::DirectTransmission, 0, 0);
        assert_eq!(cell.probability, None, "plain MC cannot see 1e-6");
        assert_eq!(cell.rel_error, None);
        assert_eq!(cell.hits, 0);
    }

    #[test]
    fn mabc_estimate_lands_between_analytic_bounds() {
        let net = fig4_net(24.0);
        let mut eval = Scenario::at(net)
            .protocols([Protocol::Mabc])
            .multiplexing_gains([0.15])
            .rayleigh(6000, 0xD33B_0005)
            .threads(2)
            .build();
        let res = eval.deep_outage(&DeepSpec::new()).unwrap();
        let cell = res.cell(Protocol::Mabc, 0, 0);
        assert_eq!(cell.source, TailSource::Sampled);
        let p_hat = cell.probability.expect("tilted run resolves the tail");
        let rel = cell.rel_error.unwrap();
        let tail = analytic_outage(
            &net,
            Protocol::Mabc,
            FadingModel::Rayleigh,
            res.target_rate(0, 0),
        )
        .unwrap();
        let slack = 4.0 * rel * p_hat;
        assert!(
            p_hat >= tail.lo - slack && p_hat <= tail.hi + slack,
            "estimate {p_hat} (rel {rel}) outside [{}, {}]",
            tail.lo,
            tail.hi
        );
    }

    #[test]
    #[should_panic(expected = "needs a Gamma fade power")]
    fn rician_fading_is_rejected() {
        Scenario::at(fig4_net(10.0))
            .protocols([Protocol::DirectTransmission])
            .multiplexing_gains([0.3])
            .fading(FadingModel::Rician { k: 2.0 }, 100, 1)
            .build()
            .deep_outage(&DeepSpec::new())
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "no multiplexing gains")]
    fn missing_gains_are_rejected() {
        Scenario::at(fig4_net(10.0))
            .protocols([Protocol::DirectTransmission])
            .rayleigh(100, 1)
            .build()
            .deep_outage(&DeepSpec::new())
            .unwrap();
    }
}
