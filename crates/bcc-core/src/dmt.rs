//! Finite-SNR diversity–multiplexing tradeoff (DMT) estimation and
//! optimum power allocation — the study layer of Yi & Kim, *"Finite-SNR
//! Diversity-Multiplexing Tradeoff and Optimum Power Allocation in
//! Bidirectional Cooperative Networks"*, on top of this crate's bounds.
//!
//! Asymptotic DMT analysis sends the SNR to infinity; the finite-SNR
//! variant asks the operational question instead: at *this* SNR, operating
//! at multiplexing gain `r` (target sum rate `r·log2(1 + SNR)`), what
//! outage probability does each protocol deliver, and how fast does it
//! fall as the SNR grows? The **finite-SNR diversity order** is the local
//! log–log slope
//!
//! ```text
//! d(r, SNR) = −∂ ln P_out(r, SNR) / ∂ ln SNR
//! ```
//!
//! estimated here by finite differences over the scenario's SNR grid
//! ([`Evaluator::dmt`] → [`DmtResult`]). The companion question — how to
//! split a *fixed total power* between the terminals and the relay so the
//! network fades out least often — is answered by a golden-section search
//! over the allocation simplex ([`Evaluator::allocation`] →
//! [`AllocationResult`]), with common random fades across candidate
//! splits so the search surface is deterministic and smooth.
//!
//! Both entry points reuse the scenario engine wholesale: [`Evaluator::dmt`]
//! reduces the samples of one [`Evaluator::outage`] run, the allocation
//! search scores its splits on the per-trial fade streams of a
//! single-point outage run (both bit-identical at every worker count), and
//! every faded operating point is solved by the same bounds as the rest
//! of the workspace.

use crate::error::CoreError;
use crate::gaussian::GaussianNetwork;
use crate::kernel::SolveCtx;
use crate::protocol::{Protocol, ProtocolMap};
use crate::scenario::{
    fading_study, outage_fraction, trial_stream, Evaluator, FadingSpec, Scenario,
};
use bcc_channel::PowerSplit;
use bcc_num::optim::golden_section_max;
use bcc_num::special::log2_1p;
use bcc_num::{par, stats::Ecdf};

/// Relay-share search bracket of the allocation polish (a share of
/// exactly 0 or 1 silences a node entirely; the search stays strictly
/// inside the simplex).
const RELAY_SHARE_RANGE: (f64, f64) = (0.02, 0.96);
/// Terminal-balance search bracket.
const BALANCE_RANGE: (f64, f64) = (0.02, 0.98);
/// Golden-section bracket tolerance on both simplex coordinates.
const SEARCH_TOL: f64 = 5e-3;
/// Width of the polish bracket around the best coarse candidate's relay
/// share.
const POLISH_WINDOW: f64 = 0.18;
/// Built-in coarse relay-share grid used when the scenario carries no
/// [`Scenario::power_grid`](crate::scenario::Scenario::power_grid).
const DEFAULT_RELAY_SHARES: [f64; 8] = [0.1, 0.2, 0.3, 1.0 / 3.0, 0.4, 0.5, 0.65, 0.8];

/// The output of [`Evaluator::dmt`]: per-protocol outage probabilities and
/// finite-SNR diversity estimates over an `SNR × multiplexing-gain` grid.
///
/// ```
/// use bcc_core::prelude::*;
///
/// let net = GaussianNetwork::from_db(Db::new(0.0), Db::new(0.0), Db::new(0.0), Db::new(0.0));
/// let dmt = Scenario::power_sweep_db(net, [0.0, 6.0, 12.0])
///     .protocols([Protocol::DirectTransmission])
///     .multiplexing_gains([0.3])
///     .rayleigh(400, 7)
///     .build()
///     .dmt()
///     .unwrap();
/// let outage = dmt.outage(Protocol::DirectTransmission, 0);
/// // Outage falls with SNR at fixed multiplexing gain...
/// assert!(outage[0] > outage[2]);
/// // ...and the log–log slope is the finite-SNR diversity estimate.
/// let d = dmt.diversity_fit(Protocol::DirectTransmission, 0).unwrap();
/// assert!(d > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DmtResult {
    /// Human-readable name of the swept parameter.
    pub x_name: String,
    /// Reference SNR (linear) of each grid point, in sweep order.
    pub snrs: Vec<f64>,
    /// The multiplexing gains evaluated, in the order given to
    /// [`Scenario::multiplexing_gains`](crate::scenario::Scenario::multiplexing_gains).
    pub gains: Vec<f64>,
    /// The fading specification the samples were drawn under.
    pub spec: FadingSpec,
    protocols: Vec<Protocol>,
    /// `outage[protocol][gain][point]`.
    outage: ProtocolMap<Vec<Vec<f64>>>,
    /// `diversity[protocol][gain][point]` (NaN where undefined).
    diversity: ProtocolMap<Vec<Vec<f64>>>,
}

/// Equality is **bit-identity** on the probability/diversity matrices
/// (`f64::to_bits`), not IEEE `==`: the diversity matrix legitimately
/// carries NaN placeholders where a slope is undefined, and the type's
/// main equality use is asserting that serial and parallel runs agree —
/// a derived `PartialEq` would report bit-identical results as unequal
/// the moment any outage estimate hits 0.
impl PartialEq for DmtResult {
    fn eq(&self, other: &Self) -> bool {
        fn bits_eq(a: &ProtocolMap<Vec<Vec<f64>>>, b: &ProtocolMap<Vec<Vec<f64>>>) -> bool {
            Protocol::ALL.iter().all(|&p| match (a.get(p), b.get(p)) {
                (None, None) => true,
                (Some(x), Some(y)) => {
                    x.len() == y.len()
                        && x.iter().zip(y).all(|(r, s)| {
                            r.len() == s.len()
                                && r.iter().zip(s).all(|(u, v)| u.to_bits() == v.to_bits())
                        })
                }
                _ => false,
            })
        }
        self.x_name == other.x_name
            && self.snrs == other.snrs
            && self.gains == other.gains
            && self.spec == other.spec
            && self.protocols == other.protocols
            && bits_eq(&self.outage, &other.outage)
            && bits_eq(&self.diversity, &other.diversity)
    }
}

impl DmtResult {
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

    /// Empirical outage probabilities of `protocol` at multiplexing gain
    /// `gains[gain_idx]`, one per grid point.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not part of the scenario or the index is
    /// out of range.
    pub fn outage(&self, protocol: Protocol, gain_idx: usize) -> &[f64] {
        &self.outage.get(protocol).expect("protocol evaluated")[gain_idx]
    }

    /// Pointwise finite-SNR diversity estimates
    /// `d(r, SNR_k) = −Δ ln P_out / Δ ln SNR` of `protocol` at
    /// `gains[gain_idx]` (central differences, one-sided at the grid
    /// edges; NaN where a neighbouring outage probability is 0 and the
    /// slope is undefined).
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not part of the scenario or the index is
    /// out of range.
    pub fn diversity(&self, protocol: Protocol, gain_idx: usize) -> &[f64] {
        &self.diversity.get(protocol).expect("protocol evaluated")[gain_idx]
    }

    /// The least-squares finite-SNR diversity over the whole grid: the
    /// slope of `−ln P_out` against `ln SNR` fitted to every point with a
    /// positive outage estimate. `None` if fewer than two such points
    /// exist. More robust than the pointwise slopes when the per-point
    /// probabilities carry Monte-Carlo noise — the golden tests pin this.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` was not part of the scenario or the index is
    /// out of range.
    pub fn diversity_fit(&self, protocol: Protocol, gain_idx: usize) -> Option<f64> {
        diversity_fit(&self.snrs, self.outage(protocol, gain_idx).iter().copied())
    }
}

/// The least-squares slope of `−ln p` against `ln snr` over the grid
/// points whose outage probability `p` is positive: the finite-SNR
/// diversity fit of both [`DmtResult`] and
/// [`DeepOutageResult`](crate::deep::DeepOutageResult). `None` with
/// fewer than two such points or no spread in their SNRs.
pub(crate) fn diversity_fit(snrs: &[f64], probs: impl IntoIterator<Item = f64>) -> Option<f64> {
    let pts: Vec<(f64, f64)> = snrs
        .iter()
        .zip(probs)
        .filter(|&(_, p)| p > 0.0)
        .map(|(&s, p)| (s.ln(), p.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    Some(-sxy / sxx)
}

/// One protocol's entry of an [`AllocationResult`]: the outage-optimal
/// power split found by the search, against the uniform-split baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// The protocol this allocation belongs to.
    pub protocol: Protocol,
    /// The best split found (same total budget as the scenario's network).
    pub split: PowerSplit,
    /// The ε-outage equal-rate sum rate achieved at
    /// [`Allocation::split`].
    pub value: f64,
    /// The same objective at the uniform split — never above
    /// [`Allocation::value`], because the uniform split is always among
    /// the candidates.
    pub uniform_value: f64,
}

impl Allocation {
    /// The ε-outage equal-rate sum rate gained over the uniform split
    /// (≥ 0).
    pub fn gain_over_uniform(&self) -> f64 {
        self.value - self.uniform_value
    }
}

/// The output of [`Evaluator::allocation`]: per-protocol optimal power
/// splits under a fixed total budget.
///
/// ```
/// use bcc_core::prelude::*;
///
/// let net = GaussianNetwork::from_db(Db::new(10.0), Db::new(0.0), Db::new(0.0), Db::new(0.0));
/// let alloc = Scenario::at(net)
///     .protocols([Protocol::Mabc])
///     .rayleigh(120, 5)
///     .build()
///     .allocation(0.25)
///     .unwrap();
/// let best = alloc.get(Protocol::Mabc).unwrap();
/// // The search respects the total-power budget...
/// assert!((best.split.total() - alloc.total_power).abs() < 1e-9 * alloc.total_power);
/// // ...and can only improve on the uniform baseline.
/// assert!(best.value >= best.uniform_value);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationResult {
    /// The outage level ε the search optimised for.
    pub eps: f64,
    /// The fixed total budget every candidate split distributes.
    pub total_power: f64,
    /// The fading specification the fades were drawn under.
    pub spec: FadingSpec,
    protocols: Vec<Protocol>,
    entries: ProtocolMap<Allocation>,
}

impl AllocationResult {
    /// The protocols evaluated, in evaluation order.
    pub fn protocols(&self) -> &[Protocol] {
        &self.protocols
    }

    /// The allocation of `protocol`, or `None` if it was not evaluated.
    pub fn get(&self, protocol: Protocol) -> Option<&Allocation> {
        self.entries.get(protocol)
    }

    /// Iterates the allocations in evaluation order.
    pub fn entries(&self) -> impl Iterator<Item = &Allocation> {
        self.protocols.iter().filter_map(|&p| self.entries.get(p))
    }
}

impl Scenario {
    /// The multiplexing gains and the per-point reference SNRs of a
    /// finite-SNR outage study ([`Evaluator::dmt`],
    /// [`Evaluator::deep_outage`]); `study` names it in the panic
    /// messages.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no multiplexing gains or a grid point
    /// has a non-positive reference SNR.
    pub(crate) fn gain_grid(&self, study: &str) -> (Vec<f64>, Vec<f64>) {
        assert!(
            !self.multiplexing_gains.is_empty(),
            "scenario has no multiplexing gains; attach them with Scenario::multiplexing_gains(...)"
        );
        let snrs: Vec<f64> = self.points.iter().map(|p| p.net.reference_snr()).collect();
        assert!(
            snrs.iter().all(|&s| s > 0.0),
            "every grid point needs a positive reference SNR for {study} estimation"
        );
        (self.multiplexing_gains.clone(), snrs)
    }
}

impl Evaluator {
    /// Estimates the finite-SNR diversity–multiplexing tradeoff over the
    /// scenario's grid: at each grid point (reference SNR `ρ`) and each
    /// attached multiplexing gain `r`, the outage probability of the
    /// optimal sum rate against the target `r·log2(1 + ρ)`, plus the
    /// log–log diversity slopes across the SNR axis.
    ///
    /// The outage probabilities reduce the samples of one
    /// [`Evaluator::outage`] run, so one draw serves every multiplexing
    /// gain and results are bit-identical at any worker count.
    ///
    /// # Errors
    ///
    /// Currently infallible (no LP runs on a faded draw: the fade sampler
    /// solves every draw with the closed-form inner-bound kernels, which
    /// cannot fail); the `Result` keeps the signature uniform with the
    /// other evaluator runs.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no fading spec or no multiplexing
    /// gains, carries a rate floor or the outer bound (see
    /// [`Scenario::bound`]), or if any grid point has a zero reference SNR
    /// (its log-SNR coordinate would be undefined).
    pub fn dmt(&mut self) -> Result<DmtResult, CoreError> {
        let (gains, snrs) = self.scenario.gain_grid("DMT");
        let out = self.outage()?;
        let mut outage: ProtocolMap<Vec<Vec<f64>>> = ProtocolMap::new();
        let mut diversity: ProtocolMap<Vec<Vec<f64>>> = ProtocolMap::new();
        for &p in out.protocols() {
            let mut out_rows = Vec::with_capacity(gains.len());
            let mut div_rows = Vec::with_capacity(gains.len());
            for &r in &gains {
                // Targets are positive, so an unresolved cell is a 0.
                let probs: Vec<f64> = snrs
                    .iter()
                    .enumerate()
                    .map(|(i, &snr)| {
                        outage_fraction(out.samples(p, i), r * log2_1p(snr)).unwrap_or(0.0)
                    })
                    .collect();
                div_rows.push(log_log_slopes(&snrs, &probs));
                out_rows.push(probs);
            }
            outage.insert(p, out_rows);
            diversity.insert(p, div_rows);
        }
        Ok(DmtResult {
            protocols: out.protocols().to_vec(),
            x_name: out.x_name,
            snrs,
            gains,
            spec: out.spec,
            outage,
            diversity,
        })
    }

    /// Searches, per protocol, for the power split of the scenario
    /// network's total budget that maximises the **ε-outage equal-rate
    /// sum rate**: twice the max–min rate supported in all but an `eps`
    /// fraction of fades — the standard dual of minimising outage
    /// probability at a symmetric target, which is how the bidirectional
    /// DMT literature (Yi & Kim) defines outage. Equal rates matter: the
    /// unconstrained *sum* rate would happily starve one terminal (and
    /// one direction) entirely, so its optimal "split" on a symmetric
    /// channel is a degenerate one-way allocation rather than the
    /// uniform split the equal-rate objective recovers.
    ///
    /// The search walks the allocation simplex in two coordinates: the
    /// relay's share of the budget and the terminals' balance. Candidates
    /// from [`Scenario::power_grid`](crate::scenario::Scenario::power_grid)
    /// (or a built-in coarse grid) seed a golden-section polish of each
    /// coordinate. Every candidate is scored against the *same* fade
    /// draws (common random numbers, from the scenario's deterministic
    /// seed streams), so the objective is a fixed deterministic surface
    /// and the result is reproducible at any worker count. The uniform
    /// split is always scored; the returned allocation never falls below
    /// it.
    ///
    /// # Errors
    ///
    /// Currently infallible (a max–min LP failure on a faded draw counts
    /// as rate 0, the Monte-Carlo convention); the `Result` keeps the
    /// signature uniform.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has more than one grid point, has no fading
    /// spec, carries a rate floor, the outer bound or a `power_grid`
    /// whose budget disagrees with the network's, or if `eps ∉ (0, 1)`.
    pub fn allocation(&mut self, eps: f64) -> Result<AllocationResult, CoreError> {
        assert!(
            (0.0..1.0).contains(&eps) && eps > 0.0,
            "outage level must lie strictly inside (0, 1), got {eps}"
        );
        assert_eq!(
            self.scenario.points.len(),
            1,
            "allocation() optimises one operating point; give the scenario a single grid point"
        );
        let threads = self.thread_count();
        let sc = &self.scenario;
        let spec = fading_study(sc.fading, sc.bound, sc.rate_floor.is_some());
        let base = sc.points[0].net;
        let state = base.state();
        let total = base.powers().total();

        // Common random numbers: one fade set, drawn from the same
        // per-trial streams as a single-point outage run, scores every
        // candidate split.
        let fades: Vec<(f64, f64, f64)> = (0..spec.trials)
            .map(|t| {
                let mut rng = trial_stream(spec.seed, t as u64);
                (
                    spec.model.sample_power(&mut rng),
                    spec.model.sample_power(&mut rng),
                    spec.model.sample_power(&mut rng),
                )
            })
            .collect();

        let uniform = PowerSplit::uniform(total);
        let candidates: Vec<PowerSplit> = if sc.power_grid.is_empty() {
            DEFAULT_RELAY_SHARES
                .iter()
                .map(|&share| {
                    // The 1/3 entry is the uniform split — use the exact
                    // construction so its coarse score can be reused as
                    // the baseline without a second Monte-Carlo pass.
                    if share == 1.0 / 3.0 {
                        uniform
                    } else {
                        PowerSplit::from_shares(total, share, 0.5)
                    }
                })
                .collect()
        } else {
            for s in &sc.power_grid {
                assert!(
                    (s.total() - total).abs() <= 1e-9 * (1.0 + total),
                    "power grid budget {} disagrees with the network's total {total}",
                    s.total()
                );
            }
            sc.power_grid.clone()
        };

        let mut entries: ProtocolMap<Allocation> = ProtocolMap::new();
        for &protocol in &sc.protocols {
            let objective = |split: PowerSplit| -> f64 {
                let net = GaussianNetwork::with_powers(split, state);
                let samples = par::par_map_range(threads, fades.len(), SolveCtx::new, |ctx, t| {
                    let (fab, far, fbr) = fades[t];
                    let faded = net.with_state(state.faded(fab, far, fbr));
                    // Equal-rate sum: twice the max–min rate on the faded
                    // network (closed-form kernel where available, warm
                    // simplex otherwise; a deep-fade LP failure counts as
                    // rate 0).
                    ctx.solve_one(&faded, crate::kernel::SolveRequest::max_min(protocol))
                        .map(|o| 2.0 * o.value)
                        .unwrap_or(0.0)
                });
                Ecdf::new(samples).quantile(eps)
            };

            // Coarse pass over the candidate grid, remembering the
            // uniform split's score if it is among the candidates (the
            // common-random-numbers design makes re-evaluation a pure
            // waste of `trials` LP solves).
            let mut coarse_uniform: Option<f64> = None;
            let (mut best_split, mut best_value) = (candidates[0], f64::NEG_INFINITY);
            for &cand in &candidates {
                let v = objective(cand);
                if cand == uniform {
                    coarse_uniform = Some(v);
                }
                if v > best_value {
                    (best_split, best_value) = (cand, v);
                }
            }
            // Golden-section polish: relay share in a window around the
            // coarse winner, then terminal balance over its full bracket.
            let balance0 = best_split.terminal_balance();
            let rho0 = best_split.relay_share();
            let rho_lo = (rho0 - POLISH_WINDOW).max(RELAY_SHARE_RANGE.0);
            let rho_hi = (rho0 + POLISH_WINDOW).min(RELAY_SHARE_RANGE.1);
            let rho_star = golden_section_max(
                |rho| objective(PowerSplit::from_shares(total, rho, balance0)),
                rho_lo,
                rho_hi,
                SEARCH_TOL,
            );
            let beta_star = golden_section_max(
                |beta| objective(PowerSplit::from_shares(total, rho_star.x, beta)),
                BALANCE_RANGE.0,
                BALANCE_RANGE.1,
                SEARCH_TOL,
            );
            // Both polish stages are candidates: the objective is a step
            // function (an empirical quantile), so the β-stage midpoint
            // can land on a lower step than the ρ-stage optimum it
            // started from — never discard a point already scored.
            let rho_point = PowerSplit::from_shares(total, rho_star.x, balance0);
            if rho_star.value > best_value {
                (best_split, best_value) = (rho_point, rho_star.value);
            }
            let polished = PowerSplit::from_shares(total, rho_star.x, beta_star.x);
            if beta_star.value > best_value {
                (best_split, best_value) = (polished, beta_star.value);
            }
            // The uniform baseline is always scored and never beaten
            // silently.
            let uniform_value = coarse_uniform.unwrap_or_else(|| objective(uniform));
            if uniform_value >= best_value {
                (best_split, best_value) = (uniform, uniform_value);
            }
            entries.insert(
                protocol,
                Allocation {
                    protocol,
                    split: best_split,
                    value: best_value,
                    uniform_value,
                },
            );
        }
        Ok(AllocationResult {
            eps,
            total_power: total,
            spec,
            protocols: sc.protocols.clone(),
            entries,
        })
    }
}

/// Log–log slopes `−Δ ln p / Δ ln s` along a grid: central differences in
/// the interior, one-sided at the edges, NaN wherever an involved
/// probability is non-positive or the SNR span is degenerate.
fn log_log_slopes(snrs: &[f64], probs: &[f64]) -> Vec<f64> {
    let n = snrs.len();
    (0..n)
        .map(|k| {
            let lo = k.saturating_sub(1);
            let hi = (k + 1).min(n - 1);
            if lo == hi || probs[lo] <= 0.0 || probs[hi] <= 0.0 {
                return f64::NAN;
            }
            let ds = snrs[hi].ln() - snrs[lo].ln();
            if ds == 0.0 {
                return f64::NAN;
            }
            -(probs[hi].ln() - probs[lo].ln()) / ds
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use bcc_channel::fading::FadingModel;
    use bcc_num::Db;

    fn sym_net(p_db: f64) -> GaussianNetwork {
        GaussianNetwork::from_db(Db::new(p_db), Db::new(0.0), Db::new(0.0), Db::new(0.0))
    }

    #[test]
    fn log_log_slopes_recover_exact_power_law() {
        // p = c · s^{-2}: every slope is exactly 2.
        let snrs = [1.0, 2.0, 4.0, 8.0];
        let probs: Vec<f64> = snrs.iter().map(|s| 0.3 / (s * s)).collect();
        for d in log_log_slopes(&snrs, &probs) {
            assert!((d - 2.0).abs() < 1e-12, "slope {d}");
        }
    }

    #[test]
    fn log_log_slopes_flag_undefined_points() {
        let snrs = [1.0, 2.0, 4.0];
        let ds = log_log_slopes(&snrs, &[0.5, 0.0, 0.1]);
        // Edge slopes touch the zero probability and are undefined; the
        // central difference at index 1 skips over it and stays finite.
        assert!(ds[0].is_nan() && ds[2].is_nan(), "{ds:?}");
        assert!(ds[1].is_finite(), "{ds:?}");
        let one = log_log_slopes(&[3.0], &[0.5]);
        assert!(one[0].is_nan());
    }

    #[test]
    fn dmt_outage_monotone_in_gain_and_snr() {
        let mut ev = Scenario::power_sweep_db(sym_net(0.0), [0.0, 6.0, 12.0])
            .protocols([Protocol::DirectTransmission, Protocol::Tdbc])
            .multiplexing_gains([0.2, 0.5])
            .rayleigh(600, 11)
            .build();
        let dmt = ev.dmt().unwrap();
        for &p in dmt.protocols() {
            for gi in 0..2 {
                let o = dmt.outage(p, gi);
                assert!(
                    o.windows(2).all(|w| w[1] <= w[0] + 1e-12),
                    "{p} gain {gi}: outage must fall with SNR: {o:?}"
                );
            }
            // Higher multiplexing gain, higher (or equal) outage pointwise.
            for k in 0..3 {
                assert!(dmt.outage(p, 1)[k] >= dmt.outage(p, 0)[k] - 1e-12);
            }
        }
    }

    #[test]
    fn dmt_without_fading_is_a_step_function() {
        // No fading: outage is 0 or 1 exactly, depending on whether the
        // deterministic optimum clears the target.
        let mut ev = Scenario::power_sweep_db(sym_net(10.0), [10.0])
            .protocols([Protocol::Mabc])
            .multiplexing_gains([0.1, 10.0])
            .fading(FadingModel::None, 8, 1)
            .build();
        let dmt = ev.dmt().unwrap();
        assert_eq!(dmt.outage(Protocol::Mabc, 0), &[0.0]);
        assert_eq!(dmt.outage(Protocol::Mabc, 1), &[1.0]);
        assert!(dmt.diversity_fit(Protocol::Mabc, 0).is_none());
    }

    #[test]
    fn dmt_bit_identical_across_worker_counts() {
        let scenario = Scenario::power_sweep_db(sym_net(0.0), [0.0, 8.0])
            .protocols([Protocol::Mabc])
            .multiplexing_gains([0.3])
            .rayleigh(300, 21);
        let serial = scenario.clone().threads(1).build().dmt().unwrap();
        let par = scenario.threads(4).build().dmt().unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn allocation_respects_budget_and_uniform_floor() {
        let mut ev = Scenario::at(sym_net(8.0))
            .protocols([Protocol::Mabc])
            .rayleigh(200, 3)
            .build();
        let alloc = ev.allocation(0.2).unwrap();
        let a = alloc.get(Protocol::Mabc).unwrap();
        assert!((a.split.total() - alloc.total_power).abs() < 1e-9 * alloc.total_power);
        assert!(a.value >= a.uniform_value, "uniform floor violated");
        assert!(a.gain_over_uniform() >= 0.0);
    }

    #[test]
    fn allocation_starves_the_relay_for_direct_transmission() {
        // DT cannot use the relay: the optimal relay share must sit at the
        // bottom of the search bracket.
        let mut ev = Scenario::at(sym_net(8.0))
            .protocols([Protocol::DirectTransmission])
            .rayleigh(150, 9)
            .build();
        let alloc = ev.allocation(0.2).unwrap();
        let a = alloc.get(Protocol::DirectTransmission).unwrap();
        assert!(
            a.split.relay_share() < 0.1,
            "DT relay share {} should be minimal",
            a.split.relay_share()
        );
        assert!(a.value > a.uniform_value, "reclaiming relay power must pay");
    }

    #[test]
    fn allocation_bit_identical_across_worker_counts() {
        let scenario = Scenario::at(sym_net(8.0))
            .protocols([Protocol::Tdbc])
            .rayleigh(120, 5);
        let serial = scenario
            .clone()
            .threads(1)
            .build()
            .allocation(0.25)
            .unwrap();
        let par = scenario.threads(4).build().allocation(0.25).unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn allocation_honours_custom_power_grid() {
        let total = 3.0 * Db::new(8.0).to_linear();
        let mut ev = Scenario::at(sym_net(8.0))
            .protocols([Protocol::Mabc])
            .power_grid([
                PowerSplit::from_shares(total, 0.3, 0.5),
                PowerSplit::from_shares(total, 0.5, 0.5),
            ])
            .rayleigh(100, 13)
            .build();
        let alloc = ev.allocation(0.3).unwrap();
        assert!((alloc.total_power - total).abs() < 1e-9 * total);
    }

    #[test]
    #[should_panic(expected = "rate_floor applies to sweep()")]
    fn outage_rejects_rate_floor() {
        let _ = Scenario::at(sym_net(5.0))
            .rate_floor(0.5, 0.5)
            .rayleigh(10, 1)
            .build()
            .outage();
    }

    #[test]
    #[should_panic(expected = "rate_floor applies to sweep()")]
    fn allocation_rejects_rate_floor() {
        let _ = Scenario::at(sym_net(5.0))
            .rate_floor(0.5, 0.5)
            .rayleigh(10, 1)
            .build()
            .allocation(0.1);
    }

    #[test]
    #[should_panic(expected = "multiplexing gains")]
    fn dmt_requires_gains() {
        let _ = Scenario::power_sweep_db(sym_net(0.0), [0.0])
            .rayleigh(10, 1)
            .build()
            .dmt();
    }

    #[test]
    #[should_panic(expected = "single grid point")]
    fn allocation_requires_single_point() {
        let _ = Scenario::power_sweep_db(sym_net(0.0), [0.0, 5.0])
            .rayleigh(10, 1)
            .build()
            .allocation(0.1);
    }
}
