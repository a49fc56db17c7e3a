//! Multi-pair outage under quasi-static fading — the **simulator-side
//! twin** of the batch evaluator's
//! [`MultiPairEvaluator::outage`](bcc_core::multipair::MultiPairEvaluator::outage).
//!
//! Like the single-pair [`crate::outage`] module, this drives the study
//! through the classic [`McConfig`] convention: a serial trial-major
//! loop, one deterministic child stream per `(pair, trial)`, one
//! [`SolveCtx`] reused across every faded solve. The evaluator instead
//! fans a flattened `(point, pair) × trial` grid across worker threads — a
//! genuinely different driver over the same per-trial arithmetic, which
//! is exactly what the cross-validation suite wants: under *independent*
//! seeds the two paths must agree statistically (4σ bands), and under a
//! *shared* seed on a single-point grid they must agree **bit for bit**
//! (same fade-drawing order per stream, same aggregation arithmetic via
//! [`Schedule::aggregate_sum_rates`]).

use bcc_core::kernel::SolveCtx;
use bcc_core::multipair::{PairSet, Schedule};
use bcc_core::protocol::Protocol;
use bcc_core::scenario::{mix_seed, trial_stream};
use bcc_num::stats::Ecdf;

use crate::mc::McConfig;
use bcc_channel::fading::FadingModel;

/// Per-pair, per-trial optimal sum rates of `protocol` over the pair
/// set under i.i.d. per-link fading — returned pair-major
/// (`samples[pair][trial]`).
///
/// Pair `k` draws from its own decorrelated stream of the master seed
/// (`mix_seed(seed, k)`; a lone pair uses the seed itself, matching the
/// classic single-pair stream), so identical pairs still fade
/// independently while every protocol shares a trial's fades. A
/// deep-fade LP failure counts as rate 0.
pub fn multi_pair_samples(
    pairs: &PairSet,
    protocol: Protocol,
    fading: FadingModel,
    cfg: &McConfig,
) -> Vec<Vec<f64>> {
    let k = pairs.len();
    let mut ctx = SolveCtx::new();
    let mut samples = vec![Vec::with_capacity(cfg.trials); k];
    for trial in 0..cfg.trials {
        for (pair, net) in pairs.iter().enumerate() {
            let stream_seed = if k == 1 {
                cfg.seed
            } else {
                mix_seed(cfg.seed, pair as u64)
            };
            let mut rng = trial_stream(stream_seed, trial as u64);
            let faded = net.with_state(net.state().faded(
                fading.sample_power(&mut rng),
                fading.sample_power(&mut rng),
                fading.sample_power(&mut rng),
            ));
            samples[pair].push(
                ctx.solve_one(&faded, bcc_core::SolveRequest::sum_rate(protocol))
                    .map(|o| o.value)
                    .unwrap_or(0.0),
            );
        }
    }
    samples
}

/// Monte-Carlo sum-rate statistics of one protocol over a [`PairSet`]
/// under quasi-static fading, queryable per [`Schedule`].
///
/// Both schedules' empirical distributions are built once at
/// construction (the [`crate::outage::OutageProfile`] discipline), so
/// probability/quantile queries are single ECDF lookups.
#[derive(Debug, Clone)]
pub struct MultiPairProfile {
    samples: Vec<Vec<f64>>,
    time_share: Ecdf,
    joint: Ecdf,
}

impl MultiPairProfile {
    /// Estimates the per-pair sum-rate samples of `protocol` under
    /// `fading` (see [`multi_pair_samples`]).
    pub fn estimate(
        pairs: &PairSet,
        protocol: Protocol,
        fading: FadingModel,
        cfg: &McConfig,
    ) -> Self {
        MultiPairProfile::from_samples(multi_pair_samples(pairs, protocol, fading, cfg))
    }

    /// Builds a profile from explicit pair-major samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, a pair has no trials, or the trial
    /// counts disagree across pairs.
    pub fn from_samples(samples: Vec<Vec<f64>>) -> Self {
        assert!(!samples.is_empty(), "need at least one pair");
        let trials = samples[0].len();
        assert!(trials > 0, "need at least one trial");
        for s in &samples {
            assert_eq!(s.len(), trials, "trial counts must agree across pairs");
        }
        let aggregate = |schedule: Schedule| {
            let mut per_pair = vec![0.0; samples.len()];
            Ecdf::new(
                (0..trials)
                    .map(|t| {
                        for (pair, s) in samples.iter().enumerate() {
                            per_pair[pair] = s[t];
                        }
                        schedule.aggregate_sum_rates(&per_pair)
                    })
                    .collect(),
            )
        };
        MultiPairProfile {
            time_share: aggregate(Schedule::TimeShare),
            joint: aggregate(Schedule::Joint),
            samples,
        }
    }

    /// Number of pairs `K`.
    pub fn num_pairs(&self) -> usize {
        self.samples.len()
    }

    /// Number of Monte-Carlo trials behind the profile.
    pub fn trials(&self) -> usize {
        self.samples[0].len()
    }

    /// The raw per-trial sum rates of pair `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn pair_samples(&self, k: usize) -> &[f64] {
        &self.samples[k]
    }

    /// Per-trial network sum rates under `schedule`: the equal-share
    /// mean (`TimeShare`) or the momentarily best pair's rate (`Joint`)
    /// of each trial's per-pair optima.
    pub fn schedule_samples(&self, schedule: Schedule) -> Vec<f64> {
        let k = self.num_pairs();
        let mut per_pair = vec![0.0; k];
        (0..self.trials())
            .map(|t| {
                for (pair, s) in self.samples.iter().enumerate() {
                    per_pair[pair] = s[t];
                }
                schedule.aggregate_sum_rates(&per_pair)
            })
            .collect()
    }

    /// The empirical schedule sum-rate distribution (built once at
    /// construction; query any number of quantiles/probabilities).
    pub fn profile(&self, schedule: Schedule) -> &Ecdf {
        match schedule {
            Schedule::TimeShare => &self.time_share,
            Schedule::Joint => &self.joint,
        }
    }

    /// `P[schedule sum rate < target]`.
    ///
    /// `None` means **unresolved** (no trial below a positive target —
    /// the estimate sits under the `1/trials` floor); a non-positive
    /// target resolves to `Some(0.0)` exactly, as in
    /// [`crate::outage::OutageProfile::outage_probability`].
    pub fn outage_probability(&self, schedule: Schedule, target: f64) -> Option<f64> {
        if target <= 0.0 {
            return Some(0.0);
        }
        // Strictly-less via the left limit of the ECDF, as in
        // [`crate::outage::OutageProfile`].
        let p = self.profile(schedule).eval(target - 1e-12);
        if p == 0.0 {
            None
        } else {
            Some(p)
        }
    }

    /// The ε-outage schedule sum rate: the largest rate supported in all
    /// but an `eps` fraction of fades, or `None` when `eps` sits below
    /// the `1/trials` resolution floor.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is outside `[0, 1]`.
    pub fn outage_rate(&self, schedule: Schedule, eps: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&eps),
            "eps must lie in [0, 1], got {eps}"
        );
        let profile = self.profile(schedule);
        if eps < 1.0 / profile.len() as f64 {
            None
        } else {
            Some(profile.quantile(eps))
        }
    }

    /// Ergodic (fading-averaged) schedule sum rate, summed in trial
    /// order (matching the evaluator twin's aggregation order).
    pub fn ergodic(&self, schedule: Schedule) -> f64 {
        let s = self.schedule_samples(schedule);
        s.iter().sum::<f64>() / s.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_channel::ChannelState;
    use bcc_core::gaussian::GaussianNetwork;

    fn fig4_net(p_db: f64) -> GaussianNetwork {
        GaussianNetwork::new(
            10f64.powf(p_db / 10.0),
            ChannelState::new(0.19952623149688797, 1.0, 3.1622776601683795),
        )
    }

    fn two_pairs() -> PairSet {
        PairSet::new(vec![
            fig4_net(10.0),
            GaussianNetwork::new(10.0, ChannelState::new(1.0, 0.3, 0.3)),
        ])
    }

    #[test]
    fn single_pair_reduces_to_classic_stream() {
        // K = 1 must reproduce the classic single-pair sample stream of
        // `ergodic::sum_rate_samples` bit for bit (same seeding rule,
        // same fade-drawing order).
        let net = fig4_net(10.0);
        let cfg = McConfig::new(60, 0xFEED);
        let classic =
            crate::ergodic::sum_rate_samples(&net, Protocol::Tdbc, FadingModel::Rayleigh, &cfg);
        let multi = multi_pair_samples(
            &PairSet::new(vec![net]),
            Protocol::Tdbc,
            FadingModel::Rayleigh,
            &cfg,
        );
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0], classic);
    }

    #[test]
    fn matches_evaluator_bitwise_at_shared_seed() {
        // Single-point grid, shared seed: the serial McConfig driver and
        // the evaluator's parallel fan-out draw the same streams, so
        // they must agree bit for bit — a genuine two-implementation
        // differential check.
        use bcc_core::scenario::Scenario;
        let pairs = two_pairs();
        let cfg = McConfig::new(50, 0xC0FFEE);
        let eval = Scenario::pairs("network", [(0.0, pairs.clone())])
            .rayleigh(cfg.trials, cfg.seed)
            .build()
            .outage()
            .unwrap();
        for proto in [Protocol::Mabc, Protocol::Hbc] {
            let sim = multi_pair_samples(&pairs, proto, FadingModel::Rayleigh, &cfg);
            for (pair, samples) in sim.iter().enumerate() {
                assert_eq!(samples, eval.samples(proto, 0, pair), "{proto} pair {pair}");
            }
        }
    }

    #[test]
    fn profile_aggregates_match_hand_computation() {
        let p = MultiPairProfile::from_samples(vec![vec![1.0, 3.0], vec![2.0, 0.5]]);
        assert_eq!(p.num_pairs(), 2);
        assert_eq!(p.trials(), 2);
        assert_eq!(p.schedule_samples(Schedule::TimeShare), vec![1.5, 1.75]);
        assert_eq!(p.schedule_samples(Schedule::Joint), vec![2.0, 3.0]);
        assert_eq!(p.ergodic(Schedule::Joint), 2.5);
        assert_eq!(p.outage_probability(Schedule::Joint, 2.5), Some(0.5));
        // eps = 0 sits below the 1/trials floor — unresolved by contract.
        assert_eq!(p.outage_rate(Schedule::Joint, 0.0), None);
        assert!(
            p.outage_rate(Schedule::Joint, 0.5).unwrap()
                <= p.outage_rate(Schedule::Joint, 1.0).unwrap()
        );
    }

    #[test]
    fn joint_outage_never_exceeds_time_share_outage() {
        let pairs = two_pairs();
        let cfg = McConfig::new(300, 11);
        let p = MultiPairProfile::estimate(&pairs, Protocol::Hbc, FadingModel::Rayleigh, &cfg);
        for target in [0.5, 1.0, 2.0] {
            assert!(
                p.outage_probability(Schedule::Joint, target).unwrap_or(0.0)
                    <= p.outage_probability(Schedule::TimeShare, target)
                        .unwrap_or(0.0)
                        + 1e-12,
                "target {target}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "trial counts must agree")]
    fn ragged_samples_rejected() {
        let _ = MultiPairProfile::from_samples(vec![vec![1.0, 2.0], vec![1.0]]);
    }
}
