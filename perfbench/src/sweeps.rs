//! The three batch workloads and their replays. Each replay makes the
//! public layer calls its evaluator makes — `PointBlock::push_net` and
//! `compute_caps`, then `SolveCtx::solve_block` per protocol (and, for
//! fading, `trial_stream` plus `FadingModel::sample_power`) — in the same
//! order, block by `DEFAULT_BLOCK` block, with fresh per-worker state each
//! pass as the evaluator's serial path builds it.

use crate::batch::BatchWorkload;
use crate::stats::Fold;
use crate::trace::{span, Probe, Stage};
use bcc_bench::{fig4_network, multipairstudy, FIG3_GAB_DB, FIG3_POWER_DB};
use bcc_channel::fading::FadingModel;
use bcc_core::batch::{PointBlock, DEFAULT_BLOCK};
use bcc_core::gaussian::{GaussianNetwork, SumRateSolution};
use bcc_core::multipair::SCHEDULES;
use bcc_core::multipair::{MultiPairEvaluator, MultiPairResult, MultiPairScenario, PairSolution};
use bcc_core::scenario::{mix_seed, trial_stream, Evaluator, OutageResult, Scenario, SweepResult};
use bcc_core::{CoreError, Protocol, SolveCtx, SolveOutcome, SolveRequest};
use std::mem::size_of;

/// Stored fingerprint of `paper_sweep` (no seed dependence).
const PAPER_SWEEP_FINGERPRINT: u64 = 0xc325_e116_bb9a_061c;
/// Stored fingerprint of `fading_outage` at `--seed 0`.
const FADING_OUTAGE_FINGERPRINT: u64 = 0x7036_5291_5c17_549a;
/// Stored fingerprint of `fair_multipair` (no seed dependence).
const FAIR_MULTIPAIR_FINGERPRINT: u64 = 0xc222_d71a_e4be_9e2c;

/// Runs one request over the staged block inside a span, leaving the
/// outcomes in `out`.
fn solve<P: Probe>(
    probe: &mut P,
    stage: Stage,
    ctx: &mut SolveCtx,
    block: &PointBlock,
    req: SolveRequest,
    out: &mut Vec<SolveOutcome>,
) -> Result<(), CoreError> {
    span(probe, stage, || {
        out.clear();
        ctx.solve_block(block, req, out)
    })
}

/// Copies outcome values into `dst`.
fn keep(dst: &mut [f64], outs: &[SolveOutcome]) {
    for (v, o) in dst.iter_mut().zip(outs) {
        *v = o.value;
    }
}

/// Folds value columns in order.
fn fold_columns<'a>(columns: impl IntoIterator<Item = &'a Vec<f64>>) -> u64 {
    let mut f = Fold::default();
    for c in columns {
        for &v in c {
            f.f64(v);
        }
    }
    f.finish()
}

fn non_finite(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().filter(|v| !v.is_finite()).count() as u64
}

/// The evaluator's per-worker state: a solve context, a point block and
/// one outcome buffer per request.
fn worker(requests: usize) -> (SolveCtx, PointBlock, Vec<Vec<SolveOutcome>>) {
    (
        SolveCtx::new(),
        PointBlock::new(),
        vec![Vec::new(); requests],
    )
}

/// Relay-gain steps of the Fig. 3 grid: 0 to 30 dB in 0.5 mdB steps.
const GAIN_STEPS: u32 = 60_000;
const GAIN_STEP_DB: f64 = 0.0005;

/// The paper's Fig. 3 sweep: P = 15 dB, G_ab = 0 dB, symmetric relay gain
/// over 60,001 points, all four protocols, inner bound, no floor.
pub struct PaperSweep {
    serial: Evaluator,
    parallel: Evaluator,
    values: Vec<Vec<f64>>,
}

impl BatchWorkload for PaperSweep {
    type Output = SweepResult;

    fn build(_seed: u64, threads: usize) -> Self {
        let scenario = Scenario::symmetric_gain_sweep_db(
            FIG3_POWER_DB,
            FIG3_GAB_DB,
            (0..=GAIN_STEPS).map(|k| f64::from(k) * GAIN_STEP_DB),
        );
        let serial = scenario.clone().threads(1).build();
        let values = vec![vec![0.0; serial.points().len()]; serial.protocols().len()];
        PaperSweep {
            parallel: scenario.threads(threads).build(),
            serial,
            values,
        }
    }

    fn pass(&mut self, parallel: bool) -> Result<SweepResult, CoreError> {
        if parallel {
            self.parallel.sweep()
        } else {
            self.serial.sweep()
        }
    }

    fn fingerprint(&self, out: &SweepResult) -> u64 {
        let mut f = Fold::default();
        for &p in out.protocols() {
            f.word(p.index() as u64);
            for (x, s) in out.series_points(p) {
                f.f64(x);
                f.f64(s);
            }
        }
        for w in out.winners() {
            f.word(w.map_or(u64::MAX, |p| p.index() as u64));
        }
        f.word(out.skipped().len() as u64);
        f.finish()
    }

    fn values(&self, out: &SweepResult) -> u64 {
        let columns: Vec<Vec<f64>> = out
            .protocols()
            .iter()
            .map(|&p| out.series_points(p).into_iter().map(|(_, s)| s).collect())
            .collect();
        fold_columns(&columns)
    }

    fn tally(&self, out: &SweepResult) -> (u64, u64) {
        let solves = (out.len() * out.protocols().len()) as u64;
        let bad = out
            .protocols()
            .iter()
            .map(|&p| non_finite(out.series_points(p).into_iter().map(|(_, s)| s)))
            .sum();
        (solves, bad)
    }

    fn replay<P: Probe>(&mut self, probe: &mut P) -> Result<(), CoreError> {
        let points = self.serial.points();
        let protocols = self.serial.protocols();
        probe.enter(Stage::Pass);
        let (mut ctx, mut block, mut outs) = worker(protocols.len());
        for lo in (0..points.len()).step_by(DEFAULT_BLOCK) {
            let hi = (lo + DEFAULT_BLOCK).min(points.len());
            probe.enter(Stage::Block);
            span(probe, Stage::Pack, || {
                block.clear();
                for pt in &points[lo..hi] {
                    block.push_net(&pt.net);
                }
            });
            span(probe, Stage::Caps, || block.compute_caps());
            for (pi, &p) in protocols.iter().enumerate() {
                let req = SolveRequest::sum_rate(p);
                solve(probe, Stage::sum(p), &mut ctx, &block, req, &mut outs[pi])?;
                keep(&mut self.values[pi][lo..hi], &outs[pi]);
            }
            probe.exit(Stage::Block);
        }
        probe.exit(Stage::Pass);
        Ok(())
    }

    fn replay_values(&self) -> u64 {
        fold_columns(&self.values)
    }

    fn golden(_seed: u64) -> Option<u64> {
        Some(PAPER_SWEEP_FINGERPRINT)
    }

    fn result_bytes(&self) -> usize {
        let (n, k) = (self.serial.points().len(), self.serial.protocols().len());
        n * k * size_of::<SumRateSolution>()
            + n * (size_of::<f64>() + size_of::<Option<Protocol>>())
    }
}

/// Transmit powers of the outage study (dB).
const OUTAGE_POWERS_DB: [f64; 5] = [0.0, 5.0, 10.0, 15.0, 20.0];
/// Rayleigh trials per power.
const OUTAGE_TRIALS: usize = 20_000;
/// Root of the trial seeds; `--seed` is mixed into it.
const TRIAL_SEED: u64 = 0xBCC0_0001;
/// Fades per trial: one per link.
const LINKS: u64 = 3;

/// Rayleigh outage on the Fig. 4 network: 5 powers × 20,000 trials, all
/// four protocols, through `Evaluator::outage`.
pub struct FadingOutage {
    serial: Evaluator,
    parallel: Evaluator,
    seed: u64,
    faded: Vec<GaussianNetwork>,
    values: Vec<Vec<f64>>,
}

impl FadingOutage {
    fn draws(&self) -> usize {
        self.serial.points().len() * OUTAGE_TRIALS
    }
}

impl BatchWorkload for FadingOutage {
    type Output = OutageResult;

    fn build(seed: u64, threads: usize) -> Self {
        let seed = mix_seed(TRIAL_SEED, seed);
        let scenario = Scenario::power_sweep_db(fig4_network(0.0), OUTAGE_POWERS_DB)
            .rayleigh(OUTAGE_TRIALS, seed);
        let serial = scenario.clone().threads(1).build();
        let total = serial.points().len() * OUTAGE_TRIALS;
        FadingOutage {
            values: vec![vec![0.0; total]; serial.protocols().len()],
            parallel: scenario.threads(threads).build(),
            serial,
            seed,
            faded: Vec::with_capacity(DEFAULT_BLOCK),
        }
    }

    fn pass(&mut self, parallel: bool) -> Result<OutageResult, CoreError> {
        if parallel {
            self.parallel.outage()
        } else {
            self.serial.outage()
        }
    }

    fn fingerprint(&self, out: &OutageResult) -> u64 {
        let mut f = Fold::default();
        for &p in out.protocols() {
            f.word(p.index() as u64);
            for i in 0..self.serial.points().len() {
                for &v in out.samples(p, i) {
                    f.f64(v);
                }
            }
        }
        f.finish()
    }

    fn values(&self, out: &OutageResult) -> u64 {
        let columns: Vec<Vec<f64>> = out
            .protocols()
            .iter()
            .map(|&p| {
                (0..self.serial.points().len())
                    .flat_map(|i| out.samples(p, i).iter().copied())
                    .collect()
            })
            .collect();
        fold_columns(&columns)
    }

    fn tally(&self, out: &OutageResult) -> (u64, u64) {
        let points = self.serial.points().len();
        let bad = out
            .protocols()
            .iter()
            .map(|&p| non_finite((0..points).flat_map(|i| out.samples(p, i).iter().copied())))
            .sum();
        ((self.draws() * out.protocols().len()) as u64, bad)
    }

    fn replay<P: Probe>(&mut self, probe: &mut P) -> Result<(), CoreError> {
        let points = self.serial.points();
        let protocols = self.serial.protocols();
        let (seed, single, total) = (self.seed, points.len() == 1, self.draws());
        let model = FadingModel::Rayleigh;
        let faded = &mut self.faded;
        probe.enter(Stage::Pass);
        let (mut ctx, mut block, mut outs) = worker(protocols.len());
        for lo in (0..total).step_by(DEFAULT_BLOCK) {
            let hi = (lo + DEFAULT_BLOCK).min(total);
            probe.enter(Stage::Block);
            span(probe, Stage::Sample, || {
                faded.clear();
                for k in lo..hi {
                    let (point, trial) = (k / OUTAGE_TRIALS, k % OUTAGE_TRIALS);
                    let net = points[point].net;
                    let point_seed = if single {
                        seed
                    } else {
                        mix_seed(seed, point as u64)
                    };
                    let mut rng = trial_stream(point_seed, trial as u64);
                    faded.push(net.with_state(net.state().faded(
                        model.sample_power(&mut rng),
                        model.sample_power(&mut rng),
                        model.sample_power(&mut rng),
                    )));
                }
            });
            span(probe, Stage::Pack, || {
                block.clear();
                for net in faded.iter() {
                    block.push_net(net);
                }
            });
            span(probe, Stage::Caps, || block.compute_caps());
            for (pi, &p) in protocols.iter().enumerate() {
                let req = SolveRequest::sum_rate(p);
                solve(probe, Stage::sum(p), &mut ctx, &block, req, &mut outs[pi])?;
                keep(&mut self.values[pi][lo..hi], &outs[pi]);
            }
            probe.exit(Stage::Block);
        }
        probe.exit(Stage::Pass);
        Ok(())
    }

    fn replay_values(&self) -> u64 {
        fold_columns(&self.values)
    }

    fn golden(seed: u64) -> Option<u64> {
        (seed == 0).then_some(FADING_OUTAGE_FINGERPRINT)
    }

    fn result_bytes(&self) -> usize {
        self.draws() * self.serial.protocols().len() * size_of::<f64>()
    }

    fn fade_draws(&self) -> u64 {
        self.draws() as u64 * LINKS
    }
}

/// Power steps of the multi-pair grid: 0 to 20 dB in 5 mdB steps.
const MP_POWER_STEPS: u32 = 4_000;
const MP_POWER_STEP_DB: f64 = 0.005;

/// K = 3 heterogeneous pairs sharing one relay over 4,001 powers, sum
/// rate and max–min per pair and protocol.
pub struct FairMultipair {
    serial: MultiPairEvaluator,
    parallel: MultiPairEvaluator,
    sums: Vec<Vec<f64>>,
    fairs: Vec<Vec<f64>>,
}

impl FairMultipair {
    fn nets(&self) -> usize {
        self.serial.points().len() * self.serial.num_pairs()
    }
}

impl BatchWorkload for FairMultipair {
    type Output = MultiPairResult;

    fn build(_seed: u64, threads: usize) -> Self {
        let scenario = MultiPairScenario::power_sweep_db(
            &multipairstudy::pair_set(),
            (0..=MP_POWER_STEPS).map(|k| f64::from(k) * MP_POWER_STEP_DB),
        );
        let serial = scenario.clone().threads(1).build();
        let column = vec![0.0; serial.points().len() * serial.num_pairs()];
        let columns = vec![column; serial.protocols().len()];
        FairMultipair {
            parallel: scenario.threads(threads).build(),
            serial,
            sums: columns.clone(),
            fairs: columns,
        }
    }

    fn pass(&mut self, parallel: bool) -> Result<MultiPairResult, CoreError> {
        if parallel {
            self.parallel.sweep()
        } else {
            self.serial.sweep()
        }
    }

    fn fingerprint(&self, out: &MultiPairResult) -> u64 {
        let mut f = Fold::default();
        for &p in out.protocols() {
            f.word(p.index() as u64);
            for point in 0..out.len() {
                for pair in 0..out.num_pairs() {
                    let PairSolution { sum, fair } = out.solution(p, point, pair);
                    for v in [
                        sum.sum_rate,
                        sum.ra,
                        sum.rb,
                        fair.objective,
                        fair.ra,
                        fair.rb,
                    ] {
                        f.f64(v);
                    }
                }
                for s in SCHEDULES {
                    f.f64(out.sum_rate(p, point, s));
                    f.f64(out.fair_rate(p, point, s));
                }
            }
        }
        f.finish()
    }

    fn values(&self, out: &MultiPairResult) -> u64 {
        let column = |p: Protocol, fair: bool| -> Vec<f64> {
            (0..out.len())
                .flat_map(|point| (0..out.num_pairs()).map(move |pair| (point, pair)))
                .map(|(point, pair)| {
                    let s = out.solution(p, point, pair);
                    if fair {
                        s.fair.objective
                    } else {
                        s.sum.sum_rate
                    }
                })
                .collect()
        };
        let sums: Vec<Vec<f64>> = out.protocols().iter().map(|&p| column(p, false)).collect();
        let fairs: Vec<Vec<f64>> = out.protocols().iter().map(|&p| column(p, true)).collect();
        fold_columns(sums.iter().chain(&fairs))
    }

    fn tally(&self, out: &MultiPairResult) -> (u64, u64) {
        let mut bad = 0;
        for &p in out.protocols() {
            for point in 0..out.len() {
                for pair in 0..out.num_pairs() {
                    let s = out.solution(p, point, pair);
                    bad += non_finite([s.sum.sum_rate, s.fair.objective]);
                }
            }
        }
        ((self.nets() * out.protocols().len() * 2) as u64, bad)
    }

    fn replay<P: Probe>(&mut self, probe: &mut P) -> Result<(), CoreError> {
        let nets = self.nets();
        let points = self.serial.points();
        let protocols = self.serial.protocols();
        let k = self.serial.num_pairs();
        probe.enter(Stage::Pass);
        let (mut ctx, mut block, mut outs) = worker(2 * protocols.len());
        for lo in (0..nets).step_by(DEFAULT_BLOCK) {
            let hi = (lo + DEFAULT_BLOCK).min(nets);
            probe.enter(Stage::Block);
            span(probe, Stage::Pack, || {
                block.clear();
                for idx in lo..hi {
                    block.push_net(points[idx / k].1.get(idx % k));
                }
            });
            span(probe, Stage::Caps, || block.compute_caps());
            for (pi, &p) in protocols.iter().enumerate() {
                let (sums, fairs) = outs[2 * pi..2 * pi + 2].split_at_mut(1);
                let req = SolveRequest::sum_rate(p);
                solve(probe, Stage::sum(p), &mut ctx, &block, req, &mut sums[0])?;
                let req = SolveRequest::max_min(p);
                solve(
                    probe,
                    Stage::max_min(p),
                    &mut ctx,
                    &block,
                    req,
                    &mut fairs[0],
                )?;
                keep(&mut self.sums[pi][lo..hi], &sums[0]);
                keep(&mut self.fairs[pi][lo..hi], &fairs[0]);
            }
            probe.exit(Stage::Block);
        }
        probe.exit(Stage::Pass);
        Ok(())
    }

    fn replay_values(&self) -> u64 {
        fold_columns(self.sums.iter().chain(&self.fairs))
    }

    fn golden(_seed: u64) -> Option<u64> {
        Some(FAIR_MULTIPAIR_FINGERPRINT)
    }

    fn result_bytes(&self) -> usize {
        let per_point = self.serial.num_pairs() * self.serial.protocols().len();
        self.serial.points().len() * (per_point * size_of::<PairSolution>() + size_of::<f64>())
    }
}
