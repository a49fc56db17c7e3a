//! Bit-level golden hashes of the fading studies.
//!
//! `dmt_golden`, `deep_outage` and `multipair_reduction` pin tolerance
//! bands, cross-paths and the K = 1 reduction, so a change that moves a
//! bit on both sides of a comparison, or moves one inside a band, passes
//! them. This suite pins the results themselves: it folds the
//! `f64::to_bits` of every output of the four fading studies (FNV-1a over
//! 64-bit words, as in `bcc-core`'s `kernel_golden`) and compares each
//! fold with a recorded hash:
//!
//! * `Evaluator::outage` on a three-point grid in 7-point blocks (so
//!   blocks straddle grid points): the samples and every estimator
//!   (`outage_probability` at a non-positive, a resolved and an
//!   unresolved target, `outage_rate` below and above `1/trials`, and
//!   `ergodic_series`);
//! * `Evaluator::dmt` on the canonical DMT study: outage, pointwise
//!   diversity, `diversity_fit` and `target_rate`;
//! * `Evaluator::deep_outage`, every `DeepCell` field and
//!   `diversity_fit`, on the canonical deep study (forced sampling) and
//!   with the default spec on a four-protocol grid (the exact DT fast path
//!   next to automatically tilted cells);
//! * `MultiPairEvaluator::outage` on the canonical K = 3 study: the
//!   per-pair samples, plus `outage_probability` and `ergodic` under each
//!   `Schedule`.
//!
//! The hashes were recorded from an optimised (release) build. Every
//! study draws from per-trial seed streams and solves on the closed-form
//! kernels, which give the same bits at every opt-level, worker count and
//! block size, so CI runs this suite in debug and in release.

use bcc::prelude::*;
use bcc_bench::{deepstudy, dmtstudy, fig4_network, multipairstudy};

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn f64s(&mut self, vals: &[f64]) {
        self.word(vals.len() as u64);
        for &v in vals {
            self.f64(v);
        }
    }

    /// `None` folds as a tag word alone, `Some(v)` as another tag and
    /// `v`'s bits, so an unresolved estimate never aliases a value.
    fn opt(&mut self, v: Option<f64>) {
        match v {
            None => self.word(0x4e4f_4e45),
            Some(v) => {
                self.word(0x534f_4d45);
                self.f64(v);
            }
        }
    }
}

/// One recorded row: `(study, output, hash)`.
type Row = (&'static str, &'static str, u64);

/// Trials per point of the three-point outage grid: 50 draws in 7-point
/// blocks put a block boundary inside every grid point.
const OUTAGE_TRIALS: usize = 50;

fn outage_rows() -> Vec<Row> {
    let out = Scenario::power_sweep_db(fig4_network(0.0), [0.0, 10.0, 20.0])
        .rayleigh(OUTAGE_TRIALS, 0xF5D1_0001)
        .block_size(7)
        .build()
        .outage()
        .unwrap();
    let (mut samples, mut probs, mut rates, mut ergodic) =
        (Fold::new(), Fold::new(), Fold::new(), Fold::new());
    let resolution = 1.0 / OUTAGE_TRIALS as f64;
    let mut resolved = [[0usize; 2]; 2];
    for &p in out.protocols() {
        for i in 0..out.xs.len() {
            let s = out.samples(p, i);
            samples.f64s(s);
            let lo = s.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            // Non-positive targets resolve to 0, nothing falls below the
            // sample minimum (unresolved), and the midrange and the
            // maximum resolve wherever the samples spread.
            for target in [-1.0, 0.0, lo, 0.5 * (lo + hi), hi] {
                let v = out.outage_probability(p, i, target);
                resolved[0][usize::from(v.is_some())] += 1;
                probs.opt(v);
            }
            for eps in [0.0, 0.5 * resolution, resolution, 0.1, 0.5, 1.0] {
                let v = out.outage_rate(p, i, eps);
                resolved[1][usize::from(v.is_some())] += 1;
                rates.opt(v);
            }
        }
        for (x, mean) in out.ergodic_series(p) {
            ergodic.f64s(&[x, mean]);
        }
    }
    assert!(
        resolved.iter().flatten().all(|&n| n > 0),
        "both estimators must meet resolved and unresolved cases: {resolved:?}"
    );
    vec![
        ("outage", "samples", samples.0),
        ("outage", "outage_probability", probs.0),
        ("outage", "outage_rate", rates.0),
        ("outage", "ergodic_series", ergodic.0),
    ]
}

fn dmt_rows() -> Vec<Row> {
    let dmt = dmtstudy::dmt_scenario(600).build().dmt().unwrap();
    let (mut outage, mut diversity, mut fit, mut target) =
        (Fold::new(), Fold::new(), Fold::new(), Fold::new());
    for &p in dmt.protocols() {
        for g in 0..dmt.gains.len() {
            outage.f64s(dmt.outage(p, g));
            diversity.f64s(dmt.diversity(p, g));
            fit.opt(dmt.diversity_fit(p, g));
        }
    }
    for g in 0..dmt.gains.len() {
        for i in 0..dmt.snrs.len() {
            target.f64(dmt.target_rate(g, i));
        }
    }
    vec![
        ("dmt", "outage", outage.0),
        ("dmt", "diversity", diversity.0),
        ("dmt", "diversity_fit", fit.0),
        ("dmt", "target_rate", target.0),
    ]
}

/// Folds every `DeepCell` field and every `diversity_fit` of `res`.
fn deep_rows(study: &'static str, res: &DeepOutageResult) -> Vec<Row> {
    let (mut cells, mut fit) = (Fold::new(), Fold::new());
    for &p in res.protocols() {
        for g in 0..res.gains.len() {
            for i in 0..res.snrs.len() {
                let c = res.cell(p, g, i);
                cells.opt(c.probability);
                cells.opt(c.rel_error);
                cells.f64s(&[c.ess, c.variance]);
                cells.word(c.trials as u64);
                cells.word(c.hits);
                cells.f64s(&c.theta);
                cells.word(u64::from(c.source == TailSource::Sampled));
                cells.f64(res.target_rate(g, i));
            }
            fit.opt(res.diversity_fit(p, g));
        }
    }
    vec![(study, "cells", cells.0), (study, "diversity_fit", fit.0)]
}

fn deep_study_rows() -> Vec<Row> {
    let res = deepstudy::deep_scenario(deepstudy::TRIAL_LADDER[0])
        .build()
        .deep_outage(&deepstudy::deep_spec())
        .unwrap();
    deep_rows("deep_study", &res)
}

fn deep_grid_rows() -> Vec<Row> {
    let res = Scenario::power_sweep_db(fig4_network(0.0), [14.0, 20.0, 26.0])
        .multiplexing_gains([0.1, 0.25])
        .rayleigh(400, 0xF5D1_0002)
        .build()
        .deep_outage(&DeepSpec::new())
        .unwrap();
    let r = &res;
    let cells: Vec<&DeepCell> = r
        .protocols()
        .iter()
        .flat_map(|&p| {
            (0..r.gains.len()).flat_map(move |g| (0..r.snrs.len()).map(move |i| r.cell(p, g, i)))
        })
        .collect();
    assert!(
        cells.iter().any(|c| c.source == TailSource::Exact)
            && cells.iter().any(|c| c.theta.iter().any(|&t| t < 1.0)),
        "the grid must hold exact cells and automatically tilted ones"
    );
    deep_rows("deep_grid", &res)
}

fn multipair_rows() -> Vec<Row> {
    let out = multipairstudy::outage_scenario(700)
        .build()
        .outage()
        .unwrap();
    let points = multipairstudy::SNR_GRID_DB.len();
    let (mut samples, mut probs, mut ergodic) = (Fold::new(), Fold::new(), Fold::new());
    let mut resolved = [0usize; 2];
    for &p in out.protocols() {
        for i in 0..points {
            for pair in 0..out.num_pairs() {
                samples.f64s(out.samples(p, i, pair));
            }
            for s in SCHEDULES {
                let mean = out.ergodic(p, i, s);
                ergodic.f64(mean);
                for target in [0.0, 1e-3, 0.5 * mean, mean, 1e9] {
                    let v = out.outage_probability(p, i, s, target);
                    resolved[usize::from(v.is_some())] += 1;
                    probs.opt(v);
                }
            }
        }
    }
    assert!(
        resolved.iter().all(|&n| n > 0),
        "outage_probability must meet resolved and unresolved cases: {resolved:?}"
    );
    vec![
        ("multipair", "samples", samples.0),
        ("multipair", "outage_probability", probs.0),
        ("multipair", "ergodic", ergodic.0),
    ]
}

/// `(study, output) → hash`, recorded from a release build.
const GOLDEN: [Row; 15] = [
    ("outage", "samples", 0x7fdb9c2ef63e5138),
    ("outage", "outage_probability", 0xef2690c866f3f1ed),
    ("outage", "outage_rate", 0x721e9a9365a89a86),
    ("outage", "ergodic_series", 0x3f37907ae5de6aa4),
    ("dmt", "outage", 0x497067ff578cf758),
    ("dmt", "diversity", 0x566f9013de9121b1),
    ("dmt", "diversity_fit", 0xe59b84430417563c),
    ("dmt", "target_rate", 0x44e6f0b85bcc0e9f),
    ("deep_study", "cells", 0x84f03d40497c6b33),
    ("deep_study", "diversity_fit", 0x99e342c04b6db693),
    ("deep_grid", "cells", 0x0e98fac5b7358eae),
    ("deep_grid", "diversity_fit", 0xe347bb1129add469),
    ("multipair", "samples", 0x4711cb1ef73a51c3),
    ("multipair", "outage_probability", 0x111f36ae0b58f8c9),
    ("multipair", "ergodic", 0x9420db8bd4b90a2e),
];

/// Compares measured rows with the recorded ones of the same study,
/// printing the measured table on any difference.
fn assert_rows_match(got: &[Row]) {
    let want: Vec<&Row> = GOLDEN.iter().filter(|w| w.0 == got[0].0).collect();
    let bad: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| *g != **w)
        .map(|(g, w)| format!("{}/{}: got {:#018x}, recorded {:#018x}", g.0, g.1, g.2, w.2))
        .collect();
    let table: Vec<String> = got
        .iter()
        .map(|(s, o, h)| format!("    ({s:?}, {o:?}, {h:#018x}),"))
        .collect();
    assert!(
        bad.is_empty() && got.len() == want.len(),
        "{} of {} recorded outputs changed bits:\n{}\nmeasured rows:\n{}",
        bad.len(),
        want.len(),
        bad.join("\n"),
        table.join("\n")
    );
}

#[test]
fn outage_estimators_match_recorded_bits() {
    assert_rows_match(&outage_rows());
}

#[test]
fn dmt_matches_recorded_bits() {
    assert_rows_match(&dmt_rows());
}

#[test]
fn deep_outage_study_matches_recorded_bits() {
    assert_rows_match(&deep_study_rows());
}

#[test]
fn deep_outage_grid_matches_recorded_bits() {
    assert_rows_match(&deep_grid_rows());
}

#[test]
fn multipair_outage_matches_recorded_bits() {
    assert_rows_match(&multipair_rows());
}
