//! Bit-level golden hashes of the closed-form block kernels.
//!
//! `batch_differential` proves the block kernels equal the scalar ones,
//! but both sides run the same lane bodies, so a change that moves a bit
//! in both at once passes it. This suite pins the answers themselves: it
//! folds every output bit — value, `ra`, `rb` and each duration, so a
//! flipped sign of zero counts — of `max_sum_rate_block` for all four
//! protocols and `max_min_rate_block` for DT/MABC/TDBC over four fixed
//! input sets, and compares each fold with a recorded hash.
//!
//! The hashes were recorded from an optimised (release) build. The lane
//! bodies spell out every `min`/`max`/`clamp` as explicit compares and
//! selects, so the same bits must come out at every opt-level and on
//! both the AVX2 and the portable lane path; CI runs this suite in debug
//! and in release.

use bcc_channel::fading::FadingModel;
use bcc_channel::{ChannelState, PowerSplit};
use bcc_core::batch::{max_min_rate_block, max_sum_rate_block, PointBlock};
use bcc_core::gaussian::{GaussianNetwork, SumRateSolution};
use bcc_core::optimizer::SchedulePoint;
use bcc_core::scenario::{mix_seed, trial_stream};
use bcc_core::Protocol;
use bcc_num::db::Db;

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

    fn f64s(&mut self, vals: &[f64]) {
        self.word(vals.len() as u64);
        for v in vals {
            self.word(v.to_bits());
        }
    }
}

/// Rayleigh fades of the Fig. 4 network (G_ab/G_ar/G_br = −7/0/5 dB) at
/// the five outage powers 0–20 dB, 256 seeded draws each.
fn fig4_fades() -> Vec<GaussianNetwork> {
    let mut nets = Vec::new();
    for (point, p_db) in [0.0, 5.0, 10.0, 15.0, 20.0].into_iter().enumerate() {
        let net =
            GaussianNetwork::from_db(Db::new(p_db), Db::new(-7.0), Db::new(0.0), Db::new(5.0));
        for trial in 0..256 {
            let mut rng = trial_stream(mix_seed(0xBCC0_0001, point as u64), trial);
            let model = FadingModel::Rayleigh;
            nets.push(net.with_state(net.state().faded(
                model.sample_power(&mut rng),
                model.sample_power(&mut rng),
                model.sample_power(&mut rng),
            )));
        }
    }
    nets
}

/// The 13-point grid of the `batch` unit tests: symmetric, lopsided and
/// dead-link channels (3 full lanes and a tail).
fn grid13() -> Vec<GaussianNetwork> {
    [
        (10.0, 0.2, 1.0, 3.16),
        (0.5, 1.0, 1.0, 1.0),
        (2.0, 1.0, 0.01, 10.0),
        (31.6, 0.0, 2.0, 2.0),
        (1.0, 5.0, 0.5, 0.5),
        (10.0, 1.0, 0.0, 1.0),
        (3.0, 0.5, 10.0, 0.1),
        (0.0, 1.0, 1.0, 1.0),
        (100.0, 0.1, 4.0, 0.25),
        (7.0, 2.0, 2.0, 2.0),
        (0.1, 0.3, 0.7, 1.3),
        (50.0, 0.01, 8.0, 8.0),
        (5.0, 1.5, 0.2, 6.0),
    ]
    .into_iter()
    .map(|(p, gab, gar, gbr)| GaussianNetwork::new(p, ChannelState::new(gab, gar, gbr)))
    .collect()
}

/// A tie-heavy slice of Fig. 3: P = 15 dB, G_ab = 0 dB and symmetric
/// relay gains from −10 to 30 dB in 0.5 dB steps, so the two directions
/// tie exactly at every point (and all three links tie at 0 dB).
fn fig3_ties() -> Vec<GaussianNetwork> {
    (-20..=60)
        .map(|k| {
            let g = Db::new(0.5 * f64::from(k));
            GaussianNetwork::from_db(Db::new(15.0), Db::new(0.0), g, g)
        })
        .collect()
}

/// Asymmetric per-node power splits (including silent nodes) over three
/// channel states.
fn asym_splits() -> Vec<GaussianNetwork> {
    let states = [
        ChannelState::new(0.2, 1.0, 3.16),
        ChannelState::new(1.0, 1.0, 1.0),
        ChannelState::new(0.05, 6.0, 0.4),
    ];
    let splits = [
        (1.0, 9.0, 5.0),
        (9.0, 1.0, 5.0),
        (5.0, 5.0, 0.5),
        (0.5, 0.5, 20.0),
        (0.0, 10.0, 10.0),
        (10.0, 0.0, 10.0),
        (10.0, 10.0, 0.0),
        (3.0, 12.0, 0.0),
        (31.6, 1.0, 3.16),
        (0.01, 0.02, 0.03),
        (25.0, 2.5, 12.5),
    ];
    let mut nets = Vec::new();
    for state in states {
        for (pa, pb, pr) in splits {
            nets.push(GaussianNetwork::with_powers(
                PowerSplit::new(pa, pb, pr),
                state,
            ));
        }
    }
    nets
}

fn sum_hash(sols: &[SumRateSolution]) -> u64 {
    let mut f = Fold::new();
    for s in sols {
        f.f64s(&[s.sum_rate, s.ra, s.rb]);
        f.f64s(s.durations.as_slice());
    }
    f.0
}

fn mm_hash(pts: &[SchedulePoint]) -> u64 {
    let mut f = Fold::new();
    for p in pts {
        f.f64s(&[p.objective, p.ra, p.rb]);
        f.f64s(p.durations.as_slice());
    }
    f.0
}

/// `(set, kernel, protocol) → hash`, recorded from a release build.
const GOLDEN: [(&str, &str, &str, u64); 28] = [
    ("fig4_fades", "sum", "DT", 0x493a8b441ed82109),
    ("fig4_fades", "sum", "MABC", 0x22f16f8a4d2a4a97),
    ("fig4_fades", "sum", "TDBC", 0x34392616d426f86a),
    ("fig4_fades", "sum", "HBC", 0x17b664465824fb74),
    ("fig4_fades", "maxmin", "DT", 0xa30fe9ed9b984bc7),
    ("fig4_fades", "maxmin", "MABC", 0xb6cba6f2ca119a7a),
    ("fig4_fades", "maxmin", "TDBC", 0x46fbaeb907275562),
    ("grid13", "sum", "DT", 0xda51a8048fc6a935),
    ("grid13", "sum", "MABC", 0x1417f073b523da94),
    ("grid13", "sum", "TDBC", 0xef66a2273f921325),
    ("grid13", "sum", "HBC", 0x4448768a354bdeb1),
    ("grid13", "maxmin", "DT", 0xa320970edb9693ec),
    ("grid13", "maxmin", "MABC", 0x110c968d7f82bc4a),
    ("grid13", "maxmin", "TDBC", 0x429e718487f815f7),
    ("fig3_ties", "sum", "DT", 0x61a2a21fcd784509),
    ("fig3_ties", "sum", "MABC", 0xb4f1c76a5608570f),
    ("fig3_ties", "sum", "TDBC", 0xe59ad619e9e13413),
    ("fig3_ties", "sum", "HBC", 0xcde11cb7f902fdbb),
    ("fig3_ties", "maxmin", "DT", 0x0cbb99a6838b94af),
    ("fig3_ties", "maxmin", "MABC", 0xb3a6da8ace52defd),
    ("fig3_ties", "maxmin", "TDBC", 0x66d16847a74ee0b6),
    ("asym_splits", "sum", "DT", 0x2fc178496e0efdd1),
    ("asym_splits", "sum", "MABC", 0xda89dafd8e44e69a),
    ("asym_splits", "sum", "TDBC", 0xf167bc88dcb9c663),
    ("asym_splits", "sum", "HBC", 0x001717eb9043ebe7),
    ("asym_splits", "maxmin", "DT", 0x13afed6c79af808a),
    ("asym_splits", "maxmin", "MABC", 0xd22a5effb6045c7a),
    ("asym_splits", "maxmin", "TDBC", 0x2eb92ff3fc98a77f),
];

/// Every `(set, kernel, protocol, hash)` of the current build, in
/// [`GOLDEN`]'s order.
fn measured() -> Vec<(&'static str, &'static str, &'static str, u64)> {
    let sets: [(&str, Vec<GaussianNetwork>); 4] = [
        ("fig4_fades", fig4_fades()),
        ("grid13", grid13()),
        ("fig3_ties", fig3_ties()),
        ("asym_splits", asym_splits()),
    ];
    let mut rows = Vec::new();
    for (name, nets) in &sets {
        let mut block = PointBlock::with_capacity(nets.len());
        for net in nets {
            block.push_net(net);
        }
        block.compute_caps();
        for p in Protocol::ALL {
            let mut sols = Vec::new();
            max_sum_rate_block(&block, p, &mut sols);
            assert_eq!(sols.len(), nets.len());
            rows.push((*name, "sum", p.name(), sum_hash(&sols)));
        }
        for p in [Protocol::DirectTransmission, Protocol::Mabc, Protocol::Tdbc] {
            let mut pts = Vec::new();
            assert!(max_min_rate_block(&block, p, &mut pts));
            assert_eq!(pts.len(), nets.len());
            rows.push((*name, "maxmin", p.name(), mm_hash(&pts)));
        }
    }
    rows
}

#[test]
fn block_kernels_match_recorded_bits() {
    let got = measured();
    assert_eq!(got.len(), GOLDEN.len());
    let bad: Vec<String> = got
        .iter()
        .zip(GOLDEN.iter())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| {
            format!(
                "{}/{}/{}: got {:#018x}, recorded {:#018x}",
                g.0, g.1, g.2, g.3, w.3
            )
        })
        .collect();
    let table: Vec<String> = got
        .iter()
        .map(|(s, k, p, h)| format!("    ({s:?}, {k:?}, {p:?}, {h:#018x}),"))
        .collect();
    assert!(
        bad.is_empty(),
        "{} kernel outputs changed bits:\n{}\nmeasured table:\n{}",
        bad.len(),
        bad.join("\n"),
        table.join("\n")
    );
}
