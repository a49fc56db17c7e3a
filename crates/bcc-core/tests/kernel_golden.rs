//! Bit-level golden hashes of the closed-form block kernels and of the
//! simplex paths behind `SolveCtx::solve_one`.
//!
//! `batch_differential` proves the block kernels equal the scalar ones,
//! but both sides run the same lane bodies, so a change that moves a bit
//! in both at once passes it. This suite pins the answers themselves: it
//! folds every output bit — value, `ra`, `rb` and each duration, so a
//! flipped sign of zero counts — of `max_sum_rate_block` for all four
//! protocols and `max_min_rate_block` for DT/MABC/TDBC over four fixed
//! input sets, and compares each fold with a recorded hash.
//!
//! A second table pins the requests the closed forms do not answer:
//! `solve_one` with QoS floors, outer bounds (HBC's ρ-family among
//! them) and max–min over both bounds, for all four protocols over three
//! of the sets, each row through one fresh `SolveCtx` (so the warm-start
//! history is part of what is pinned).
//!
//! The hashes were recorded from an optimised (release) build. The lane
//! bodies spell out every `min`/`max`/`clamp` as explicit compares and
//! selects, and so do the simplex's clamps, so the same bits must come
//! out at every opt-level and on every lane path (AVX-512, AVX2 and
//! portable); CI runs this suite in debug and in release.

use bcc_channel::fading::FadingModel;
use bcc_channel::{ChannelState, PowerSplit};
use bcc_core::batch::{max_min_rate_block, max_sum_rate_block, PointBlock};
use bcc_core::gaussian::{GaussianNetwork, SumRateSolution};
use bcc_core::optimizer::SchedulePoint;
use bcc_core::scenario::{mix_seed, trial_stream};
use bcc_core::{Bound, Protocol, SolveCtx, SolveRequest};
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

/// The `solve_one` request shapes the simplex answers, by name: QoS
/// floors at two levels (infeasible at the weakest points, so errors are
/// pinned too), outer bounds with and without a floor, and max–min over
/// both bounds.
fn lp_requests(p: Protocol) -> [(&'static str, SolveRequest); 6] {
    let sum = SolveRequest::sum_rate(p);
    let outer = sum.with_bound(Bound::Outer);
    let mm = SolveRequest::max_min(p);
    [
        ("sum_floor_lo", sum.with_floor(Some((0.05, 0.1)))),
        ("sum_floor_hi", sum.with_floor(Some((3.0, 3.0)))),
        ("outer_sum", outer),
        ("outer_sum_floor", outer.with_floor(Some((0.05, 0.1)))),
        ("maxmin", mm),
        ("outer_maxmin", mm.with_bound(Bound::Outer)),
    ]
}

/// Folds `solve_one(net, req)` over `nets` through one fresh context: an
/// answer folds like the kernel rows, an error as a fixed tag plus
/// whether it is an infeasibility.
fn solve_one_hash(nets: &[GaussianNetwork], req: SolveRequest) -> u64 {
    let mut ctx = SolveCtx::new();
    let mut f = Fold::new();
    for net in nets {
        match ctx.solve_one(net, req) {
            Ok(o) => {
                f.f64s(&[o.value, o.ra, o.rb]);
                f.f64s(o.durations.as_slice());
            }
            Err(e) => {
                f.word(0xe440_e440_e440_e440);
                f.word(u64::from(e.is_infeasible()));
            }
        }
    }
    f.0
}

/// `(set, request, protocol) → hash` of [`solve_one_hash`], recorded
/// from a release build.
const LP_GOLDEN: [(&str, &str, &str, u64); 72] = [
    ("grid13", "sum_floor_lo", "DT", 0x85f6553de26080f2),
    ("grid13", "sum_floor_hi", "DT", 0x792490c7ff8d7d04),
    ("grid13", "outer_sum", "DT", 0xfa39b5bbd0ee1f75),
    ("grid13", "outer_sum_floor", "DT", 0x85f6553de26080f2),
    ("grid13", "maxmin", "DT", 0xa320970edb9693ec),
    ("grid13", "outer_maxmin", "DT", 0x68040fabba02ad34),
    ("grid13", "sum_floor_lo", "MABC", 0xf61112e7be5a87e4),
    ("grid13", "sum_floor_hi", "MABC", 0x0727117197c58d82),
    ("grid13", "outer_sum", "MABC", 0x37b0f1bd0ead1fbb),
    ("grid13", "outer_sum_floor", "MABC", 0xf61112e7be5a87e4),
    ("grid13", "maxmin", "MABC", 0x110c968d7f82bc4a),
    ("grid13", "outer_maxmin", "MABC", 0x0f24680057bc5b9e),
    ("grid13", "sum_floor_lo", "TDBC", 0xa141edfb651240a7),
    ("grid13", "sum_floor_hi", "TDBC", 0x792490c7ff8d7d04),
    ("grid13", "outer_sum", "TDBC", 0x357100d200c64e73),
    ("grid13", "outer_sum_floor", "TDBC", 0x4044d52321b6834e),
    ("grid13", "maxmin", "TDBC", 0x429e718487f815f7),
    ("grid13", "outer_maxmin", "TDBC", 0x480fb1a65bf167d4),
    ("grid13", "sum_floor_lo", "HBC", 0xd25172f829cb0360),
    ("grid13", "sum_floor_hi", "HBC", 0x449f3f0f12e6cdd0),
    ("grid13", "outer_sum", "HBC", 0xef819e0d95393730),
    ("grid13", "outer_sum_floor", "HBC", 0xb58e0879a456b5f4),
    ("grid13", "maxmin", "HBC", 0x96a1f1f5760e3a82),
    ("grid13", "outer_maxmin", "HBC", 0x5ed32b0b92580f5d),
    ("fig3_ties", "sum_floor_lo", "DT", 0xc06cf2e40a57e53b),
    ("fig3_ties", "sum_floor_hi", "DT", 0x6d605ffdb4ca8484),
    ("fig3_ties", "outer_sum", "DT", 0xbc5a80ff2300e509),
    ("fig3_ties", "outer_sum_floor", "DT", 0xc06cf2e40a57e53b),
    ("fig3_ties", "maxmin", "DT", 0x0cbb99a6838b94af),
    ("fig3_ties", "outer_maxmin", "DT", 0x0cbb99a6838b94af),
    ("fig3_ties", "sum_floor_lo", "MABC", 0xf73b0e670e1593a9),
    ("fig3_ties", "sum_floor_hi", "MABC", 0xe113d8388037b62d),
    ("fig3_ties", "outer_sum", "MABC", 0xf73b0e670e1593a9),
    ("fig3_ties", "outer_sum_floor", "MABC", 0xf73b0e670e1593a9),
    ("fig3_ties", "maxmin", "MABC", 0xb3a6da8ace52defd),
    ("fig3_ties", "outer_maxmin", "MABC", 0x70fd9ce57bf48173),
    ("fig3_ties", "sum_floor_lo", "TDBC", 0x99a4b274fff39e61),
    ("fig3_ties", "sum_floor_hi", "TDBC", 0xf9f80bdfa66b0012),
    ("fig3_ties", "outer_sum", "TDBC", 0xc33627529acd8661),
    ("fig3_ties", "outer_sum_floor", "TDBC", 0x914b19bfd0c5728f),
    ("fig3_ties", "maxmin", "TDBC", 0x66d16847a74ee0b6),
    ("fig3_ties", "outer_maxmin", "TDBC", 0xaf1dd05d803b54b9),
    ("fig3_ties", "sum_floor_lo", "HBC", 0x8e030d2180f59d65),
    ("fig3_ties", "sum_floor_hi", "HBC", 0x4b656724e3725b06),
    ("fig3_ties", "outer_sum", "HBC", 0x7801a9ec45279aa7),
    ("fig3_ties", "outer_sum_floor", "HBC", 0x7ba00572c310c6a1),
    ("fig3_ties", "maxmin", "HBC", 0x7f515a7c6f43a4ac),
    ("fig3_ties", "outer_maxmin", "HBC", 0xae177df1a19a3ca0),
    ("asym_splits", "sum_floor_lo", "DT", 0x592b983f9c248dfa),
    ("asym_splits", "sum_floor_hi", "DT", 0xd1544804a077e284),
    ("asym_splits", "outer_sum", "DT", 0x90916edc5e352ed1),
    ("asym_splits", "outer_sum_floor", "DT", 0x592b983f9c248dfa),
    ("asym_splits", "maxmin", "DT", 0x13afed6c79af808a),
    ("asym_splits", "outer_maxmin", "DT", 0x99c5d14b7d84a344),
    ("asym_splits", "sum_floor_lo", "MABC", 0x1f47449232dd7f62),
    ("asym_splits", "sum_floor_hi", "MABC", 0xd1544804a077e284),
    ("asym_splits", "outer_sum", "MABC", 0x7996f490bc1806c4),
    ("asym_splits", "outer_sum_floor", "MABC", 0x1f47449232dd7f62),
    ("asym_splits", "maxmin", "MABC", 0xd22a5effb6045c7a),
    ("asym_splits", "outer_maxmin", "MABC", 0x884fde49d97baf23),
    ("asym_splits", "sum_floor_lo", "TDBC", 0xc2128efd3b247dd2),
    ("asym_splits", "sum_floor_hi", "TDBC", 0xd1544804a077e284),
    ("asym_splits", "outer_sum", "TDBC", 0xcab10eccca2d3c03),
    ("asym_splits", "outer_sum_floor", "TDBC", 0xec81c232340a0626),
    ("asym_splits", "maxmin", "TDBC", 0x2eb92ff3fc98a77f),
    ("asym_splits", "outer_maxmin", "TDBC", 0x4b95e163e678b916),
    ("asym_splits", "sum_floor_lo", "HBC", 0xd7f3210d2cd0e426),
    ("asym_splits", "sum_floor_hi", "HBC", 0xd1544804a077e284),
    ("asym_splits", "outer_sum", "HBC", 0x51cd8655d22b1cf0),
    ("asym_splits", "outer_sum_floor", "HBC", 0xdfe601daa8c82823),
    ("asym_splits", "maxmin", "HBC", 0xeffc67a6125d6f89),
    ("asym_splits", "outer_maxmin", "HBC", 0x0eee307e4490ab0f),
];

/// Every `(set, request, protocol, hash)` row of `solve_one`, in
/// [`LP_GOLDEN`]'s order.
fn measured_lp() -> Vec<(&'static str, &'static str, &'static str, u64)> {
    let sets: [(&str, Vec<GaussianNetwork>); 3] = [
        ("grid13", grid13()),
        ("fig3_ties", fig3_ties()),
        ("asym_splits", asym_splits()),
    ];
    let mut rows = Vec::new();
    for (name, nets) in &sets {
        for p in Protocol::ALL {
            for (shape, req) in lp_requests(p) {
                rows.push((*name, shape, p.name(), solve_one_hash(nets, req)));
            }
        }
    }
    rows
}

/// Compares measured rows with recorded ones, printing the measured
/// table on any difference.
fn assert_rows_match(
    got: &[(&'static str, &'static str, &'static str, u64)],
    want: &[(&str, &str, &str, u64)],
) {
    let bad: Vec<String> = got
        .iter()
        .zip(want)
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
        bad.is_empty() && got.len() == want.len(),
        "{} of {} recorded outputs changed bits:\n{}\nmeasured table:\n{}",
        bad.len(),
        want.len(),
        bad.join("\n"),
        table.join("\n")
    );
}

#[test]
fn block_kernels_match_recorded_bits() {
    assert_rows_match(&measured(), &GOLDEN);
}

#[test]
fn solve_one_lp_paths_match_recorded_bits() {
    assert_rows_match(&measured_lp(), &LP_GOLDEN);
}
